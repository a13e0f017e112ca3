"""Semantic analysis for mini-C.

Responsibilities:

* symbol resolution (globals, functions, params, locals) and type checking;
* C-style integer promotion and signedness rules (drive the choice between
  signed/unsigned compares, shifts and division at codegen);
* constant folding and power-of-two strength reduction;
* **loop-bound analysis**: counted ``for`` loops with constant bounds are
  bounded automatically; other loops take a ``#pragma loopbound n``
  annotation.  The resulting *back-edge bounds* become the flow facts the
  WCET analyser's IPET stage consumes — exactly the division of labour the
  paper describes for aiT (automatic where possible, user annotation
  otherwise);
* marking functions that use ``/`` or ``%`` so the driver links the
  software division runtime;
* flagging programs whose results may depend on where the linker puts
  their objects (:attr:`Analyzer.observes_placement`): a pointer used
  as a scalar, or a value read before it is set (a conservative
  definite-assignment pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as ast
from .types import (
    INT,
    UNSIGNED,
    VOID,
    ArrayType,
    PointerType,
    ScalarType,
    common_signedness,
    is_scalar,
)


def _trunc_div(a: int, b: int) -> int:
    """C-style division truncating toward zero (Python's // floors)."""
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


class SemaError(Exception):
    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line else ""
        super().__init__(prefix + message)


@dataclass(eq=False)
class GlobalSym:
    name: str
    type: object
    const: bool = False
    init: object = None

    kind = "global"


@dataclass(eq=False)
class LocalSym:
    name: str
    type: object
    slot: int = -1          # assigned by codegen

    kind = "local"


@dataclass(eq=False)
class FuncSym:
    name: str
    ret_type: object
    param_types: list
    is_builtin: bool = False

    kind = "func"


BUILTINS = {
    "__print_int": FuncSym("__print_int", VOID, [INT], is_builtin=True),
    "__print_char": FuncSym("__print_char", VOID, [INT], is_builtin=True),
}

#: Names of the software-division runtime (auto-linked when used).
DIV_RUNTIME = {
    (True, "/"): "__divs", (True, "%"): "__mods",
    (False, "/"): "__divu", (False, "%"): "__modu",
}


def _meet(*states):
    """Locals assigned on every path into a join (None: no path)."""
    live = [state for state in states if state is not None]
    return frozenset.intersection(*live) if live else None


@dataclass
class FunctionInfo:
    """Sema output per function (consumed by codegen)."""

    decl: ast.FuncDecl
    symbol: FuncSym
    locals: list = field(default_factory=list)
    max_call_args: int = 0
    calls: set = field(default_factory=set)


class Analyzer:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.globals = {}
        self.functions = {}
        self.infos = {}
        self.uses_division = set()   # (signed, op) pairs used anywhere
        #: (func_name, param_index) -> frozenset of global array names the
        #: pointer parameter may reference (read-only "points-to lite";
        #: sound because pointers exist only as parameters in mini-C).
        self.points_to = {}
        self._pt_constraints = []    # (callee, index, source) tuples
        #: True when some pointer value is used as a scalar (returned,
        #: compared, computed with): the program can then observe where
        #: the linker placed an array, so a scratchpad placement may
        #: change what it computes.
        self.pointer_as_scalar = False
        #: True when some local may be read before it is assigned, or a
        #: value-returning function may run off its end: the program then
        #: reads whatever earlier code left in that stack slot or in r0 —
        #: a pointer parameter or a return address, say.  The frontend
        #: also sets it for a void entry, whose r0 becomes the exit code.
        self.reads_unset = False

    @property
    def observes_placement(self) -> bool:
        """Could moving objects between memories change the program's
        results?  False guarantees every value it computes is
        independent of where the linker puts its functions and globals.
        """
        return self.pointer_as_scalar or self.reads_unset

    # -- entry -----------------------------------------------------------------

    def run(self):
        for decl in self.unit.globals:
            if decl.name in self.globals:
                raise SemaError(f"duplicate global {decl.name!r}", decl.line)
            self._check_global_init(decl)
            self.globals[decl.name] = GlobalSym(
                decl.name, decl.type, decl.const, decl.init)
        for func in self.unit.functions:
            if func.name in self.functions or func.name in BUILTINS:
                raise SemaError(f"duplicate function {func.name!r}",
                                func.line)
            if func.name in self.globals:
                raise SemaError(
                    f"{func.name!r} is both a function and a global",
                    func.line)
            if len(func.params) > 8:
                raise SemaError(
                    f"{func.name!r}: more than 8 parameters", func.line)
            self.functions[func.name] = FuncSym(
                func.name, func.ret_type,
                [p.type for p in func.params])
        for func in self.unit.functions:
            self.infos[func.name] = self._analyze_function(func)
        self._solve_points_to()
        return self

    def _solve_points_to(self):
        """Fixpoint over call-site constraints for pointer parameters."""
        sets = {}
        for func in self.unit.functions:
            for index, param in enumerate(func.params):
                if isinstance(param.type, PointerType):
                    sets[(func.name, index)] = set()
        deps = []
        for callee, index, source in self._pt_constraints:
            key = (callee, index)
            if key not in sets:
                continue
            if source[0] == "g":
                sets[key].add(source[1])
            else:
                deps.append((key, (source[1], source[2])))
        changed = True
        while changed:
            changed = False
            for key, src_key in deps:
                before = len(sets[key])
                sets[key] |= sets.get(src_key, set())
                if len(sets[key]) != before:
                    changed = True
        self.points_to = {k: frozenset(v) for k, v in sets.items()}

    def _check_global_init(self, decl: ast.GlobalDecl):
        if isinstance(decl.type, ArrayType):
            if decl.init is not None:
                if not isinstance(decl.init, list):
                    raise SemaError(
                        f"array {decl.name!r} needs a brace initializer",
                        decl.line)
                if len(decl.init) > decl.type.size:
                    raise SemaError(
                        f"too many initializers for {decl.name!r}",
                        decl.line)
        elif decl.init is not None and not isinstance(decl.init, int):
            raise SemaError(f"bad initializer for {decl.name!r}", decl.line)
        if decl.const and decl.init is None:
            raise SemaError(f"const {decl.name!r} needs an initializer",
                            decl.line)

    # -- function bodies -----------------------------------------------------------

    def _analyze_function(self, func: ast.FuncDecl) -> FunctionInfo:
        info = FunctionInfo(decl=func, symbol=self.functions[func.name])
        scope = {}
        for param in func.params:
            if param.name in scope:
                raise SemaError(f"duplicate parameter {param.name!r}",
                                param.line)
            symbol = LocalSym(param.name, param.type)
            param.symbol = symbol
            scope[param.name] = symbol
            info.locals.append(symbol)
        self._stmt(func.body, func, info, [scope], in_loop=False)
        end = self._assigned_after(func.body, frozenset(scope.values()), [])
        if end is not None and func.ret_type is not VOID:
            self.reads_unset = True
        return info

    # -- statements ---------------------------------------------------------------------

    def _stmt(self, node, func, info, scopes, in_loop):
        if isinstance(node, ast.Block):
            scopes.append({})
            for child in node.body:
                self._stmt(child, func, info, scopes, in_loop)
            scopes.pop()
        elif isinstance(node, ast.LocalDecl):
            if isinstance(node.type, ScalarType) and node.type is VOID:
                raise SemaError("void variable", node.line)
            if isinstance(node.type, PointerType):
                raise SemaError(
                    "pointer locals are not supported; pass arrays as "
                    "parameters instead", node.line)
            if node.name in scopes[-1]:
                raise SemaError(f"redeclaration of {node.name!r}", node.line)
            symbol = LocalSym(node.name, node.type)
            node.symbol = symbol
            info.locals.append(symbol)
            if node.init is not None:
                node.init = self._expr(node.init, func, info, scopes)
                self._require_scalar_value(node.init, node.line)
            scopes[-1][node.name] = symbol
        elif isinstance(node, ast.ExprStmt):
            node.expr = self._expr(node.expr, func, info, scopes,
                                   statement=True)
        elif isinstance(node, ast.If):
            node.cond = self._expr(node.cond, func, info, scopes)
            self._require_scalar_value(node.cond, node.line)
            self._stmt(node.then, func, info, scopes, in_loop)
            if node.other is not None:
                self._stmt(node.other, func, info, scopes, in_loop)
        elif isinstance(node, ast.While):
            node.cond = self._expr(node.cond, func, info, scopes)
            self._require_scalar_value(node.cond, node.line)
            self._stmt(node.body, func, info, scopes, True)
            node.bound = node.pragma_bound
            node.bound_total = node.pragma_total
        elif isinstance(node, ast.DoWhile):
            self._stmt(node.body, func, info, scopes, True)
            node.cond = self._expr(node.cond, func, info, scopes)
            self._require_scalar_value(node.cond, node.line)
            if node.pragma_bound is not None:
                node.bound = max(node.pragma_bound - 1, 0)
            node.bound_total = node.pragma_total
        elif isinstance(node, ast.For):
            scopes.append({})
            if node.init is not None:
                self._stmt(node.init, func, info, scopes, in_loop)
            if node.cond is not None:
                node.cond = self._expr(node.cond, func, info, scopes)
                self._require_scalar_value(node.cond, node.line)
            if node.update is not None:
                node.update = self._expr(node.update, func, info, scopes,
                                         statement=True)
            self._stmt(node.body, func, info, scopes, True)
            node.bound = (node.pragma_bound if node.pragma_bound is not None
                          else self._auto_bound(node))
            node.bound_total = node.pragma_total
            scopes.pop()
        elif isinstance(node, ast.Return):
            if node.value is not None:
                if func.ret_type is VOID:
                    raise SemaError("void function returns a value",
                                    node.line)
                node.value = self._expr(node.value, func, info, scopes)
                self._require_scalar_value(node.value, node.line)
            elif func.ret_type is not VOID:
                raise SemaError("non-void function returns nothing",
                                node.line)
        elif isinstance(node, (ast.Break, ast.Continue)):
            if not in_loop:
                raise SemaError("break/continue outside a loop", node.line)
        else:
            raise SemaError(f"unknown statement {type(node).__name__}",
                            getattr(node, "line", 0))

    # -- definite assignment -----------------------------------------------------------
    #
    # A conservative flow pass over an analysed body: *done* is the set
    # of locals assigned on every path so far, None once no path reaches
    # the point (after return/break/continue).  A loop body may run zero
    # times, the right operand of && and || may not run, and a loop
    # whose condition is absent or a non-zero constant leaves only by
    # break.  Any read of a local outside *done* sets ``reads_unset``.

    def _assigned_after(self, node, done, loops):
        """Locals definitely assigned once statement *node* completes."""
        if done is None:
            return None
        if isinstance(node, ast.Block):
            for child in node.body:
                done = self._assigned_after(child, done, loops)
            return done
        if isinstance(node, ast.LocalDecl):
            if node.init is None:
                return done - {node.symbol}
            return self._assigned_in(node.init, done) | {node.symbol}
        if isinstance(node, ast.ExprStmt):
            return self._assigned_in(node.expr, done)
        if isinstance(node, ast.If):
            done = self._assigned_in(node.cond, done)
            then = self._assigned_after(node.then, done, loops)
            if node.other is None:
                return _meet(then, done)
            return _meet(then, self._assigned_after(node.other, done, loops))
        if isinstance(node, ast.Return):
            if node.value is not None:
                self._assigned_in(node.value, done)
            return None
        if isinstance(node, (ast.Break, ast.Continue)):
            loops[-1][isinstance(node, ast.Continue)].append(done)
            return None
        breaks, continues = [], []
        loops.append((breaks, continues))
        if isinstance(node, ast.DoWhile):
            body = self._assigned_after(node.body, done, loops)
            done = self._assigned_in(node.cond, _meet(body, *continues))
        else:
            if isinstance(node, ast.For) and node.init is not None:
                done = self._assigned_after(node.init, done, loops)
            if node.cond is not None:
                done = self._assigned_in(node.cond, done)
            body = self._assigned_after(node.body, done, loops)
            if isinstance(node, ast.For) and node.update is not None:
                self._assigned_in(node.update, _meet(body, *continues))
        loops.pop()
        if node.cond is None or (isinstance(node.cond, ast.IntLit)
                                 and node.cond.value):
            done = None
        return _meet(done, *breaks)

    def _assigned_in(self, expr, done):
        """Check the reads of *expr*; locals definitely assigned after it.

        Operands are checked against the locals assigned before the
        whole expression, whatever order they are evaluated in.
        """
        if done is None:
            return None
        if isinstance(expr, ast.VarRef):
            if isinstance(expr.symbol, LocalSym) and expr.symbol not in done:
                self.reads_unset = True
            return done
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||"):
            done = self._assigned_in(expr.left, done)
            self._assigned_in(expr.right, done)
            return done
        if isinstance(expr, ast.Ternary):
            done = self._assigned_in(expr.cond, done)
            return _meet(self._assigned_in(expr.then, done),
                         self._assigned_in(expr.other, done))
        if isinstance(expr, ast.Assign):
            parts = [expr.value]
            if isinstance(expr.target, ast.Index):
                parts.append(expr.target.index)
        elif isinstance(expr, ast.Binary):
            parts = [expr.left, expr.right]
        elif isinstance(expr, ast.Call):
            parts = expr.args
        elif isinstance(expr, ast.Index):
            parts = [expr.index]
        elif isinstance(expr, (ast.Unary, ast.Cast)):
            parts = [expr.operand]
        else:
            parts = []
        after = done.union(*(self._assigned_in(part, done) for part in parts))
        if isinstance(expr, ast.Assign) and isinstance(expr.target,
                                                       ast.VarRef):
            after |= {expr.target.symbol}
        return after

    # -- loop bound inference ----------------------------------------------------------

    def _auto_bound(self, node: ast.For):
        """Back-edge bound for a counted for loop, or None."""
        # init: i = c0
        init = node.init
        if isinstance(init, ast.LocalDecl) and isinstance(
                init.init, ast.IntLit):
            var = init.symbol
            start = init.init.value
        elif (isinstance(init, ast.ExprStmt)
              and isinstance(init.expr, ast.Assign)
              and isinstance(init.expr.target, ast.VarRef)
              and isinstance(init.expr.value, ast.IntLit)):
            var = init.expr.target.symbol
            start = init.expr.value.value
        else:
            return None
        # cond: i <op> c1
        cond = node.cond
        if not (isinstance(cond, ast.Binary)
                and cond.op in ("<", "<=", ">", ">=")
                and isinstance(cond.left, ast.VarRef)
                and cond.left.symbol is var
                and isinstance(cond.right, ast.IntLit)):
            return None
        limit = cond.right.value
        # update: i = i +/- step
        update = node.update
        if not (isinstance(update, ast.Assign)
                and isinstance(update.target, ast.VarRef)
                and update.target.symbol is var
                and isinstance(update.value, ast.Binary)
                and update.value.op in ("+", "-")
                and isinstance(update.value.left, ast.VarRef)
                and update.value.left.symbol is var
                and isinstance(update.value.right, ast.IntLit)):
            return None
        step = update.value.right.value
        if update.value.op == "-":
            step = -step
        if step == 0:
            return None
        if self._assigns_var(node.body, var):
            return None
        # Count iterations.
        if cond.op == "<" and step > 0:
            count = max(0, -(-(limit - start) // step))
        elif cond.op == "<=" and step > 0:
            count = max(0, (limit - start) // step + 1)
        elif cond.op == ">" and step < 0:
            count = max(0, -(-(start - limit) // -step))
        elif cond.op == ">=" and step < 0:
            count = max(0, (start - limit) // -step + 1)
        else:
            return None  # direction and step disagree: unbounded or 0
        return count

    @staticmethod
    def _param_index(func: ast.FuncDecl, symbol) -> int:
        for index, param in enumerate(func.params):
            if param.symbol is symbol:
                return index
        raise SemaError(f"internal: {symbol.name!r} is not a parameter",
                        func.line)

    def _assigns_var(self, node, var) -> bool:
        """Does any statement/expression under *node* assign to *var*?"""
        found = False

        def walk(n):
            nonlocal found
            if found or n is None or isinstance(n, (int, str, bool)):
                return
            if isinstance(n, ast.Assign):
                target = n.target
                if isinstance(target, ast.VarRef) and target.symbol is var:
                    found = True
                    return
            if isinstance(n, ast.Node):
                for name in vars(n):
                    value = getattr(n, name)
                    if isinstance(value, list):
                        for item in value:
                            walk(item)
                    elif isinstance(value, ast.Node):
                        walk(value)

        walk(node)
        return found

    # -- expressions ----------------------------------------------------------------------

    def _require_scalar_value(self, expr, line):
        etype = expr.type
        if isinstance(etype, PointerType):
            self.pointer_as_scalar = True
            return
        if isinstance(etype, ScalarType) and etype is not VOID:
            return
        raise SemaError(f"expected a scalar value, got {etype}", line)

    def _lookup(self, name, scopes, line):
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise SemaError(f"undeclared identifier {name!r}", line)

    def _expr(self, node, func, info, scopes, statement=False):
        if isinstance(node, ast.IntLit):
            node.unsigned = node.unsigned or node.value > 0x7FFFFFFF
            node.type = UNSIGNED if node.unsigned else INT
            if not -0x80000000 <= node.value <= 0xFFFFFFFF:
                raise SemaError(f"constant {node.value} out of 32-bit range",
                                node.line)
            return node

        if isinstance(node, ast.VarRef):
            symbol = self._lookup(node.name, scopes, node.line)
            if isinstance(symbol, FuncSym):
                raise SemaError(f"function {node.name!r} used as a value",
                                node.line)
            node.symbol = symbol
            node.type = symbol.type
            return node

        if isinstance(node, ast.Index):
            node.base = self._expr(node.base, func, info, scopes)
            node.index = self._expr(node.index, func, info, scopes)
            self._require_scalar_value(node.index, node.line)
            base_type = node.base.type
            if isinstance(base_type, ArrayType):
                node.type = base_type.elem
            elif isinstance(base_type, PointerType):
                node.type = base_type.elem
            else:
                raise SemaError("indexing a non-array", node.line)
            if not isinstance(node.base, ast.VarRef):
                raise SemaError("only simple arrays can be indexed",
                                node.line)
            return node

        if isinstance(node, ast.Call):
            symbol = BUILTINS.get(node.name) or self.functions.get(node.name)
            if symbol is None:
                raise SemaError(f"call to undefined function {node.name!r}",
                                node.line)
            if len(node.args) != len(symbol.param_types):
                raise SemaError(
                    f"{node.name!r} expects {len(symbol.param_types)} "
                    f"arguments, got {len(node.args)}", node.line)
            new_args = []
            for index, (arg, ptype) in enumerate(
                    zip(node.args, symbol.param_types)):
                arg = self._expr(arg, func, info, scopes)
                if isinstance(ptype, PointerType):
                    atype = arg.type
                    if not (isinstance(atype, (ArrayType, PointerType))
                            and atype.elem == ptype.elem):
                        raise SemaError(
                            f"argument type {atype} does not match "
                            f"parameter {ptype}", node.line)
                    if not isinstance(arg, ast.VarRef):
                        raise SemaError(
                            "array arguments must be simple names",
                            node.line)
                    if isinstance(arg.symbol, GlobalSym):
                        self._pt_constraints.append(
                            (node.name, index, ("g", arg.name)))
                    else:  # a pointer parameter of the caller
                        caller_index = self._param_index(func, arg.symbol)
                        self._pt_constraints.append(
                            (node.name, index,
                             ("p", func.name, caller_index)))
                else:
                    self._require_scalar_value(arg, node.line)
                new_args.append(arg)
            node.args = new_args
            node.type = symbol.ret_type
            info.max_call_args = max(info.max_call_args, len(node.args))
            info.calls.add(node.name)
            if symbol.ret_type is VOID and not statement:
                raise SemaError(f"void call {node.name!r} used as a value",
                                node.line)
            return node

        if isinstance(node, ast.Unary):
            node.operand = self._expr(node.operand, func, info, scopes)
            self._require_scalar_value(node.operand, node.line)
            node.type = INT
            folded = self._fold_unary(node)
            return folded

        if isinstance(node, ast.Binary):
            node.left = self._expr(node.left, func, info, scopes)
            node.right = self._expr(node.right, func, info, scopes)
            self._require_scalar_value(node.left, node.line)
            self._require_scalar_value(node.right, node.line)
            node.signed = common_signedness(node.left.type, node.right.type)
            if node.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||"):
                node.type = INT
            else:
                node.type = INT if node.signed else UNSIGNED
            if node.op == ">>":
                # Shift semantics follow the *left* operand only.
                left_type = node.left.type
                node.signed = (left_type.signed
                               if isinstance(left_type, ScalarType) else False)
            if node.op in ("/", "%"):
                self.uses_division.add((node.signed, node.op))
                info.calls.add(DIV_RUNTIME[(node.signed, node.op)])
                info.max_call_args = max(info.max_call_args, 2)
                func.uses_division = True
            folded = self._fold_binary(node)
            return folded

        if isinstance(node, ast.Assign):
            node.target = self._expr(node.target, func, info, scopes)
            if isinstance(node.target, ast.VarRef):
                if isinstance(node.target.symbol, GlobalSym) and \
                        node.target.symbol.const:
                    raise SemaError("assignment to const global", node.line)
                if isinstance(node.target.type, ArrayType):
                    raise SemaError("assignment to an array", node.line)
                if isinstance(node.target.type, PointerType):
                    raise SemaError(
                        "pointer parameters are read-only", node.line)
            elif isinstance(node.target, ast.Index):
                base_sym = node.target.base.symbol
                if isinstance(base_sym, GlobalSym) and base_sym.const:
                    raise SemaError("assignment into const array", node.line)
            else:
                raise SemaError("bad assignment target", node.line)
            node.value = self._expr(node.value, func, info, scopes)
            self._require_scalar_value(node.value, node.line)
            target_type = node.target.type
            node.type = target_type if is_scalar(target_type) else INT
            return node

        if isinstance(node, ast.Ternary):
            node.cond = self._expr(node.cond, func, info, scopes)
            node.then = self._expr(node.then, func, info, scopes)
            node.other = self._expr(node.other, func, info, scopes)
            for part in (node.cond, node.then, node.other):
                self._require_scalar_value(part, node.line)
            node.type = INT
            return node

        if isinstance(node, ast.Cast):
            node.operand = self._expr(node.operand, func, info, scopes)
            self._require_scalar_value(node.operand, node.line)
            if not isinstance(node.to, ScalarType) or node.to is VOID:
                raise SemaError(f"cannot cast to {node.to}", node.line)
            node.type = node.to
            return node

        raise SemaError(f"unknown expression {type(node).__name__}",
                        getattr(node, "line", 0))

    # -- folding -------------------------------------------------------------------------

    @staticmethod
    def _wrap32(value, signed):
        value &= 0xFFFFFFFF
        if signed and value & 0x80000000:
            value -= 1 << 32
        return value

    def _fold_unary(self, node: ast.Unary):
        operand = node.operand
        if not isinstance(operand, ast.IntLit):
            return node
        value = operand.value
        if node.op == "-":
            result = self._wrap32(-value, True)
        elif node.op == "~":
            result = self._wrap32(~value, True)
        else:  # '!'
            result = 0 if value else 1
        return ast.IntLit(line=node.line, value=result, type=INT)

    def _fold_binary(self, node: ast.Binary):
        left, right = node.left, node.right
        # Strength reduction: multiply by a power of two becomes a shift.
        if (node.op == "*" and isinstance(right, ast.IntLit)
                and right.value > 0
                and right.value & (right.value - 1) == 0):
            shift = right.value.bit_length() - 1
            if shift:
                return self._fold_binary(ast.Binary(
                    line=node.line, op="<<", left=left,
                    right=ast.IntLit(line=node.line, value=shift, type=INT),
                    type=node.type, signed=node.signed))
            return left
        if not (isinstance(left, ast.IntLit) and isinstance(right,
                                                            ast.IntLit)):
            return node
        a, b = left.value, right.value
        signed = node.signed
        op = node.op
        try:
            if op == "+":
                result = a + b
            elif op == "-":
                result = a - b
            elif op == "*":
                result = a * b
            elif op == "/":
                result = (_trunc_div(a, b) if signed
                          else (a & 0xFFFFFFFF) // (b & 0xFFFFFFFF))
            elif op == "%":
                result = (a - b * _trunc_div(a, b) if signed
                          else (a & 0xFFFFFFFF) % (b & 0xFFFFFFFF))
            elif op == "<<":
                result = a << (b & 31)
            elif op == ">>":
                if signed:
                    result = self._wrap32(a, True) >> (b & 31)
                else:
                    result = (a & 0xFFFFFFFF) >> (b & 31)
            elif op == "&":
                result = a & b
            elif op == "|":
                result = a | b
            elif op == "^":
                result = a ^ b
            elif op in ("<", "<=", ">", ">="):
                ua = a if signed else a & 0xFFFFFFFF
                ub = b if signed else b & 0xFFFFFFFF
                table = {"<": ua < ub, "<=": ua <= ub,
                         ">": ua > ub, ">=": ua >= ub}
                result = 1 if table[op] else 0
            elif op == "==":
                result = 1 if self._wrap32(a, False) == self._wrap32(
                    b, False) else 0
            elif op == "!=":
                result = 1 if self._wrap32(a, False) != self._wrap32(
                    b, False) else 0
            elif op == "&&":
                result = 1 if a and b else 0
            elif op == "||":
                result = 1 if a or b else 0
            else:
                return node
        except ZeroDivisionError:
            raise SemaError("constant division by zero", node.line) from None
        return ast.IntLit(line=node.line,
                          value=self._wrap32(result, signed),
                          unsigned=not signed, type=node.type)


def analyze(unit: ast.TranslationUnit) -> Analyzer:
    """Run semantic analysis over *unit*; returns the filled Analyzer."""
    return Analyzer(unit).run()
