"""T16 code generation for mini-C.

Strategy (deliberately simple and fully deterministic — WCET analysability
matters more than code quality, and simulator and analyser share the same
timing model either way):

* expression evaluation uses a register stack: the value at depth *d* lives
  in register ``r<d>`` (depths 0..5); ``r6``/``r7`` are scratch for
  addresses and wide immediates;
* locals and parameters live in 4-byte stack slots addressed sp-relative;
* around calls, live expression registers are spilled to dedicated slots;
* every function gets a literal pool after its code (PC-relative loads),
  holding large constants and addresses of linker-placed globals
  (:class:`~repro.isa.assembler.WordRef` entries);
* each global load/store is tagged with an
  :class:`~repro.link.objects.AccessNote` and each loop header with its
  back-edge bound — the raw material for the automated WCET annotations;
* each call is tagged with a :class:`~repro.link.objects.CallNote`
  naming the array every pointer argument is bound to.

Calling convention: the first four arguments in r0..r3, further arguments
in the caller's outgoing-argument area at the bottom of its frame (the
callee reads them above its own frame), result in r0, all of r0-r7
caller-saved, lr pushed in the prologue, return via ``pop {pc}``.

Frame layout, sp-relative after the prologue::

    [outgoing args][param+local slots][call-spill slots]   <- sp grows down
"""

from __future__ import annotations

from ..isa import instruction as ins
from ..isa.assembler import Align, Data, Label, WordRef
from ..isa.opcodes import Cond, Op
from ..link.objects import AccessNote, CallNote, FunctionCode
from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    Cast,
    Continue,
    DoWhile,
    ExprStmt,
    For,
    If,
    Index,
    IntLit,
    LocalDecl,
    Return,
    Ternary,
    Unary,
    VarRef,
    While,
)
from .sema import BUILTINS, DIV_RUNTIME, GlobalSym, LocalSym, SemaError
from .types import CHAR, SHORT, ArrayType, PointerType, ScalarType

MAX_DEPTH = 6
ADDR_SCRATCH = 6
AUX_SCRATCH = 7

_SIGNED_CONDS = {"<": Cond.LT, "<=": Cond.LE, ">": Cond.GT, ">=": Cond.GE}
_UNSIGNED_CONDS = {"<": Cond.LO, "<=": Cond.LS, ">": Cond.HI, ">=": Cond.HS}
_EQ_CONDS = {"==": Cond.EQ, "!=": Cond.NE}
_INVERSE = {
    Cond.EQ: Cond.NE, Cond.NE: Cond.EQ, Cond.LT: Cond.GE, Cond.GE: Cond.LT,
    Cond.LE: Cond.GT, Cond.GT: Cond.LE, Cond.LO: Cond.HS, Cond.HS: Cond.LO,
    Cond.LS: Cond.HI, Cond.HI: Cond.LS, Cond.MI: Cond.PL, Cond.PL: Cond.MI,
    Cond.VS: Cond.VC, Cond.VC: Cond.VS,
}


class CodegenError(Exception):
    pass


class FunctionCodegen:
    """Generates one :class:`FunctionCode` from an analyzed FuncDecl."""

    def __init__(self, analyzer, info):
        self.analyzer = analyzer
        self.info = info
        self.func = info.decl
        self.items = []
        self.loop_bounds = {}
        self.loop_totals = {}
        self._label_counter = 0
        # Literal pools are dumped mid-function when the 1020-byte
        # pc-relative range would otherwise be exceeded (pool entries are
        # forward references in T16, as in THUMB).
        self._pool = {}        # key -> label (current segment only)
        self._pool_items = []  # (label, item) pending for the next dump
        self._pool_counter = 0
        self._pool_first_use = None
        self._bytes = 0        # conservative running code size
        self._slots = {}       # LocalSym -> slot index
        self._spill_base = 0   # first spill slot (after locals)
        self._max_spill = 0
        #: words reserved at the frame bottom for stack-passed arguments
        self._out_words = max(0, info.max_call_args - 4)
        self._loop_stack = []  # (break_label, continue_label)
        self._ret_label = self._new_label()

    # -- small helpers ---------------------------------------------------------

    def emit(self, instr):
        self.items.append(instr)
        self._bytes += instr.size

    def place(self, name):
        self.items.append(Label(name))

    def _new_label(self):
        self._label_counter += 1
        return f".L{self.func.name}_{self._label_counter}"

    def _slot_of(self, symbol: LocalSym) -> int:
        if symbol not in self._slots:
            self._slots[symbol] = len(self._slots)
        return self._slots[symbol]

    def _slot_offset(self, symbol: LocalSym) -> int:
        offset = 4 * (self._out_words + self._slot_of(symbol))
        if offset > 1020:
            raise CodegenError(
                f"{self.func.name}: frame too large (>1020 bytes)")
        return offset

    def _spill_offset(self, index: int) -> int:
        self._max_spill = max(self._max_spill, index + 1)
        return 4 * (self._out_words + self._spill_base + index)

    def _out_arg_offset(self, arg_index: int) -> int:
        """sp-relative slot for stack-passed argument *arg_index* (>= 4)."""
        return 4 * (arg_index - 4)

    def _pool_label(self, key, item_factory):
        if key not in self._pool:
            label = f".L{self.func.name}_P{self._pool_counter}"
            self._pool_counter += 1
            self._pool[key] = label
            self._pool_items.append((label, item_factory()))
        if self._pool_first_use is None:
            self._pool_first_use = self._bytes
        return self._pool[key]

    def _append_pool_entries(self):
        self.items.append(Align(4))
        self._bytes += 2
        for label, item in self._pool_items:
            self.place(label)
            self.items.append(item)
            self._bytes += 4 if isinstance(item, WordRef) else \
                len(item.payload)
        self._pool = {}
        self._pool_items = []
        self._pool_first_use = None

    def maybe_dump_pool(self, margin=250):
        """Dump pending literals if the pc-relative range is at risk.

        Called between statements; *margin* covers the worst single
        statement emitted before the next opportunity.
        """
        if not self._pool_items or self._pool_first_use is None:
            return
        if self._bytes - self._pool_first_use < 1020 - margin - \
                8 * len(self._pool_items):
            return
        label_skip = self._new_label()
        self.emit(ins.b(label_skip))
        self._append_pool_entries()
        self.place(label_skip)

    def _load_address(self, reg, symbol, addend=0):
        """reg = &symbol + addend via the literal pool."""
        label = self._pool_label(
            ("a", symbol, addend), lambda: WordRef(symbol, addend))
        self.emit(ins.ldr_pc(reg, target=label))

    def _load_const(self, reg, value):
        value &= 0xFFFFFFFF
        if value <= 255:
            self.emit(ins.movi(reg, value))
            return
        negated = (-value) & 0xFFFFFFFF
        if negated <= 255:
            self.emit(ins.movi(reg, negated))
            self.emit(ins.alu(Op.NEG, reg, reg))
            return
        if value <= 0xFFFF:
            # Synthesise 16-bit constants (2-3 instructions, no pool
            # pressure): hi8 << 8 | lo8.
            self.emit(ins.movi(reg, value >> 8))
            self.emit(ins.shift_i(Op.LSLI, reg, reg, 8))
            if value & 0xFF:
                self.emit(ins.addi(reg, value & 0xFF))
            return
        if negated <= 0xFFFF:
            self._load_const(reg, negated)
            self.emit(ins.alu(Op.NEG, reg, reg))
            return
        label = self._pool_label(
            ("c", value),
            lambda: Data(value.to_bytes(4, "little"), align=4))
        self.emit(ins.ldr_pc(reg, target=label))

    # -- typed memory access helpers ----------------------------------------------

    def _elem_note(self, base: VarRef, const_index=None):
        """AccessNote for an access through *base* (array or pointer)."""
        symbol = base.symbol
        if isinstance(symbol, GlobalSym):
            if isinstance(symbol.type, ArrayType):
                width = symbol.type.elem.width
                if const_index is not None:
                    return AccessNote.exact(
                        symbol.name, const_index * width, width)
                return AccessNote.whole_object(
                    symbol.name, symbol.type.byte_size)
            return AccessNote.exact(symbol.name, 0, symbol.type.width)
        # Pointer parameter: consult points-to.
        index = self._param_index(symbol)
        targets = self.analyzer.points_to.get((self.func.name, index),
                                              frozenset())
        entries = []
        for name in sorted(targets):
            gsym = self.analyzer.globals[name]
            size = (gsym.type.byte_size
                    if isinstance(gsym.type, ArrayType) else gsym.type.width)
            entries.append((name, 0, size))
        if entries:
            return AccessNote.through(index, entries)
        return AccessNote.unknown()

    def _param_index(self, symbol):
        for index, param in enumerate(self.func.params):
            if param.symbol is symbol:
                return index
        return None

    def _scale_index(self, reg, width):
        if width == 2:
            self.emit(ins.shift_i(Op.LSLI, reg, reg, 1))
        elif width == 4:
            self.emit(ins.shift_i(Op.LSLI, reg, reg, 2))

    def _emit_load(self, rd, base_reg, elem: ScalarType, offset=None,
                   index_reg=None, note=None):
        """rd = load elem-typed value from base_reg + offset/index_reg.

        Immediate offsets must be <= 255 (larger ones are materialised by
        the caller); offsets beyond the imm5 encoding range, and all signed
        sub-word loads (T16 has no immediate-offset signed loads), go
        through the aux scratch register.
        """
        width = elem.width
        signed = elem.signed and width < 4
        if index_reg is None:
            assert offset is not None and 0 <= offset <= 255
            if signed or offset > 31 * width:
                self.emit(ins.movi(AUX_SCRATCH, offset))
                index_reg = AUX_SCRATCH
            else:
                op = {4: Op.LDRWI, 2: Op.LDRHI, 1: Op.LDRBI}[width]
                instr = ins.mem_i(op, rd, base_reg, offset)
                instr.note = note
                self.emit(instr)
                return
        if signed:
            op = Op.LDRSH_R if width == 2 else Op.LDRSB_R
        else:
            op = {4: Op.LDRW_R, 2: Op.LDRH_R, 1: Op.LDRB_R}[width]
        instr = ins.mem_r(op, rd, base_reg, index_reg)
        instr.note = note
        self.emit(instr)

    def _emit_store(self, rd, base_reg, elem: ScalarType, offset=None,
                    index_reg=None, note=None):
        width = elem.width
        if index_reg is None:
            assert offset is not None and 0 <= offset <= 255
            if offset > 31 * width:
                self.emit(ins.movi(AUX_SCRATCH, offset))
                index_reg = AUX_SCRATCH
            else:
                op = {4: Op.STRWI, 2: Op.STRHI, 1: Op.STRBI}[width]
                instr = ins.mem_i(op, rd, base_reg, offset)
                instr.note = note
                self.emit(instr)
                return
        op = {4: Op.STRW_R, 2: Op.STRH_R, 1: Op.STRB_R}[width]
        instr = ins.mem_r(op, rd, base_reg, index_reg)
        instr.note = note
        self.emit(instr)

    # -- expressions -----------------------------------------------------------------

    def _check_depth(self, depth):
        if depth >= MAX_DEPTH:
            raise CodegenError(
                f"{self.func.name}: expression too deep "
                f"(> {MAX_DEPTH} registers); split the statement")

    def gen_expr(self, expr, depth, used=True):
        """Evaluate *expr* into register *depth*."""
        self._check_depth(depth)

        if isinstance(expr, IntLit):
            self._load_const(depth, expr.value)
            return

        if isinstance(expr, VarRef):
            symbol = expr.symbol
            if isinstance(symbol, LocalSym):
                if isinstance(symbol.type, ArrayType):
                    raise CodegenError("array value outside call/index")
                self.emit(ins.ldr_sp(depth, self._slot_offset(symbol)))
                return
            # Global.
            if isinstance(symbol.type, ArrayType):
                self._load_address(depth, symbol.name)  # decay
                return
            self._load_address(ADDR_SCRATCH, symbol.name)
            self._emit_load(depth, ADDR_SCRATCH, symbol.type, offset=0,
                            note=AccessNote.exact(symbol.name, 0,
                                                  symbol.type.width))
            return

        if isinstance(expr, Index):
            self._gen_index_load(expr, depth)
            return

        if isinstance(expr, Call):
            self._gen_call(expr, depth)
            return

        if isinstance(expr, Unary):
            if expr.op == "!":
                self.gen_expr(expr.operand, depth)
                self.emit(ins.cmpi(depth, 0))
                self._materialize(Cond.EQ, depth)
                return
            self.gen_expr(expr.operand, depth)
            if expr.op == "-":
                self.emit(ins.alu(Op.NEG, depth, depth))
            elif expr.op == "~":
                self.emit(ins.alu(Op.MVN, depth, depth))
            return

        if isinstance(expr, Binary):
            self._gen_binary(expr, depth)
            return

        if isinstance(expr, Assign):
            self._gen_assign(expr, depth, used)
            return

        if isinstance(expr, Ternary):
            label_else = self._new_label()
            label_end = self._new_label()
            self.gen_branch(expr.cond, label_else, when_true=False,
                            depth=depth)
            self.gen_expr(expr.then, depth)
            self.emit(ins.b(label_end))
            self.place(label_else)
            self.gen_expr(expr.other, depth)
            self.place(label_end)
            return

        if isinstance(expr, Cast):
            self.gen_expr(expr.operand, depth)
            if expr.to is CHAR:
                self.emit(ins.movi(AUX_SCRATCH, 255))
                self.emit(ins.alu(Op.AND, depth, AUX_SCRATCH))
            elif expr.to is SHORT:
                self.emit(ins.shift_i(Op.LSLI, depth, depth, 16))
                self.emit(ins.shift_i(Op.ASRI, depth, depth, 16))
            # int/unsigned casts are bit-identical in registers.
            return

        raise CodegenError(f"cannot generate {type(expr).__name__}")

    def _gen_index_load(self, expr: Index, depth):
        base = expr.base
        elem = expr.type
        note = None
        if isinstance(expr.index, IntLit):
            const_index = expr.index.value
            note = self._elem_note(base, const_index)
            offset = const_index * elem.width
            self._gen_base_address(base, ADDR_SCRATCH)
            if 0 <= offset <= 255:
                self._emit_load(depth, ADDR_SCRATCH, elem, offset=offset,
                                note=note)
            else:
                self._load_const(depth, offset)
                self._emit_load(depth, ADDR_SCRATCH, elem, index_reg=depth,
                                note=note)
            return
        note = self._elem_note(base)
        self.gen_expr(expr.index, depth)
        self._scale_index(depth, elem.width)
        self._gen_base_address(base, ADDR_SCRATCH)
        self._emit_load(depth, ADDR_SCRATCH, elem, index_reg=depth,
                        note=note)

    def _gen_base_address(self, base: VarRef, reg):
        symbol = base.symbol
        if isinstance(symbol, GlobalSym):
            self._load_address(reg, symbol.name)
        else:  # pointer parameter in a stack slot
            self.emit(ins.ldr_sp(reg, self._slot_offset(symbol)))

    def _gen_binary(self, expr: Binary, depth):
        op = expr.op
        if op in ("&&", "||"):
            label_true = self._new_label()
            label_end = self._new_label()
            self.gen_branch(expr, label_true, when_true=True, depth=depth)
            self.emit(ins.movi(depth, 0))
            self.emit(ins.b(label_end))
            self.place(label_true)
            self.emit(ins.movi(depth, 1))
            self.place(label_end)
            return
        if op in ("<", "<=", ">", ">=", "==", "!="):
            self.gen_expr(expr.left, depth)
            self.gen_expr(expr.right, depth + 1)
            self.emit(ins.alu(Op.CMP, depth, depth + 1))
            self._materialize(self._cond_for(expr), depth)
            return
        if op in ("/", "%"):
            name = DIV_RUNTIME[(expr.signed, op)]
            call = Call(line=expr.line, name=name,
                        args=[expr.left, expr.right])
            self._gen_call_named(name, call.args, depth)
            return
        self.gen_expr(expr.left, depth)
        # Constant right operands use immediate forms where available.
        right = expr.right
        if isinstance(right, IntLit) and op in ("+", "-") and \
                0 <= right.value <= 255:
            factory = ins.addi if op == "+" else ins.subi
            self.emit(factory(depth, right.value))
            return
        if isinstance(right, IntLit) and op in ("<<", ">>") and \
                0 <= right.value <= 31:
            if op == "<<":
                self.emit(ins.shift_i(Op.LSLI, depth, depth, right.value))
            elif expr.signed:
                self.emit(ins.shift_i(Op.ASRI, depth, depth, right.value))
            else:
                self.emit(ins.shift_i(Op.LSRI, depth, depth, right.value))
            return
        self.gen_expr(right, depth + 1)
        if op == "+":
            self.emit(ins.add_r(depth, depth, depth + 1))
        elif op == "-":
            self.emit(ins.sub_r(depth, depth, depth + 1))
        elif op == "*":
            self.emit(ins.alu(Op.MUL, depth, depth + 1))
        elif op == "&":
            self.emit(ins.alu(Op.AND, depth, depth + 1))
        elif op == "|":
            self.emit(ins.alu(Op.ORR, depth, depth + 1))
        elif op == "^":
            self.emit(ins.alu(Op.EOR, depth, depth + 1))
        elif op == "<<":
            self.emit(ins.alu(Op.LSL, depth, depth + 1))
        elif op == ">>":
            shift_op = Op.ASR if expr.signed else Op.LSR
            self.emit(ins.alu(shift_op, depth, depth + 1))
        else:
            raise CodegenError(f"unknown binary op {op!r}")

    def _cond_for(self, expr: Binary) -> Cond:
        if expr.op in _EQ_CONDS:
            return _EQ_CONDS[expr.op]
        table = _SIGNED_CONDS if expr.signed else _UNSIGNED_CONDS
        return table[expr.op]

    def _materialize(self, cond: Cond, depth):
        """depth = 1 if flags satisfy *cond* else 0."""
        label_true = self._new_label()
        label_end = self._new_label()
        self.emit(ins.bcc(cond, label_true))
        self.emit(ins.movi(depth, 0))
        self.emit(ins.b(label_end))
        self.place(label_true)
        self.emit(ins.movi(depth, 1))
        self.place(label_end)

    # -- assignment ----------------------------------------------------------------------

    def _gen_assign(self, expr: Assign, depth, used):
        target = expr.target
        self.gen_expr(expr.value, depth)
        if isinstance(target, VarRef):
            symbol = target.symbol
            if isinstance(symbol, LocalSym):
                self.emit(ins.str_sp(depth, self._slot_offset(symbol)))
            else:
                self._load_address(ADDR_SCRATCH, symbol.name)
                self._emit_store(
                    depth, ADDR_SCRATCH, symbol.type, offset=0,
                    note=AccessNote.exact(symbol.name, 0, symbol.type.width))
        else:  # Index
            elem = target.type
            base = target.base
            if isinstance(target.index, IntLit):
                const_index = target.index.value
                offset = const_index * elem.width
                note = self._elem_note(base, const_index)
                self._gen_base_address(base, ADDR_SCRATCH)
                if 0 <= offset <= 255:
                    self._emit_store(depth, ADDR_SCRATCH, elem,
                                     offset=offset, note=note)
                else:
                    self._load_const(depth + 1, offset)
                    self._emit_store(depth, ADDR_SCRATCH, elem,
                                     index_reg=depth + 1, note=note)
            else:
                note = self._elem_note(base)
                self.gen_expr(target.index, depth + 1)
                self._scale_index(depth + 1, elem.width)
                self._gen_base_address(base, ADDR_SCRATCH)
                self._emit_store(depth, ADDR_SCRATCH, elem,
                                 index_reg=depth + 1, note=note)
        if used and isinstance(expr.type, ScalarType):
            # The value of an assignment is the converted stored value.
            if expr.type is CHAR:
                self.emit(ins.movi(AUX_SCRATCH, 255))
                self.emit(ins.alu(Op.AND, depth, AUX_SCRATCH))
            elif expr.type is SHORT:
                self.emit(ins.shift_i(Op.LSLI, depth, depth, 16))
                self.emit(ins.shift_i(Op.ASRI, depth, depth, 16))

    # -- calls --------------------------------------------------------------------------

    def _gen_call(self, expr: Call, depth):
        if expr.name in BUILTINS:
            self._gen_builtin(expr, depth)
            return
        self._gen_call_named(expr.name, expr.args, depth)

    def _gen_call_named(self, name, args, depth):
        nargs = len(args)
        reg_args = min(nargs, 4)
        if depth + reg_args + (1 if nargs > 4 else 0) > MAX_DEPTH:
            raise CodegenError(
                f"{self.func.name}: call to {name} too deep in expression")
        # Register arguments stay live in depth..depth+3; stack arguments
        # are evaluated one by one into the next register and written to
        # the outgoing-argument area.
        for i in range(reg_args):
            self.gen_expr(args[i], depth + i)
        for i in range(4, nargs):
            self.gen_expr(args[i], depth + reg_args)
            self.emit(ins.str_sp(depth + reg_args,
                                 self._out_arg_offset(i)))
        # Spill live expression registers below the arguments.
        for reg in range(depth):
            self.emit(ins.str_sp(reg, self._spill_offset(reg)))
        # Shift register arguments down to r0..r3.
        if depth:
            for i in range(reg_args):
                self.emit(ins.movr(i, depth + i))
        call = ins.bl(name)
        call.note = self._call_note(name, args)
        self.emit(call)
        if depth:
            self.emit(ins.movr(depth, 0))
        for reg in range(depth):
            self.emit(ins.ldr_sp(reg, self._spill_offset(reg)))

    def _call_note(self, name, args) -> CallNote:
        """What each pointer argument of a call to *name* is bound to."""
        ptypes = self.analyzer.functions[name].param_types
        bindings = []
        for index, (arg, ptype) in enumerate(zip(args, ptypes)):
            if isinstance(ptype, PointerType):
                symbol = arg.symbol
                bindings.append((index, symbol.name
                                 if isinstance(symbol, GlobalSym)
                                 else self._param_index(symbol)))
        return CallNote(tuple(bindings))

    def _gen_builtin(self, expr: Call, depth):
        self.gen_expr(expr.args[0], depth)
        for reg in range(depth):
            self.emit(ins.str_sp(reg, self._spill_offset(reg)))
        if depth:
            self.emit(ins.movr(0, depth))
        number = 1 if expr.name == "__print_int" else 2
        self.emit(ins.swi(number))
        for reg in range(depth):
            self.emit(ins.ldr_sp(reg, self._spill_offset(reg)))

    # -- conditional branches ---------------------------------------------------------------

    def gen_branch(self, expr, target, when_true, depth=0):
        """Branch to *target* when *expr* is true (or false)."""
        self._check_depth(depth)
        if isinstance(expr, Unary) and expr.op == "!":
            self.gen_branch(expr.operand, target, not when_true, depth)
            return
        if isinstance(expr, Binary) and expr.op in ("&&", "||"):
            # Normalise to && by De Morgan when branching on falsehood.
            is_and = expr.op == "&&"
            if is_and == when_true:
                # (a && b) -> true  |  (a || b) -> false : both sides decide
                label_skip = self._new_label()
                self.gen_branch(expr.left, label_skip, not when_true, depth)
                self.gen_branch(expr.right, target, when_true, depth)
                self.place(label_skip)
            else:
                # (a && b) -> false |  (a || b) -> true : either side decides
                self.gen_branch(expr.left, target, when_true, depth)
                self.gen_branch(expr.right, target, when_true, depth)
            return
        if isinstance(expr, Binary) and expr.op in (
                "<", "<=", ">", ">=", "==", "!="):
            self.gen_expr(expr.left, depth)
            if isinstance(expr.right, IntLit) and \
                    0 <= expr.right.value <= 255:
                self.emit(ins.cmpi(depth, expr.right.value))
            else:
                self.gen_expr(expr.right, depth + 1)
                self.emit(ins.alu(Op.CMP, depth, depth + 1))
            cond = self._cond_for(expr)
            if not when_true:
                cond = _INVERSE[cond]
            self.emit(ins.bcc(cond, target))
            return
        if isinstance(expr, IntLit):
            truth = expr.value != 0
            if truth == when_true:
                self.emit(ins.b(target))
            return
        self.gen_expr(expr, depth)
        self.emit(ins.cmpi(depth, 0))
        self.emit(ins.bcc(Cond.NE if when_true else Cond.EQ, target))

    # -- statements ----------------------------------------------------------------------------

    def gen_stmt(self, stmt):
        if isinstance(stmt, Block):
            for child in stmt.body:
                self.gen_stmt(child)
                self.maybe_dump_pool()
        elif isinstance(stmt, ExprStmt):
            self.gen_expr(stmt.expr, 0, used=False)
        elif isinstance(stmt, LocalDecl):
            self._slot_of(stmt.symbol)  # reserve the slot deterministically
            if stmt.init is not None:
                self.gen_expr(stmt.init, 0)
                self.emit(ins.str_sp(0, self._slot_offset(stmt.symbol)))
        elif isinstance(stmt, If):
            label_end = self._new_label()
            if stmt.other is None:
                self.gen_branch(stmt.cond, label_end, when_true=False)
                self.gen_stmt(stmt.then)
                self.place(label_end)
            else:
                label_else = self._new_label()
                self.gen_branch(stmt.cond, label_else, when_true=False)
                self.gen_stmt(stmt.then)
                self.emit(ins.b(label_end))
                self.place(label_else)
                self.gen_stmt(stmt.other)
                self.place(label_end)
        elif isinstance(stmt, While):
            label_cond = self._new_label()
            label_end = self._new_label()
            self.place(label_cond)
            if stmt.bound is not None:
                self.loop_bounds[label_cond] = stmt.bound
            if stmt.bound_total is not None:
                self.loop_totals[label_cond] = stmt.bound_total
            self.gen_branch(stmt.cond, label_end, when_true=False)
            self._loop_stack.append((label_end, label_cond))
            self.gen_stmt(stmt.body)
            self._loop_stack.pop()
            self.emit(ins.b(label_cond))
            self.place(label_end)
        elif isinstance(stmt, DoWhile):
            label_body = self._new_label()
            label_cond = self._new_label()
            label_end = self._new_label()
            self.place(label_body)
            if stmt.bound is not None:
                self.loop_bounds[label_body] = stmt.bound
            if stmt.bound_total is not None:
                self.loop_totals[label_body] = stmt.bound_total
            self._loop_stack.append((label_end, label_cond))
            self.gen_stmt(stmt.body)
            self._loop_stack.pop()
            self.place(label_cond)
            self.gen_branch(stmt.cond, label_body, when_true=True)
            self.place(label_end)
        elif isinstance(stmt, For):
            label_cond = self._new_label()
            label_cont = self._new_label()
            label_end = self._new_label()
            if stmt.init is not None:
                self.gen_stmt(stmt.init)
            self.place(label_cond)
            if stmt.bound is not None:
                self.loop_bounds[label_cond] = stmt.bound
            if stmt.bound_total is not None:
                self.loop_totals[label_cond] = stmt.bound_total
            if stmt.cond is not None:
                self.gen_branch(stmt.cond, label_end, when_true=False)
            self._loop_stack.append((label_end, label_cont))
            self.gen_stmt(stmt.body)
            self._loop_stack.pop()
            self.place(label_cont)
            if stmt.update is not None:
                self.gen_expr(stmt.update, 0, used=False)
            self.emit(ins.b(label_cond))
            self.place(label_end)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                self.gen_expr(stmt.value, 0)
            self.emit(ins.b(self._ret_label))
        elif isinstance(stmt, Break):
            self.emit(ins.b(self._loop_stack[-1][0]))
        elif isinstance(stmt, Continue):
            self.emit(ins.b(self._loop_stack[-1][1]))
        else:
            raise CodegenError(f"cannot generate {type(stmt).__name__}")

    # -- whole function -----------------------------------------------------------------------

    def generate(self) -> FunctionCode:
        func = self.func
        # Reserve every local's slot up front (params first — they are
        # stored there by the prologue), then place the call-spill area
        # directly above, so spill offsets are stable during body
        # generation.
        for symbol in self.info.locals:
            self._slot_of(symbol)
        self._spill_base = len(self._slots)
        body_items_start = len(self.items)
        self.gen_stmt(func.body)
        body = self.items[body_items_start:]
        del self.items[body_items_start:]

        frame_words = self._out_words + len(self._slots) + self._max_spill
        frame_size = 4 * frame_words
        if frame_size > 1020:
            raise CodegenError(f"{func.name}: frame too large")

        prologue = [Label(func.name), ins.push((), lr=True)]
        for chunk_start in range(0, frame_size, 508):
            prologue.append(ins.sp_adjust(
                -min(508, frame_size - chunk_start)))
        for index, param in enumerate(func.params):
            slot = 4 * (self._out_words + self._slot_of(param.symbol))
            if index < 4:
                prologue.append(ins.str_sp(index, slot))
            else:
                # Stack-passed argument: it sits just above this frame
                # (frame + pushed lr) in the caller's outgoing area.
                incoming = frame_size + 4 + 4 * (index - 4)
                prologue.append(ins.ldr_sp(4, incoming))
                prologue.append(ins.str_sp(4, slot))

        epilogue_start = len(self.items)
        self.place(self._ret_label)
        for chunk_start in range(0, frame_size, 508):
            self.emit(ins.sp_adjust(min(508, frame_size - chunk_start)))
        self.emit(ins.pop((), pc=True))
        if self._pool_items:
            self._append_pool_entries()
        epilogue = self.items[epilogue_start:]
        del self.items[epilogue_start:]

        items = prologue + body + epilogue
        return FunctionCode(func.name, items, loop_bounds=self.loop_bounds,
                            loop_totals=self.loop_totals)
