"""Seeded mini-C workload generator with an exact reference evaluator.

The paper's experiments run over seven hand-ported benchmarks; the
soundness-fuzzing tier needs *thousands* of structurally diverse
programs.  This module grows the suite on demand: :func:`generate`
turns ``(seed, size)`` into a complete, self-checking mini-C program —
deterministically, so the same seed always yields the **byte-identical**
source and any failing seed reproduces from its number alone.

Every program is built as a little AST whose nodes know two things:
how to render themselves as mini-C, and how to evaluate themselves
under the exact 32-bit two's-complement semantics the compiler and the
execution engine implement (wrapping ``+ - * <<``, arithmetic ``>>``,
sign-/zero-extending short/char array elements).  Generation therefore
*predicts* the program's final checksum, console output and exit code,
and bakes the expectation into the program itself:

* the program folds every global, array and local into ``acc``, prints
  it, and exits **42** printing ``OK`` iff ``acc`` matches the
  generator's prediction — a miscompare in any layer (codegen, linker,
  engine, replay) turns into a wrong exit code, no oracle needed;
* termination is structural, never hoped for: loops are either counted
  canonical ``for`` loops (auto-bounded by the compiler) or
  ``#pragma loopbound``-annotated down-counting ``while`` loops whose
  counter the body never touches, and the call graph is acyclic
  (helper *i* only calls helpers *j > i*).  Every generated program is
  thus a valid WCET-analysis subject by construction.

Structural variety per seed: nested if/else on data, ``break`` /
``continue`` in counted loops, global scalar traffic, int/short/char
global-array reads and writes (all three access widths), a const
lookup table, helper calls that push stack frames (stack traffic), and
console output along the way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MASK32 = 0xFFFFFFFF
INT_MAX = 0x7FFFFFFF


def wrap32(value: int) -> int:
    """Reduce *value* to the signed 32-bit integer the engine computes."""
    value &= MASK32
    return value - 0x100000000 if value & 0x80000000 else value


class GenError(Exception):
    """Internal generator invariant broken (a bug in this module)."""


# -- evaluation signals -------------------------------------------------------

class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Machine:
    """Reference evaluator state: globals, arrays, frames, console."""

    #: Statement-execution fuse: generated programs run a few thousand
    #: statements; hitting this means the generator built a non-
    #: terminating program, which must never happen.
    FUEL = 2_000_000

    def __init__(self, scalars, arrays):
        self.globals = dict(scalars)
        self.arrays = {a.name: a.initial_cells() for a in arrays}
        self.frames = []
        self.console = []
        self.fuel = self.FUEL

    def tick(self):
        self.fuel -= 1
        if self.fuel <= 0:
            raise GenError("generated program exceeded the evaluation "
                           "fuse — non-termination bug in the generator")

    def load(self, name):
        frame = self.frames[-1]
        if name in frame:
            return frame[name]
        return self.globals[name]

    def store(self, name, value):
        frame = self.frames[-1]
        if name in frame:
            frame[name] = value
        elif name in self.globals:
            self.globals[name] = value
        else:
            raise GenError(f"store to undeclared name {name!r}")


# -- declarations -------------------------------------------------------------

@dataclass(frozen=True)
class ArrayDecl:
    """A global 1-D array; ``ctype`` fixes width and extension rules."""

    name: str
    ctype: str          # "int" | "short" | "char" | "const int"
    size: int           # power of two, so indices mask cleanly
    init: tuple = ()    # initializer list; empty means zero-filled

    @property
    def mask(self) -> int:
        return self.size - 1

    @property
    def writable(self) -> bool:
        return not self.ctype.startswith("const")

    def initial_cells(self):
        cells = [self._store_value(v) for v in self.init]
        cells.extend(0 for _ in range(self.size - len(cells)))
        return cells

    def _store_value(self, value):
        if self.ctype.endswith("int"):
            return wrap32(value)
        if self.ctype == "short":
            return value & 0xFFFF
        return value & 0xFF

    def load_cell(self, raw):
        if self.ctype.endswith("int"):
            return raw
        if self.ctype == "short":
            return raw - 0x10000 if raw & 0x8000 else raw
        return raw

    def render(self) -> str:
        if not self.init:
            return f"{self.ctype} {self.name}[{self.size}];"
        values = ", ".join(str(v) for v in self.init)
        return f"{self.ctype} {self.name}[{self.size}] = {{ {values} }};"


# -- expressions --------------------------------------------------------------

class Const:
    def __init__(self, value):
        self.value = value

    def render(self):
        return str(self.value)

    def eval(self, machine):
        return self.value


class Var:
    def __init__(self, name):
        self.name = name

    def render(self):
        return self.name

    def eval(self, machine):
        return machine.load(self.name)


class ArrayRead:
    """``name[(index) & mask]`` — masked, so always in bounds."""

    def __init__(self, decl: ArrayDecl, index):
        self.decl = decl
        self.index = index

    def render(self):
        return f"{self.decl.name}[{self.index.render()} & {self.decl.mask}]"

    def eval(self, machine):
        index = self.index.eval(machine) & self.decl.mask
        return self.decl.load_cell(machine.arrays[self.decl.name][index])


class Bin:
    """Wrapping arithmetic/bitwise binop; shifts take constant counts."""

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def render(self):
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def eval(self, machine):
        left = self.left.eval(machine)
        right = self.right.eval(machine)
        op = self.op
        if op == "+":
            return wrap32(left + right)
        if op == "-":
            return wrap32(left - right)
        if op == "*":
            return wrap32(left * right)
        if op == "&":
            return left & right
        if op == "|":
            return wrap32(left | right)
        if op == "^":
            return wrap32(left ^ right)
        if op == "<<":
            return wrap32(left << right)
        if op == ">>":
            return left >> right      # arithmetic: ASR on signed int
        raise GenError(f"unknown operator {op!r}")


class Cmp:
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def render(self):
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def eval(self, machine):
        left = self.left.eval(machine)
        right = self.right.eval(machine)
        return 1 if {
            "<": left < right, "<=": left <= right,
            ">": left > right, ">=": left >= right,
            "==": left == right, "!=": left != right,
        }[self.op] else 0


class CallExpr:
    def __init__(self, fn, args):
        self.fn = fn
        self.args = args

    def render(self):
        args = ", ".join(arg.render() for arg in self.args)
        return f"{self.fn.name}({args})"

    def eval(self, machine):
        values = [arg.eval(machine) for arg in self.args]
        return self.fn.call(machine, values)


# -- statements ---------------------------------------------------------------

class Assign:
    def __init__(self, name, expr):
        self.name = name
        self.expr = expr

    def emit(self, out, indent):
        out.append(f"{indent}{self.name} = {self.expr.render()};")

    def run(self, machine):
        machine.tick()
        machine.store(self.name, self.expr.eval(machine))


class ArrayWrite:
    def __init__(self, decl: ArrayDecl, index, expr):
        self.decl = decl
        self.index = index
        self.expr = expr

    def emit(self, out, indent):
        out.append(f"{indent}{self.decl.name}"
                   f"[{self.index.render()} & {self.decl.mask}]"
                   f" = {self.expr.render()};")

    def run(self, machine):
        machine.tick()
        index = self.index.eval(machine) & self.decl.mask
        value = self.expr.eval(machine)
        machine.arrays[self.decl.name][index] = \
            self.decl._store_value(value)


class PrintInt:
    def __init__(self, expr):
        self.expr = expr

    def emit(self, out, indent):
        out.append(f"{indent}__print_int({self.expr.render()});")

    def run(self, machine):
        machine.tick()
        machine.console.append(str(self.expr.eval(machine)))


class If:
    def __init__(self, cond, then, orelse=()):
        self.cond = cond
        self.then = list(then)
        self.orelse = list(orelse)

    def emit(self, out, indent):
        out.append(f"{indent}if ({self.cond.render()}) {{")
        for stmt in self.then:
            stmt.emit(out, indent + "    ")
        if self.orelse:
            out.append(f"{indent}}} else {{")
            for stmt in self.orelse:
                stmt.emit(out, indent + "    ")
        out.append(f"{indent}}}")

    def run(self, machine):
        machine.tick()
        branch = self.then if self.cond.eval(machine) else self.orelse
        for stmt in branch:
            stmt.run(machine)


class Break:
    def emit(self, out, indent):
        out.append(f"{indent}break;")

    def run(self, machine):
        machine.tick()
        raise _Break


class Continue:
    def emit(self, out, indent):
        out.append(f"{indent}continue;")

    def run(self, machine):
        machine.tick()
        raise _Continue


class For:
    """Canonical counted loop — the compiler derives the bound itself."""

    def __init__(self, var, count, body):
        self.var = var
        self.count = count
        self.body = list(body)

    def emit(self, out, indent):
        out.append(f"{indent}for ({self.var} = 0; "
                   f"{self.var} < {self.count}; {self.var}++) {{")
        for stmt in self.body:
            stmt.emit(out, indent + "    ")
        out.append(f"{indent}}}")

    def run(self, machine):
        machine.store(self.var, 0)
        while machine.load(self.var) < self.count:
            machine.tick()
            try:
                for stmt in self.body:
                    stmt.run(machine)
            except _Break:
                return
            except _Continue:
                pass          # for-increment still runs after continue
            machine.store(self.var,
                          wrap32(machine.load(self.var) + 1))


class BoundedWhile:
    """Pragma-bounded down-counting while; init <= bound keeps it sound.

    The trailing decrement is part of the construct and the body never
    writes (or ``continue``s past) the counter, so actual iterations
    equal the counter's initial value.
    """

    def __init__(self, var, bound, init, body):
        self.var = var
        self.bound = bound
        self.init = init
        self.body = list(body)

    def emit(self, out, indent):
        out.append(f"{indent}{self.var} = {self.init};")
        out.append(f"{indent}#pragma loopbound {self.bound}")
        out.append(f"{indent}while ({self.var} > 0) {{")
        for stmt in self.body:
            stmt.emit(out, indent + "    ")
        out.append(f"{indent}    {self.var} = {self.var} - 1;")
        out.append(f"{indent}}}")

    def run(self, machine):
        machine.store(self.var, self.init)
        while machine.load(self.var) > 0:
            machine.tick()
            try:
                for stmt in self.body:
                    stmt.run(machine)
            except _Break:
                return
            machine.store(self.var, machine.load(self.var) - 1)


class Return:
    def __init__(self, expr):
        self.expr = expr

    def emit(self, out, indent):
        out.append(f"{indent}return {self.expr.render()};")

    def run(self, machine):
        machine.tick()
        raise _Return(self.expr.eval(machine))


# -- functions ----------------------------------------------------------------

class Helper:
    """``int name(int a, int b)`` with its own locals and loops."""

    def __init__(self, name, params, local_inits, extra_locals, body, ret):
        self.name = name
        self.params = params
        self.local_inits = local_inits    # [(name, const value)]
        self.extra_locals = extra_locals  # loop vars / while counters
        self.body = body
        self.ret = ret

    def call(self, machine, values):
        frame = dict(zip(self.params, values))
        frame.update(self.local_inits)
        frame.update((name, 0) for name in self.extra_locals)
        machine.frames.append(frame)
        try:
            for stmt in self.body:
                stmt.run(machine)
            result = self.ret.eval(machine)
        except _Return as signal:
            result = signal.value
        finally:
            machine.frames.pop()
        return result

    def emit(self, out):
        params = ", ".join(f"int {p}" for p in self.params)
        out.append(f"int {self.name}({params}) {{")
        for name in self.extra_locals:
            out.append(f"    int {name};")
        for name, value in self.local_inits:
            out.append(f"    int {name} = {value};")
        for stmt in self.body:
            stmt.emit(out, "    ")
        Return(self.ret).emit(out, "    ")
        out.append("}")


# -- the generator ------------------------------------------------------------

#: Size profiles: (helpers, main statements, helper statements, max loop
#: nesting, loop trip range, (int, short, char) array sizes).
SIZE_PROFILES = {
    "small": dict(helpers=(1, 2), main_stmts=(4, 8),
                  helper_stmts=(2, 4), depth=2, trips=(2, 5),
                  array_sizes=(16, 16, 16), table=8),
    "medium": dict(helpers=(2, 3), main_stmts=(6, 12),
                   helper_stmts=(3, 5), depth=3, trips=(2, 7),
                   array_sizes=(32, 16, 16), table=16),
    "large": dict(helpers=(3, 4), main_stmts=(10, 16),
                  helper_stmts=(4, 7), depth=3, trips=(3, 9),
                  array_sizes=(64, 32, 32), table=16),
}

_BINOPS = ("+", "-", "*", "&", "|", "^")
_CMPS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass(frozen=True)
class GeneratedProgram:
    """A generated source plus the evaluator's predicted results."""

    seed: int
    size: str
    source: str
    expected_exit: int
    expected_console: tuple
    expected_checksum: int

    @property
    def name(self) -> str:
        return f"gen_{self.size}_{self.seed:06d}"


class _Generator:
    def __init__(self, seed, size):
        if size not in SIZE_PROFILES:
            raise ValueError(f"unknown size {size!r}; "
                             f"expected one of {sorted(SIZE_PROFILES)}")
        self.seed = seed
        self.size = size
        self.profile = SIZE_PROFILES[size]
        self.rng = random.Random(seed)
        # Per-function scope: loop variables and while down-counters the
        # current function's body has used (they become declarations).
        self.scope_loops = set()
        self.scope_whiles = []

    # -- building blocks ------------------------------------------------

    def _declare_data(self):
        rng = self.rng
        self.scalars = [(f"g{i}", rng.randrange(-500, 2000))
                        for i in range(rng.randint(2, 4))]
        ints, shorts, chars = self.profile["array_sizes"]
        self.arrays = [
            ArrayDecl("words", "int", ints),
            ArrayDecl("halves", "short", shorts),
            ArrayDecl("bytes", "char", chars),
            ArrayDecl("table", "const int", self.profile["table"],
                      tuple(rng.randrange(-300, 300)
                            for _ in range(self.profile["table"]))),
        ]
        self.const_table = self.arrays[-1]

    def expr(self, names, depth=0):
        rng = self.rng
        roll = rng.random()
        if depth >= 2 or roll < 0.25:
            if rng.random() < 0.5:
                return Const(rng.randrange(0, 256))
            return Var(rng.choice(names))
        if roll < 0.45:
            decl = rng.choice(self.arrays)
            return ArrayRead(decl, self.expr(names, depth + 1))
        if roll < 0.55:
            op = rng.choice(("<<", ">>"))
            return Bin(op, self.expr(names, depth + 1),
                       Const(rng.randrange(0, 8)))
        op = rng.choice(_BINOPS)
        return Bin(op, self.expr(names, depth + 1),
                   self.expr(names, depth + 1))

    def cond(self, names):
        rng = self.rng
        left = Bin("&", self.expr(names, 1), Const(255))
        return Cmp(rng.choice(_CMPS), left, Const(rng.randrange(0, 256)))

    def statement(self, depth, names, writable, *, in_for, helpers,
                  loop_prefix):
        rng = self.rng
        kinds = ["assign", "assign", "array"]
        if depth < self.profile["depth"]:
            kinds += ["if", "for", "while"]
        if helpers:
            kinds.append("call")
        if in_for and depth > 0:
            kinds.append("escape")
        if loop_prefix == "i":      # console output from main only
            kinds.append("print")
        kind = rng.choice(kinds)
        if kind == "assign":
            return Assign(rng.choice(writable), self.expr(names))
        if kind == "array":
            decl = rng.choice([a for a in self.arrays if a.writable])
            return ArrayWrite(decl, self.expr(names, 1),
                              self.expr(names))
        if kind == "print":
            return PrintInt(Bin("&", self.expr(names, 1), Const(255)))
        if kind == "call":
            fn = rng.choice(helpers)
            args = [self.expr(names, 1) for _ in fn.params]
            return Assign(rng.choice(writable), CallExpr(fn, args))
        if kind == "if":
            then = self.block(depth + 1, names, writable, in_for=in_for,
                              helpers=helpers, loop_prefix=loop_prefix,
                              count=rng.randint(1, 2))
            orelse = self.block(
                depth + 1, names, writable, in_for=in_for,
                helpers=helpers, loop_prefix=loop_prefix,
                count=rng.randint(0, 2))
            return If(self.cond(names), then, orelse)
        if kind == "escape":
            escape = Break() if rng.random() < 0.5 else Continue()
            return If(self.cond(names), [escape])
        trips = rng.randint(*self.profile["trips"])
        if kind == "for":
            var = f"{loop_prefix}{depth}"
            self.scope_loops.add(var)
        else:
            var = f"{loop_prefix}w{len(self.scope_whiles)}"
            self.scope_whiles.append(var)
        body = self.block(depth + 1, names + [var], writable,
                          in_for=(kind == "for"), helpers=helpers,
                          loop_prefix=loop_prefix,
                          count=rng.randint(1, 3))
        if kind == "for":
            return For(var, trips, body)
        return BoundedWhile(var, trips, rng.randint(0, trips), body)

    def block(self, depth, names, writable, *, in_for, helpers,
              loop_prefix, count):
        return [self.statement(depth, names, writable, in_for=in_for,
                               helpers=helpers, loop_prefix=loop_prefix)
                for _ in range(count)]

    def _make_helper(self, index, callable_helpers):
        rng = self.rng
        self.scope_loops, self.scope_whiles = set(), []
        params = [f"a{index}", f"b{index}"][:rng.randint(1, 2)]
        locals_ = [(f"t{index}_{i}", rng.randrange(0, 512))
                   for i in range(rng.randint(1, 2))]
        names = params + [name for name, _ in locals_] + \
            [name for name, _ in self.scalars]
        writable = [name for name, _ in locals_] + \
            [name for name, _ in self.scalars]
        body = self.block(
            1, names, writable, in_for=False, helpers=callable_helpers,
            loop_prefix=f"h{index}_", count=rng.randint(
                *self.profile["helper_stmts"]))
        ret = self.expr(names)
        extra = sorted(self.scope_loops) + self.scope_whiles
        return Helper(f"helper{index}", params, locals_, extra, body, ret)

    # -- assembly -------------------------------------------------------

    def build(self) -> GeneratedProgram:
        rng = self.rng
        self._declare_data()
        count = rng.randint(*self.profile["helpers"])
        helpers = []
        for index in reversed(range(count)):
            helpers.insert(0, self._make_helper(index, list(helpers)))
        self.scope_loops, self.scope_whiles = set(), []
        main_locals = [(f"v{i}", rng.randrange(-200, 1000))
                       for i in range(rng.randint(2, 4))]
        names = [name for name, _ in main_locals] + \
            [name for name, _ in self.scalars]
        writable = list(names)
        body = self.block(
            0, names, writable, in_for=False, helpers=helpers,
            loop_prefix="i", count=rng.randint(*self.profile["main_stmts"]))
        epilogue = self._fold_statements(main_locals)
        main_vars = sorted(self.scope_loops) + self.scope_whiles + \
            [f"fold_{a.name}" for a in self.arrays] + ["acc"]

        machine = _Machine(self.scalars, self.arrays)
        machine.frames.append(dict(main_locals) |
                              {var: 0 for var in main_vars})
        for stmt in body + epilogue:
            stmt.run(machine)
        checksum = machine.load("acc")
        console = tuple(machine.console) + (str(checksum), "O", "K")

        return GeneratedProgram(
            seed=self.seed, size=self.size,
            source=self._render(helpers, main_locals, main_vars, body,
                                epilogue, checksum),
            expected_exit=42, expected_console=console,
            expected_checksum=checksum)

    def _fold_statements(self, main_locals):
        """acc <- every array cell, scalar and local, order fixed."""
        fold = [Assign("acc", Const(self.rng.randrange(0, 1 << 16)))]
        for decl in self.arrays:
            var = f"fold_{decl.name}"
            mix = Bin("+", Bin("^", Bin("<<", Var("acc"), Const(1)),
                               ArrayRead(decl, Var(var))),
                      Const(13))
            fold.append(For(var, decl.size, [Assign("acc", mix)]))
        for name, _ in self.scalars + main_locals:
            fold.append(Assign("acc", Bin("^", Bin("*", Var("acc"),
                                                   Const(31)),
                                          Var(name))))
        fold.append(Assign("acc", Bin("&", Var("acc"), Const(INT_MAX))))
        return fold

    def _render(self, helpers, main_locals, main_vars, body, epilogue,
                checksum):
        out = [f"/* generated: seed={self.seed} size={self.size} "
               "(repro-gen) */", ""]
        for decl in self.arrays:
            out.append(decl.render())
        for name, value in self.scalars:
            out.append(f"int {name} = {value};")
        out.append("")
        for helper in helpers:
            helper.emit(out)
            out.append("")
        out.append("int main(void) {")
        for var in main_vars:
            out.append(f"    int {var};")
        for name, value in main_locals:
            out.append(f"    int {name} = {value};")
        for stmt in body:
            stmt.emit(out, "    ")
        for stmt in epilogue:
            stmt.emit(out, "    ")
        out.append("    __print_int(acc);")
        out.append(f"    if (acc == {checksum}) {{")
        out.append("        __print_char(79);")
        out.append("        __print_char(75);")
        out.append("        return 42;")
        out.append("    }")
        out.append("    return 1;")
        out.append("}")
        return "\n".join(out) + "\n"


def generate(seed: int, size: str = "small") -> GeneratedProgram:
    """The deterministic program for ``(seed, size)``."""
    return _Generator(seed, size).build()


def write_corpus(directory, seeds, size: str = "small"):
    """Write one ``.mc`` file per seed into *directory*; returns paths."""
    import os
    os.makedirs(directory, exist_ok=True)
    paths = []
    for seed in seeds:
        program = generate(seed, size)
        path = os.path.join(directory, program.name + ".mc")
        with open(path, "w") as handle:
            handle.write(program.source)
        paths.append(path)
    return paths
