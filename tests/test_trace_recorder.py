"""The block recorder against the recording oracle's packed stream.

``record_trace`` executes straight-line blocks, appends one block id per
execution and expands the fetches from per-block templates after the
run.  The recording interpreter in ``tests/oracles`` emits every access
as it makes it.  The two must agree word for word, and on the per-tag
counts, the memory-independent cycles, the instruction count, the exit
code and the console; a step budget, a fault or an escaped pc must end
a recording exactly where it ends an instruction-at-a-time run.
"""

import re

import numpy as np
import pytest

from repro.benchmarks import BENCHMARKS
from repro.gen import generate
from repro.isa import Label
from repro.isa import instruction as ins
from repro.isa.assembler import Align, Data
from repro.isa.opcodes import Cond, Op
from repro.link import FunctionCode, Program, link
from repro.memory import SystemConfig
from repro.memory.timing import BRANCH_REFILL_CYCLES
from repro.minic import compile_source
from repro.sim import MemoryFault, SimError, record_trace, simulate
from repro.sim.kernels import ops_view
from repro.sim.trace import COUNTERS

from .oracles import record
from .test_sim_fastpath import RECORDING_SHAPES, SPM_SIZE, _image, oracle_run


def _first_mismatch(ops, expected):
    """Index of the first word where two packed streams differ, or None."""
    ours, theirs = ops_view(ops), ops_view(expected)
    common = min(len(ours), len(theirs))
    differ = np.flatnonzero(ours[:common] != theirs[:common])
    if len(differ):
        return int(differ[0])
    return None if len(ours) == len(theirs) else common


def assert_records_like_oracle(trace, recorded):
    assert _first_mismatch(trace.ops, recorded.ops) is None
    tags = np.bincount((ops_view(recorded.ops) & 7).astype(np.uint8),
                       minlength=8)
    assert trace.op_counts == tuple(int(count) for count in tags)
    assert trace.spm_counts == recorded.spm_counts
    assert trace.base_cycles == recorded.base_cycles
    assert trace.instructions == recorded.instructions
    assert trace.exit_code == recorded.exit_code
    assert list(trace.console) == recorded.console


def _recording_config(spm_size):
    return (SystemConfig.scratchpad(spm_size) if spm_size
            else SystemConfig.uncached())


def _check(image, spm_size=0):
    trace = record_trace(image, spm_size)
    assert_records_like_oracle(
        trace, record(image, _recording_config(spm_size)))
    return trace


# -- the suite, generated programs and step budgets -----------------------------

@pytest.mark.parametrize("shape", RECORDING_SHAPES)
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_suite_matches_oracle(bench, shape):
    spm = shape == "spm"
    trace = record_trace(_image(bench, spm), SPM_SIZE if spm else 0)
    assert_records_like_oracle(trace, oracle_run(bench, shape))
    if spm:
        assert sum(trace.spm_counts) > 0


@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_step_budgets_cut_where_execution_does(bench):
    image = _image(bench, False)
    full = record_trace(image, 0)
    steps = full.instructions
    exact = record_trace(image, 0, max_steps=steps)
    assert bytes(exact.ops) == bytes(full.ops)
    for name in ("op_counts", "spm_counts", "base_cycles", "instructions",
                 "exit_code", "console"):
        assert getattr(exact, name) == getattr(full, name), name
    for budget in (steps - 1, 7):
        message = f"exceeded {budget} steps (runaway program?)"
        with pytest.raises(SimError, match=re.escape(message)):
            record_trace(image, 0, max_steps=budget)


@pytest.mark.parametrize("size", ("small", "medium"))
@pytest.mark.parametrize("seed", range(12))
def test_generated_program_matches_oracle(seed, size):
    program = generate(seed, size)
    _check(link(compile_source(program.source).program))


def test_record_blocks_counts_block_executions():
    before = COUNTERS["record_blocks"]
    trace = record_trace(_image("crc", False), 0)
    blocks = COUNTERS["record_blocks"] - before
    assert 0 < blocks < trace.instructions


# -- hand-built edge cases --------------------------------------------------------

def _link(start_items, **functions):
    code = [FunctionCode("_start", [Label("_start")] + start_items)]
    code += [FunctionCode(name, [Label(name)] + items)
             for name, items in functions.items()]
    return link(Program(functions=code, globals=[]))


def _errors(image, max_steps=50_000_000):
    """The exception each of simulate, record_trace and the oracle
    raises, as ``(type, message)``."""
    raised = []
    for run in (lambda: simulate(image, SystemConfig.uncached(), max_steps),
                lambda: record_trace(image, 0, max_steps),
                lambda: record(image, SystemConfig.uncached(), max_steps)):
        with pytest.raises(SimError) as error:
            run()
        raised.append((type(error.value), str(error.value)))
    return raised


def test_call_ends_a_block_and_stack_transfers_match():
    # BL ends its block; the callee pushes and pops lr into pc; SWI 1
    # and SWI 2 print in mid-block.
    image = _link(
        [ins.movi(0, 5), ins.bl("twice"), ins.swi(1), ins.movi(0, 65),
         ins.swi(2), ins.movi(0, 3), ins.swi(0)],
        twice=[ins.push([4, 5], lr=True), ins.movi(4, 0),
               ins.add_r(0, 0, 0), ins.pop([4, 5], pc=True)])
    trace = _check(image)
    assert trace.console == ("10", "A")
    assert trace.exit_code == 3
    assert any(word & 7 == 7 for word in trace.ops)


@pytest.mark.parametrize("value", (0, 1))
def test_branch_to_the_next_instruction(value):
    # Taken or not, the next pc is the same: only base_cycles differs.
    def image(flag):
        return _link([ins.movi(0, flag), ins.cmpi(0, 0),
                      ins.bcc(Cond.EQ, "next"), Label("next"),
                      ins.movi(0, 9), ins.swi(0)])

    trace = _check(image(value))
    other = record_trace(image(1 - value), 0)
    assert bytes(trace.ops) == bytes(other.ops)
    taken = BRANCH_REFILL_CYCLES if value == 0 else -BRANCH_REFILL_CYCLES
    assert trace.base_cycles - other.base_cycles == taken


def test_fault_before_the_budget_runs_out_wins():
    # The budget of 3 runs out inside the block, after the unaligned
    # load at step 2: the fault must be what every path reports.
    image = _link([ins.movi(1, 2), ins.mem_i(Op.LDRWI, 0, 1, 0),
                   ins.movi(2, 0), ins.movi(3, 0), ins.swi(0)])
    raised = _errors(image, max_steps=3)
    assert raised[0][0] is MemoryFault
    assert raised == [raised[0]] * 3


def test_fall_through_into_a_literal_pool_escapes():
    # 0xffff is no instruction, so the pool leaves the block's
    # fall-through undecoded.
    image = _link([ins.movi(0, 1), ins.movi(1, 2), Align(4),
                   Data(b"\xff\xff\xff\xff")])
    raised = _errors(image)
    assert raised == [raised[0]] * 3
    assert re.fullmatch(r"pc escaped code objects: 0x[0-9a-f]+",
                        raised[0][1])


def test_unknown_swi_faults_in_mid_run():
    image = _link([ins.movi(0, 4), ins.swi(1), ins.swi(9), ins.swi(0)])
    raised = _errors(image)
    assert raised == [raised[0]] * 3
    assert raised[0][1].startswith("unknown swi #9 at 0x")
