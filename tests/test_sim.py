"""Simulator: syscalls, faults, cycle accounting, profiling."""

import pytest

from repro.isa import Label
from repro.isa import instruction as ins
from repro.isa.assembler import Align, WordRef
from repro.isa.opcodes import Op
from repro.link import FunctionCode, Program, link
from repro.memory import CacheConfig, SystemConfig
from repro.memory.regions import MAIN_BASE, STACK_TOP
from repro.sim import (MemoryFault, SimError, Simulator, record_trace,
                       simulate, trace_profile)

from .helpers import build_profile, run_main
from .oracles import record


def program_of(items_lists, globals_=()):
    functions = [FunctionCode(name, items)
                 for name, items in items_lists.items()]
    return Program(functions=functions, globals=list(globals_))


def run_items(items, config=None, **kwargs):
    program = program_of({"_start": [Label("_start")] + items})
    image = link(program)
    return simulate(image, config or SystemConfig.uncached(), **kwargs)


class TestExecution:
    def test_exit_code_from_r0(self):
        result = run_items([ins.movi(0, 99), ins.swi(0)])
        assert result.exit_code == 99

    def test_console_syscalls(self):
        result = run_items([
            ins.movi(0, 65), ins.swi(2),     # putchar 'A'
            ins.movi(0, 123), ins.swi(1),    # print 123
            ins.swi(0),
        ])
        assert result.console == ["A", "123"]

    def test_unknown_swi_faults(self):
        with pytest.raises(SimError):
            run_items([ins.swi(9)])

    def test_runaway_detection(self):
        items = [Label("spin"), ins.b("spin")]
        program = program_of({"_start": [Label("_start")] + items})
        image = link(program)
        with pytest.raises(SimError):
            simulate(image, SystemConfig.uncached(), max_steps=100)

    def test_pc_escape_detected(self):
        # bx to 0x110000, past the code objects (MAIN_BASE, 0x100000,
        # is where _start itself is linked): no decoded instruction
        # lives there, for the in-line loop or the block recorder.
        items = [ins.movi(1, 0x11), ins.shift_i(Op.LSLI, 1, 1, 16),
                 ins.bx(1)]
        image = link(program_of({"_start": [Label("_start")] + items}))
        with pytest.raises(SimError, match="pc escaped code objects: "
                                           "0x110000"):
            simulate(image, SystemConfig.uncached())
        with pytest.raises(SimError, match="pc escaped code objects: "
                                           "0x110000"):
            record_trace(image, 0)


class TestMemoryFaults:
    def test_unaligned_word_access(self):
        items = [
            ins.movi(1, 2),          # address 2 (not 4-aligned)
            ins.mem_i(Op.LDRWI, 0, 1, 0),
        ]
        with pytest.raises(MemoryFault):
            run_items(items)

    def test_unmapped_hole_access(self):
        items = [
            ins.movi(1, 255), ins.shift_i(Op.LSLI, 1, 1, 8),  # 0xFF00
            ins.mem_i(Op.LDRWI, 0, 1, 0),
        ]
        with pytest.raises(MemoryFault):
            run_items(items)


class TestCycleAccounting:
    def test_hand_counted_straightline(self):
        # movi(fetch 2) + movi(2) + swi(2 + 2 extra) = 8 cycles uncached.
        result = run_items([ins.movi(0, 1), ins.movi(1, 2), ins.swi(0)])
        assert result.cycles == 8

    def test_branch_refill_charged(self):
        # b(2+2) + target swi(2+2) + movi skipped.
        result = run_items([
            ins.b("over"), ins.movi(0, 1), Label("over"), ins.swi(0)])
        assert result.cycles == (2 + 2) + (2 + 2)

    def test_load_cost_by_width(self):
        from repro.link import DataObject
        glob = DataObject("g", payload=(123).to_bytes(4, "little"))
        program = program_of(
            {"_start": [
                Label("_start"),
                ins.ldr_pc(1, target="pool"),
                ins.mem_i(Op.LDRWI, 0, 1, 0),
                ins.swi(0),
                Label("pool"),
            ]},
        )
        # Append a WordRef pool entry manually.
        program.functions[0].items.append(Align(4))
        program.functions[0].items.append(Label("poolw"))
        program.functions[0].items.append(WordRef("g"))
        # Fix the ldrpc target to the pool label.
        program.functions[0].items[1].target = "poolw"
        program.globals.append(glob)
        image = link(program)
        result = simulate(image, SystemConfig.uncached())
        # fetch ldrpc 2 + pool read 4 + fetch ldr 2 + data read 4
        # + swi 2+2 = 16
        assert result.cycles == 16
        assert result.exit_code == 123

    def test_mul_extra_cycles(self):
        result = run_items([
            ins.movi(0, 3), ins.movi(1, 4),
            ins.alu(Op.MUL, 0, 1),
            ins.swi(0)])
        # fetches 4x2 + mul extra 3 + swi extra 2
        assert result.cycles == 8 + 3 + 2
        assert result.exit_code == 12

    def test_push_pop_stack_cost(self):
        result = run_items([
            ins.push((4, 5), lr=False),      # 2 word writes: 8 cycles
            ins.pop((4, 5), pc=False),       # 2 word reads: 8 cycles
            ins.swi(0)])
        assert result.cycles == 2 + 8 + 2 + 8 + 2 + 2

    def test_spm_vs_main_fetch_cycles(self):
        source = """
        int main(void) {
            int i;
            int t = 0;
            for (i = 0; i < 50; i++) { t += i; }
            return t & 255;
        }
        """
        from repro.minic import compile_source
        compiled = compile_source(source)
        everything = {f.name for f in compiled.program.functions}
        everything |= {g.name for g in compiled.program.globals}
        plain = simulate(link(compiled.program),
                         SystemConfig.uncached())
        spm = simulate(
            link(compiled.program, spm_size=4096, spm_objects=everything),
            SystemConfig.scratchpad(4096))
        assert spm.exit_code == plain.exit_code
        assert spm.cycles < plain.cycles


class TestCacheIntegration:
    def test_cache_stats_collected(self):
        result = run_items([ins.movi(0, 0), ins.swi(0)],
                           SystemConfig.cached(CacheConfig(size=64)))
        assert result.cache_stats is not None
        assert result.cache_stats.fetch_misses >= 1

    def test_record_misses(self):
        items = [Label("top"), ins.movi(0, 0)]
        items += [ins.nop()] * 20
        items += [ins.swi(0)]
        program = program_of({"_start": [Label("_start")] + items})
        image = link(program)
        result = record(image, SystemConfig.cached(CacheConfig(size=64)))
        assert sum(result.fetch_misses.values()) == \
            result.cache_stats.fetch_misses


class TestProfile:
    def test_profile_counts(self):
        source = """
        int total;
        int bump(int x) { total = total + x; return total; }
        int main(void) {
            int i;
            for (i = 0; i < 10; i++) { bump(i); }
            return total;
        }
        """
        from repro.minic import compile_source
        compiled = compile_source(source)
        image = link(compiled.program)
        profile = trace_profile(record_trace(image, 0), image)
        assert profile["bump"].accesses > 0
        assert profile["total"].accesses >= 20   # 10 reads + 10 writes
        assert profile["main"].accesses > profile["bump"].accesses / 10

    def test_profile_requires_flag(self):
        result = run_items([ins.swi(0)])
        image = link(program_of({"_start": [Label("_start"),
                                            ins.swi(0)]}))
        with pytest.raises(ValueError):
            build_profile(image, result)

    def test_initial_state(self):
        program = program_of({"_start": [Label("_start"), ins.swi(0)]})
        sim = Simulator(link(program), SystemConfig.uncached())
        assert sim.regs == [0] * 16
        result = sim.run()
        assert result.instructions == 1
