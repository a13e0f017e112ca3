"""repro-cc: command-line front end for the whole tool stack.

Subcommands (all take a mini-C source file):

* ``run``        — compile, link, simulate; print cycles and console
  (``--record-misses`` also reports the hottest fetch-miss addresses,
  counted per pc from the program's recorded access trace)
* ``trace``      — record the dynamic access trace and summarise it
  (``--profile`` dumps the trace-cache and replay counters)
* ``sweep``      — record the trace once and price a full
  (size × associativity) cache-geometry grid in one replay pass
* ``gen``        — the seeded workload generator (same as ``repro-gen``)
* ``serve``      — the analysis-as-a-service daemon (same as
  ``repro-serve``); ``cache stats --daemon SOCKET`` (a socket path or
  ``unix:/path``) queries a running daemon's
  dedup/backpressure/supervision counters
* ``wcet``       — static WCET analysis; print the per-function report
* ``compare``    — the paper's experiment on one program: sim vs. WCET
* ``map``        — placement map (the linker's view)
* ``disasm``     — disassembly listing of the linked image
* ``annotations``— the aiT-style annotation file (Figure 2 format)

Memory-system options shared by all subcommands::

    --spm N [--alloc energy|wcet]   scratchpad of N bytes (knapsack-filled)
    --cache N [--assoc K] [--icache] [--line L]
    --dcache N                      split I/D: --cache is the I side
    --l2 N [--l2-assoc K] [--l2-line L]   unified L2 behind the L1
    --hybrid                        allow --spm AND --cache together
    (neither)                       plain main memory

Examples::

    repro-cc run task.c --spm 1024
    repro-cc sweep task.c --sizes 128,256,512,1024 --assoc 1,2,4
    repro-cc wcet task.c --cache 512 --persistence
    repro-cc compare task.c --spm 512
    repro-cc compare task.c --cache 256 --l2 2048
    repro-cc wcet task.c --cache 256 --dcache 256
    repro-cc run task.c --spm 512 --cache 256 --hybrid
"""

from __future__ import annotations

import argparse
import sys

from .isa.disassembler import format_instr
from .memory.cache import CacheConfig
from .memory.hierarchy import SystemConfig
from .memory.levels import CacheLevel, MainMemoryLevel, SpmLevel
from .sim.simulator import SimError, simulate
from .wcet.analyzer import analyze_wcet
from .wcet.annotations import format_annotations, generate_annotations
from .wcet.cfg import build_all_cfgs
from .workflow import Workflow


def _add_source_option(parser):
    parser.add_argument("source", help="mini-C source file")
    parser.add_argument("--entry", default="main",
                        help="entry function (default: main)")


def _add_memory_options(parser):
    parser.add_argument("--spm", type=int, metavar="BYTES",
                        help="scratchpad capacity")
    parser.add_argument("--alloc", choices=("energy", "wcet"),
                        default="energy",
                        help="scratchpad allocation objective")
    parser.add_argument("--cache", type=int, metavar="BYTES",
                        help="cache capacity")
    parser.add_argument("--assoc", type=int, default=1,
                        help="cache associativity (default 1)")
    parser.add_argument("--line", type=int, default=16,
                        help="cache line size in bytes (default 16)")
    parser.add_argument("--icache", action="store_true",
                        help="instruction-only cache (data bypasses)")
    parser.add_argument("--dcache", type=int, metavar="BYTES",
                        help="split I/D caches: --cache is the I side")
    parser.add_argument("--l2", type=int, metavar="BYTES",
                        help="unified second-level cache behind the L1")
    parser.add_argument("--l2-assoc", type=int, default=1,
                        help="L2 associativity (default 1)")
    parser.add_argument("--l2-line", type=int, default=16,
                        help="L2 line size in bytes (default 16)")
    parser.add_argument("--hybrid", action="store_true",
                        help="scratchpad with the cache behind it "
                             "(allows --spm together with --cache)")


def _config_for(args) -> SystemConfig:
    """The SystemConfig the command-line options describe."""
    if args.spm and args.cache and not args.hybrid:
        raise SystemExit("choose --spm or --cache, not both "
                         "(or pass --hybrid for a scratchpad+cache "
                         "pipeline)")
    if (args.dcache or args.l2) and not args.cache:
        raise SystemExit("--dcache/--l2 need an L1 via --cache")
    if args.dcache and args.icache:
        raise SystemExit("--dcache already implies a split I/D level")
    levels = []
    name = []
    try:
        if args.spm:
            levels.append(SpmLevel(args.spm))
            name.append(f"spm{args.spm}")
        if args.cache:
            if args.dcache:
                icfg = CacheConfig(size=args.cache, line_size=args.line,
                                   assoc=args.assoc, unified=False)
                dcfg = CacheConfig(size=args.dcache, line_size=args.line,
                                   assoc=args.assoc)
                levels.append(CacheLevel.split(icfg, dcfg))
                name.append(f"i{args.cache}+d{args.dcache}")
            else:
                l1 = CacheConfig(size=args.cache, line_size=args.line,
                                 assoc=args.assoc, unified=not args.icache)
                levels.append(CacheLevel.unified(l1) if l1.unified
                              else CacheLevel.instruction(l1))
                name.append(f"cache{args.cache}")
        if args.l2:
            l2 = CacheConfig(size=args.l2, line_size=args.l2_line,
                             assoc=args.l2_assoc)
            levels.append(CacheLevel.unified(l2, name="L2"))
            name.append(f"l2-{args.l2}")
        if not levels:
            return SystemConfig.uncached()
        levels.append(MainMemoryLevel())
        return SystemConfig.with_levels("+".join(name), levels)
    except ValueError as error:
        raise SystemExit(f"invalid memory pipeline: {error}") from None


def _build(args):
    """(image, config) for the requested memory system."""
    with open(args.source) as handle:
        workflow = Workflow(handle.read(), entry=args.entry)
    config = _config_for(args)
    image, _allocation = workflow.image_for(config, args.alloc)
    return image, config


def _print_result(result, config):
    print(f"# {config.describe()}")
    print(f"# cycles:       {result.cycles}")
    print(f"# instructions: {result.instructions}")
    print(f"# exit code:    {result.exit_code}")
    if len(result.level_stats) > 1:
        for name, stats in result.level_stats.items():
            total = stats.hits + stats.misses
            print(f"# {name:5} cache:  {stats.hits} hits, "
                  f"{stats.misses} misses "
                  f"({100 * stats.misses / max(total, 1):.2f}% miss rate)")
    elif result.cache_stats is not None:
        stats = result.cache_stats
        total = stats.hits + stats.misses
        print(f"# cache:        {stats.hits} hits, {stats.misses} misses "
              f"({100 * stats.misses / max(total, 1):.2f}% miss rate)")


def cmd_run(args):
    image, config = _build(args)
    result = simulate(image, config)
    for line in result.console:
        print(line)
    _print_result(result, config)
    if not args.record_misses:
        return 0
    from .sim.replay import replay_misses
    from .sim.trace import trace_for
    fetch_misses, _main = replay_misses(trace_for(image, config.spm_size),
                                        config)
    if fetch_misses:
        worst = sorted(fetch_misses.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:5]
        print("# hottest fetch-miss addresses:")
        for addr, count in worst:
            print(f"#   {addr:#010x}  {count} misses")
    return 0


def cmd_trace(args):
    image, config = _build(args)
    from .sim.trace import trace_counters, trace_for
    trace = trace_for(image, config.spm_size)
    fetches, reads, writes = trace.counts_by_kind()
    print(f"# {config.describe()}")
    print(f"# accesses:     {trace.accesses} ({fetches} fetches, "
          f"{reads} reads, {writes} writes)")
    print(f"# spm-resident: {sum(trace.spm_counts)}")
    print(f"# base cycles:  {trace.base_cycles}")
    print(f"# instructions: {trace.instructions}")
    print(f"# exit code:    {trace.exit_code}")
    if args.profile:
        # One replay under the requested hierarchy, so the counters
        # show what served it (numpy kernel or plan arithmetic).
        from .sim.replay import replay
        before = dict(trace_counters())
        replay(trace, config)
        after = trace_counters()
        served = [key for key in ("replay_numpy", "replay_scalar",
                                  "sweep_numpy", "grid_numpy")
                  if after[key] > before.get(key, 0)]
        print(f"# replay served by: {', '.join(served) or 'cache'}")
        print("# trace counters:")
        for key, value in sorted(after.items()):
            print(f"#   {key:16} {value:>8}")
    return 0


def cmd_sweep(args):
    """Price a whole (size × associativity) cache grid in one pass."""
    from .sim.replay import replay_grid
    from .sim.trace import trace_counters, trace_for
    with open(args.source) as handle:
        image = Workflow(handle.read(), entry=args.entry).baseline_image()
    try:
        sizes = [int(field) for field in args.sizes.split(",")]
        assocs = [int(field) for field in args.assoc.split(",")]
    except ValueError:
        raise SystemExit("sweep: --sizes/--assoc take comma-separated "
                         "integers") from None
    grid, skipped = [], []
    try:
        for size in sizes:
            for assoc in assocs:
                if size >= args.line * assoc:
                    grid.append(SystemConfig.cached(CacheConfig(
                        size=size, line_size=args.line, assoc=assoc,
                        unified=not args.icache)))
                else:
                    skipped.append((size, assoc))
    except ValueError as error:
        raise SystemExit(f"sweep: {error}") from None
    trace = trace_for(image, 0)
    before = dict(trace_counters())
    try:
        results = replay_grid(trace, grid)
    except (ValueError, SimError) as error:
        raise SystemExit(f"sweep: {error}") from None
    cycles = {(cfg.cache.size, cfg.cache.assoc): result.cycles
              for cfg, result in zip(grid, results)}
    side = "instruction" if args.icache else "unified"
    print(f"# {side} cache grid, {args.line}-byte lines, "
          f"{len(grid)} points in one pass")
    header = "".join(f"{f'assoc={a}':>14}" for a in assocs)
    print(f"# {'size':>7}{header}")
    for size in sizes:
        cells = "".join(
            f"{cycles[(size, assoc)]:>14}" if (size, assoc) in cycles
            else f"{'-':>14}" for assoc in assocs)
        print(f"# {size:>6}B{cells}")
    for size, assoc in skipped:
        print(f"# skipped {size}B assoc={assoc}: fewer than one set")
    after = trace_counters()
    served = [key for key in ("grid_numpy", "sweep_numpy",
                              "replay_numpy", "replay_scalar")
              if after[key] > before.get(key, 0)]
    print(f"# kernel: {', '.join(served) or 'cached'}")
    return 0


def cmd_wcet(args):
    image, config = _build(args)
    result = analyze_wcet(image, config, persistence=args.persistence)
    print(result.report())
    lo, hi = result.stack_range
    print(f"  stack bound: {hi - lo} bytes")
    if result.cache_result is not None:
        from .wcet.cacheanalysis import AH, FM
        print(f"  cache classification: "
              f"{result.cache_result.count(AH)} always-hit, "
              f"{result.cache_result.count(FM)} first-miss")
        hierarchy = result.hierarchy_result
        if hierarchy is not None and len(hierarchy.levels) > 1:
            for entry in hierarchy.levels[1:]:
                deeper = entry.iresult or entry.dresult
                print(f"  {entry.level.name} classification: "
                      f"{deeper.count(AH)} always-hit "
                      f"(of the L1 misses reaching it)")
    if args.profile:
        from .wcet.analyzer import analysis_counters
        print("  analysis counters:")
        for key, value in sorted(analysis_counters().items()):
            print(f"    {key:16} {value:>8}")
    return 0


def cmd_compare(args):
    image, config = _build(args)
    sim = simulate(image, config)
    wcet = analyze_wcet(image, config, persistence=args.persistence)
    print(f"{config.describe()}")
    print(f"  simulated (typical input): {sim.cycles:>12} cycles")
    print(f"  WCET bound:                {wcet.wcet:>12} cycles")
    print(f"  WCET / sim ratio:          {wcet.wcet / sim.cycles:>12.3f}")
    return 0


def cmd_map(args):
    image, _config = _build(args)
    print(image.map_report())
    return 0


def cmd_disasm(args):
    image, _config = _build(args)
    cfgs = build_all_cfgs(image)
    for obj in sorted(image.code_objects, key=lambda o: o.base):
        print(f"\n{obj.name}:  ; {obj.region} @ {obj.base:#x}, "
              f"{obj.size} bytes")
        cfg = cfgs[obj.name]
        listing = sorted(
            (addr, instr)
            for block in cfg.blocks.values()
            for addr, instr in block.instrs)
        block_starts = set(cfg.blocks)
        for addr, instr in listing:
            marker = ">" if addr in block_starts else " "
            print(f"  {marker} {addr:#08x}  {format_instr(instr)}")
    return 0


def cmd_annotations(args):
    image, config = _build(args)
    print(format_annotations(generate_annotations(image, config)), end="")
    return 0


def cmd_cache(args):
    """Inspect / maintain an on-disk artifact store directory.

    Works on any store the trace or analysis layers write
    (``set_trace_cache_dir`` / ``set_analysis_cache_dir`` /
    ``evaluate_points`` worker caches): ``stats`` inventories it,
    ``verify`` re-checksums every entry (quarantining failures),
    ``gc`` enforces a byte cap (oldest-mtime entries evicted first)
    and reaps stale ``.tmp*`` orphans, ``clear`` empties it.
    """
    import os as _os

    if args.daemon:
        return _cache_daemon_stats(args)
    if not args.dir:
        raise SystemExit("cache: a store directory (or --daemon "
                         "SOCKET) is required")
    from .store import ArtifactStore
    store = ArtifactStore(args.dir)
    if not _os.path.isdir(args.dir):
        raise SystemExit(f"cache: no such directory: {args.dir}")
    if args.action == "stats":
        stats = store.stats()
        print(f"# store: {stats['root']}")
        print(f"# entries:     {stats['entries']}")
        print(f"# bytes:       {stats['bytes']}")
        print(f"# shards:      {stats['shards']}")
        print(f"# quarantined: {stats['quarantined_files']}")
        for key, value in sorted(stats["counters"].items()):
            print(f"#   {key:14} {value:>8}")
        return 0
    if args.action == "verify":
        outcome = store.verify()
        print(f"# verified {outcome['checked']} entries, "
              f"quarantined {outcome['quarantined']}")
        return 1 if outcome["quarantined"] else 0
    if args.action == "gc":
        if args.max_bytes is None:
            raise SystemExit("cache gc: --max-bytes is required")
        evicted = store.gc(args.max_bytes)
        reaped = store.counters["reaped"]
        print(f"# evicted {evicted} entries, reaped {reaped} "
              "stale tmp files")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"# removed {removed} entries")
        return 0
    raise SystemExit(f"cache: unknown action {args.action!r}")


def _cache_daemon_stats(args) -> int:
    """``repro-cc cache stats --daemon SOCKET``: a live daemon's view.

    Asks a running ``repro-serve`` for its serving counters (dedup
    coalesces, memo hits, sheds, worker retries/rebuilds) and its
    workers' shared store inventories — the daemon-side complement of
    the on-disk ``stats`` action.
    """
    if args.action != "stats":
        raise SystemExit("cache: --daemon supports only the stats "
                         "action (the daemon owns its stores)")
    from .serve.client import ServeClient, ServeTransportError
    try:
        client = ServeClient(args.daemon, timeout=10.0)
    except ValueError as error:
        raise SystemExit(f"cache: {error}") from None
    try:
        stats = client.stats()
    except ServeTransportError as error:
        raise SystemExit(f"cache: {error}") from None
    finally:
        client.close()
    counters = stats["counters"]
    memo = stats["memo"]
    supervisor = stats.get("supervisor", {})
    print(f"# daemon: {stats['socket']} (pid {stats['pid']}, "
          f"up {stats['uptime_seconds']}s"
          f"{', draining' if stats['draining'] else ''})")
    print(f"# requests:     {counters['requests']} "
          f"({counters['ok']} ok, {counters['invalid']} invalid, "
          f"{counters['failed']} failed)")
    print(f"# computed:     {counters['computed']}")
    print(f"# coalesced:    {counters['coalesced']}")
    print(f"# memo hits:    {counters['memo_hits']} "
          f"({memo['entries']} entries, "
          f"{memo['evictions']} evictions)")
    print(f"# sheds:        {counters['sheds']}")
    print(f"# deadline:     {counters['deadline_expired']} expired")
    print(f"# supervision:  {supervisor.get('retries', 0)} retries, "
          f"{supervisor.get('timeouts', 0)} timeouts, "
          f"{supervisor.get('crashes', 0)} crashes, "
          f"{supervisor.get('rebuilds', 0)} rebuilds")
    for name, store in sorted(stats.get("stores", {}).items()):
        print(f"# store {name}: {store['entries']} entries, "
              f"{store['bytes']} bytes, "
              f"{store['quarantined']} quarantined")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "gen":
        # Everything after "gen" belongs to repro-gen's own parser
        # (argparse.REMAINDER cannot forward leading optionals).
        from .gen.cli import main as gen_main
        return gen_main(argv[1:])
    if argv and argv[0] == "serve":
        # Likewise for the serving daemon (repro-serve).
        from .serve.cli import main as serve_main
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-cc",
        description="mini-C toolchain: simulate and bound embedded tasks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, needs_persistence in (
            ("run", cmd_run, False),
            ("trace", cmd_trace, False),
            ("wcet", cmd_wcet, True),
            ("compare", cmd_compare, True),
            ("map", cmd_map, False),
            ("disasm", cmd_disasm, False),
            ("annotations", cmd_annotations, False)):
        command = sub.add_parser(name)
        _add_source_option(command)
        _add_memory_options(command)
        if needs_persistence:
            command.add_argument(
                "--persistence", action="store_true",
                help="enable first-miss cache persistence analysis")
        if name == "run":
            command.add_argument(
                "--record-misses", action="store_true",
                help="also report the hottest fetch-miss addresses")
        if name == "trace":
            command.add_argument(
                "--profile", action="store_true",
                help="print trace-cache and replay counters after "
                     "the dump")
        if name == "wcet":
            command.add_argument(
                "--profile", action="store_true",
                help="print analysis reuse-cache and state-interning "
                     "counters after the run")
        command.set_defaults(func=func)

    sweep = sub.add_parser(
        "sweep", help="price a (size × associativity) cache-geometry "
                      "grid in one single-pass replay")
    _add_source_option(sweep)
    sweep.add_argument("--sizes",
                       default="64,128,256,512,1024,2048,4096,8192",
                       help="comma-separated cache sizes in bytes")
    sweep.add_argument("--assoc", default="1,2,4,8",
                       help="comma-separated associativities")
    sweep.add_argument("--line", type=int, default=16,
                       help="cache line size in bytes (default 16)")
    sweep.add_argument("--icache", action="store_true",
                       help="instruction-only grid (data bypasses)")
    sweep.set_defaults(func=cmd_sweep)

    cache = sub.add_parser(
        "cache", help="inspect or maintain an on-disk artifact store "
                      "(trace / analysis cache directory)")
    cache.add_argument("action",
                       choices=("stats", "verify", "gc", "clear"),
                       help="stats: inventory + counters; verify: "
                            "re-checksum every entry, quarantine "
                            "failures; gc: enforce --max-bytes and "
                            "reap stale tmp files; clear: delete "
                            "every entry")
    cache.add_argument("dir", nargs="?", default=None,
                       help="store directory (omit with --daemon)")
    cache.add_argument("--max-bytes", type=int, default=None,
                       metavar="N", help="byte cap for gc (oldest "
                                         "entries evicted first)")
    cache.add_argument("--daemon", default=None, metavar="SOCKET",
                       help="stats of a running repro-serve daemon "
                            "instead of an on-disk store; a socket "
                            "path or unix:/path")
    cache.set_defaults(func=cmd_cache)

    sub.add_parser("gen", add_help=False,
                   help="seeded mini-C workload generator (repro-gen)")
    sub.add_parser("serve", add_help=False,
                   help="analysis-as-a-service daemon (repro-serve)")

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
