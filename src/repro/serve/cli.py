"""``repro-serve``: run the analysis daemon from the command line.

Also reachable as ``repro-cc serve ...``.  The process listens until
SIGTERM/SIGINT, then drains gracefully: admission stops (``draining``
errors), in-flight requests finish under ``--drain-timeout``, final
stats are published (stderr, plus ``--stats-json FILE``), and the exit
code reports whether the drain completed (0) or timed out (1).
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
import tempfile
import threading

from .daemon import ServeDaemon, flush_stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="analysis-as-a-service daemon: compile/simulate/"
                    "wcet/sweep/grid over a local socket")
    parser.add_argument("--socket", default="repro-serve.sock",
                        metavar="PATH",
                        help="Unix socket path to listen on "
                             "(default: ./repro-serve.sock)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="max distinct computations admitted at "
                             "once; beyond this requests are shed "
                             "with an overloaded error (default 32)")
    parser.add_argument("--task-timeout", type=float, default=300.0,
                        help="per-computation wall-clock budget in "
                             "seconds (default 300)")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-runs after a computation's first "
                             "failure (default 2)")
    parser.add_argument("--backoff", type=float, default=0.25,
                        help="base retry backoff seconds (default "
                             "0.25, doubling per attempt)")
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-request deadline (requests "
                             "may override; default: none)")
    parser.add_argument("--drain-timeout", type=float, default=10.0,
                        help="seconds SIGTERM waits for in-flight "
                             "work (default 10)")
    parser.add_argument("--memo-capacity", type=int, default=1024,
                        help="bounded result-memo entries "
                             "(default 1024)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared on-disk reuse-cache directory "
                             "for the workers (default: a private "
                             "temporary directory; 'none' disables)")
    parser.add_argument("--warm", default="", metavar="BENCHES",
                        help="comma-separated benchmarks to pre-"
                             "compile before accepting requests")
    parser.add_argument("--stats-json", default=None, metavar="FILE",
                        help="write final stats JSON here on drain")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cache_dir, private_cache = args.cache_dir, False
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-serve-cache-")
        private_cache = True
    elif cache_dir.lower() == "none":
        cache_dir = None
    try:
        return _serve(args, cache_dir)
    finally:
        if private_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _serve(args, cache_dir) -> int:
    warm = tuple(key for key in args.warm.split(",") if key)
    daemon = ServeDaemon(
        args.socket, workers=args.workers,
        queue_depth=args.queue_depth,
        task_timeout=args.task_timeout,
        retries=args.retries, backoff=args.backoff,
        default_deadline=args.deadline,
        memo_capacity=args.memo_capacity, cache_dir=cache_dir,
        warm=warm)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda _s, _f: stop.set())
    try:
        daemon.start()
    except (RuntimeError, OSError) as error:
        print(f"repro-serve: {error}", file=sys.stderr)
        return 2
    print(f"repro-serve: pid {os.getpid()} listening on "
          f"{args.socket} ({args.workers} workers, "
          f"queue depth {args.queue_depth})", flush=True)
    stop.wait()
    print("repro-serve: draining", flush=True)
    drained = daemon.drain(args.drain_timeout)
    flush_stats(daemon, path=args.stats_json)
    if not drained:
        print(f"repro-serve: drain timed out "
              f"(> {args.drain_timeout:g}s)", file=sys.stderr)
        return 1
    print("repro-serve: drained, exiting", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
