"""repro-gen: emit, inspect and soundness-check generated workloads.

Examples::

    repro-gen --seed 7                       # print the program
    repro-gen --seeds 0:100 --out corpus/    # write corpus/gen_*.mc
    repro-gen --seeds 0:500 --check          # fuzz: full soundness tiers
    repro-gen --seed 31415 --size large --check --deep

``--check`` runs every program through compile → link → execute →
replay-differential → WCET-dominates-simulation on the default
hierarchy shapes; ``--deep`` adds a greedy SPM placement run, priced
both by execution and from the baseline trace.  A failing seed prints
its reproduction command and the process exits non-zero.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (SoundnessFailure, check_program,
                      check_spm_placement)
from .progen import SIZE_PROFILES, generate, write_corpus


def _parse_seeds(args) -> list:
    if args.seeds:
        text = args.seeds
        try:
            first, _, last = text.partition(":")
            start, stop = int(first), int(last)
        except ValueError:
            raise SystemExit(f"bad --seeds range {text!r} "
                             "(expected START:STOP)") from None
        if stop <= start:
            raise SystemExit(f"empty --seeds range {text!r}")
        return list(range(start, stop))
    return [args.seed]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-gen",
        description="seeded mini-C workload generator (deterministic: "
                    "the same seed always yields the same bytes)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generate this single seed (default 0)")
    parser.add_argument("--seeds", metavar="START:STOP",
                        help="generate the half-open seed range instead")
    parser.add_argument("--size", choices=sorted(SIZE_PROFILES),
                        default="small",
                        help="program size profile (default: small)")
    parser.add_argument("--out", metavar="DIR",
                        help="write one .mc file per seed into DIR")
    parser.add_argument("--check", action="store_true",
                        help="run the soundness tiers on each program")
    parser.add_argument("--deep", action="store_true",
                        help="with --check: add an SPM placement run")
    parser.add_argument("--quiet", action="store_true",
                        help="only report failures and the final tally")
    args = parser.parse_args(argv)
    seeds = _parse_seeds(args)

    if args.out:
        for path in write_corpus(args.out, seeds, args.size):
            if not args.quiet:
                print(path)
        return 0

    if args.check:
        failures = 0
        for seed in seeds:
            program = generate(seed, args.size)
            try:
                summary = check_program(program)
                if args.deep:
                    check_spm_placement(program)
            except SoundnessFailure as failure:
                failures += 1
                print(f"FAIL seed {seed}: {failure}", file=sys.stderr)
                continue
            if not args.quiet:
                worst = max(summary["cycles"].values())
                print(f"ok seed {seed} ({worst} cycles worst-shape)")
        print(f"{len(seeds) - failures}/{len(seeds)} seeds passed")
        return 1 if failures else 0

    for seed in seeds:
        print(generate(seed, args.size).source, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
