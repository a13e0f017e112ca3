"""The fuzz tier: thousands of generated programs through every layer.

Excluded from tier-1 by the ``fuzz`` marker (see ``pytest.ini``); run
explicitly with::

    PYTHONPATH=src python -m pytest -q -m fuzz [tests/test_fuzz_generated.py]

Budget knobs (environment):

* ``FUZZ_EXAMPLES``  — number of seeds for the main sweep
  (default 1000; CI nightly raises it);
* ``FUZZ_BASE_SEED`` — offset the seed range (default 0), so nightly
  runs can explore fresh seeds instead of re-proving old ones.

Every program runs compile → link → execute → self-check → replay
differential → WCET-dominates-simulation across the >= 4 default
hierarchy shapes; subsets additionally run the oracle differentials of
``tests/oracles`` (the recording interpreter's cycles and per-pc miss
attribution, the packed-vs-dict abstract-domain classifications) and a
greedy SPM placement.  A failure message embeds ``repro-gen --seed N
--size S`` — that command alone reproduces the exact program locally.
"""

import os

import pytest

from repro.gen import (
    check_seed,
    check_spm_placement,
    generate,
)

from .oracles import check_domains, check_misses

pytestmark = pytest.mark.fuzz

EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "1000"))
BASE_SEED = int(os.environ.get("FUZZ_BASE_SEED", "0"))

#: Seed ranges per size profile: most of the budget goes to small
#: programs (fast, high seed diversity), with medium/large slices for
#: structure that only shows up at scale.
_SMALL = range(BASE_SEED, BASE_SEED + (EXAMPLES * 8) // 10)
_MEDIUM = range(BASE_SEED, BASE_SEED + max((EXAMPLES * 15) // 100, 1))
_LARGE = range(BASE_SEED, BASE_SEED + max(EXAMPLES // 20, 1))


@pytest.mark.parametrize("seed", _SMALL)
def test_small_seed_soundness(seed):
    check_seed(seed, "small")
    # Every 8th seed also runs the recording oracle and the per-pc
    # fetch-miss-attribution differential (3 engines, not 2).
    if seed % 8 == 0:
        check_misses(generate(seed, "small"))


@pytest.mark.parametrize("seed", _MEDIUM)
def test_medium_seed_soundness(seed):
    check_seed(seed, "medium")
    if seed % 4 == 0:
        check_misses(generate(seed, "medium"))


@pytest.mark.parametrize("seed", _LARGE)
def test_large_seed_soundness(seed):
    check_seed(seed, "large")


@pytest.mark.parametrize("seed", range(BASE_SEED,
                                       BASE_SEED + max(EXAMPLES // 25, 1)))
def test_spm_placement_soundness(seed):
    check_spm_placement(generate(seed, "small"),
                        spm_size=128 + (seed % 4) * 128)


@pytest.mark.parametrize("seed", range(BASE_SEED,
                                       BASE_SEED + max(EXAMPLES // 50, 1)))
def test_abstract_domain_differential(seed):
    """Packed bitset vs dict cache domains on generated programs."""
    check_domains(generate(seed, "small"))
