"""Reference implementations the shipped program is tested against.

The shipped path keeps one execution engine and one abstract cache
domain.  The plainer implementations they are held to live here, like
the ILP oracle in ``tests/ilp``:

* :mod:`.memory` — the per-access hierarchy and tag model, and the
  trace walk over it that the replay kernels are held to;
* :mod:`.recording` — the recording interpreter, which counts fetches,
  data accesses and misses per address;
* :mod:`.domain` — the dict MUST/MAY domain and a ``CacheAnalysis``
  running its fixpoint and classification;
* :mod:`.runs` — the trace run-length encoder as a loop over ops;
* :mod:`.differentials` — both oracles on generated programs, for the
  fuzz tier.
"""

from .memory import Access, ReferenceCache, ReferenceHierarchy, walk_replay
from .recording import RecordedRun, RecordingSimulator, record
from .domain import (
    MAY_TOP,
    DictCacheAnalysis,
    MayCache,
    MustCache,
    may_decode,
    must_decode,
)
from .runs import compress_ops
from .differentials import check_domains, check_misses

__all__ = [
    "Access", "ReferenceCache", "ReferenceHierarchy", "walk_replay",
    "RecordedRun", "RecordingSimulator", "record",
    "MAY_TOP", "DictCacheAnalysis", "MayCache", "MustCache",
    "may_decode", "must_decode", "compress_ops",
    "check_domains", "check_misses",
]
