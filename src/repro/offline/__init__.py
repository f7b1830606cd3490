"""Offline optimum computation and bounds.

The offline problem — select and non-preemptively schedule a maximum-load
subset of jobs on ``m`` machines meeting all deadlines — is NP-hard, so
the library provides a portfolio:

* :mod:`repro.offline.exact` — branch-and-bound exact optimum for small
  instances (memoised DFS over dispatch sequences in canonical order);
* :mod:`repro.offline.dp` — exact dynamic program for the common-release
  single-machine case (pseudo-polynomial; used to cross-check adversarial
  constructions);
* :mod:`repro.offline.bounds` — certified *upper* bounds: the Horn-style
  preemption+migration max-flow relaxation and the trivial total load;
* :mod:`repro.offline.maxflow` — Horn's interval network and an exact
  max-flow (Dinic on power-of-two-scaled integer capacities), shared by
  the flow bound and the migration baseline;
* :mod:`repro.offline.heuristics` — certified *lower* bounds: multi-order
  insertion heuristics with gap filling.

``opt_bracket`` combines them into ``(lower, upper)`` with
``lower <= OPT <= upper``; :mod:`repro.offline.cache` memoises those
brackets content-addressed on disk (``opt_bracket`` is pure in
``(instance, exact_limit, force_bounds)``), so sweep reruns and resumed
grids never recompute an OPT reference they already certified.
"""

from repro.offline.exact import exact_optimum, ExactResult, EXACT_JOB_LIMIT
from repro.offline.dp import single_machine_common_release_opt
from repro.offline.bounds import flow_upper_bound, opt_upper_bound
from repro.offline.heuristics import best_offline_schedule, opt_lower_bound
from repro.offline.bracket import opt_bracket, OptBracket
from repro.offline.cache import (
    BracketCache,
    BracketCacheWarning,
    CacheReport,
    CacheStats,
    bracket_key,
    cached_opt_bracket,
    default_cache_dir,
    instance_fingerprint,
)

__all__ = [
    "exact_optimum",
    "ExactResult",
    "EXACT_JOB_LIMIT",
    "single_machine_common_release_opt",
    "flow_upper_bound",
    "opt_upper_bound",
    "best_offline_schedule",
    "opt_lower_bound",
    "opt_bracket",
    "OptBracket",
    "BracketCache",
    "BracketCacheWarning",
    "CacheReport",
    "CacheStats",
    "bracket_key",
    "cached_opt_bracket",
    "default_cache_dir",
    "instance_fingerprint",
]
