"""Bracketing the offline optimum: ``lower <= OPT <= upper``.

Small instances get the exact value (both ends coincide); large instances,
and small ones whose exact search outgrows its state budget, combine the
heuristic packer (lower) with the flow relaxation (upper).
Empirical competitive ratios computed against ``upper`` are conservative
*over*-estimates of the true ratio — the safe direction when checking an
algorithm against its theoretical guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.instance import Instance
from repro.offline.bounds import opt_upper_bound
from repro.offline.exact import EXACT_JOB_LIMIT, ExactSolverBudgetExceeded, exact_optimum
from repro.offline.heuristics import opt_lower_bound


@dataclass(frozen=True)
class OptBracket:
    """Certified bracket of the offline optimum."""

    lower: float
    upper: float
    exact: bool

    @property
    def midpoint(self) -> float:
        """Midpoint estimate (equals the optimum when ``exact``)."""
        return 0.5 * (self.lower + self.upper)

    @property
    def gap(self) -> float:
        """Absolute bracket width."""
        return self.upper - self.lower

    @property
    def relative_gap(self) -> float:
        """Bracket width relative to the upper bound (0 when exact)."""
        return 0.0 if self.upper <= 0 else self.gap / self.upper


def opt_bracket(
    instance: Instance,
    exact_limit: int = EXACT_JOB_LIMIT,
    force_bounds: bool = False,
) -> OptBracket:
    """Compute a certified bracket of the offline optimum of *instance*.

    ``force_bounds`` skips the exact solver even on small instances (used
    by benchmarks that time the bound computations themselves).  A small
    instance whose exact search exceeds
    :data:`~repro.offline.exact.MAX_EXPLORED_STATES` gets the bounds too.
    An ``exact=True`` bracket is exact to within ``n * TIME_EPS`` on
    instances whose processing times are a few ``TIME_EPS`` (see
    :func:`~repro.offline.exact.exact_optimum`).
    """
    if len(instance) <= exact_limit and not force_bounds:
        try:
            value = exact_optimum(instance, job_limit=exact_limit).value
        except ExactSolverBudgetExceeded:
            pass
        else:
            return OptBracket(lower=value, upper=value, exact=True)
    lower = opt_lower_bound(instance)
    upper = opt_upper_bound(instance)
    # Numerical safety: the heuristic is a real schedule, so it can exceed
    # the flow bound only by round-off.
    upper = max(upper, lower)
    return OptBracket(lower=lower, upper=upper, exact=False)
