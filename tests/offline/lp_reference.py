"""Reference oracle for the flow bound: the Horn relaxation as an LP.

The max-flow upper bound of :mod:`repro.offline.bounds` has an equivalent
linear program: variables :math:`x_{j\\ell} \\ge 0` = work of job *j*
executed in interval :math:`I_\\ell`,

.. math::

    \\max \\sum_{j,\\ell} x_{j\\ell}
    \\quad\\text{s.t.}\\quad
    \\sum_\\ell x_{j\\ell} \\le p_j, \\;
    \\sum_j x_{j\\ell} \\le m |I_\\ell|, \\;
    x_{j\\ell} \\le |I_\\ell|, \\;
    x_{j\\ell} = 0 \\text{ unless } I_\\ell \\subseteq [r_j, d_j].

Solved with :func:`scipy.optimize.linprog` (HiGHS).  By LP duality /
max-flow-min-cut the optimal value coincides with the flow bound —
``test_lp.py`` asserts agreement to 1e-6 on random instances, giving an
independent implementation check of both.  It lives with the tests
because scipy, which solves it, is a test-only dependency.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import lil_matrix

from repro.model.instance import Instance
from repro.utils.tolerances import TIME_EPS, fge


def lp_upper_bound(instance: Instance) -> float:
    """Horn-relaxation optimum via linear programming."""
    if len(instance) == 0:
        return 0.0
    events = sorted(
        {float(j.release) for j in instance} | {float(j.deadline) for j in instance}
    )
    intervals = [
        (lo, hi) for lo, hi in zip(events, events[1:]) if hi - lo > TIME_EPS
    ]
    if not intervals:
        return 0.0

    # Variable index: one per admissible (job, interval) pair.
    pairs: list[tuple[int, int]] = []
    for jdx, job in enumerate(instance):
        for idx, (lo, hi) in enumerate(intervals):
            if fge(lo, job.release) and fge(job.deadline, hi):
                pairs.append((jdx, idx))
    if not pairs:
        return 0.0

    n_vars = len(pairs)
    n_jobs = len(instance)
    n_ints = len(intervals)

    # Row blocks: job caps then interval caps.
    a_ub = lil_matrix((n_jobs + n_ints, n_vars))
    b_ub = np.empty(n_jobs + n_ints)
    for jdx, job in enumerate(instance):
        b_ub[jdx] = job.processing
    for idx, (lo, hi) in enumerate(intervals):
        b_ub[n_jobs + idx] = instance.machines * (hi - lo)
    upper = np.empty(n_vars)
    for var, (jdx, idx) in enumerate(pairs):
        a_ub[jdx, var] = 1.0
        a_ub[n_jobs + idx, var] = 1.0
        lo, hi = intervals[idx]
        upper[var] = hi - lo  # no self-parallelism within an interval

    result = linprog(
        c=-np.ones(n_vars),
        A_ub=a_ub.tocsr(),
        b_ub=b_ub,
        bounds=list(zip(np.zeros(n_vars), upper)),
        method="highs",
    )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"LP solver failed: {result.message}")
    return float(-result.fun)
