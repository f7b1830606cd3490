"""Algorithm 1 of the paper: the *Threshold* admission policy.

For slack :math:`\\varepsilon` and :math:`m` machines, let
:math:`k, f_k, \\dots, f_m` be the parameters of
:mod:`repro.core.params`.  On submission of job :math:`J_j` at time
:math:`t = r_j`:

1. compute the outstanding load :math:`l(m_h)` of every machine and index
   machines by *decreasing* load, so :math:`l(m_1) \\ge \\dots \\ge l(m_m)`;
2. compute the machine-dependent deadline thresholds
   :math:`d_{lim,h} = t + l(m_h) \\cdot f_h` for ranks
   :math:`h \\in \\{k, \\dots, m\\}` (Eq. (9)) and the system threshold
   :math:`d_{lim} = \\max_h d_{lim,h}` (Eq. (10));
3. reject iff :math:`d_j < d_{lim}`;
4. otherwise allocate :math:`J_j` to the *most loaded* candidate machine —
   a machine that can still complete the job on time — and start it
   immediately after that machine's outstanding load (best-fit rule,
   Lines 9–10).

The slack condition guarantees the least loaded machine is always a
candidate for an accepted job (the convex combination of
``d >= (1+eps) p + t`` and ``d >= t + l (1+eps)/eps`` yields
``d >= t + l + p``), which is how Claim 1's on-time completion follows; the
policy asserts it.

Ablation hooks: the allocation rule (:class:`AllocationRule`) and the
parameter set (``parameters=...``) can be overridden to measure how much
the paper's best-fit rule and exact multipliers matter
(benchmarks E10/E11).
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.core.params import ThresholdParameters, clamp_epsilon, threshold_parameters
from repro.engine.policy import Decision, OnlinePolicy
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.utils.tolerances import fge


class AllocationRule(enum.Enum):
    """Which candidate machine an accepted job is placed on.

    ``BEST_FIT`` is the paper's rule (most loaded candidate).  The others
    exist for the allocation ablation (E10): ``WORST_FIT`` picks the least
    loaded candidate, ``FIRST_FIT`` the lowest physical index.
    """

    BEST_FIT = "best-fit"
    WORST_FIT = "worst-fit"
    FIRST_FIT = "first-fit"


class ThresholdPolicy(OnlinePolicy):
    """The deterministic Threshold algorithm (Algorithm 1, Theorem 2).

    Parameters
    ----------
    allocation:
        Candidate-selection rule; defaults to the paper's best-fit.
    parameters:
        Optional explicit :class:`ThresholdParameters` overriding the
        recursion's solution (ablation E11).  When given, it must match the
        machine count passed to :meth:`reset`.
    factor_scale:
        Multiplies every :math:`f_h` (ablation E11); 1.0 reproduces the
        paper.
    """

    def __init__(
        self,
        allocation: AllocationRule = AllocationRule.BEST_FIT,
        parameters: ThresholdParameters | None = None,
        factor_scale: float = 1.0,
    ) -> None:
        if factor_scale <= 0:
            raise ValueError(f"factor_scale must be positive, got {factor_scale}")
        self.allocation = allocation
        self._explicit_parameters = parameters
        self.factor_scale = factor_scale
        self.params: ThresholdParameters | None = None
        self.name = "threshold"
        if allocation is not AllocationRule.BEST_FIT:
            self.name += f"[{allocation.value}]"
        if factor_scale != 1.0:
            self.name += f"[fx{factor_scale:g}]"

    # ------------------------------------------------------------------
    def reset(self, machines: int, epsilon: float) -> None:
        if self._explicit_parameters is not None:
            if self._explicit_parameters.m != machines:
                raise ValueError(
                    f"explicit parameters built for m={self._explicit_parameters.m}, "
                    f"simulation has m={machines}"
                )
            self.params = self._explicit_parameters
        else:
            self.params = threshold_parameters(clamp_epsilon(epsilon), machines)

    # ------------------------------------------------------------------
    def threshold_at(self, t: float, loads: Sequence[float]) -> float:
        """The system threshold :math:`d_{lim}` for the given loads at *t*.

        Ranks the loads in decreasing order, multiplies ranks ``k..m`` by
        ``f_h * factor_scale`` (read from the current :attr:`params`), and
        adds the largest product to *t*: Eqs. (9)-(10) as a sort, one
        product per rank, a ``max`` and an add on Python floats, the same
        IEEE operations the batch kernel runs on arrays.  *loads* must
        hold one load per machine (``ValueError`` otherwise).

        Exposed separately so tests and the Fig. 2 reproduction can inspect
        the acceptance frontier without running a full simulation.
        """
        params = self.params
        assert params is not None, "reset() must run before decisions"
        scale = self.factor_scale
        # Ranks k..m (1-based) are the m-k+1 *least* loaded machines.
        tail = sorted(loads, reverse=True)[params.k - 1 :]
        return float(t + max([
            load * (f * scale)
            for load, f in zip(tail, params.f.tolist(), strict=True)
        ]))

    def on_submission(
        self, job: Job, t: float, machines: Sequence[MachineState]
    ) -> Decision:
        assert self.params is not None, "reset() must run before decisions"
        loads = [ms.outstanding(t) for ms in machines]
        d_lim = self.threshold_at(t, loads)
        if not fge(job.deadline, d_lim):
            return Decision.reject(d_lim=d_lim, loads=tuple(loads))

        candidates = [ms for ms in machines if ms.fits(job, t)]
        if not candidates:
            # Unreachable under the paper's parameters (see module
            # docstring); possible under aggressive ablation scalings where
            # the acceptance test no longer protects the least loaded
            # machine.  Reject rather than break commitments.
            if self.factor_scale >= 1.0 and self._explicit_parameters is None:
                raise AssertionError(
                    f"job {job.job_id}: accepted by threshold but no machine can "
                    "complete it — Claim 1 invariant broken"
                )
            return Decision.reject(d_lim=d_lim, loads=tuple(loads), forced=True)

        if self.allocation is AllocationRule.BEST_FIT:
            chosen = max(candidates, key=lambda ms: (ms.outstanding(t), -ms.index))
        elif self.allocation is AllocationRule.WORST_FIT:
            chosen = min(candidates, key=lambda ms: (ms.outstanding(t), ms.index))
        else:  # FIRST_FIT
            chosen = min(candidates, key=lambda ms: ms.index)
        start = chosen.append_start(job, t)
        return Decision.accept(
            machine=chosen.index,
            start=start,
            d_lim=d_lim,
            loads=tuple(loads),
            k=self.params.k,
        )

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        desc = {
            "name": self.name,
            "allocation": self.allocation.value,
            "factor_scale": self.factor_scale,
        }
        if self.params is not None:
            desc.update(
                m=self.params.m,
                epsilon=self.params.epsilon,
                k=self.params.k,
                c=self.params.c,
            )
        return desc
