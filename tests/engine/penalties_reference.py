"""Reference oracle for the commitment-with-penalties engine.

:class:`ReferenceRevocableGreedyPolicy` is the revocable-greedy policy as
it was before it kept its own per-machine plan lists: every submission
re-sorts the engine's plans per machine and folds every gap.
:class:`FullScanPenaltiesModel` is the engine with the overlap check that
scans every surviving plan instead of the per-machine index.  Both are
kept verbatim, so :func:`reference_run` reproduces the earlier engine bit
for bit, errors included.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.registry import RunResult
from repro.engine.kernel import KernelContext, run_model
from repro.engine.penalties import (
    PenaltiesCommitmentModel,
    PenaltyPolicy,
    PlannedJob,
)
from repro.model.instance import Instance
from repro.model.job import Job
from repro.utils.tolerances import TIME_EPS, fge


class ReferenceRevocableGreedyPolicy(PenaltyPolicy):
    """Greedy with as-late-as-possible placement and profitable swaps.

    Placement is *latest-feasible-start*: a plan stays revocable until its
    start, so deferring starts maximises the option value of revocation
    (a plan that starts immediately can never be taken back).  When a new
    job fits nowhere, the policy considers dropping all not-yet-started
    plans of one machine: the swap executes iff the newcomer's value
    exceeds the victims' value plus the penalty,
    :math:`p_{new} > (1 + \\phi) \\sum p_{victims}`.
    """

    name = "revocable-greedy"

    def __init__(self) -> None:
        self._m = 0
        self._phi = 0.0

    def reset(self, machines: int, epsilon: float, phi: float) -> None:
        self._m = machines
        self._phi = phi

    # -- helpers --------------------------------------------------------
    def _machine_plans(self, plans: Sequence[PlannedJob], machine: int) -> list[PlannedJob]:
        return sorted(
            (p for p in plans if p.machine == machine), key=lambda p: p.start
        )

    def _latest_start(
        self, job: Job, t: float, busy: list[PlannedJob]
    ) -> float | None:
        """Latest feasible start on a machine with the given plan set."""
        earliest = max(t, job.release)
        # Gaps between consecutive plans, scanned from the back.
        edges = [earliest] + [p.end for p in busy]
        uppers = [p.start for p in busy] + [float("inf")]
        best = None
        for lo, hi in zip(edges, uppers):
            lo = max(lo, earliest)
            start = min(job.deadline, hi) - job.processing
            if start >= lo - TIME_EPS and fge(job.deadline, start + job.processing):
                if best is None or start > best:
                    best = max(start, lo)
        return best

    def on_submission(self, job, t, plans):
        # 1) plain placement: pick the machine offering the latest start.
        best: tuple[float, int] | None = None
        for machine in range(self._m):
            busy = self._machine_plans(plans, machine)
            start = self._latest_start(job, t, busy)
            if start is not None and (best is None or start > best[0]):
                best = (start, machine)
        if best is not None:
            return PlannedJob(job, best[1], best[0]), []

        # 2) profitable swap: drop all not-yet-started plans on the machine
        #    with the cheapest removable load, if the newcomer pays for it.
        options = []
        for machine in range(self._m):
            busy = self._machine_plans(plans, machine)
            removable = [p for p in busy if not p.started(t)]
            if not removable:
                continue
            keep = [p for p in busy if p.started(t)]
            start = self._latest_start(job, t, keep)
            if start is None:
                continue
            cost = sum(p.job.processing for p in removable)
            options.append((cost, machine, start, removable))
        if options:
            cost, machine, start, removable = min(options, key=lambda o: o[0])
            if job.processing > (1.0 + self._phi) * cost + TIME_EPS:
                return (
                    PlannedJob(job, machine, start),
                    [p.job.job_id for p in removable],
                )
        return None, []


class FullScanPenaltiesModel(PenaltiesCommitmentModel):
    """The penalties engine with the overlap check over every plan."""

    def _validate_plan(self, ctx: KernelContext, plan: PlannedJob, job: Job, t: float) -> None:
        if plan.job.job_id != job.job_id:
            ctx.fail("returned plan must be for the submitted job", job_id=job.job_id, time=t)
        if not 0 <= plan.machine < self.instance.machines:
            ctx.fail(f"machine {plan.machine} out of range", job_id=job.job_id, time=t)
        if not fge(plan.start, t):
            ctx.fail(
                f"plan start {plan.start} precedes decision time {t}",
                job_id=job.job_id,
                time=t,
            )
        if not plan.job.feasible_start(plan.start):
            ctx.fail(f"plan for job {job.job_id} infeasible", job_id=job.job_id, time=t)
        for other in self.plans.values():
            if other.machine == plan.machine and (
                plan.start < other.end - TIME_EPS and other.start < plan.end - TIME_EPS
            ):
                ctx.fail(
                    f"plan for job {job.job_id} overlaps surviving plan "
                    f"{other.job.job_id}",
                    job_id=job.job_id,
                    time=t,
                )


def reference_run(
    instance: Instance, phi: float, record_events: bool = False
) -> RunResult:
    """The earlier revocable-greedy run of *instance*, as a registry result."""
    outcome = run_model(
        FullScanPenaltiesModel(ReferenceRevocableGreedyPolicy(), instance, phi),
        record_events=record_events,
    )
    return RunResult(
        algorithm="revocable-greedy",
        instance=instance,
        accepted_load=outcome.completed_load,
        accepted_count=len(outcome.completed),
        detail=outcome,
    )
