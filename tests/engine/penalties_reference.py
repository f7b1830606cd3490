"""Reference oracles for the commitment-with-penalties engine.

Two earlier engines are kept here verbatim:

* the policy-protocol engine: :class:`PenaltiesCommitmentModel` asks a
  :class:`PenaltyPolicy` for a plan and revocations on every submission,
  then validates both against a per-machine index of its own copy of the
  plans.  :class:`RevocableGreedyPolicy` is its one implementation, which
  keeps start-sorted plan lists of its own.  :func:`protocol_run` runs it.
* :class:`ReferenceRevocableGreedyPolicy` is the policy as it was before
  it kept its own lists: every submission re-sorts the engine's plans per
  machine and folds every gap.  :class:`FullScanPenaltiesModel` is the
  engine with the overlap check that scans every surviving plan instead
  of the per-machine index.  :func:`reference_run` runs them.

Both reproduce the earlier engines bit for bit, errors included: their
policies can propose a plan the engine's symmetric overlap check refuses
(``SimulationError``) or that ``PenaltyOutcome.audit`` refuses
(``AssertionError``) on jobs of a few ``TIME_EPS``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import insort_right
from collections import defaultdict
from operator import attrgetter
from typing import Any, Sequence

from repro.baselines.registry import RunResult
from repro.engine.kernel import (
    CommitmentModel,
    EventStream,
    JobFeed,
    KernelContext,
    RunStats,
    SimEvent,
    SimulationError,
    run_model,
)
from repro.engine.penalties import PenaltyOutcome, PlannedJob
from repro.model.instance import Instance
from repro.model.job import Job
from repro.utils.tolerances import TIME_EPS, fge


class PenaltyPolicy(ABC):
    """Policy interface for the penalties model."""

    name: str = "penalty-policy"

    def reset(self, machines: int, epsilon: float, phi: float) -> None:
        """Prepare for a fresh run."""

    @abstractmethod
    def on_submission(
        self, job: Job, t: float, plans: Sequence[PlannedJob]
    ) -> tuple[PlannedJob | None, list[int]]:
        """Decide *job* at time *t* given the current revocable *plans*.

        Returns ``(plan_or_None, revoked_ids)``: a tentative plan for the
        new job (or ``None`` to reject) plus ids of existing plans to
        revoke.  Revoked plans must not have started; the new plan must
        not overlap surviving plans on its machine.  The engine validates.
        """


class PenaltiesCommitmentModel(CommitmentModel):
    """Kernel strategy for the commitment-with-penalties model.

    One kernel step per submission; the revocable plan set is the model
    state and every mutation (revocation, new plan) is validated here
    before it lands.

    The overlap check reads a per-machine index of the surviving plans a
    new plan can still overlap, in insertion order.  A plan leaves the
    index once it ends by the earliest release still to come: every later
    plan must start at or after its decision time (up to ``TIME_EPS``), so
    ``start < end - TIME_EPS`` can no longer hold for it.
    """

    model = "commitment-with-penalties"

    def __init__(self, policy: PenaltyPolicy, instance: Instance, phi: float) -> None:
        self.policy = policy
        self.instance = instance
        self.phi = phi
        self.algorithm = policy.name
        self.feed = JobFeed(instance.jobs)
        self.plans: dict[int, PlannedJob] = {}
        self.outcome: PenaltyOutcome | None = None
        self._live: defaultdict[Any, dict[int, PlannedJob]] = defaultdict(dict)
        # Suffix minima of the release dates, last job first: popping one
        # per step yields the earliest decision time still to come.
        self._floors: list[float] = []
        floor = float("inf")
        for job in reversed(instance.jobs):
            floor = min(floor, job.release)
            self._floors.append(floor)
        self._floor = floor

    def begin(self, ctx: KernelContext) -> None:
        self.policy.reset(self.instance.machines, self.instance.epsilon, self.phi)
        self.outcome = PenaltyOutcome(
            instance=self.instance, algorithm=self.policy.name, phi=self.phi
        )

    def _revoke(self, ctx: KernelContext, rid: int, t: float) -> None:
        victim = self.plans.get(rid)
        if victim is None:
            ctx.fail(f"policy revoked unknown plan {rid}", job_id=rid, time=t)
        if victim.started(t):
            ctx.fail(
                f"plan {rid} already started at {victim.start} <= {t}: "
                "post-start revocation is forbidden",
                job_id=rid,
                time=t,
            )
        del self.plans[rid]
        self._live[victim.machine].pop(rid, None)
        self.outcome.revoked.add(rid)
        ctx.revoked(t, rid, machine=victim.machine, start=victim.start)

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
        live = self._live[plan.machine]
        end = plan.end
        for rid, other in list(live.items()):
            other_end = other.end
            if other_end <= self._floor:
                del live[rid]
            elif plan.start < other_end - TIME_EPS and other.start < end - TIME_EPS:
                ctx.fail(
                    f"plan for job {job.job_id} overlaps surviving plan "
                    f"{other.job.job_id}",
                    job_id=job.job_id,
                    time=t,
                )

    def step(self, ctx: KernelContext) -> bool:
        job = self.feed.pop()
        if job is None:
            return False
        self._floor = self._floors.pop()
        t = job.release
        ctx.submitted(job, t)
        plan, revoked_ids = self.policy.on_submission(job, t, list(self.plans.values()))
        for rid in revoked_ids:
            self._revoke(ctx, rid, t)
        if plan is None:
            self.outcome.rejected.add(job.job_id)
            ctx.decided(t, job.job_id, False)
            return True
        self._validate_plan(ctx, plan, job, t)
        self.plans[job.job_id] = plan
        self._live[plan.machine][job.job_id] = plan
        ctx.decided(t, job.job_id, True, plan.machine, plan.start)
        return True

    def finish(self, ctx: KernelContext) -> None:
        self.outcome.completed = dict(self.plans)

    def build(self, ctx: KernelContext) -> PenaltyOutcome:
        return self.outcome


_START = attrgetter("start")


class RevocableGreedyPolicy(PenaltyPolicy):
    """Greedy with as-late-as-possible placement and profitable swaps.

    Placement is *latest-feasible-start*: a plan stays revocable until its
    start, so deferring starts maximises the option value of revocation
    (a plan that starts immediately can never be taken back).  When a new
    job fits nowhere, the policy considers dropping all not-yet-started
    plans of one machine: the swap executes iff the newcomer's value
    exceeds the victims' value plus the penalty,
    :math:`p_{new} > (1 + \\phi) \\sum p_{victims}`.

    The policy keeps its own start-sorted plan list per machine and
    ignores the engine's *plans* argument.  The lists mirror the engine's
    plans because the engine applies exactly what the policy returns (the
    new plan and the revocations) or fails the run; :meth:`reset` clears
    them.  Equal starts keep insertion order, as a stable sort of the
    engine's plans would.  Started plans form a prefix of each list, so a
    submission scans the unstarted suffix and the gaps after the last
    started plan, not every plan the machine ever ran.
    """

    name = "revocable-greedy"

    def __init__(self) -> None:
        self._phi = 0.0
        self._busy: list[list[PlannedJob]] = []

    def reset(self, machines: int, epsilon: float, phi: float) -> None:
        self._phi = phi
        self._busy = [[] for _ in range(machines)]

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _started(busy: list[PlannedJob], t: float) -> int:
        """Length of the started prefix of a start-sorted plan list."""
        k = len(busy)
        while k and not busy[k - 1].started(t):
            k -= 1
        return k

    @staticmethod
    def _latest_start(
        job: Job, t: float, busy: list[PlannedJob], k: int, n: int
    ) -> float | None:
        """Latest feasible start in the gaps of ``busy[:n]`` (*k* started).

        Folds the gaps between consecutive plans front to back.  A gap
        that closes at or before plan ``k - 1``'s start offers at most
        ``min(d, busy[k - 1].start) - p`` against a floor of at least
        *earliest*; when that is below the floor's tolerance, every such
        gap is invalid, leaves the fold untouched, and is skipped.
        """
        earliest = max(t, job.release)
        d = job.deadline
        p = job.processing
        if k and min(d, busy[k - 1].start) - p < earliest - TIME_EPS:
            i, lo = k, busy[k - 1].end
        else:
            i, lo = 0, earliest
        best = None
        while True:
            hi = busy[i].start if i < n else float("inf")
            lo = max(lo, earliest)
            start = min(d, hi) - p
            if start >= lo - TIME_EPS and fge(d, start + p):
                if best is None or start > best:
                    best = max(start, lo)
            if i == n:
                return best
            lo = busy[i].end
            i += 1

    def _place(self, plan: PlannedJob) -> PlannedJob:
        insort_right(self._busy[plan.machine], plan, key=_START)
        return plan

    def on_submission(self, job, t, plans):
        # 1) plain placement: pick the machine offering the latest start.
        started = [self._started(busy, t) for busy in self._busy]
        best: tuple[float, int] | None = None
        for machine, busy in enumerate(self._busy):
            start = self._latest_start(job, t, busy, started[machine], len(busy))
            if start is not None and (best is None or start > best[0]):
                best = (start, machine)
        if best is not None:
            return self._place(PlannedJob(job, best[1], best[0])), []

        # 2) profitable swap: drop all not-yet-started plans on the machine
        #    with the cheapest removable load, if the newcomer pays for it.
        options = []
        for machine, busy in enumerate(self._busy):
            k = started[machine]
            if k == len(busy):
                continue
            start = self._latest_start(job, t, busy, k, k)
            if start is None:
                continue
            cost = sum(p.job.processing for p in busy[k:])
            options.append((cost, machine, start, k))
        if options:
            cost, machine, start, k = min(options, key=lambda o: o[0])
            if job.processing > (1.0 + self._phi) * cost + TIME_EPS:
                busy = self._busy[machine]
                revoked = [p.job.job_id for p in busy[k:]]
                del busy[k:]
                return self._place(PlannedJob(job, machine, start)), revoked
        return None, []



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


def protocol_run(
    instance: Instance, phi: float, record_events: bool = False
) -> PenaltyOutcome:
    """The policy-protocol engine's run of *instance* (fast, audited)."""
    return run_model(
        PenaltiesCommitmentModel(RevocableGreedyPolicy(), instance, phi),
        record_events=record_events,
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


def first_refusal(instance: Instance, phi: float) -> tuple[int, list[SimEvent]] | None:
    """The first job the earlier run refuses, and its events before that job.

    The earlier engine refuses job *k* when it raises ``SimulationError``
    for *k*'s plan, or when that plan leaves the surviving plans where
    :meth:`PenaltyOutcome.audit` refuses them (a plan below ``TIME_EPS``
    nested inside another's tolerance).  The events are the stream up to
    *k*'s submission, which is the earlier run's stream on the instance cut
    before *k*.  ``None`` when no job is refused.
    """
    model = FullScanPenaltiesModel(ReferenceRevocableGreedyPolicy(), instance, phi)
    ctx = KernelContext(
        model.model, RunStats(model.model, model.algorithm), events=EventStream()
    )
    model.begin(ctx)
    for k in range(len(instance)):
        before = list(ctx.events)
        try:
            model.step(ctx)
        except SimulationError:
            return k, before
        state = PenaltyOutcome(
            instance=Instance(
                instance.jobs[: k + 1], instance.machines, instance.epsilon, validate=False
            ),
            algorithm=model.algorithm,
            phi=phi,
            completed=dict(model.plans),
            revoked=set(model.outcome.revoked),
            rejected=set(model.outcome.rejected),
        )
        try:
            state.audit()
        except AssertionError:
            return k, before
    return None
