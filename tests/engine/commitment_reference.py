"""Reference oracle for the delayed and commitment-on-admission engines.

These are the two engines as they were before each model became one flat
loop: the δ-delayed engine asks a :class:`DelayedPolicy` to ``decide`` the
due jobs on cloned machine timelines and then validates and applies the
decisions, and the commitment-on-admission engine asks an
:class:`AdmissionPolicy` to ``choose`` one job at a time inside the
:func:`exhaust` fixpoint.  The engines, their policy protocols and the two
built-in admission policies and one delayed policy the program ships are
kept verbatim (the fixpoint helper came from ``repro.engine.kernel``), so
:func:`reference_run` reproduces the earlier engines bit for bit:
schedules, ``RunStats`` counters and event streams.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.baselines.registry import RunResult
from repro.engine.kernel import (
    MAX_KERNEL_STEPS,
    CommitmentModel,
    JobFeed,
    KernelContext,
    SimulationError,
    commit_decision,
    run_model,
)
from repro.engine.policy import Decision
from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS, fge


def exhaust(step: Callable[[], bool], *, limit: int = MAX_KERNEL_STEPS) -> int:
    """Run *step* until it returns falsy; returns the iteration count.

    The kernel-owned fixpoint loop used by models that perform several
    actions at one decision point (e.g. starting jobs while machines are
    idle).  Raises :class:`SimulationError` past *limit*.
    """
    count = 0
    while step():
        count += 1
        if count >= limit:
            raise SimulationError(f"fixpoint iteration exceeded limit={limit}")
    return count


# ----------------------------------------------------------------------
# δ-delayed commitment
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class PendingJob:
    """A job awaiting its (possibly deferred) decision."""

    job: Job
    decision_deadline: float


class DelayedPolicy(ABC):
    """Admission policy in the δ-delayed-commitment model."""

    name: str = "delayed-policy"
    immediate_commitment = False

    def reset(self, machines: int, epsilon: float, delta: float) -> None:
        """Prepare for a fresh run."""

    @abstractmethod
    def decide(
        self,
        t: float,
        due: Sequence[PendingJob],
        pending: Sequence[PendingJob],
        machines: Sequence[MachineState],
    ) -> dict[int, Decision]:
        """Decide at event time *t*.

        ``due`` are pending jobs whose decision deadline fires at *t* —
        each MUST receive a decision.  ``pending`` is the full pending set
        (including ``due``); the policy may decide others early by
        including them in the returned mapping (job id -> decision).
        """


def decision_deadline(job: Job, delta: float) -> float:
    """Latest legal decision time for *job* under δ-deferral.

    ``r + delta * p``, clipped to the job's latest feasible start (a later
    decision could never be honoured).
    """
    return min(job.release + delta * job.processing, job.latest_start)


class DelayedCommitmentModel(CommitmentModel):
    """Kernel strategy for the δ-delayed-commitment model.

    One kernel step per event time (a release or the earliest pending
    decision deadline); the pending set and the committed machine
    timelines are the model state.
    """

    model = "delayed"

    def __init__(self, policy: DelayedPolicy, instance: Instance, delta: float) -> None:
        self.policy = policy
        self.instance = instance
        self.delta = delta
        self.algorithm = policy.name
        self.machines: list[MachineState] = []
        self.pending: dict[int, PendingJob] = {}
        self.feed = JobFeed(instance.jobs)
        self.schedule: Schedule | None = None

    def begin(self, ctx: KernelContext) -> None:
        self.machines = [MachineState(i) for i in range(self.instance.machines)]
        self.policy.reset(self.instance.machines, self.instance.epsilon, self.delta)
        self.schedule = Schedule(instance=self.instance, algorithm=self.policy.name)
        self.schedule.meta["delta"] = self.delta

    def _apply(self, ctx: KernelContext, decisions: dict[int, Decision], t: float) -> None:
        for jid, decision in decisions.items():
            item = self.pending.pop(jid, None)
            if item is None:
                ctx.fail(f"policy decided unknown/decided job {jid}", job_id=jid, time=t)
            if decision.accepted:
                if decision.start is None or decision.start < t - TIME_EPS:
                    ctx.fail(
                        f"job {jid}: committed start {decision.start} precedes "
                        f"decision time {t}",
                        job_id=jid,
                        time=t,
                    )
                commit_decision(self.machines, item.job, t, decision.machine, decision.start, ctx)
                self.schedule.assignments[jid] = Assignment(jid, decision.machine, decision.start)
            else:
                self.schedule.rejected.add(jid)
            ctx.decided(t, jid, decision.accepted, decision.machine, decision.start)

    def step(self, ctx: KernelContext) -> bool:
        if self.feed.exhausted and not self.pending:
            return False
        # Next event: the earlier of the next release and the earliest
        # pending decision deadline.
        candidates: list[float] = []
        head = self.feed.peek()
        if head is not None:
            candidates.append(head.release)
        if self.pending:
            candidates.append(min(p.decision_deadline for p in self.pending.values()))
        t = min(candidates)

        # Admit all releases at time t into the pending set first.
        for job in self.feed.take_released(t):
            self.pending[job.job_id] = PendingJob(job, decision_deadline(job, self.delta))
            ctx.submitted(job, t)

        due = [p for p in self.pending.values() if p.decision_deadline <= t + TIME_EPS]
        if not due:
            return True
        decisions = self.policy.decide(t, due, list(self.pending.values()), self.machines)
        missing = {p.job.job_id for p in due} - set(decisions)
        if missing:
            ctx.fail(f"policy left due jobs undecided: {sorted(missing)}", time=t)
        self._apply(ctx, decisions, t)
        return True

    def build(self, ctx: KernelContext) -> Schedule:
        return self.schedule


def simulate_delayed(
    policy: DelayedPolicy,
    instance: Instance,
    delta: float,
    record_events: bool = False,
) -> Schedule:
    """Run *policy* on *instance* in the δ-delayed-commitment model.

    Returns an audited schedule.  ``delta`` must lie in
    ``[0, instance.epsilon]`` (the model's own constraint δ <= ε);
    ``delta = 0`` reduces to immediate commitment.
    """
    if not 0.0 <= delta <= instance.epsilon + TIME_EPS:
        raise ValueError(
            f"delta must lie in [0, epsilon={instance.epsilon}], got {delta}"
        )
    return run_model(
        DelayedCommitmentModel(policy, instance, delta), record_events=record_events
    )


class DelayedGreedyPolicy(DelayedPolicy):
    """Defer maximally, then admit by value with pending look-ahead.

    At each event, jobs are decided in order of decreasing processing time
    among those due; each is accepted onto the machine that can finish it
    earliest if feasible.  Before accepting a *due* job, the policy checks
    whether a strictly more valuable pending (not yet due) job would lose
    its only feasible machine slot — if so the due job is rejected in its
    favour.  This simple one-step look-ahead is what deferral buys.
    """

    name = "delayed-greedy"

    def __init__(self, lookahead: bool = True) -> None:
        self.lookahead = lookahead
        if not lookahead:
            self.name = "delayed-greedy[no-lookahead]"

    def _fits_anywhere(self, job: Job, t: float, machines: Sequence[MachineState]) -> bool:
        return any(ms.fits(job, t) for ms in machines)

    def decide(self, t, due, pending, machines):
        decisions: dict[int, Decision] = {}
        # Plan on clones: the engine owns the real timelines and applies
        # the returned decisions itself.
        planning = [ms.clone() for ms in machines]
        due_sorted = sorted(due, key=lambda p: -p.job.processing)
        others = [
            p for p in pending if p.job.job_id not in {d.job.job_id for d in due}
        ]
        for item in due_sorted:
            job = item.job
            candidates = [ms for ms in planning if ms.fits(job, t)]
            if not candidates:
                decisions[job.job_id] = Decision.reject(reason="no fit")
                continue
            chosen = max(candidates, key=lambda ms: (ms.outstanding(t), -ms.index))
            if self.lookahead and others:
                # Would accepting this job starve a strictly bigger pending
                # job of its last feasible machine?
                trial_machine = chosen.clone()
                trial_machine.commit(job, trial_machine.append_start(job, t))
                trial = [
                    trial_machine if ms is chosen else ms for ms in planning
                ]
                starved = [
                    o
                    for o in others
                    if o.job.processing > job.processing
                    and self._fits_anywhere(o.job, t, planning)
                    and not self._fits_anywhere(o.job, t, trial)
                ]
                if starved:
                    decisions[job.job_id] = Decision.reject(
                        reason="yielding to pending", yielded_to=starved[0].job.job_id
                    )
                    continue
            start = chosen.append_start(job, t)
            decisions[job.job_id] = Decision.accept(machine=chosen.index, start=start)
            chosen.commit(job, start)  # keep the plan current for this event
        return decisions


# ----------------------------------------------------------------------
# Commitment on admission
# ----------------------------------------------------------------------
class AdmissionPolicy(ABC):
    """Ranking policy for the commitment-on-admission engine."""

    name: str = "admission-policy"
    immediate_commitment = False

    def reset(self, machines: int, epsilon: float) -> None:
        """Prepare for a fresh run."""

    @abstractmethod
    def choose(self, t: float, pending: Sequence[Job]) -> Job | None:
        """Pick the pending job to start *now* on an idle machine.

        ``pending`` contains only jobs that can still start at *t*
        (``latest_start >= t``).  Return ``None`` to leave the machine
        idle until the next event.
        """


class AdmissionGreedyPolicy(AdmissionPolicy):
    """Start the most valuable (largest) startable pending job."""

    name = "admission-greedy"

    def choose(self, t: float, pending: Sequence[Job]) -> Job | None:
        if not pending:
            return None
        return max(pending, key=lambda j: (j.processing, -j.job_id))


class AdmissionLazyPolicy(AdmissionPolicy):
    """Wait until some pending job is about to expire, then start the best.

    The model's entire power over immediate commitment is the option to
    *wait*: starting as late as possible keeps the machine free for
    whatever bigger job may still arrive.  Only when some startable job
    reaches its latest start time does the policy commit — and then it
    starts the *largest* startable job, which need not be the one whose
    deadline forced the decision (on bait-and-whale streams the expiring
    bait triggers the start of a whale).
    """

    name = "admission-lazy"

    def __init__(self, slack_margin: float = 10 * TIME_EPS) -> None:
        self.slack_margin = slack_margin

    def choose(self, t: float, pending: Sequence[Job]) -> Job | None:
        if not pending:
            return None
        edge = min(j.latest_start for j in pending)
        if edge > t + self.slack_margin:
            return None  # nothing is forced yet: keep waiting
        return max(pending, key=lambda j: (j.processing, -j.job_id))


class AdmissionCommitmentModel(CommitmentModel):
    """Kernel strategy for the commitment-on-admission model.

    One kernel step per event time (release, machine-free time or pending
    expiry); starting jobs while machines are idle is a within-event
    fixpoint handled by :func:`exhaust`.
    """

    model = "commitment-on-admission"

    def __init__(self, policy: AdmissionPolicy, instance: Instance) -> None:
        self.policy = policy
        self.instance = instance
        self.algorithm = policy.name
        self.machine_free: list[float] = []
        self.pending: dict[int, Job] = {}
        self.feed = JobFeed(instance.jobs)
        self.schedule: Schedule | None = None
        self.now = 0.0

    def begin(self, ctx: KernelContext) -> None:
        self.policy.reset(self.instance.machines, self.instance.epsilon)
        self.machine_free = [0.0] * self.instance.machines
        self.schedule = Schedule(instance=self.instance, algorithm=self.policy.name)
        self.schedule.meta["model"] = self.model

    def _start_one(self, ctx: KernelContext) -> bool:
        """Start at most one pending job on an idle machine; True if started."""
        if not self.pending:
            return False
        now = self.now
        idle = [i for i, f in enumerate(self.machine_free) if f <= now + TIME_EPS]
        if not idle:
            return False
        startable = [j for j in self.pending.values() if fge(j.latest_start, now)]
        if not startable:
            return False
        choice = self.policy.choose(now, startable)
        if choice is None:
            return False
        if choice.job_id not in self.pending or not fge(choice.latest_start, now):
            ctx.fail(
                f"policy chose job {choice.job_id} that is not startable at {now}",
                job_id=choice.job_id,
                time=now,
            )
        machine = idle[0]
        start = max(now, choice.release)
        self.schedule.assignments[choice.job_id] = Assignment(choice.job_id, machine, start)
        self.machine_free[machine] = start + choice.processing
        del self.pending[choice.job_id]
        ctx.decided(now, choice.job_id, True, machine, start)
        return True

    def step(self, ctx: KernelContext) -> bool:
        if self.feed.exhausted and not self.pending:
            return False
        now = self.now

        # 1) absorb all releases at or before `now`.
        for job in self.feed.take_released(now):
            self.pending[job.job_id] = job
            ctx.submitted(job, now)

        # 2) decisive expiry: a pending job whose latest start precedes the
        #    earliest time any machine frees can never run.
        earliest_free = min(self.machine_free)
        for jid in [
            j
            for j, job in self.pending.items()
            if job.latest_start < max(now, earliest_free) - TIME_EPS
        ]:
            self.schedule.rejected.add(jid)
            del self.pending[jid]
            ctx.emit("expire", now, job_id=jid)
            ctx.decided(now, jid, False, reason="expired")

        # 3) start jobs on idle machines at the current instant.
        exhaust(lambda: self._start_one(ctx))

        # 4) advance to the next strictly-future event.
        candidates = []
        head = self.feed.peek()
        if head is not None:
            candidates.append(head.release)
        candidates.extend(f for f in self.machine_free if f > now + TIME_EPS)
        candidates.extend(
            j.latest_start for j in self.pending.values() if j.latest_start > now + TIME_EPS
        )
        future = [c for c in candidates if c > now + TIME_EPS]
        if future:
            self.now = min(future)
        elif self.pending:
            # Nothing will ever change: the remaining pending jobs are
            # un-startable (policy declined or machines busy forever in
            # the past-tense sense) — reject them and finish.
            for jid in list(self.pending):
                self.schedule.rejected.add(jid)
                del self.pending[jid]
                ctx.decided(now, jid, False, reason="unstartable")
        return True

    def build(self, ctx: KernelContext) -> Schedule:
        return self.schedule


def simulate_admission(
    policy: AdmissionPolicy, instance: Instance, record_events: bool = False
) -> Schedule:
    """Run *policy* in the commitment-on-admission model; audited schedule.

    Jobs that can no longer start in time on any machine are recorded as
    rejected.  ``schedule.meta['model']`` records the model name so
    reports can distinguish it from immediate-commitment runs.
    """
    return run_model(
        AdmissionCommitmentModel(policy, instance), record_events=record_events
    )


# ----------------------------------------------------------------------
# Registry-shaped entry point
# ----------------------------------------------------------------------
def reference_run(
    algorithm: str, instance: Instance, record_events: bool = False, **kwargs
) -> RunResult:
    """Run *algorithm* on the reference engine, as ``run_algorithm`` would.

    ``delta`` defaults to the instance's slack and is clamped to it, the
    normalisation :func:`repro.baselines.registry.run_algorithm` applies.
    """
    if algorithm == "delayed-greedy":
        delta = kwargs.pop("delta", None)
        delta = instance.epsilon if delta is None else min(delta, instance.epsilon)
        schedule = simulate_delayed(
            DelayedGreedyPolicy(**kwargs), instance, delta, record_events=record_events
        )
    elif algorithm in ("admission-greedy", "admission-lazy"):
        policy = (
            AdmissionGreedyPolicy(**kwargs)
            if algorithm == "admission-greedy"
            else AdmissionLazyPolicy(**kwargs)
        )
        schedule = simulate_admission(policy, instance, record_events=record_events)
    else:
        raise KeyError(f"no reference engine for {algorithm!r}")
    return RunResult(
        algorithm=algorithm,
        instance=instance,
        accepted_load=schedule.accepted_load,
        accepted_count=schedule.accepted_count,
        detail=schedule,
    )
