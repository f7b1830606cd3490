"""The non-preemptive immediate-commitment engine, on the shared kernel.

In the paper's model nothing observable happens between submissions — the
committed timelines evolve deterministically — so the model is a strict
sequence of decision points, one per submitted job:

1. pull the next job from the source (adaptive sources may construct it
   from the decision history);
2. ask the policy for an irrevocable :class:`~repro.engine.policy.Decision`;
3. validate and apply the decision to the authoritative machine timelines
   (an invalid acceptance is a *policy bug* and raises
   :class:`~repro.engine.kernel.SimulationError` — the engine never
   silently repairs it);
4. feed the decision back to the source.

The event loop, validation, audit and observability live in
:mod:`repro.engine.kernel`; this module supplies the
:class:`ImmediateCommitmentModel` strategy and the historical
``simulate*`` entry points.  The returned
:class:`~repro.model.schedule.Schedule` is always audited before being
handed to the caller, so downstream analysis can trust Claim-1-style
invariants unconditionally.
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.kernel import (
    CommitmentModel,
    KernelContext,
    SimulationError,
    commit_decision,
    run_model,
)
from repro.engine.policy import JobSource, OnlinePolicy, SequenceSource
from repro.engine.recorder import TraceRecorder
from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS

__all__ = [
    "ImmediateCommitmentModel",
    "SimulationError",
    "simulate",
    "simulate_source",
    "simulate_many",
]


class ImmediateCommitmentModel(CommitmentModel):
    """Kernel strategy for the paper's immediate-commitment model.

    One kernel step per submission: the decision is final the moment it is
    returned, and accepted jobs are committed onto the authoritative
    :class:`~repro.model.machine.MachineState` timelines instantly (the
    ``O(m log n)`` fast path — per decision, one ``outstanding``
    computation per machine, which the trace, the policy and a live
    session's reply share, plus one bisection commit).  A job whose id
    already equals its submission index is kept as it is, so an
    :class:`~repro.model.instance.Instance`'s jobs and a live offer's job
    are never copied.
    """

    model = "immediate"

    def __init__(
        self,
        policy: OnlinePolicy,
        source: JobSource,
        recorder: TraceRecorder | None = None,
        max_jobs: int = 1_000_000,
    ) -> None:
        self.policy = policy
        self.source = source
        self.algorithm = policy.name
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.max_jobs = max_jobs
        self.machines: list[MachineState] = []
        self.emitted: list[Job] = []
        self.decisions: list[tuple[int, Assignment | None]] = []
        self.now = 0.0

    def begin(self, ctx: KernelContext) -> None:
        self.machines = [MachineState(i) for i in range(self.source.machines)]
        self.policy.reset(self.source.machines, self.source.epsilon)
        ctx.recorder = self.recorder

    def step(self, ctx: KernelContext) -> bool:
        # Hot path: one call per submission.  Attributes are hoisted to
        # locals; the loop itself lives in the kernel's ``run_model``.
        source = self.source
        raw = source.next_job()
        if raw is None:
            return False
        emitted = self.emitted
        seq = len(emitted)
        if seq >= self.max_jobs:
            ctx.fail(f"source exceeded max_jobs={self.max_jobs}")
        job = raw if raw.job_id == seq else raw.with_id(seq)
        t = job.release
        if t < self.now - TIME_EPS:
            ctx.fail(
                f"job {job.job_id} released at {job.release} before current time {self.now}",
                job_id=job.job_id,
                time=self.now,
            )
        if t > self.now:
            self.now = t
        machines = self.machines
        loads_before = [ms.outstanding(t) for ms in machines]
        decision = self.policy.on_submission(job, t, machines)
        if decision.accepted:
            commit_decision(machines, job, t, decision.machine, decision.start, ctx)
            self.decisions.append(
                (job.job_id, Assignment(job.job_id, decision.machine, decision.start))
            )
        else:
            self.decisions.append((job.job_id, None))
        self.recorder.record(t, job, decision, loads_before)
        if ctx.events is not None:
            ctx.decided(t, job.job_id, decision.accepted, decision.machine, decision.start)
        emitted.append(job)
        source.observe(job, decision)
        return True

    def finish(self, ctx: KernelContext) -> None:
        self.source.finalize()
        stats = ctx.stats
        stats.jobs = len(self.emitted)
        if ctx.events is None:
            # Bulk accounting: the decision list already holds everything a
            # per-decision ``ctx.decided`` call would have counted.
            stats.decisions = len(self.decisions)
            stats.accepted = sum(1 for _, a in self.decisions if a is not None)
            stats.rejected = stats.decisions - stats.accepted

    def build(self, ctx: KernelContext) -> Schedule:
        instance = Instance(
            self.emitted,
            machines=self.source.machines,
            epsilon=self.source.epsilon,
            name=getattr(self.source, "name", ""),
        )
        return Schedule.from_decisions(
            instance, self.decisions, algorithm=self.policy.name, meta={"trace": self.recorder}
        )


def simulate_source(
    policy: OnlinePolicy,
    source: JobSource,
    recorder: TraceRecorder | None = None,
    max_jobs: int = 1_000_000,
    record_events: bool = False,
) -> Schedule:
    """Run *policy* against the (possibly adaptive) *source* on the kernel.

    Returns an audited schedule over the instance the source actually
    emitted, carrying ``meta["trace"]`` (per-submission decision records),
    ``meta["stats"]`` (kernel run statistics) and — with
    ``record_events=True`` — ``meta["events"]``.  ``max_jobs`` guards
    against non-terminating adaptive sources.
    """
    model = ImmediateCommitmentModel(policy, source, recorder=recorder, max_jobs=max_jobs)
    return run_model(model, record_events=record_events)


def simulate(
    policy: OnlinePolicy,
    instance: Instance,
    recorder: TraceRecorder | None = None,
    record_events: bool = False,
) -> Schedule:
    """Run *policy* over a fixed *instance* (non-adaptive convenience)."""
    schedule = simulate_source(
        policy, SequenceSource(instance), recorder=recorder, record_events=record_events
    )
    # Preserve the caller's instance object (ids match by construction).
    schedule.instance = instance
    return schedule


def simulate_many(
    policy: OnlinePolicy, instances: Iterable[Instance]
) -> list[Schedule]:
    """Run *policy* over several instances, resetting between runs."""
    return [simulate(policy, inst) for inst in instances]
