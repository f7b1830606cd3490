"""The shared simulation kernel behind every commitment-model engine.

The paper's §1 taxonomy spans five machine models — immediate commitment,
δ-delayed commitment, commitment on admission, commitment with penalties
and the preemptive immediate-notification model.  Their *policies* differ
radically, but the simulation machinery does not: every engine advances an
event clock, asks a strategy to process decision points, validates the
resulting commitments, audits the outcome, and should expose the same
observability surface.  This module owns that machinery once:

* :func:`run_model` — the single event loop.  Engines are
  :class:`CommitmentModel` strategy objects that process one decision point
  per :meth:`~CommitmentModel.step`; the kernel's loop drives them (the
  delayed, admission and penalties models keep their own loop's state in
  a generator that each step advances by one event or submission).
* :class:`SimulationError` — the unified error taxonomy.  Every invalid
  *policy* decision, in every model, raises this one type with the same
  diagnostic shape (``model``, ``job_id``, ``time``).  It subclasses both
  ``RuntimeError`` (the immediate engine's historical contract) and
  ``ValueError`` (the historical contract of the delayed / admission /
  penalties engines) so existing handlers keep working.
* :class:`EventStream` / :class:`SimEvent` — a model-agnostic structured
  event log (submissions, decisions, revocations, expiries, completions).
  Opt-in per run (``record_events=True``) so the hot path pays nothing.
* :class:`RunStats` — per-run counters and timings (jobs, decisions,
  accepted load, decisions/s, audit time), attached to every outcome's
  ``meta["stats"]`` regardless of model.
* :func:`commit_decision` — the validated machine-timeline mutation of
  the immediate model, whose policies are pluggable.
* :func:`replay_events` — rebuilds a :class:`~repro.model.schedule.Schedule`
  from a recorded event stream; the property suite asserts replay fidelity
  for every schedule-producing model.

Downstream layers (sweeps, the process-pool fan-out, adversary duels, the
baselines registry and the CLI) all reach simulation through the
``simulate_*`` entry points, so a schedule carries identical
instrumentation whether it came from a single run, a sweep cell or an
adversary search.
"""

from __future__ import annotations

import time as _time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.engine.recorder import TraceRecorder
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS, fge

#: Backstop on kernel steps for a single run — far above any real workload;
#: guards against non-terminating model/policy combinations.
MAX_KERNEL_STEPS = 50_000_000


class SimulationError(RuntimeError, ValueError):
    """A policy produced an invalid decision (infeasible or out of range).

    One error type for every commitment model.  The dual inheritance is
    deliberate backward compatibility: the immediate engine historically
    raised ``RuntimeError`` subclasses while the delayed / admission /
    penalties engines raised bare ``ValueError`` — code catching either
    keeps working.

    Attributes
    ----------
    model:
        Identifier of the commitment model that raised (e.g. ``"immediate"``).
    job_id:
        The job being decided when the violation occurred, if known.
    time:
        Simulation time of the violation, if known.
    """

    def __init__(
        self,
        message: str,
        *,
        model: str | None = None,
        job_id: int | None = None,
        time: float | None = None,
    ) -> None:
        super().__init__(message)
        self.model = model
        self.job_id = job_id
        self.time = time


# ----------------------------------------------------------------------
# Observability: structured events and per-run statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class SimEvent:
    """One structured kernel event.

    ``kind`` is one of ``"submission"``, ``"decision"``, ``"revoke"``,
    ``"expire"`` or ``"complete"``; ``data`` carries kind-specific payload
    (decision events always have ``accepted`` and, when accepted,
    ``machine`` — plus ``start`` in the timeline-committing models).
    """

    seq: int
    time: float
    kind: str
    job_id: int | None
    data: dict[str, Any]

    def summary(self) -> str:
        """Single-line rendering for logs and the CLI."""
        payload = ", ".join(f"{k}={v!r}" for k, v in sorted(self.data.items()))
        who = "-" if self.job_id is None else f"job {self.job_id}"
        return f"[{self.seq:5d}] t={self.time:g} {self.kind:<10s} {who} {payload}"


class EventStream:
    """Append-only, model-agnostic log of :class:`SimEvent` records."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[SimEvent] = []

    def emit(self, kind: str, time: float, job_id: int | None = None, **data: Any) -> SimEvent:
        """Append an event and return it."""
        ev = SimEvent(seq=len(self.events), time=time, kind=kind, job_id=job_id, data=data)
        self.events.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> list[SimEvent]:
        """All events of the given kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def render(self) -> str:
        """Multi-line rendering of the whole stream."""
        return "\n".join(e.summary() for e in self.events)


@dataclass(slots=True)
class RunStats:
    """Per-run counters and timings, attached to every outcome's meta."""

    model: str
    algorithm: str
    jobs: int = 0
    decisions: int = 0
    accepted: int = 0
    rejected: int = 0
    revoked: int = 0
    steps: int = 0
    events: int = 0
    accepted_load: float = 0.0
    sim_seconds: float = 0.0
    audit_seconds: float = 0.0

    @property
    def decisions_per_second(self) -> float:
        """Decision throughput of the simulation phase (excl. audit)."""
        return self.decisions / self.sim_seconds if self.sim_seconds > 0 else float("inf")

    @property
    def jobs_per_second(self) -> float:
        """Submission throughput of the simulation phase (excl. audit)."""
        return self.jobs / self.sim_seconds if self.sim_seconds > 0 else float("inf")

    def as_dict(self) -> dict[str, Any]:
        """Flat dict form (JSON-friendly)."""
        return {
            "model": self.model,
            "algorithm": self.algorithm,
            "jobs": self.jobs,
            "decisions": self.decisions,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "revoked": self.revoked,
            "steps": self.steps,
            "events": self.events,
            "accepted_load": self.accepted_load,
            "sim_seconds": self.sim_seconds,
            "audit_seconds": self.audit_seconds,
            "decisions_per_second": self.decisions_per_second,
            "jobs_per_second": self.jobs_per_second,
        }


# ----------------------------------------------------------------------
# Kernel context: what a model sees while running
# ----------------------------------------------------------------------
class KernelContext:
    """Per-run services the kernel hands to the executing model.

    The context centralises error raising (:meth:`fail`), decision
    accounting (:meth:`decided`), optional structured events
    (:meth:`emit`) and the optional per-submission
    :class:`~repro.engine.recorder.TraceRecorder`.
    """

    __slots__ = ("model", "stats", "events", "recorder")

    def __init__(
        self,
        model: str,
        stats: RunStats,
        events: EventStream | None = None,
        recorder: TraceRecorder | None = None,
    ) -> None:
        self.model = model
        self.stats = stats
        self.events = events
        self.recorder = recorder

    def fail(
        self, message: str, *, job_id: int | None = None, time: float | None = None
    ) -> None:
        """Raise a :class:`SimulationError` with the unified diagnostic shape."""
        raise SimulationError(message, model=self.model, job_id=job_id, time=time)

    def emit(self, kind: str, time: float, job_id: int | None = None, **data: Any) -> None:
        """Emit a structured event when event recording is enabled."""
        if self.events is not None:
            self.events.emit(kind, time, job_id=job_id, **data)
            self.stats.events += 1

    def submitted(self, job: Job, t: float) -> None:
        """Account one job submission."""
        self.stats.jobs += 1
        if self.events is not None:
            self.events.emit(
                "submission",
                t,
                job_id=job.job_id,
                processing=job.processing,
                deadline=job.deadline,
            )
            self.stats.events += 1

    def decided(
        self,
        t: float,
        job_id: int,
        accepted: bool,
        machine: int | None = None,
        start: float | None = None,
        reason: str | None = None,
    ) -> None:
        """Account one final accept/reject decision (any model).

        The signature is deliberately concrete (no ``**kwargs``) — this is
        the hottest kernel call, one per submission in every model.
        """
        stats = self.stats
        stats.decisions += 1
        if accepted:
            stats.accepted += 1
        else:
            stats.rejected += 1
        if self.events is not None:
            payload: dict[str, Any] = {"accepted": accepted}
            if machine is not None:
                payload["machine"] = machine
            if start is not None:
                payload["start"] = start
            if reason is not None:
                payload["reason"] = reason
            self.events.emit("decision", t, job_id=job_id, **payload)
            stats.events += 1

    def revoked(self, t: float, job_id: int, **data: Any) -> None:
        """Account the revocation of a previously planned job."""
        self.stats.revoked += 1
        self.emit("revoke", t, job_id=job_id, **data)


# ----------------------------------------------------------------------
# The strategy interface and the one event loop
# ----------------------------------------------------------------------
class CommitmentModel(ABC):
    """Strategy object for one commitment model's simulation semantics.

    The kernel drives the lifecycle: :meth:`begin` once, then
    :meth:`step` until it returns ``False`` (each call processes exactly
    one decision point — a submission or an event time), then
    :meth:`finish`, then :meth:`build` to produce the outcome.  The
    outcome must expose ``audit()`` and a ``meta`` mapping; the kernel
    audits it and attaches the run's stats (and event stream, when
    recorded) before returning.
    """

    #: Model identifier recorded in errors, stats and ``meta["model"]``.
    model: str = "model"

    #: Human-readable label of the policy driving the run.
    algorithm: str = "policy"

    @abstractmethod
    def begin(self, ctx: KernelContext) -> None:
        """Initialise run state (machines, pending sets, policy reset)."""

    @abstractmethod
    def step(self, ctx: KernelContext) -> bool:
        """Process one decision point; return ``False`` when exhausted."""

    def finish(self, ctx: KernelContext) -> None:
        """End-of-stream hook (drain machines, flush pending work)."""

    @abstractmethod
    def build(self, ctx: KernelContext) -> Any:
        """Construct the model-native outcome (``Schedule``/outcome object)."""


def run_model(
    model: CommitmentModel,
    *,
    record_events: bool = False,
    recorder: TraceRecorder | None = None,
    max_steps: int = MAX_KERNEL_STEPS,
) -> Any:
    """Execute *model* under the shared kernel and return its audited outcome.

    Every outcome leaves with ``meta["model"]`` (the model identifier),
    ``meta["stats"]`` (a :class:`RunStats`) and — when *record_events* —
    ``meta["events"]`` (an :class:`EventStream`).
    """
    stats = RunStats(model=model.model, algorithm=model.algorithm)
    ctx = KernelContext(
        model=model.model,
        stats=stats,
        events=EventStream() if record_events else None,
        recorder=recorder,
    )
    t0 = _time.perf_counter()
    model.begin(ctx)
    steps = 0
    step = model.step  # bound once: the loop below is the hottest line in the repo
    while step(ctx):
        steps += 1
        if steps >= max_steps:
            ctx.fail(f"kernel exceeded max_steps={max_steps} (non-terminating model?)")
    model.finish(ctx)
    outcome = model.build(ctx)
    stats.sim_seconds = _time.perf_counter() - t0
    t1 = _time.perf_counter()
    outcome.audit()
    stats.audit_seconds = _time.perf_counter() - t1
    stats.steps = steps
    stats.accepted_load = float(
        getattr(outcome, "accepted_load", getattr(outcome, "completed_load", 0.0))
    )
    meta = outcome.meta
    meta.setdefault("model", model.model)
    meta["stats"] = stats
    if ctx.events is not None:
        meta["events"] = ctx.events
    return outcome


# ----------------------------------------------------------------------
# Shared building blocks for the concrete models
# ----------------------------------------------------------------------
class JobFeed:
    """Peekable stream of jobs in submission order with release draining."""

    __slots__ = ("_iter", "_head")

    def __init__(self, jobs: Iterable[Job]) -> None:
        self._iter = iter(jobs)
        self._head: Job | None = next(self._iter, None)

    def peek(self) -> Job | None:
        """The next job without consuming it (``None`` when exhausted)."""
        return self._head

    def pop(self) -> Job | None:
        """Consume and return the next job (``None`` when exhausted)."""
        head = self._head
        if head is not None:
            self._head = next(self._iter, None)
        return head

    def take_released(self, t: float, eps: float = TIME_EPS) -> list[Job]:
        """Consume every job released at or before ``t + eps``."""
        out: list[Job] = []
        while self._head is not None and self._head.release <= t + eps:
            out.append(self._head)
            self._head = next(self._iter, None)
        return out

    @property
    def exhausted(self) -> bool:
        """Whether the stream has ended."""
        return self._head is None


def commit_decision(
    machines: Sequence[MachineState],
    job: Job,
    t: float,
    machine: int,
    start: float,
    ctx: KernelContext,
) -> None:
    """Validate and commit an acceptance onto the authoritative timelines.

    The kernel — not the model — owns the mutation: machine range, start
    monotonicity and the timeline's own feasibility/overlap invariants are
    checked here, and every violation raises :class:`SimulationError`.
    """
    if not 0 <= machine < len(machines):
        ctx.fail(
            f"job {job.job_id}: machine index {machine} out of range [0, {len(machines)})",
            job_id=job.job_id,
            time=t,
        )
    if not fge(start, t):
        ctx.fail(
            f"job {job.job_id}: committed start {start} lies before decision time {t}",
            job_id=job.job_id,
            time=t,
        )
    try:
        machines[machine].commit(job, start)
    except ValueError as exc:
        raise SimulationError(
            str(exc), model=ctx.model, job_id=job.job_id, time=t
        ) from exc


def replay_events(instance: Any, events: EventStream | Iterable[SimEvent]) -> Schedule:
    """Rebuild a :class:`Schedule` from a kernel event stream.

    Only terminal ``"decision"`` events matter; later decisions for the
    same job override earlier ones (the penalties model revokes by
    emitting ``"revoke"`` — replay honours those too).  The result is
    re-audited, so a stream that does not encode a valid schedule fails
    loudly.
    """
    schedule = Schedule(instance=instance, algorithm="replay")
    for ev in events:
        if ev.kind == "decision":
            jid = ev.job_id
            assert jid is not None
            if ev.data.get("accepted"):
                schedule.assignments[jid] = Assignment(
                    jid, ev.data["machine"], ev.data["start"]
                )
                schedule.rejected.discard(jid)
            else:
                schedule.rejected.add(jid)
                schedule.assignments.pop(jid, None)
        elif ev.kind == "revoke":
            jid = ev.job_id
            assert jid is not None
            schedule.assignments.pop(jid, None)
            schedule.rejected.add(jid)
    schedule.audit()
    return schedule
