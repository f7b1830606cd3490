"""Incremental admission control: one job in, one final decision out.

Every historical entrypoint of the engine (``simulate``, sweeps, the
batch backends) is run-to-completion over a frozen
:class:`~repro.model.instance.Instance`.  The paper's Threshold algorithm
is an *online admission controller*, though — in production it would sit
in a request loop: a job arrives, the controller answers commit/reject
immediately, and the committed machine state carries over to the next
request.  This module is that request loop, extracted from the kernel's
event loop as a facade:

* :func:`open_session` — build an :class:`AdmissionController` for a
  registry algorithm (or an explicit policy object) on ``machines``
  machines with slack ``epsilon``;
* :meth:`AdmissionController.offer` — submit one job, get the final
  :class:`~repro.engine.policy.Decision` back;
* :meth:`AdmissionController.snapshot` / :meth:`AdmissionController.restore`
  — JSON-safe state capture and deterministic-replay recovery;
* :meth:`AdmissionController.schedule` — the audited
  :class:`~repro.model.schedule.Schedule` over everything offered so far.

Bit-identity is the design contract, not an aspiration: the session drives
the *same* :class:`~repro.engine.simulator.ImmediateCommitmentModel`
strategy the batch path runs, one :meth:`~CommitmentModel.step` per
:meth:`offer`, against the same :class:`~repro.engine.kernel.KernelContext`
machinery.  Feeding a request log through a session and through
:func:`~repro.engine.simulator.simulate` therefore produces byte-identical
schedules and decision traces by construction — the suite pins it anyway
(``tests/serve/test_controller.py``), and ``repro serve`` builds its live
service plus crash recovery on top of exactly this guarantee.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Any, Iterable, Mapping, Sequence

from repro.engine.kernel import KernelContext, RunStats, SimulationError
from repro.engine.policy import Decision, JobSource, OnlinePolicy
from repro.engine.simulator import ImmediateCommitmentModel
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.model.schedule import Schedule
from repro.utils.tolerances import TIME_EPS

__all__ = [
    "AdmissionController",
    "SnapshotMismatchError",
    "open_session",
]

#: Snapshot format version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1


class SnapshotMismatchError(RuntimeError):
    """Replaying a snapshot produced a decision that differs from the record.

    Deterministic policies replay their request log to identical decisions;
    a divergence means the snapshot belongs to a different algorithm/seed
    (or the code changed behaviour between capture and restore) — silently
    continuing would split the served history from the recovered state.
    """


class _PushSource(JobSource):
    """A :class:`JobSource` fed one job at a time by the session.

    The immediate-commitment strategy pulls jobs and pushes decisions;
    this source turns that inside out so a caller can *offer* a job and
    collect the resulting decision synchronously.
    """

    def __init__(self, machines: int, epsilon: float, name: str = "") -> None:
        self._machines = machines
        self._epsilon = epsilon
        self._queue: deque[Job] = deque()
        self._decision: Decision | None = None
        self.name = name

    @property
    def machines(self) -> int:
        return self._machines

    @property
    def epsilon(self) -> float:
        return self._epsilon

    def push(self, job: Job) -> None:
        self._queue.append(job)

    def next_job(self) -> Job | None:
        return self._queue.popleft() if self._queue else None

    def observe(self, job: Job, decision: Decision) -> None:
        self._decision = decision

    def take_decision(self) -> Decision:
        decision = self._decision
        assert decision is not None, "no decision observed for the offered job"
        self._decision = None
        return decision


class AdmissionController:
    """A live, incremental admission session over committed machine state.

    One session is one continuous run of the immediate-commitment kernel
    strategy: machine timelines, the policy's private state and the
    decision trace persist across :meth:`offer` calls exactly as they
    would within a single :func:`~repro.engine.simulator.simulate` call.
    Sessions are single-writer — offers must be serialised by the caller
    (the asyncio server does this for free).

    Build sessions with :func:`open_session`; the constructor is the
    escape hatch for explicit policy objects (such sessions cannot
    :meth:`snapshot` unless given a registry ``algorithm`` name + kwargs
    that reconstruct the policy).
    """

    def __init__(
        self,
        policy: OnlinePolicy,
        machines: int,
        epsilon: float,
        *,
        algorithm: str | None = None,
        algorithm_kwargs: Mapping[str, Any] | None = None,
        name: str = "",
        max_jobs: int = 1_000_000,
    ) -> None:
        if machines < 1:
            raise ValueError(f"machines must be >= 1, got {machines}")
        if epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self._algorithm = algorithm
        self._algorithm_kwargs = dict(algorithm_kwargs or {})
        self._source = _PushSource(machines, epsilon, name=name)
        self._model = ImmediateCommitmentModel(
            policy, self._source, max_jobs=max_jobs
        )
        self._stats = RunStats(model=self._model.model, algorithm=policy.name)
        self._ctx = KernelContext(model=self._model.model, stats=self._stats)
        self._model.begin(self._ctx)
        self._sim_seconds = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def algorithm(self) -> str:
        """Label of the policy driving the session."""
        return self._model.algorithm

    @property
    def machines(self) -> int:
        """Machine count of the session."""
        return self._source.machines

    @property
    def epsilon(self) -> float:
        """Declared slack of the session."""
        return self._source.epsilon

    @property
    def now(self) -> float:
        """Simulation clock: release date of the latest offered job."""
        return self._model.now

    @property
    def jobs(self) -> tuple[Job, ...]:
        """Every job offered so far, in submission order (ids assigned).

        Copies the whole history; a request loop uses :attr:`job_count`
        and :meth:`job`, which cost O(1) however long the session.
        """
        return tuple(self._model.emitted)

    @property
    def job_count(self) -> int:
        """How many jobs were offered so far: the next job's sequence number."""
        return len(self._model.emitted)

    def job(self, seq: int) -> Job:
        """The job offered as number *seq* (0-based), with its id assigned."""
        return self._model.emitted[seq]

    @property
    def decisions(self) -> list[Decision]:
        """Decisions in submission order (rebuilt from the trace)."""
        return [record.decision for record in self._model.recorder]

    @property
    def machine_states(self) -> Sequence[MachineState]:
        """The authoritative committed timelines (treat as read-only)."""
        return self._model.machines

    @property
    def accepted_load(self) -> float:
        """Total processing time of accepted jobs so far.

        Summed in acceptance order — the same order
        :attr:`~repro.model.schedule.Schedule.accepted_load` uses — so the
        float is bit-identical to the batch path's, not merely close.
        """
        emitted = self._model.emitted
        return float(
            sum(
                emitted[job_id].processing
                for job_id, assigned in self._model.decisions
                if assigned is not None
            )
        )

    def loads(self, t: float | None = None) -> list[float]:
        """Per-machine outstanding load at time *t* (default: now)."""
        at = self.now if t is None else t
        return [ms.outstanding(at) for ms in self._model.machines]

    def stats(self) -> RunStats:
        """Live counters of the session (same shape as a kernel run)."""
        stats = RunStats(model=self._model.model, algorithm=self._model.algorithm)
        decisions = self._model.decisions
        stats.jobs = len(self._model.emitted)
        stats.decisions = len(decisions)
        stats.accepted = sum(1 for _, a in decisions if a is not None)
        stats.rejected = stats.decisions - stats.accepted
        stats.steps = stats.decisions
        stats.accepted_load = self.accepted_load
        stats.sim_seconds = self._sim_seconds
        return stats

    # ------------------------------------------------------------------
    # The request loop
    # ------------------------------------------------------------------
    def offer(self, job: Job, t: float | None = None) -> Decision:
        """Submit one job; returns the final, irrevocable decision.

        ``t`` is the decision time and must equal the job's release date
        (pass ``t=None`` to use ``job.release``); offering a job released
        before the session clock raises
        :class:`~repro.engine.kernel.SimulationError`, exactly as the
        batch kernel would.  An accepted job is committed onto the live
        machine timelines before this returns.
        """
        if self._closed:
            raise SimulationError(
                "session is closed", model=self._model.model
            )
        if t is not None and abs(t - job.release) > TIME_EPS:
            raise SimulationError(
                f"offer time {t} disagrees with job release {job.release}",
                model=self._model.model,
                time=t,
            )
        self._source.push(job)
        t0 = _time.perf_counter()
        progressed = self._model.step(self._ctx)
        self._sim_seconds += _time.perf_counter() - t0
        assert progressed, "push source handed the kernel no job"
        return self._source.take_decision()

    def offer_many(self, jobs: Iterable[Job]) -> list[Decision]:
        """Offer several jobs in order; returns their decisions."""
        return [self.offer(job) for job in jobs]

    def close(self) -> Schedule:
        """Seal the session and return the final audited schedule."""
        schedule = self.schedule()
        self._closed = True
        return schedule

    # ------------------------------------------------------------------
    # Outcome (identical shape to the batch path)
    # ------------------------------------------------------------------
    def schedule(self) -> Schedule:
        """Audited :class:`Schedule` over everything offered so far.

        Runs the same finish/build/audit epilogue as
        :func:`~repro.engine.kernel.run_model`, so the result is
        byte-identical to :func:`~repro.engine.simulator.simulate` on the
        instance formed by the offered jobs — including ``meta["trace"]``
        and ``meta["stats"]`` counters (timings necessarily differ).
        """
        self._model.finish(self._ctx)
        outcome = self._model.build(self._ctx)
        t0 = _time.perf_counter()
        outcome.audit()
        stats = self.stats()
        stats.audit_seconds = _time.perf_counter() - t0
        meta = outcome.meta
        meta.setdefault("model", self._model.model)
        meta["stats"] = stats
        return outcome

    # ------------------------------------------------------------------
    # Snapshot / restore (deterministic replay)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state capture: construction recipe + request log.

        Deterministic policies (every registry policy, including the
        seeded randomized ones) rebuild their exact private state by
        replaying the offered jobs in order, so the snapshot stores the
        request log plus the recorded decisions — :meth:`restore` replays
        and *verifies* each decision against the record.  Requires the
        session to have been opened by registry name
        (:func:`open_session`); ad-hoc policy objects carry arbitrary
        state the snapshot could not reconstruct.
        """
        if self._algorithm is None:
            raise ValueError(
                "snapshot() needs a registry algorithm name; open the "
                "session with open_session(algorithm, ...) instead of an "
                "ad-hoc policy object"
            )
        return {
            "version": SNAPSHOT_VERSION,
            "algorithm": self._algorithm,
            "kwargs": dict(self._algorithm_kwargs),
            "machines": self.machines,
            "epsilon": self.epsilon,
            "name": self._source.name,
            "max_jobs": self._model.max_jobs,
            "jobs": [job_to_payload(job) for job in self._model.emitted],
            "decisions": [
                decision_to_payload(record.decision)
                for record in self._model.recorder
            ],
        }

    @classmethod
    def restore(
        cls, snapshot: Mapping[str, Any], *, verify: bool = True
    ) -> "AdmissionController":
        """Rebuild a session from :meth:`snapshot` by deterministic replay.

        With ``verify=True`` (the default) every replayed decision is
        compared against the snapshot's record; a divergence raises
        :class:`SnapshotMismatchError` instead of silently forking the
        history.
        """
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        session = open_session(
            snapshot["algorithm"],
            machines=int(snapshot["machines"]),
            epsilon=float(snapshot["epsilon"]),
            name=snapshot.get("name", ""),
            max_jobs=int(snapshot.get("max_jobs", 1_000_000)),
            **snapshot.get("kwargs", {}),
        )
        recorded = snapshot.get("decisions", [])
        for i, payload in enumerate(snapshot.get("jobs", [])):
            decision = session.offer(job_from_payload(payload))
            if verify and i < len(recorded):
                expected = recorded[i]
                got = decision_to_payload(decision)
                if got != expected:
                    raise SnapshotMismatchError(
                        f"replay diverged at job {i}: snapshot recorded "
                        f"{expected}, replay produced {got} — the snapshot "
                        "belongs to a different algorithm, seed or code "
                        "version"
                    )
        return session


def open_session(
    algorithm: str | OnlinePolicy,
    machines: int,
    epsilon: float,
    *,
    name: str = "",
    max_jobs: int = 1_000_000,
    **kwargs: Any,
) -> AdmissionController:
    """Open an incremental admission session (the facade entry point).

    ``algorithm`` is a registry name (``"threshold"``, ``"greedy"``, …)
    instantiated with ``**kwargs``, or an explicit
    :class:`~repro.engine.policy.OnlinePolicy` object (which forfeits
    :meth:`AdmissionController.snapshot` support).  Only non-preemptive
    immediate-commitment algorithms can serve a live request loop — the
    delayed/admission/penalties models defer or revoke decisions, so a
    synchronous ``offer -> final decision`` contract cannot hold for them
    and they are rejected with ``ValueError``.
    """
    if isinstance(algorithm, OnlinePolicy):
        if kwargs:
            raise ValueError(
                "keyword arguments only apply to registry algorithm names, "
                "not pre-built policy objects"
            )
        return AdmissionController(algorithm, machines, epsilon, name=name,
                                   max_jobs=max_jobs)
    from repro.baselines.registry import ALGORITHMS, make_algorithm

    spec = ALGORITHMS.get(algorithm)
    if spec is None:
        raise KeyError(
            f"unknown algorithm {algorithm!r}; known: {sorted(ALGORITHMS)}"
        )
    if spec.model != "nonpreemptive":
        immediate = sorted(
            n for n, s in ALGORITHMS.items() if s.model == "nonpreemptive"
        )
        raise ValueError(
            f"{algorithm!r} runs the {spec.model!r} commitment model, which "
            "cannot answer a live offer with a final decision; incremental "
            f"sessions support the immediate-commitment algorithms: {immediate}"
        )
    if spec.single_machine_only and machines != 1:
        raise ValueError(f"{algorithm!r} only runs on single-machine sessions")
    policy = make_algorithm(algorithm, **kwargs)
    return AdmissionController(
        policy,
        machines,
        epsilon,
        algorithm=algorithm,
        algorithm_kwargs=kwargs,
        name=name,
        max_jobs=max_jobs,
    )


# ---------------------------------------------------------------------------
# payload helpers (shared with the serve journal)
# ---------------------------------------------------------------------------


def job_to_payload(job: Job) -> list[Any]:
    """Compact JSON-safe form ``[release, processing, deadline, weight]``.

    Python's ``json`` emits shortest round-trip float literals, so the
    payload replays bit-identical — the property the serve journal's
    decision log and the snapshot both rely on.
    """
    return [job.release, job.processing, job.deadline, job.weight]


def job_from_payload(payload: Sequence[Any]) -> Job:
    """Inverse of :func:`job_to_payload` (job id reassigned on offer)."""
    if len(payload) not in (3, 4):
        raise ValueError(f"job payload must have 3 or 4 fields, got {payload!r}")
    weight = payload[3] if len(payload) == 4 else None
    return Job(
        float(payload[0]),
        float(payload[1]),
        float(payload[2]),
        weight=None if weight is None else float(weight),
    )


def decision_to_payload(decision: Decision) -> list[Any]:
    """Compact JSON-safe form ``[accepted, machine, start]`` (info dropped)."""
    return [bool(decision.accepted), decision.machine, decision.start]
