"""Delayed commitment: the δ-deferral model of the paper's Section 1.

The paper's taxonomy (§1) contrasts *immediate commitment* with
*δ-delayed commitment*: an algorithm may postpone the accept/reject
decision on job :math:`J_j` until time :math:`r_j + \\delta \\cdot p_j`
(with :math:`\\delta \\le \\varepsilon`), e.g. the framework of Chen et
al. [8] and Azar et al. [2].  This module implements that machine model so
the benchmarks can measure the *price of immediacy* — how much objective
value the immediate-commitment requirement costs relative to a deferred
decider on the same streams.

Mechanics
---------

* Each submitted job enters a *pending* set with decision deadline
  :math:`t_{dec} = r_j + \\delta p_j` (clipped so that an accepted job can
  still start in time: :math:`t_{dec} \\le d_j - p_j`).
* The engine advances through events (releases and decision deadlines);
  jobs whose deadline fires are decided at that event.
* Acceptance fixes machine and start time (``start >= decision time``) —
  commitment is still binding once made, it is only *later*.

:class:`DelayedCommitmentModel` runs :class:`DelayedGreedyPolicy` as one
flat loop under :mod:`repro.engine.kernel` (one kernel step per event
time), which audits the schedule and records stats and events.

The policy defers every decision as long as allowed and then accepts iff
feasible, preferring long jobs among pending conflicts — enough
look-ahead to dodge the bait-and-whale trap that costs immediate greedy a
:math:`\\Theta(1/\\varepsilon)` factor.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.kernel import CommitmentModel, KernelContext, run_model
from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS


class DelayedGreedyPolicy:
    """Defer maximally, then admit by value with pending look-ahead.

    At each event, jobs are decided in order of decreasing processing time
    among those due; each is accepted onto the fitting machine with the
    most outstanding load (best fit).  Before accepting a *due* job, the
    policy checks whether a strictly more valuable pending (not yet due)
    job would lose its only feasible machine slot — if so the due job is
    rejected in its favour.  This simple one-step look-ahead is what
    deferral buys; ``lookahead=False`` turns it off.
    """

    name = "delayed-greedy"

    def __init__(self, lookahead: bool = True) -> None:
        self.lookahead = lookahead
        if not lookahead:
            self.name = "delayed-greedy[no-lookahead]"


def decision_deadline(job: Job, delta: float) -> float:
    """Latest legal decision time for *job* under δ-deferral.

    ``r + delta * p``, clipped to the job's latest feasible start (a later
    decision could never be honoured).
    """
    return min(job.release + delta * job.processing, job.latest_start)


class _Timeline:
    """One machine's committed jobs, in start order.

    Every acceptance appends (``start = max(t, r, last end)`` is never
    below the last end), so plain lists plus a pointer for
    ``bisect_right(ends, t)`` that only moves forward (event time never
    decreases) give the same floats as
    :class:`~repro.model.machine.MachineState`, operand for operand.
    """

    __slots__ = ("index", "starts", "ends", "prefix", "ptr")

    def __init__(self, index: int) -> None:
        self.index = index
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.prefix: list[float] = [0.0]
        self.ptr = 0

    def advance(self, t: float) -> None:
        """Move the ``bisect_right(ends, t)`` pointer up to *t*."""
        ends = self.ends
        j = self.ptr
        n = len(ends)
        while j < n and ends[j] <= t:
            j += 1
        self.ptr = j

    def outstanding(self, t: float) -> float:
        """``MachineState.outstanding(t)``: committed work left at *t*."""
        ends = self.ends
        n = len(ends)
        j = self.ptr
        if j >= n:
            return 0.0
        sj = self.starts[j]
        mx = sj if sj > t else t
        load = (ends[j] - mx) + (self.prefix[n] - self.prefix[j + 1])
        return 0.0 if abs(load) <= TIME_EPS else load

    def append_start(self, t: float, release: float) -> float:
        """Where a job released at *release* would start if appended at *t*."""
        base = t if t > release else release
        ends = self.ends
        if ends:
            last = ends[-1]
            frontier = last if last > t else t
        else:
            frontier = t
        return base if base > frontier else frontier

    def fits(self, t: float, release: float, proc: float, deadline: float) -> bool:
        return deadline >= self.append_start(t, release) + proc - TIME_EPS

    def commit(self, start: float, proc: float) -> None:
        self.starts.append(start)
        self.ends.append(start + proc)
        self.prefix.append(self.prefix[-1] + proc)


class DelayedCommitmentModel(CommitmentModel):
    """Kernel strategy for the δ-delayed-commitment model.

    One kernel step per event time (a release or the earliest pending
    decision deadline).  The loop's state (the pending set and the
    committed machine timelines) lives in a generator that each
    :meth:`step` advances by one event.
    """

    model = "delayed"

    def __init__(
        self, policy: DelayedGreedyPolicy, instance: Instance, delta: float
    ) -> None:
        if not isinstance(policy, DelayedGreedyPolicy):
            raise TypeError(
                "the delayed-commitment engine runs DelayedGreedyPolicy, "
                f"got {type(policy).__name__}"
            )
        self.policy = policy
        self.instance = instance
        self.delta = delta
        self.algorithm = policy.name
        self.schedule: Schedule | None = None
        self._events: Iterator[bool] = iter(())

    def begin(self, ctx: KernelContext) -> None:
        self.schedule = Schedule(instance=self.instance, algorithm=self.policy.name)
        self.schedule.meta["delta"] = self.delta
        self._events = self._loop(ctx)

    def step(self, ctx: KernelContext) -> bool:
        return next(self._events, False)

    def build(self, ctx: KernelContext) -> Schedule:
        return self.schedule

    def _loop(self, ctx: KernelContext) -> Iterator[bool]:
        """The event loop; yields once per event time."""
        jobs = self.instance.jobs
        n = len(jobs)
        delta = self.delta
        lookahead = self.policy.lookahead
        assignments = self.schedule.assignments
        rejected = self.schedule.rejected
        submitted, decided = ctx.submitted, ctx.decided
        machines = [_Timeline(i) for i in range(self.instance.machines)]
        # job id -> (release, processing, deadline, decision deadline), in
        # submission order.
        pending: dict[int, tuple[float, float, float, float]] = {}
        fi = 0
        while fi < n or pending:
            # Next event: the earlier of the next release and the earliest
            # pending decision deadline.
            t = jobs[fi].release if fi < n else None
            if pending:
                dd_min = min(item[3] for item in pending.values())
                if t is None or dd_min < t:
                    t = dd_min
            horizon = t + TIME_EPS
            while fi < n and jobs[fi].release <= horizon:
                job = jobs[fi]
                pending[job.job_id] = (
                    job.release,
                    job.processing,
                    job.deadline,
                    decision_deadline(job, delta),
                )
                submitted(job, t)
                fi += 1

            due = [(jid, item) for jid, item in pending.items() if item[3] <= horizon]
            if due:
                for mach in machines:
                    mach.advance(t)
                for jid, _ in due:
                    del pending[jid]
                # The look-ahead protects the jobs not yet due.
                others = list(pending.values()) if lookahead else ()
                due.sort(key=lambda pair: -pair[1][1])
                for jid, (release, p, deadline, _dd) in due:
                    candidates = [
                        mach for mach in machines if mach.fits(t, release, p, deadline)
                    ]
                    if candidates:
                        chosen = max(
                            candidates, key=lambda mach: (mach.outstanding(t), -mach.index)
                        )
                        start = chosen.append_start(t, release)
                        if not (others and _starves(machines, chosen, t, p, start + p, others)):
                            chosen.commit(start, p)
                            assignments[jid] = Assignment(jid, chosen.index, start)
                            decided(t, jid, True, chosen.index, start)
                            continue
                    rejected.add(jid)
                    decided(t, jid, False)
            yield True


def _starves(
    machines: list[_Timeline],
    chosen: _Timeline,
    t: float,
    p: float,
    end: float,
    others: list[tuple[float, float, float, float]],
) -> bool:
    """Whether committing a job of size *p* to *chosen*, ending at *end*,
    takes the last feasible machine from a strictly bigger pending job."""
    for release, proc, deadline, _dd in others:
        if proc <= p or not chosen.fits(t, release, proc, deadline):
            continue
        # Committing moves the chosen machine's frontier to max(end, t).
        base = t if t > release else release
        frontier = end if end > t else t
        start = base if base > frontier else frontier
        if deadline >= start + proc - TIME_EPS:
            continue
        if not any(
            mach.fits(t, release, proc, deadline) for mach in machines if mach is not chosen
        ):
            return True
    return False


def simulate_delayed(
    policy: DelayedGreedyPolicy,
    instance: Instance,
    delta: float,
    record_events: bool = False,
) -> Schedule:
    """Run *policy* on *instance* in the δ-delayed-commitment model.

    Returns an audited schedule.  ``delta`` must lie in
    ``[0, instance.epsilon]`` (the model's own constraint δ <= ε);
    ``delta = 0`` reduces to immediate commitment.  Any policy other than
    a :class:`DelayedGreedyPolicy` raises ``TypeError``.
    """
    if not 0.0 <= delta <= instance.epsilon + TIME_EPS:
        raise ValueError(
            f"delta must lie in [0, epsilon={instance.epsilon}], got {delta}"
        )
    return run_model(
        DelayedCommitmentModel(policy, instance, delta), record_events=record_events
    )
