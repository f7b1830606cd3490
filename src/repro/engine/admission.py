"""Commitment on admission: decide only when starting a job (§1).

The weakest commitment variant in the paper's taxonomy (used by the early
online admission-control literature [18, 26, 27]): the scheduler keeps
submitted jobs *pending* and commits to a job only at the moment it
starts executing.  A pending job is implicitly rejected once it can no
longer start anywhere in time.

Mechanics
---------

* events are job releases, machine-free times and pending expiries;
* at each event, pending jobs that can no longer meet their deadline even
  on the *earliest-free* machine become rejections (decisive expiry — a
  busy fleet kills a pending job the moment waiting would be fatal);
* the policy picks among the live pending jobs; the engine starts the
  chosen job on an idle machine immediately (starting *now* is the
  commitment — reservations into the future would be immediate
  commitment in disguise and are not part of this model);
* between events machines run their started jobs to completion
  (non-preemptive).

:class:`AdmissionCommitmentModel` runs the policy as one flat loop under
:mod:`repro.engine.kernel` (one kernel step per event time), which audits
the schedule and records stats and events.

:class:`AdmissionGreedyPolicy` starts the largest startable pending job
whenever a machine is idle; :class:`AdmissionLazyPolicy` first waits
until some startable job is about to expire.  On the bait-and-whale
streams the lazy policy waits out the baits and starts the whales, which
is exactly why the literature found this model so much easier than
immediate commitment (benchmark E12 quantifies the gap).
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.engine.kernel import CommitmentModel, KernelContext, run_model
from repro.model.instance import Instance
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS


class AdmissionGreedyPolicy:
    """Start the most valuable (largest) startable pending job.

    Ties in processing time go to the smaller job id.  The policy never
    waits: its ``slack_margin`` is infinite (see
    :class:`AdmissionLazyPolicy`).
    """

    name = "admission-greedy"
    slack_margin = math.inf


class AdmissionLazyPolicy(AdmissionGreedyPolicy):
    """Wait until some pending job is about to expire, then start the best.

    The model's entire power over immediate commitment is the option to
    *wait*: starting as late as possible keeps the machine free for
    whatever bigger job may still arrive.  Only when some startable job's
    latest start lies within ``slack_margin`` of the clock does the policy
    commit — and then it starts the *largest* startable job, which need
    not be the one whose deadline forced the decision (on bait-and-whale
    streams the expiring bait triggers the start of a whale).
    """

    name = "admission-lazy"

    def __init__(self, slack_margin: float = 10 * TIME_EPS) -> None:
        self.slack_margin = slack_margin


class AdmissionCommitmentModel(CommitmentModel):
    """Kernel strategy for the commitment-on-admission model.

    One kernel step per event time (release, machine-free time or pending
    expiry); each step starts jobs while machines are idle.  The loop's
    state (the pending set and each machine's free time) lives in a
    generator that each :meth:`step` advances by one event.
    """

    model = "commitment-on-admission"

    def __init__(self, policy: AdmissionGreedyPolicy, instance: Instance) -> None:
        if not isinstance(policy, AdmissionGreedyPolicy):
            raise TypeError(
                "the commitment-on-admission engine runs AdmissionGreedyPolicy "
                f"or AdmissionLazyPolicy, got {type(policy).__name__}"
            )
        self.policy = policy
        self.instance = instance
        self.algorithm = policy.name
        self.schedule: Schedule | None = None
        self._events: Iterator[bool] = iter(())

    def begin(self, ctx: KernelContext) -> None:
        self.schedule = Schedule(instance=self.instance, algorithm=self.policy.name)
        self.schedule.meta["model"] = self.model
        self._events = self._loop(ctx)

    def step(self, ctx: KernelContext) -> bool:
        return next(self._events, False)

    def build(self, ctx: KernelContext) -> Schedule:
        return self.schedule

    def _loop(self, ctx: KernelContext) -> Iterator[bool]:
        """The event loop; yields once per event time."""
        jobs = self.instance.jobs
        n = len(jobs)
        margin = self.policy.slack_margin
        assignments = self.schedule.assignments
        rejected = self.schedule.rejected
        submitted, decided = ctx.submitted, ctx.decided
        inf = math.inf
        machine_free = [0.0] * self.instance.machines
        # job id -> (release, processing, latest start), in submission order.
        pending: dict[int, tuple[float, float, float]] = {}
        fi = 0
        now = 0.0
        while fi < n or pending:
            horizon = now + TIME_EPS
            # 1) absorb all releases at or before `now`.
            while fi < n and jobs[fi].release <= horizon:
                job = jobs[fi]
                pending[job.job_id] = (job.release, job.processing, job.latest_start)
                submitted(job, now)
                fi += 1

            # 2) decisive expiry: a pending job whose latest start precedes
            #    the earliest time any machine frees can never run.
            earliest_free = min(machine_free)
            cutoff = (now if now > earliest_free else earliest_free) - TIME_EPS
            for jid in [jid for jid, item in pending.items() if item[2] < cutoff]:
                rejected.add(jid)
                del pending[jid]
                ctx.emit("expire", now, job_id=jid)
                decided(now, jid, False, reason="expired")

            # 3) start jobs on idle machines at the current instant: the
            #    largest startable job (ties to the smaller id), once the
            #    earliest startable latest start is within the margin.
            floor = now - TIME_EPS
            while pending:
                for idle, free in enumerate(machine_free):
                    if free <= horizon:
                        break
                else:
                    break  # no machine is idle
                best = -1
                best_p = 0.0
                edge = inf
                for jid, (release, p, latest) in pending.items():
                    if latest >= floor:
                        if latest < edge:
                            edge = latest
                        if best < 0 or p > best_p or (p == best_p and jid < best):
                            best = jid
                            best_p = p
                if best < 0 or edge > now + margin:
                    break
                release = pending.pop(best)[0]
                start = now if now > release else release
                assignments[best] = Assignment(best, idle, start)
                machine_free[idle] = start + best_p
                decided(now, best, True, idle, start)

            # 4) advance to the next strictly-future event.
            nxt = inf
            if fi < n and jobs[fi].release > horizon:
                nxt = jobs[fi].release
            for free in machine_free:
                if horizon < free < nxt:
                    nxt = free
            for _release, _p, latest in pending.values():
                if horizon < latest < nxt:
                    nxt = latest
            if nxt < inf:
                now = nxt
            else:
                # Nothing will ever change: the remaining pending jobs can
                # never start — reject them and finish.
                for jid in list(pending):
                    rejected.add(jid)
                    del pending[jid]
                    decided(now, jid, False, reason="unstartable")
            yield True


def simulate_admission(
    policy: AdmissionGreedyPolicy, instance: Instance, record_events: bool = False
) -> Schedule:
    """Run *policy* in the commitment-on-admission model; audited schedule.

    Jobs that can no longer start in time on any machine are recorded as
    rejected.  ``schedule.meta['model']`` records the model name so
    reports can distinguish it from immediate-commitment runs.  Any policy
    other than an :class:`AdmissionGreedyPolicy` or
    :class:`AdmissionLazyPolicy` raises ``TypeError``.
    """
    return run_model(
        AdmissionCommitmentModel(policy, instance), record_events=record_events
    )
