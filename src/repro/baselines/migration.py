"""Preemption + migration baseline (the Schwiegelshohn² machine model).

Schwiegelshohn and Schwiegelshohn [29] study immediate commitment on
parallel machines that allow both preemption *and* migration, obtaining a
ratio approaching :math:`(1+\\varepsilon) \\log((1+\\varepsilon)/\\varepsilon)`
for large :math:`m`.  Their exact algorithm is not reproduced in the paper
text; per DESIGN.md's substitution rule we implement the canonical
feasibility-greedy policy of this machine model:

  *admit a job iff the accepted-but-unfinished work, plus the new job, can
  still be completed by all deadlines on* ``m`` *migrating machines.*

Feasibility is Horn's max-flow test: the work is feasible iff the maximum
flow through the interval network (one node per deadline-bounded interval
with capacity :math:`m \\cdot |I|`, job→interval arcs of capacity
:math:`|I|`, since a job cannot self-parallelise) carries all of it.
Admission happens at release time, so every active job is already
released and may use a *prefix* of the intervals.  Then some minimum cut
is a prefix too, and :func:`migration_feasible` evaluates the cut formula
directly, with no flow.

Execution between submissions realises the *flow schedule* fluidly:
the maximum flow of :func:`repro.offline.maxflow.horn_flow` prescribes
per-job work amounts per deadline-bounded interval; running every job at
constant rate ``w_{j,l} / |I_l|`` inside interval ``I_l`` respects both
the unit per-job rate cap and the ``m`` total rate cap, hence is
realisable by McNaughton wrap-around, and leaves a residual state that
stays feasible.  The solver computes in exact scaled integers, so the plan
is its own canonical one: the same on every process and hash seed.
(Global EDF — the tempting simpler executor — is *not* optimal for
simultaneously released jobs on multiple machines: the test-suite pins a
7-job, 3-machine counterexample where EDF misses a deadline on a
flow-feasible set.)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.maxflow import horn_flow
from repro.utils.tolerances import TIME_EPS, fge, snap

#: Flow amounts below this are treated as zero when comparing to demand.
_FLOW_TOL = 1e-7


def migration_feasible(
    now: float,
    remainders: list[tuple[float, float]],
    machines: int,
) -> bool:
    """Exact feasibility test for released preemptive-migratory work.

    Parameters
    ----------
    now:
        Current time; all work is available from *now*.
    remainders:
        ``(remaining_work, deadline)`` pairs, all with ``deadline >= now``.
    machines:
        Number of identical machines.

    Returns whether a preemptive schedule with migration completes every
    remainder by its deadline: whether the maximum flow through Horn's
    network equals the total remaining work.  Each job may use the
    intervals ending by its deadline, a prefix of length ``e_j``, so some
    minimum cut puts the first ``k`` intervals on the source side, and
    the maximum flow is

        ``min over k of  m·W[k] + sum_j min(r_j, max(0, W[e_j] - W[k]))``

    with ``W`` the prefix sums of the interval widths.
    """
    work = [(snap(r), d) for r, d in remainders if r > TIME_EPS]
    if not work:
        return True
    if any(d < now - TIME_EPS for _, d in work):
        return False
    total = sum(r for r, _ in work)
    events = sorted({now} | {d for _, d in work})
    intervals = [
        (lo, hi) for lo, hi in zip(events, events[1:]) if hi - lo > TIME_EPS
    ]
    if not intervals:
        return total <= TIME_EPS

    prefix = [0.0]
    for lo, hi in intervals:
        prefix.append(prefix[-1] + (hi - lo))
    his = [hi - TIME_EPS for _, hi in intervals]
    # (work, width of the job's admissible prefix): fge(d, hi) on a prefix.
    reach = [(r, prefix[bisect_right(his, d)]) for r, d in work]
    value = min(
        machines * cut + sum(min(r, max(0.0, width - cut)) for r, width in reach)
        for cut in prefix
    )
    return value >= total - _FLOW_TOL


def flow_schedule(
    now: float,
    remainders: list[tuple[float, float]],
    machines: int,
) -> tuple[float, list[tuple[float, float, list[float]]]]:
    """Max-flow work plan for released preemptive-migratory jobs.

    Returns ``(flow_value, plan)`` where ``plan`` is a list of
    ``(interval_start, interval_end, per_job_work)`` entries (job order
    matches *remainders*).  ``flow_value`` is the exact maximum flow
    rounded up to a float, and each amount is its arc's exact flow rounded
    to the nearest float.  Each per-job amount is at most the interval
    length, and each interval's total is at most ``machines`` times its
    length (up to the rounding of the sum), so the plan is realisable by
    McNaughton wrap-around within each interval — including any
    time-prefix of an interval at proportional rates.
    """
    work = [(max(r, 0.0), d) for r, d in remainders]
    positive = [i for i, (r, _) in enumerate(work) if r > TIME_EPS]
    if not positive:
        return 0.0, []
    flow = horn_flow([(now, work[j][0], work[j][1]) for j in positive], machines)
    plan = []
    for (lo, hi), amounts in zip(flow.intervals, flow.plan()):
        per_job = [0.0] * len(work)
        for j, amount in zip(positive, amounts):
            per_job[j] = amount
        plan.append((lo, hi, per_job))
    return flow.value, plan


@dataclass
class _ActiveItem:
    job: Job
    remaining: float


@dataclass
class MigrationOutcome:
    """Result of a migration-model run (mirrors ``PreemptiveOutcome``)."""

    instance: Instance
    algorithm: str
    accepted_ids: set[int] = field(default_factory=set)
    completions: dict[int, float] = field(default_factory=dict)

    @property
    def accepted_load(self) -> float:
        """Objective value over accepted jobs."""
        return float(sum(self.instance[j].processing for j in self.accepted_ids))

    def audit(self) -> None:
        """Every accepted job must have completed by its deadline."""
        for jid in self.accepted_ids:
            job = self.instance[jid]
            done = self.completions.get(jid)
            if done is None:
                raise AssertionError(f"accepted job {jid} never completed")
            if not fge(job.deadline, done):
                raise AssertionError(
                    f"job {jid} completed at {done} after deadline {job.deadline}"
                )


class MigrationGreedyScheduler:
    """Online feasibility-greedy scheduler in the migration model.

    Not an :class:`~repro.engine.policy.OnlinePolicy` — the machine model
    differs (no per-machine commitments) — but exposes the same
    ``run(instance) -> outcome`` surface as
    :func:`repro.engine.preemptive.simulate_preemptive` via
    :meth:`run`.
    """

    name = "migration-greedy"
    immediate_commitment = True  # accept/reject is final; allocation is fluid

    def __init__(self) -> None:
        self._active: list[_ActiveItem] = []
        self._now = 0.0
        self._machines = 0
        self._completions: dict[int, float] = {}

    # ------------------------------------------------------------------
    def _advance(self, t: float) -> None:
        """Execute the fluid flow schedule from the local clock up to *t*.

        Recomputes the max-flow plan from the current remainders (the
        state is feasible by the admission invariant, so the flow saturates
        all remaining work) and executes each plan interval — possibly a
        proportional prefix of the last one — at constant per-job rates.
        """
        if t <= self._now + TIME_EPS:
            self._now = max(self._now, t)
            return
        if not self._active:
            self._now = t
            return
        remainders = [(a.remaining, a.job.deadline) for a in self._active]
        value, plan = flow_schedule(self._now, remainders, self._machines)
        total = sum(r for r, _ in remainders)
        if value < total - _FLOW_TOL:  # pragma: no cover - invariant guard
            raise AssertionError(
                f"migration state became infeasible: flow {value} < work {total}"
            )
        for lo, hi, per_job in plan:
            if lo >= t - TIME_EPS:
                break
            covered = min(hi, t) - lo
            frac = covered / (hi - lo)
            for a, w in zip(self._active, per_job):
                if w <= 0.0 or a.remaining <= TIME_EPS:
                    continue
                executed = min(w * frac, a.remaining)
                before = a.remaining
                a.remaining = snap(a.remaining - executed)
                if a.remaining <= TIME_EPS and a.job.job_id not in self._completions:
                    # Completion instant under the constant-rate execution.
                    rate = w / (hi - lo)
                    self._completions[a.job.job_id] = lo + before / rate
        self._active = [a for a in self._active if a.remaining > TIME_EPS]
        self._now = t

    def run(self, instance: Instance) -> MigrationOutcome:
        """Run the policy online over *instance* and audit the outcome."""
        self._active = []
        self._now = 0.0
        self._machines = instance.machines
        self._completions = {}
        outcome = MigrationOutcome(instance=instance, algorithm=self.name)
        for job in instance:
            self._advance(job.release)
            proposal = [(a.remaining, a.job.deadline) for a in self._active]
            proposal.append((job.processing, job.deadline))
            if migration_feasible(self._now, proposal, self._machines):
                self._active.append(_ActiveItem(job, job.processing))
                outcome.accepted_ids.add(job.job_id)
        if self._active:
            horizon = max(a.job.deadline for a in self._active)
            self._advance(horizon + TIME_EPS)
        outcome.completions = dict(self._completions)
        outcome.audit()
        return outcome
