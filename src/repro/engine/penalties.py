"""Commitment with penalties: revocable admission at a price (§1).

The paper's taxonomy lists *commitment with penalties* (Fung [15],
Thibault–Laforest [31]): the algorithm must answer immediately, but may
later revoke an accepted-but-not-yet-started job, losing a penalty
proportional to the revoked job's value.  The objective becomes

.. math:: \\sum_{\\text{completed}} p_j \\;-\\; \\phi \\sum_{\\text{revoked}} p_j

for a penalty factor :math:`\\phi \\ge 0`.

Mechanics
---------

* admission works exactly as in the immediate-commitment engine, except
  commitments are held in a *tentative* plan;
* a planned job may be revoked at any time strictly before its planned
  start; once execution begins the commitment is final;
* at the end of the run, every non-revoked planned job must have met its
  deadline (audited).

:class:`PenaltiesCommitmentModel` runs :class:`RevocableGreedyPolicy` as
one loop under :mod:`repro.engine.kernel` (one kernel step per
submission), which audits the outcome and records stats and events.

The policy admits greedily and revokes a planned job whenever a newly
arrived job is worth more than the displaced plan segment plus the
penalty — the canonical profitable-swap rule.  At :math:`\\phi = 0` it
approaches the power of delayed commitment; as :math:`\\phi \\to \\infty`
it degenerates to plain greedy (benchmarked as E13).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.engine.kernel import CommitmentModel, KernelContext, run_model
from repro.model.instance import Instance
from repro.model.job import Job
from repro.utils.tolerances import TIME_EPS, fge

#: Engine-level default penalty factor for the registry's
#: ``revocable-greedy`` entry (matches bench E13/E16 conventions).
DEFAULT_PHI = 0.5


@dataclass
class PlannedJob:
    """A tentatively committed job (machine + start), revocable pre-start."""

    job: Job
    machine: int
    start: float

    @property
    def end(self) -> float:
        """Planned completion time."""
        return self.start + self.job.processing

    def started(self, t: float) -> bool:
        """Whether execution has begun by time *t* (then irrevocable)."""
        return t >= self.start - TIME_EPS


@dataclass
class PenaltyOutcome:
    """Result of a penalties-model run."""

    instance: Instance
    algorithm: str
    phi: float
    completed: dict[int, PlannedJob] = field(default_factory=dict)
    revoked: set[int] = field(default_factory=set)
    rejected: set[int] = field(default_factory=set)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def completed_load(self) -> float:
        """Load of jobs actually executed to completion."""
        return float(sum(p.job.processing for p in self.completed.values()))

    @property
    def penalty_paid(self) -> float:
        """Total penalty :math:`\\phi \\sum_{revoked} p_j` (0.0 if none)."""
        if not self.revoked:
            return 0.0
        return float(
            self.phi * sum(self.instance[j].processing for j in self.revoked)
        )

    @property
    def net_value(self) -> float:
        """The model's objective: completed load minus penalties."""
        return self.completed_load - self.penalty_paid

    def audit(self) -> None:
        """Verify coverage, feasibility and non-overlap of completed jobs."""
        ids = {j.job_id for j in self.instance}
        decided = set(self.completed) | self.revoked | self.rejected
        if decided != ids:
            raise AssertionError(
                f"coverage broken: missing={sorted(ids - decided)} "
                f"extra={sorted(decided - ids)}"
            )
        per_machine: dict[int, list[tuple[float, float, int]]] = {}
        for jid, plan in self.completed.items():
            job = plan.job
            if not fge(plan.start, job.release):
                raise AssertionError(f"job {jid} starts before release")
            if not fge(job.deadline, plan.end):
                raise AssertionError(f"job {jid} misses its deadline")
            per_machine.setdefault(plan.machine, []).append((plan.start, plan.end, jid))
        for spans in per_machine.values():
            spans.sort()
            for (s1, e1, j1), (s2, e2, j2) in zip(spans, spans[1:]):
                if s2 < e1 - TIME_EPS:
                    raise AssertionError(f"jobs {j1} and {j2} overlap")


class RevocableGreedyPolicy:
    """Greedy with as-late-as-possible placement and profitable swaps.

    Placement is *latest-feasible-start*: a plan stays revocable until its
    start, so deferring starts maximises the option value of revocation
    (a plan that starts immediately can never be taken back).  When a new
    job fits nowhere, the policy considers dropping all not-yet-started
    plans of one machine: the swap executes iff the newcomer's value
    exceeds the victims' value plus the penalty,
    :math:`p_{new} > (1 + \\phi) \\sum p_{victims}`.
    :class:`PenaltiesCommitmentModel` runs it with the model's φ.
    """

    name = "revocable-greedy"


class PenaltiesCommitmentModel(CommitmentModel):
    """Kernel strategy for the commitment-with-penalties model.

    One kernel step per submission.  The loop's state, each machine's
    surviving plans (:class:`_Plans`), lives in a generator that each
    :meth:`step` advances by one submission.  A plan is placed only where
    :meth:`PenaltyOutcome.audit` accepts it (see :func:`_clear`), and
    revocations are reported before the decision that causes them.
    """

    model = "commitment-with-penalties"

    def __init__(
        self, policy: RevocableGreedyPolicy, instance: Instance, phi: float
    ) -> None:
        if not isinstance(policy, RevocableGreedyPolicy):
            raise TypeError(
                "the penalties engine runs RevocableGreedyPolicy, "
                f"got {type(policy).__name__}"
            )
        self.policy = policy
        self.instance = instance
        self.phi = phi
        self.algorithm = policy.name
        self.outcome: PenaltyOutcome | None = None
        self._machines: list[_Plans] = []
        self._events: Iterator[bool] = iter(())

    def begin(self, ctx: KernelContext) -> None:
        self.outcome = PenaltyOutcome(
            instance=self.instance, algorithm=self.policy.name, phi=self.phi
        )
        self._machines = [_Plans() for _ in range(self.instance.machines)]
        self._events = self._loop(ctx)

    def step(self, ctx: KernelContext) -> bool:
        return next(self._events, False)

    def finish(self, ctx: KernelContext) -> None:
        # Surviving plans in submission order (job ids are positions).
        rows = sorted(
            (job.job_id, machine, start)
            for machine, plans in enumerate(self._machines)
            for job, start in zip(plans.jobs, plans.starts)
        )
        jobs = self.instance.jobs
        self.outcome.completed = {j: PlannedJob(jobs[j], m, s) for j, m, s in rows}

    def build(self, ctx: KernelContext) -> PenaltyOutcome:
        return self.outcome

    def _loop(self, ctx: KernelContext) -> Iterator[bool]:
        """The submission loop; yields once per job."""
        phi = self.phi
        machines = self._machines
        revoked, rejected = self.outcome.revoked, self.outcome.rejected
        submitted, decided, revoke = ctx.submitted, ctx.decided, ctx.revoked
        for job in self.instance.jobs:
            t = job.release
            jid = job.job_id
            submitted(job, t)
            # 1) plain placement: pick the machine offering the latest start.
            started = []
            best = None
            chosen = 0
            for machine, plans in enumerate(machines):
                starts = plans.starts
                n = k = len(starts)
                while k and t < starts[k - 1] - TIME_EPS:
                    k -= 1
                started.append(k)
                start = _latest_start(job, t, plans, k, n)
                if start is not None and (best is None or start > best):
                    best, chosen = start, machine
            if best is None:
                # 2) profitable swap: drop all not-yet-started plans on the
                #    machine with the cheapest removable load, if the
                #    newcomer pays for it.
                options = []
                for machine, plans in enumerate(machines):
                    k = started[machine]
                    if k == len(plans.starts):
                        continue
                    start = _latest_start(job, t, plans, k, k)
                    if start is None:
                        continue
                    cost = sum(victim.processing for victim in plans.jobs[k:])
                    options.append((cost, machine, start, k))
                if options:
                    cost, machine, start, k = min(options, key=lambda o: o[0])
                    if job.processing > (1.0 + phi) * cost + TIME_EPS:
                        plans = machines[machine]
                        for victim, victim_start in zip(plans.jobs[k:], plans.starts[k:]):
                            revoked.add(victim.job_id)
                            revoke(t, victim.job_id, machine=machine, start=victim_start)
                        plans.truncate(k)
                        best, chosen = start, machine
            if best is None:
                rejected.add(jid)
                decided(t, jid, False)
            else:
                machines[chosen].place(job, best)
                decided(t, jid, True, chosen, best)
            yield True


class _Plans:
    """One machine's surviving plans in start order, as three columns.

    Row *i* plans ``jobs[i]`` on ``[starts[i], ends[i])``, with ``ends[i]``
    the float :attr:`PlannedJob.end` gives.  Equal starts keep insertion
    order.  Started plans form a prefix, so a submission scans only the
    unstarted suffix and the gaps after it; a swap revokes that suffix.
    """

    __slots__ = ("starts", "ends", "jobs")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.jobs: list[Job] = []

    def place(self, job: Job, start: float) -> None:
        i = bisect_right(self.starts, start)
        self.starts.insert(i, start)
        self.ends.insert(i, start + job.processing)
        self.jobs.insert(i, job)

    def truncate(self, k: int) -> None:
        del self.starts[k:], self.ends[k:], self.jobs[k:]


def _latest_start(job: Job, t: float, plans: _Plans, k: int, n: int) -> float | None:
    """Latest usable start in the gaps between the first *n* plans (*k* started).

    Folds the gaps front to back.  A gap's candidate is ``min(d, next
    start) - p`` clamped up to the gap's lower edge; a gap whose candidate
    :func:`_clear` refuses is skipped.  A gap that closes at or before
    plan ``k - 1``'s start offers at most ``min(d, starts[k - 1]) - p``;
    when that is below *earliest*'s tolerance every such gap is invalid
    and the fold starts at gap *k*.  ``x if x >= y else y`` is ``max(x,
    y)`` and ``x if x <= y else y`` is ``min(x, y)``, float for float.
    """
    starts, ends = plans.starts, plans.ends
    release = job.release
    earliest = t if t >= release else release
    d = job.deadline
    p = job.processing
    i, lo = 0, earliest
    if k:
        hi = starts[k - 1]
        if (d if d <= hi else hi) - p < earliest - TIME_EPS:
            i, lo = k, ends[k - 1]
    best = None
    while True:
        hi = starts[i] if i < n else float("inf")
        if lo < earliest:
            lo = earliest
        start = (d if d <= hi else hi) - p
        if start >= lo - TIME_EPS and d >= start + p - TIME_EPS:
            if best is None or start > best:
                s = start if start >= lo else lo
                if _clear(job, s, plans, n, i):
                    best = s
        if i == n:
            return best
        lo = ends[i]
        i += 1


def _clear(job: Job, s: float, plans: _Plans, n: int, i: int) -> bool:
    """Whether *job* may start at *s* among the first *n* plans.

    The rule is :meth:`PenaltyOutcome.audit`'s: *s* meets the deadline,
    and in the plans ordered by ``(start, end, job_id)`` the new plan's
    predecessor ends by *s* and its successor starts by the new end, up
    to ``TIME_EPS``.  (*s* is gap *i*'s candidate, so it is past the
    release, the decision time and plan ``i - 1``'s start.)  The plans
    already keep that order's neighbours apart, so the new plan's two
    neighbours, next to the fold's position, are the only ones to check.
    """
    starts, ends = plans.starts, plans.ends
    e = s + job.processing
    if not job.deadline >= e - TIME_EPS:
        return False
    # Plans [0, a) start before s, [a, b) at s and [b, n) after s.
    a = i
    while a and starts[a - 1] >= s:
        a -= 1
    while a < n and starts[a] < s:
        a += 1
    if a:
        # The plans of the last start before s: one of them precedes the
        # new plan unless a plan starting at s does.
        group = starts[a - 1]
        j = a - 1
        while j >= 0 and starts[j] == group:
            if s < ends[j] - TIME_EPS:
                return False
            j -= 1
    lim = e - TIME_EPS
    jid = job.job_id
    b = a
    while b < n and starts[b] == s:
        end = ends[b]
        if end < e or (end == e and plans.jobs[b].job_id < jid):
            if s < end - TIME_EPS:
                return False
        elif s < lim:
            return False
        b += 1
    return b == n or starts[b] >= lim


def simulate_with_penalties(
    policy: RevocableGreedyPolicy,
    instance: Instance,
    phi: float,
    record_events: bool = False,
) -> PenaltyOutcome:
    """Run *policy* on *instance* with penalty factor *phi* and audit.

    ``phi`` must be a non-negative number; ``phi = inf`` never revokes.
    Any policy other than a :class:`RevocableGreedyPolicy` raises
    ``TypeError``.
    """
    if not phi >= 0:
        raise ValueError(f"penalty factor must be a non-negative number, got {phi}")
    return run_model(
        PenaltiesCommitmentModel(policy, instance, phi), record_events=record_events
    )
