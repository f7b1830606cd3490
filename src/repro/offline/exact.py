"""Exact offline optimum by memoised branch-and-bound (small instances).

Left-shift normalisation: every feasible schedule can be normalised so
each job starts at ``max(release, completion of its machine predecessor)``
without violating any deadline.  Normalised schedules are exactly the
outcomes of *dispatch sequences* — repeatedly appending some job to some
machine — and the search builds them in one canonical order.

Canonical dispatch: a state branches only on the machine that frees
earliest (the smallest frontier), which takes one alive job next,
starting at ``max(release, frontier)``.  Nothing is missed.  Take any
left-shifted schedule and repeat: pick the machine with the smallest
frontier and dispatch its next job in the schedule; if it has none left
while another machine has, first hand it that machine's remaining
sequence — it frees no later, so each moved job starts no later and
still meets its deadline.  This builds a schedule of the same jobs, and
every job it dispatches is alive at the smallest frontier.  (Letting
that machine take no further job while a job is alive is never better:
taking the job adds its load and leaves every other machine as it was.)
Appending any alive job to any machine would reach one schedule once for
every interleaving of the machines' sequences; a memo hit saves the
subtree, but not the child built each time.

State representation: the remaining jobs are an integer bitmask (bit
``i`` is job id ``i``, which :class:`~repro.model.instance.Instance` makes
the job's position) and the frontiers a sorted tuple of machine
completion times rounded to ``_KEY_DECIMALS`` decimals; the memo is keyed
on ``(mask, frontiers)``.

State-space reductions (no bound prunes a branch):

* frontiers are kept as a sorted tuple (machines are identical);
* jobs that can no longer meet their deadline from the smallest frontier
  are dropped from the state (frontiers only grow along a branch) — the
  alive set of a frontier value is one bitmask, computed the first time
  the value occurs;
* branches are explored largest-job-first, so strong incumbents come
  early, and a state returns as soon as its best branch schedules all of
  its remaining load (``best >= total - TIME_EPS``).

Ties are broken by job id: equal processing times branch in ascending
job id, and a state's remaining load is summed in ascending job id.  So
the search order, the value, the schedule and
:attr:`ExactResult.explored_states` are a function of the instance alone.
A state's value is ``p + child`` for the branch that set it, so the
value is the schedule's processing times summed from the last dispatched
job back to the first, and :meth:`_Solver.reconstruct` follows the
branch that reproduces each memoised value exactly.

The solver is exponential by nature; :data:`EXACT_JOB_LIMIT` guards
against accidental use on large instances, and
:data:`MAX_EXPLORED_STATES` against the rare instance below the limit
whose state space explodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model.instance import Instance
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS, fge

#: Hard cap on instance size for the exact solver.
EXACT_JOB_LIMIT = 18

#: Safety valve on the memoised state count: pathological instances (many
#: distinct release dates and interleaved windows) can explode the DFS even
#: below the job limit; exceeding this raises ``ExactSolverBudgetExceeded``
#: instead of hanging.
MAX_EXPLORED_STATES = 2_000_000


class ExactSolverBudgetExceeded(RuntimeError):
    """The branch-and-bound exceeded its state budget.

    :func:`repro.offline.bracket.opt_bracket` catches it and returns the
    heuristic/flow bracket instead.
    """

#: Frontier values are rounded to this many decimals for memo keys.
_KEY_DECIMALS = 9


@dataclass
class ExactResult:
    """Exact optimum: objective value and one optimal schedule."""

    value: float
    schedule: Schedule
    explored_states: int


def _round_key(x: float) -> float:
    return round(x, _KEY_DECIMALS)


class _Solver:
    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.jobs = instance.jobs  # position == job id == bit
        self.processing = [job.processing for job in self.jobs]
        #: per job, largest processing time first and ties by job id: its
        #: id, bit, p, r and its rounded end when it starts at its release.
        self.branches = []
        for jid in sorted(range(len(self.jobs)), key=lambda i: -self.processing[i]):
            job = self.jobs[jid]
            end = _round_key(job.release + job.processing)
            self.branches.append((jid, 1 << jid, job.processing, job.release, end))
        self.memo: dict[tuple[int, tuple[float, ...]], float] = {}
        #: alive-job mask per smallest-frontier value (see :meth:`_alive`).
        self.alive_at: dict[float, int] = {}

    # ------------------------------------------------------------------
    def _alive(self, min_frontier: float) -> int:
        """Mask of the jobs that still fit when no machine frees before
        *min_frontier*."""
        mask = self.alive_at.get(min_frontier)
        if mask is None:
            mask = 0
            for jid, job in enumerate(self.jobs):
                if fge(job.deadline, max(job.release, min_frontier) + job.processing):
                    mask |= 1 << jid
            self.alive_at[min_frontier] = mask
        return mask

    def best_additional(self, remaining: int, frontiers: tuple[float, ...]) -> float:
        """Maximum additional load schedulable from this state."""
        remaining &= self._alive(frontiers[0])
        if not remaining:
            return 0.0
        cached = self.memo.get((remaining, frontiers))
        if cached is not None:
            return cached
        return self._expand(remaining, frontiers)

    def _expand(self, remaining: int, frontiers: tuple[float, ...]) -> float:
        """Search a state that is alive-filtered, non-empty and not memoised."""
        memo = self.memo
        if len(memo) >= MAX_EXPLORED_STATES:
            raise ExactSolverBudgetExceeded(
                f"exact solver exceeded {MAX_EXPLORED_STATES} memoised states"
            )
        # Remaining load, summed in ascending job id.
        total_possible = sum(p for jid, p in enumerate(self.processing) if remaining >> jid & 1)
        frontier, others = frontiers[0], frontiers[1:]
        best = 0.0
        # Every remaining job is alive at the smallest frontier, so it meets
        # its deadline when that machine takes it next.
        for _, bit, p, r, release_end in self.branches:
            if not remaining & bit:
                continue
            end = release_end if r >= frontier else _round_key(frontier + p)
            child_frontiers = tuple(sorted((*others, end)))
            child = (remaining ^ bit) & self._alive(child_frontiers[0])
            if child:
                additional = memo.get((child, child_frontiers))
                if additional is None:
                    additional = self._expand(child, child_frontiers)
            else:
                additional = 0.0
            value = p + additional
            if value > best + TIME_EPS:
                best = value
            if best >= total_possible - TIME_EPS:
                memo[remaining, frontiers] = best
                return best
        memo[remaining, frontiers] = best
        return best

    # ------------------------------------------------------------------
    def reconstruct(self) -> Schedule:
        """Rebuild one optimal schedule by following the memoised values.

        Each step takes the first branch, in search order, whose value
        equals the state's memoised value bit for bit, until that value
        is 0.
        """
        machines = [MachineState(i) for i in range(self.instance.machines)]
        schedule = Schedule(instance=self.instance, algorithm="offline-exact")
        remaining = (1 << len(self.jobs)) - 1
        frontiers = tuple([0.0] * self.instance.machines)
        # The physical machine behind each frontier slot.
        slot_machines = list(range(self.instance.machines))

        while True:
            remaining &= self._alive(frontiers[0])
            target = self.best_additional(remaining, frontiers)
            if target == 0.0:
                break
            frontier, others = frontiers[0], frontiers[1:]
            for jid, bit, p, r, release_end in self.branches:
                if not remaining & bit:
                    continue
                end = release_end if r >= frontier else _round_key(frontier + p)
                child_frontiers = tuple(sorted((*others, end)))
                if p + self.best_additional(remaining ^ bit, child_frontiers) == target:
                    start = max(r, frontier)
                    machine_idx = slot_machines.pop(0)
                    machines[machine_idx].commit(self.jobs[jid], start)
                    schedule.assignments[jid] = Assignment(jid, machine_idx, start)
                    slot_machines.insert(child_frontiers.index(end), machine_idx)
                    remaining ^= bit
                    frontiers = child_frontiers
                    break
            else:  # pragma: no cover - defensive
                raise RuntimeError("reconstruction failed to follow the memo")
        for jid in range(len(self.jobs)):
            if jid not in schedule.assignments:
                schedule.rejected.add(jid)
        schedule.audit()
        return schedule


def exact_optimum(instance: Instance, job_limit: int = EXACT_JOB_LIMIT) -> ExactResult:
    """Exact offline optimum of *instance* (small instances only).

    Exact to within ``n * TIME_EPS`` for ``n`` jobs when processing times
    are a few ``TIME_EPS``: a state keeps a branch unless another beats it
    by more than ``TIME_EPS``, so the shortfalls can add up over the
    levels.  On instances with longer jobs the value is the optimum.

    Raises ``ValueError`` when the instance exceeds *job_limit* jobs — use
    :func:`repro.offline.bracket.opt_bracket` for large instances — and
    :class:`ExactSolverBudgetExceeded` when the search outgrows
    :data:`MAX_EXPLORED_STATES`.
    """
    if len(instance) > job_limit:
        raise ValueError(
            f"exact solver limited to {job_limit} jobs; instance has {len(instance)} "
            "(use opt_bracket for bounds instead)"
        )
    solver = _Solver(instance)
    value = solver.best_additional(
        (1 << len(instance)) - 1, tuple([0.0] * instance.machines)
    )
    schedule = solver.reconstruct()
    # The value is the schedule's load, summed in another order.
    load = math.fsum(instance[jid].processing for jid in schedule.assignments)
    if abs(load - value) > len(instance) * math.ulp(value):  # pragma: no cover - defensive
        raise RuntimeError(f"reconstructed load {load} != optimum {value}")
    return ExactResult(value=value, schedule=schedule, explored_states=len(solver.memo))
