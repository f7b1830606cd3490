"""Reference oracle for the exact offline optimum.

:class:`_Solver` and :func:`exact_optimum` are the branch-and-bound as it
was before it ran on bitmask states: remaining jobs are a ``frozenset``,
every call rebuilds the alive set with a generator before its memo
lookup, and equal processing times branch in ``frozenset`` iteration
order.  Both are kept verbatim, so :func:`exact_optimum` reproduces the
earlier solver bit for bit, errors and state counts included.
"""

from __future__ import annotations

from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.offline.exact import (
    EXACT_JOB_LIMIT,
    ExactResult,
    ExactSolverBudgetExceeded,
)
from repro.utils.tolerances import TIME_EPS, fge

#: The earlier solver's state budget; tests patch it next to the live one.
MAX_EXPLORED_STATES = 2_000_000

#: Frontier values are rounded to this many decimals for memo keys.
_KEY_DECIMALS = 9


def _round_key(x: float) -> float:
    return round(x, _KEY_DECIMALS)


class _Solver:
    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.jobs: dict[int, Job] = {j.job_id: j for j in instance}
        self.memo: dict[tuple, float] = {}

    # ------------------------------------------------------------------
    def _alive(self, remaining: frozenset[int], min_frontier: float) -> frozenset[int]:
        """Drop jobs that can never be scheduled from this state on."""
        return frozenset(
            jid
            for jid in remaining
            if fge(
                self.jobs[jid].deadline,
                max(self.jobs[jid].release, min_frontier) + self.jobs[jid].processing,
            )
        )

    def best_additional(self, remaining: frozenset[int], frontiers: tuple[float, ...]) -> float:
        """Maximum additional load schedulable from this state."""
        remaining = self._alive(remaining, frontiers[0])
        if not remaining:
            return 0.0
        key = (remaining, frontiers)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if len(self.memo) >= MAX_EXPLORED_STATES:
            raise ExactSolverBudgetExceeded(
                f"exact solver exceeded {MAX_EXPLORED_STATES} memoised states; "
                "use repro.offline.bracket.opt_bracket(force_bounds=True) instead"
            )

        total_possible = sum(self.jobs[j].processing for j in remaining)
        best = 0.0
        # Largest-processing-first finds strong incumbents early.
        for jid in sorted(remaining, key=lambda i: -self.jobs[i].processing):
            job = self.jobs[jid]
            if job.processing + total_possible - job.processing <= best + TIME_EPS:
                # Even scheduling everything cannot beat the incumbent.
                break
            tried: set[float] = set()
            for slot, frontier in enumerate(frontiers):
                if frontier in tried:
                    continue
                tried.add(frontier)
                start = max(job.release, frontier)
                if not fge(job.deadline, start + job.processing):
                    continue
                new_frontiers = list(frontiers)
                new_frontiers[slot] = _round_key(start + job.processing)
                new_frontiers.sort()
                value = job.processing + self.best_additional(
                    remaining - {jid}, tuple(new_frontiers)
                )
                if value > best + TIME_EPS:
                    best = value
                if best >= total_possible - TIME_EPS:
                    self.memo[key] = best
                    return best
        self.memo[key] = best
        return best

    # ------------------------------------------------------------------
    def reconstruct(self) -> Schedule:
        """Rebuild one optimal schedule by walking the memoised values."""
        machines = [MachineState(i) for i in range(self.instance.machines)]
        schedule = Schedule(instance=self.instance, algorithm="offline-exact")
        remaining = frozenset(self.jobs)
        frontiers = tuple([0.0] * self.instance.machines)
        # Track which physical machine owns each frontier slot.
        slot_machines = list(range(self.instance.machines))

        while True:
            remaining = self._alive(remaining, frontiers[0])
            if not remaining:
                break
            target = self.best_additional(remaining, frontiers)
            if target <= TIME_EPS:
                break
            moved = False
            for jid in sorted(remaining, key=lambda i: -self.jobs[i].processing):
                job = self.jobs[jid]
                tried: set[float] = set()
                for slot, frontier in enumerate(frontiers):
                    if frontier in tried:
                        continue
                    tried.add(frontier)
                    start = max(job.release, frontier)
                    if not fge(job.deadline, start + job.processing):
                        continue
                    new_frontiers = list(frontiers)
                    new_frontiers[slot] = _round_key(start + job.processing)
                    order = sorted(range(len(new_frontiers)), key=lambda i: new_frontiers[i])
                    candidate = job.processing + self.best_additional(
                        remaining - {jid},
                        tuple(new_frontiers[i] for i in order),
                    )
                    if abs(candidate - target) <= 1e-7:
                        machine_idx = slot_machines[slot]
                        machines[machine_idx].commit(job, start)
                        schedule.assignments[jid] = Assignment(jid, machine_idx, start)
                        remaining = remaining - {jid}
                        slot_machines = [slot_machines[i] for i in order]
                        frontiers = tuple(new_frontiers[i] for i in order)
                        moved = True
                        break
                if moved:
                    break
            if not moved:  # pragma: no cover - defensive
                raise RuntimeError("reconstruction failed to follow the memo")
        for jid in self.jobs:
            if jid not in schedule.assignments:
                schedule.rejected.add(jid)
        schedule.audit()
        return schedule


def exact_optimum(instance: Instance, job_limit: int = EXACT_JOB_LIMIT) -> ExactResult:
    """Exact offline optimum of *instance* (small instances only).

    Raises ``ValueError`` when the instance exceeds *job_limit* jobs — use
    :func:`repro.offline.bracket.opt_bracket` for large instances.
    """
    if len(instance) > job_limit:
        raise ValueError(
            f"exact solver limited to {job_limit} jobs; instance has {len(instance)} "
            "(use opt_bracket for bounds instead)"
        )
    solver = _Solver(instance)
    value = solver.best_additional(
        frozenset(solver.jobs), tuple([0.0] * instance.machines)
    )
    schedule = solver.reconstruct()
    if abs(schedule.accepted_load - value) > 1e-6:  # pragma: no cover - defensive
        raise RuntimeError(
            f"reconstructed load {schedule.accepted_load} != optimum {value}"
        )
    return ExactResult(value=value, schedule=schedule, explored_states=len(solver.memo))
