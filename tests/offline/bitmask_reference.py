"""Reference oracle: the bitmask branch-and-bound that branched everywhere.

:class:`_Solver` and :func:`exact_optimum` are the exact solver as it
was before it branched only on the machine that frees earliest: every
state appends any alive job to any distinct machine frontier, so it
reaches one schedule once per interleaving of its machines' dispatch
sequences.  Both are kept verbatim, so :func:`exact_optimum` reproduces
that solver bit for bit: values, schedules, state counts and errors.
Its reconstruction takes the first branch within ``1e-7`` of the
memoised value, so with processing times of a few ``TIME_EPS`` its
schedule can carry less than its value
(``test_exact_canonical.test_nano_schedule_carries_its_value`` pins one
such instance).
"""

from __future__ import annotations

from repro.model.instance import Instance
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.offline.exact import (
    EXACT_JOB_LIMIT,
    ExactResult,
    ExactSolverBudgetExceeded,
)
from repro.utils.tolerances import TIME_EPS, fge

#: The solver's state budget; tests patch it next to the live one.
MAX_EXPLORED_STATES = 2_000_000

#: Frontier values are rounded to this many decimals for memo keys.
_KEY_DECIMALS = 9


def _round_key(x: float) -> float:
    return round(x, _KEY_DECIMALS)


class _Solver:
    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.jobs = instance.jobs  # position == job id == bit
        self.processing = [job.processing for job in self.jobs]
        #: branch order: largest processing time first, ties by job id.
        self.order = sorted(range(len(self.jobs)), key=lambda i: -self.processing[i])
        #: per job in branch order: its bit, p, r, d and its rounded end
        #: when it starts at its release.
        self.branches = []
        for jid in self.order:
            job = self.jobs[jid]
            end = _round_key(job.release + job.processing)
            self.branches.append((1 << jid, job.processing, job.release, job.deadline, end))
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
        if len(self.memo) >= MAX_EXPLORED_STATES:
            raise ExactSolverBudgetExceeded(
                f"exact solver exceeded {MAX_EXPLORED_STATES} memoised states; "
                "use repro.offline.bracket.opt_bracket(force_bounds=True) instead"
            )
        # Remaining load, summed in ascending job id.
        total_possible = sum(p for jid, p in enumerate(self.processing) if remaining >> jid & 1)
        best = 0.0
        for bit, p, r, d, release_end in self.branches:
            if not remaining & bit:
                continue
            if p + total_possible - p <= best + TIME_EPS:
                break  # in effect: the remaining load is at most TIME_EPS
            rest = remaining ^ bit
            previous = None
            for slot, frontier in enumerate(frontiers):
                if frontier == previous:  # sorted: equal frontiers are adjacent
                    continue
                previous = frontier
                if r >= frontier:
                    # The job is alive at frontiers[0] <= frontier <= r, so
                    # it meets its deadline from its release.
                    end = release_end
                else:
                    finish = frontier + p
                    if not fge(d, finish):
                        continue
                    end = _round_key(finish)
                child_frontiers = list(frontiers)
                child_frontiers[slot] = end
                child_frontiers.sort()
                child_frontiers = tuple(child_frontiers)
                child = rest & self._alive(child_frontiers[0])
                if child:
                    additional = self.memo.get((child, child_frontiers))
                    if additional is None:
                        additional = self._expand(child, child_frontiers)
                else:
                    additional = 0.0
                value = p + additional
                if value > best + TIME_EPS:
                    best = value
                if best >= total_possible - TIME_EPS:
                    self.memo[remaining, frontiers] = best
                    return best
        self.memo[remaining, frontiers] = best
        return best

    # ------------------------------------------------------------------
    def reconstruct(self) -> Schedule:
        """Rebuild one optimal schedule by walking the memoised values."""
        machines = [MachineState(i) for i in range(self.instance.machines)]
        schedule = Schedule(instance=self.instance, algorithm="offline-exact")
        remaining = (1 << len(self.jobs)) - 1
        frontiers = tuple([0.0] * self.instance.machines)
        # Track which physical machine owns each frontier slot.
        slot_machines = list(range(self.instance.machines))

        while True:
            remaining &= self._alive(frontiers[0])
            if not remaining:
                break
            target = self.best_additional(remaining, frontiers)
            if target <= TIME_EPS:
                break
            moved = False
            for jid in self.order:
                if not remaining >> jid & 1:
                    continue
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
                        remaining ^ (1 << jid),
                        tuple(new_frontiers[i] for i in order),
                    )
                    if abs(candidate - target) <= 1e-7:
                        machine_idx = slot_machines[slot]
                        machines[machine_idx].commit(job, start)
                        schedule.assignments[jid] = Assignment(jid, machine_idx, start)
                        remaining ^= 1 << jid
                        slot_machines = [slot_machines[i] for i in order]
                        frontiers = tuple(new_frontiers[i] for i in order)
                        moved = True
                        break
                if moved:
                    break
            if not moved:  # pragma: no cover - defensive
                raise RuntimeError("reconstruction failed to follow the memo")
        for jid in range(len(self.jobs)):
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
        (1 << len(instance)) - 1, tuple([0.0] * instance.machines)
    )
    schedule = solver.reconstruct()
    if abs(schedule.accepted_load - value) > 1e-6:  # pragma: no cover - defensive
        raise RuntimeError(
            f"reconstructed load {schedule.accepted_load} != optimum {value}"
        )
    return ExactResult(value=value, schedule=schedule, explored_states=len(solver.memo))
