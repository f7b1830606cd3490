"""Reference oracle: the offline packer that listed every idle gap.

:func:`earliest_feasible_start`, :func:`_pack` and
:func:`best_offline_schedule` are the packing heuristic as it was before
the earliest start came from one walk over a machine's start and end
arrays: it built every idle gap in the job's window as an
:class:`~repro.utils.intervals.Interval` and then scanned the list.
``MachineState.free_intervals`` went with it and lives on here, on a
subclass.  All four are kept verbatim, so :func:`best_offline_schedule`
reproduces that packer bit for bit.

One difference is intended.  The gap list skips a commitment that ends
within ``TIME_EPS`` of the cursor even when it starts at the cursor, so
on jobs no longer than ``TIME_EPS`` it can offer a start that
``MachineState.commit`` refuses as an overlap, and this packer raises
``ValueError``.  ``MachineState.earliest_feasible_start`` moves its
cursor past such a commitment instead, so the packer completes there;
wherever this reference completes, the two agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

from repro.model import machine as _machine
from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.schedule import Assignment, Schedule
from repro.offline.heuristics import ORDERINGS
from repro.utils.intervals import Interval
from repro.utils.tolerances import TIME_EPS, fge


class MachineState(_machine.MachineState):
    """A machine state that can still list its idle gaps."""

    __slots__ = ()

    def free_intervals(self, t: float, horizon: float) -> list[Interval]:
        """Idle intervals of the committed timeline within ``[t, horizon)``.

        Used by gap-filling baselines and the audit layer.
        """
        gaps: list[Interval] = []
        cursor = t
        for c in self._commitments:
            if c.end <= cursor + TIME_EPS:
                continue
            if c.start > cursor + TIME_EPS:
                gaps.append(Interval(cursor, min(c.start, horizon)))
            cursor = max(cursor, c.end)
            if cursor >= horizon:
                break
        if cursor < horizon - TIME_EPS:
            gaps.append(Interval(cursor, horizon))
        return [g for g in gaps if g.length > TIME_EPS]


def earliest_feasible_start(machine: MachineState, job: Job) -> float | None:
    """Earliest start of *job* on *machine*'s current timeline, gaps included.

    Scans the idle intervals of the committed timeline within the job's
    window; returns ``None`` when no gap fits.
    """
    horizon = job.deadline
    for gap in machine.free_intervals(job.release, horizon):
        start = max(gap.start, job.release)
        if fge(gap.end, start + job.processing) and fge(job.deadline, start + job.processing):
            return start
    return None


def _pack(instance: Instance, ordered: Sequence[Job]) -> Schedule:
    """Insert jobs in the given order, earliest-feasible-start placement."""
    machines = [MachineState(i) for i in range(instance.machines)]
    schedule = Schedule(instance=instance, algorithm="offline-pack")
    pending: list[Job] = []
    for job in ordered:
        placements = []
        for ms in machines:
            start = earliest_feasible_start(ms, job)
            if start is not None:
                placements.append((start, ms))
        if placements:
            start, ms = min(placements, key=lambda sm: (sm[0], sm[1].index))
            ms.commit(job, start)
            schedule.assignments[job.job_id] = Assignment(job.job_id, ms.index, start)
        else:
            pending.append(job)
    # Second chance: rejected jobs may fit into gaps created later.
    for job in pending:
        placed = False
        for ms in machines:
            start = earliest_feasible_start(ms, job)
            if start is not None:
                ms.commit(job, start)
                schedule.assignments[job.job_id] = Assignment(job.job_id, ms.index, start)
                placed = True
                break
        if not placed:
            schedule.rejected.add(job.job_id)
    schedule.audit()
    return schedule


def best_offline_schedule(instance: Instance) -> Schedule:
    """Best schedule over the ordering portfolio (certified feasible)."""
    best: Schedule | None = None
    for name, key in ORDERINGS.items():
        ordered = sorted(instance.jobs, key=key)
        candidate = _pack(instance, ordered)
        candidate.meta["ordering"] = name
        if best is None or candidate.accepted_load > best.accepted_load + TIME_EPS:
            best = candidate
    assert best is not None
    best.algorithm = "offline-heuristic"
    return best
