"""Offline heuristics: certified lower bounds on the optimum.

Strategy: try several job orderings, insert each job at the earliest
feasible position on any machine (allowing placement into idle *gaps*, not
just at timeline ends — this is what distinguishes the offline packer from
the online greedy), then try to squeeze every rejected job into remaining
gaps.  The best resulting schedule is returned; its load is a valid lower
bound because the schedule is audited.  Each machine finds a job's earliest
start in one walk over its timeline
(:meth:`repro.model.machine.MachineState.earliest_feasible_start`).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.model.schedule import Assignment, Schedule
from repro.utils.tolerances import TIME_EPS

#: Job orderings tried by the portfolio, name -> sort key.
ORDERINGS: dict[str, Callable[[Job], tuple]] = {
    "edd": lambda j: (j.deadline, j.release, j.job_id),
    "long-first": lambda j: (-j.processing, j.deadline, j.job_id),
    "short-first": lambda j: (j.processing, j.deadline, j.job_id),
    "latest-start": lambda j: (j.latest_start, j.job_id),
    "release": lambda j: (j.release, j.deadline, j.job_id),
    "tightness": lambda j: (j.laxity, -j.processing, j.job_id),
}


def _pack(instance: Instance, ordered: Sequence[Job]) -> Schedule:
    """Insert jobs in the given order, earliest-feasible-start placement."""
    machines = [MachineState(i) for i in range(instance.machines)]
    schedule = Schedule(instance=instance, algorithm="offline-pack")
    pending: list[Job] = []
    for job in ordered:
        placements = []
        for ms in machines:
            start = ms.earliest_feasible_start(job)
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
            start = ms.earliest_feasible_start(job)
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


def opt_lower_bound(instance: Instance) -> float:
    """Load of the best heuristic schedule (``<= OPT``)."""
    return best_offline_schedule(instance).accepted_load
