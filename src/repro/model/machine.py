"""Non-preemptive machine state: committed execution intervals.

A machine accumulates irrevocable commitments ``(job, [start, start+p))``.
The class maintains the invariant that commitments never overlap and
exposes the quantities Algorithm 1 of the paper operates on:

* ``outstanding(t)`` — the *outstanding load* :math:`l(m_i)` at time *t*:
  total committed work that still has to execute at or after *t* (running
  remainders count, finished work does not).
* ``completion_frontier(t)`` — first time at/after *t* when the machine has
  no further commitments (where a newly appended job would start under the
  paper's "start immediately after the outstanding load" rule, provided the
  machine never idles between *t* and its last commitment).
* ``fits(job, t)`` — whether appending the job after the current frontier
  still meets its deadline (candidate-machine test of Algorithm 1, Line 9).

Performance
-----------

Simulations query ``outstanding`` on every machine at every submission, so
a naive scan makes long runs quadratic (profiled at 3.5k jobs/s for an
8000-job stream).  The committed intervals are disjoint, hence sorted by
start *and* by end simultaneously; the class therefore keeps parallel
``starts`` / ``ends`` arrays plus a running prefix sum of processing
times, giving ``O(log n)`` ``outstanding``/``busy_at`` via :mod:`bisect`
and an O(1) overlap check on commit (only the two neighbours of the
insertion point can conflict).

One decision asks for the same loads several times (the engine's trace,
the policy's threshold and its best-fit key, a live session's reply), so
``outstanding`` remembers its last ``(t, load)`` and ``commit`` forgets
it: each machine computes its load once per decision, and every caller
gets that same float.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator

from repro.model.job import Job
from repro.utils.intervals import Interval
from repro.utils.tolerances import TIME_EPS, fge, snap


@dataclass(frozen=True, slots=True)
class Commitment:
    """A single irrevocable allocation of *job* to ``[start, end)``."""

    job: Job
    start: float

    @property
    def end(self) -> float:
        """Completion time ``start + processing``."""
        return self.start + self.job.processing

    @property
    def interval(self) -> Interval:
        """The execution interval as an :class:`Interval`."""
        return Interval(self.start, self.end)


class MachineState:
    """Mutable committed timeline of one non-preemptive machine.

    Commitments may be appended in any time order (some baselines reserve
    future slots); the class keeps them sorted by start time and rejects
    overlapping commitments.
    """

    __slots__ = (
        "index", "_commitments", "_starts", "_ends", "_prefix", "_memo_t", "_memo_load"
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self._commitments: list[Commitment] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        #: prefix[i] = total processing time of the first i commitments.
        self._prefix: list[float] = [0.0]
        #: The last ``outstanding`` query and its answer (NaN: none yet).
        self._memo_t = math.nan
        self._memo_load = 0.0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def commit(self, job: Job, start: float) -> Commitment:
        """Irrevocably allocate *job* at *start*; returns the commitment.

        Raises ``ValueError`` if the execution interval would overlap an
        existing commitment or violate the job's own window.
        """
        if not job.feasible_start(start):
            raise ValueError(
                f"machine {self.index}: start {start} infeasible for job "
                f"{job.job_id} (window [{job.release}, {job.deadline}), p={job.processing})"
            )
        new = Commitment(job, start)
        pos = bisect_left(self._starts, start)
        # Disjoint sorted intervals: only the neighbours can overlap.
        if pos > 0 and self._ends[pos - 1] > new.start + TIME_EPS:
            other = self._commitments[pos - 1]
            raise ValueError(
                f"machine {self.index}: job {job.job_id} at "
                f"[{new.start}, {new.end}) overlaps job "
                f"{other.job.job_id} at [{other.start}, {other.end})"
            )
        if pos < len(self._starts) and self._starts[pos] < new.end - TIME_EPS:
            other = self._commitments[pos]
            raise ValueError(
                f"machine {self.index}: job {job.job_id} at "
                f"[{new.start}, {new.end}) overlaps job "
                f"{other.job.job_id} at [{other.start}, {other.end})"
            )
        self._commitments.insert(pos, new)
        self._starts.insert(pos, new.start)
        self._ends.insert(pos, new.end)
        if pos == len(self._prefix) - 1:
            # Common case: append at the end -> O(1) prefix extension.
            self._prefix.append(self._prefix[-1] + job.processing)
        else:
            del self._prefix[pos + 1 :]
            for i, c in enumerate(self._commitments[pos:], start=pos):
                self._prefix.append(self._prefix[i] + c.job.processing)
        self._memo_t = math.nan
        return new

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._commitments)

    def __iter__(self) -> Iterator[Commitment]:
        return iter(self._commitments)

    @property
    def commitments(self) -> tuple[Commitment, ...]:
        """All commitments, sorted by start time."""
        return tuple(self._commitments)

    def last_end(self) -> float:
        """Completion time of the last commitment (0 when empty)."""
        return self._ends[-1] if self._ends else 0.0

    def outstanding(self, t: float) -> float:
        """Outstanding load :math:`l(m_i)` at time *t*.

        Sum over commitments of the part of the execution interval at or
        after *t*.  This is the quantity Algorithm 1 multiplies by
        :math:`f_h` to obtain the machine-dependent deadline threshold.
        ``O(log n)`` via bisection on the (sorted) completion times; a
        repeated query at the same *t* with no commit in between returns
        the remembered answer.
        """
        if t == self._memo_t:
            return self._memo_load
        n = len(self._commitments)
        if n == 0:
            return 0.0
        j = bisect_right(self._ends, t)
        load = 0.0
        if j < n:
            partial = self._ends[j] - max(self._starts[j], t)
            rest = self._prefix[n] - self._prefix[j + 1]
            load = snap(partial + rest)
        self._memo_t = t
        self._memo_load = load
        return load

    def completion_frontier(self, t: float) -> float:
        """First time ``>= t`` with no further committed work after it.

        For append-only policies (Threshold, greedy best-fit) this equals
        ``t + outstanding(t)`` because those policies never leave a gap
        after *t*; for reservation-style policies it is the end of the last
        commitment if that lies after *t*.
        """
        return max(t, self._ends[-1]) if self._ends else t

    def busy_at(self, t: float) -> bool:
        """Whether some commitment's interval contains time *t*."""
        pos = bisect_right(self._starts, t + TIME_EPS) - 1
        if pos < 0:
            return False
        return self._starts[pos] - TIME_EPS <= t < self._ends[pos] - TIME_EPS

    def is_idle_from(self, t: float) -> bool:
        """Whether the machine has no committed work at or after *t*."""
        return self.outstanding(t) <= TIME_EPS

    def append_start(self, job: Job, t: float) -> float:
        """Start time under the paper's append rule at decision time *t*.

        Algorithm 1 starts an accepted job "immediately after completing
        the load of this machine": ``max(t, frontier)`` where the frontier
        is the end of all current commitments.  The start additionally may
        not precede the job's release (callers pass ``t = r_j``).
        """
        return max(max(t, job.release), self.completion_frontier(t))

    def fits(self, job: Job, t: float) -> bool:
        """Candidate-machine test: can the appended job finish by its deadline?"""
        start = self.append_start(job, t)
        return fge(job.deadline, start + job.processing)

    def earliest_feasible_start(self, job: Job) -> float | None:
        """Earliest start of *job* in an idle gap of the timeline, or ``None``.

        One walk over the commitments from the job's release.  Commitments
        that end by the cursor (within ``TIME_EPS``) are skipped; a gap
        opens where a commitment starts more than ``TIME_EPS`` after the
        cursor, and ends there or at the deadline, whichever is first; the
        last gap runs from the cursor to the deadline.  A gap no longer
        than ``TIME_EPS`` is passed over, and the first gap the job fits
        returns its start.  That start is the cursor, unless a skipped
        commitment (one no longer than ``TIME_EPS``) starts at or after the
        cursor and less than ``p - TIME_EPS`` after it: :meth:`commit`
        would refuse the cursor for overlapping it, so the start is the
        latest end of the skipped commitments from the cursor on.  Used by
        the offline packer (:mod:`repro.offline.heuristics`).
        """
        deadline = job.deadline
        processing = job.processing
        cursor = job.release
        # Among the commitments skipped since the cursor last moved that
        # start at or after it: whether one would overlap a start at the
        # cursor, and the latest end (where they are all behind).
        blocked, passed = False, cursor
        for start, end in zip(self._starts, self._ends):
            if end <= cursor + TIME_EPS:
                if start >= cursor:
                    blocked = blocked or start < cursor + processing - TIME_EPS
                    passed = max(passed, end)
                continue
            if start > cursor + TIME_EPS:
                # The gap ends by the deadline, so fitting it meets the
                # deadline too.
                gap_end = min(start, deadline)
                first = passed if blocked else cursor
                if gap_end - first > TIME_EPS and gap_end >= first + processing - TIME_EPS:
                    return first
            cursor, blocked, passed = end, False, end
            if cursor >= deadline:
                return None
        first = passed if blocked else cursor
        if (
            first < deadline - TIME_EPS
            and deadline - first > TIME_EPS
            and deadline >= first + processing - TIME_EPS
        ):
            return first
        return None

    def committed_load(self) -> float:
        """Total processing time ever committed to this machine."""
        return self._prefix[-1]

    def clone(self) -> "MachineState":
        """Deep-enough copy (commitments are immutable, arrays are copied)."""
        copy = MachineState(self.index)
        copy._commitments = list(self._commitments)
        copy._starts = list(self._starts)
        copy._ends = list(self._ends)
        copy._prefix = list(self._prefix)
        copy._memo_t = self._memo_t
        copy._memo_load = self._memo_load
        return copy

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        spans = ", ".join(f"{c.job.job_id}@[{c.start:g},{c.end:g})" for c in self._commitments)
        return f"MachineState(index={self.index}, [{spans}])"
