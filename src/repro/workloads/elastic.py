"""The lease queue behind every multiprocess sweep.

Workers *pull* cells from a shared :class:`CellQueue`, and every grant is
a **lease** — a revocable commitment to a cell that only becomes final
when its verified journal row lands.  The loop that serves the queue to
worker processes lives in :mod:`repro.workloads.remote`; this module
holds its pure state machines, so lease semantics are property-testable
without processes or clocks:

* **Heartbeats** extend a lease's deadline while the worker computes, so
  a *slow* worker keeps its lease (bounded only by the hard per-cell
  ``timeout``) while a *hung or dead* one — no heartbeats — expires and
  has its cell re-dispatched.
* **Failure accounting**: a cell fault (error, corrupt rows, hard
  timeout) spends the cell's retry budget; a worker death re-queues the
  cell charge-free but is *counted*, so a cell that kills every worker
  it touches is quarantined as ``crash`` after ``retries + 1`` deaths
  instead of being re-dispatched forever.  While other workers hold
  leases, a cell is not re-offered to a worker it already died on, so a
  slot that keeps dying cannot spend a healthy cell's death budget alone.
* **Speculative re-execution**: once the queue runs dry, idle workers
  re-execute the longest-running outstanding cells (one extra copy per
  attempt, so copies of a hanging cell cannot keep each other alive
  forever).  First verified result wins; a duplicate result is
  asserted bit-identical to the winner, so speculation doubles as a live
  determinism check — a mismatch raises :class:`SpeculationMismatch`
  rather than journaling either copy silently.
* **Adaptive repetitions** (opt-in, :class:`_AdaptiveReps`): repetitions
  of a grid config are issued incrementally, and once the bootstrap
  confidence interval of every algorithm's mean accepted load is tight
  the remaining reps are skipped (counted in ``manifest.cells_skipped``).

Determinism is unchanged: cells draw their instances from
:meth:`SweepSpec.cell_seed`, so re-dispatch, speculation and worker death
cannot alter the data.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass

from repro.workloads.resilient import CellFailure
from repro.workloads.sweep import SweepRow, SweepSpec

#: Default heartbeat cadence (seconds) inside a worker.
DEFAULT_HEARTBEAT_INTERVAL = 0.1

#: Lease deadline as a multiple of the heartbeat interval.  A lease must
#: survive several consecutive lost heartbeats before it is presumed dead
#: — one delayed scheduler pass must not trigger a spurious revocation.
LEASE_TIMEOUT_BEATS = 10

#: Adaptive repetitions: reps always executed per config before the CI is
#: consulted (the bootstrap CI needs at least two samples).
ADAPTIVE_MIN_REPS = 2

#: Adaptive repetitions: relative CI halfwidth below which the remaining
#: reps of a config are skipped.
ADAPTIVE_REL_TOL = 0.01


class SpeculationMismatch(RuntimeError):
    """Two executions of the same cell disagreed bit-for-bit.

    Raised when a duplicate result (speculation, or an injected
    ``duplicate_result`` fault) does not match the already-accepted rows
    for its cell.  This is never a scheduling artifact — cells are pure
    functions of their seed — so it indicates genuine nondeterminism in
    the simulation stack and must fail the sweep loudly.
    """


# ---------------------------------------------------------------------------
# the lease queue (pure state machine — no processes, no wall clock)
# ---------------------------------------------------------------------------


@dataclass
class Lease:
    """One revocable commitment of a cell to a worker slot."""

    eps: float
    m: int
    rep: int
    seed: int
    #: the lease key: a worker slot, or one member of a group lease.
    worker: Hashable
    attempt: int  # 1-based
    granted_at: float
    #: soft deadline, extended by every heartbeat; expiry = presumed dead.
    deadline: float
    #: hard wall-clock bound (``granted_at + timeout``); ``None`` = none.
    hard_deadline: float | None
    heartbeats: int = 0
    #: an end-game duplicate of an outstanding lease, not a fresh attempt.
    speculative: bool = False
    history: tuple[str, ...] = ()
    #: worker deaths this cell has caused so far (see :meth:`CellQueue.release`).
    deaths: int = 0
    #: the worker keys this cell died on (see :meth:`CellQueue.next_lease`).
    died_on: frozenset[Hashable] = frozenset()


@dataclass
class _PendingCell:
    eps: float
    m: int
    rep: int
    seed: int
    attempt: int  # next attempt number (1-based)
    history: tuple[str, ...] = ()
    deaths: int = 0
    died_on: frozenset[Hashable] = frozenset()


class CellQueue:
    """Work-stealing cell queue with revocable leases.

    A pure state machine: every method takes ``now`` explicitly and the
    class touches no processes, pipes or clocks, so lease semantics are
    directly property-testable (any interleaving of grant / heartbeat /
    expiry / release / completion must converge to the same completed
    rows — see ``tests/workloads/test_elastic.py``).

    Invariants:

    * at most one lease per worker slot;
    * at most ``max_copies`` concurrent leases per cell (primary +
      speculative end-game copies);
    * a cell is ``pending``, leased, ``completed`` or quarantined
      (``failures``) — never two at once;
    * duplicate completions must be bit-identical or
      :class:`SpeculationMismatch` is raised.
    """

    def __init__(
        self,
        cells: list[tuple[float, int, int, int]],
        *,
        retries: int = 2,
        lease_timeout: float = 1.0,
        timeout: float | None = None,
        speculate: bool = True,
        max_copies: int = 2,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be positive, got {lease_timeout}")
        if max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {max_copies}")
        self.retries = retries
        self.lease_timeout = lease_timeout
        self.timeout = timeout
        self.speculate = speculate
        self.max_copies = max_copies
        self.pending: deque[_PendingCell] = deque(
            _PendingCell(eps, m, rep, seed, attempt=1) for eps, m, rep, seed in cells
        )
        #: one lease per worker slot currently holding one.
        self.leases: dict[Hashable, Lease] = {}
        self.completed: dict[int, list[SweepRow]] = {}
        self.failures: list[CellFailure] = []
        #: seeds not yet completed or quarantined.
        self.remaining: set[int] = {seed for _, _, _, seed in cells}
        #: total leases granted (provenance / stats).
        self.granted = 0
        #: speculative leases granted (stats).
        self.speculated = 0
        #: ``(seed, attempt)`` pairs already copied once.
        self._copied: set[tuple[int, int]] = set()

    # -- queries -------------------------------------------------------

    @property
    def done(self) -> bool:
        """All cells completed or quarantined (in-flight losers aside)."""
        return not self.remaining

    def outstanding(self, seed: int) -> list[Lease]:
        """Every live lease on *seed* (0, 1, or up to ``max_copies``)."""
        return [lease for lease in self.leases.values() if lease.seed == seed]

    def expired(self, now: float) -> list[Lease]:
        """Leases whose soft (heartbeat) deadline has passed: presumed dead."""
        return [lease for lease in self.leases.values() if now >= lease.deadline]

    def overdue(self, now: float) -> list[Lease]:
        """Leases past the hard per-cell timeout: the *cell* is charged."""
        return [
            lease
            for lease in self.leases.values()
            if lease.hard_deadline is not None and now >= lease.hard_deadline
        ]

    # -- transitions ---------------------------------------------------

    def next_lease(self, worker: Hashable, now: float) -> Lease | None:
        """Grant the next cell (or an end-game speculative copy) to *worker*.

        Returns ``None`` when there is nothing to grant — the worker goes
        idle and should be re-offered work after the next state change.
        While another worker holds a lease, cells that died on *worker*
        are left for the others: a slot that keeps dying must not use up
        the death budget of a cell no healthy worker has tried.
        """
        if worker in self.leases:
            raise RuntimeError(f"worker slot {worker} already holds a lease")
        speculative = False
        if self.pending:
            task = self._pending_for(worker)
            if task is None:
                return None
        else:
            task = self._speculation_target(worker)
            if task is None:
                return None
            speculative = True
        lease = Lease(
            eps=task.eps,
            m=task.m,
            rep=task.rep,
            seed=task.seed,
            worker=worker,
            attempt=task.attempt,
            granted_at=now,
            deadline=now + self.lease_timeout,
            hard_deadline=None if self.timeout is None else now + self.timeout,
            speculative=speculative,
            history=task.history,
            deaths=task.deaths,
            died_on=task.died_on,
        )
        self.leases[worker] = lease
        self.granted += 1
        if speculative:
            self.speculated += 1
            self._copied.add((lease.seed, lease.attempt))
        return lease

    def _pending_for(self, worker: Hashable) -> _PendingCell | None:
        """Pop the first pending cell *worker* may take (see :meth:`next_lease`)."""
        if self.leases:
            for i, task in enumerate(self.pending):
                if worker not in task.died_on:
                    del self.pending[i]
                    return task
            return None
        return self.pending.popleft()

    def _speculation_target(self, worker: Hashable) -> _PendingCell | None:
        """End-game: duplicate the longest-outstanding under-copied cell."""
        if not self.speculate:
            return None
        candidates = [
            lease
            for lease in self.leases.values()
            if lease.seed in self.remaining
            and (lease.seed, lease.attempt) not in self._copied
            and len(self.outstanding(lease.seed)) < self.max_copies
        ]
        if not candidates:
            return None
        target = min(candidates, key=lambda lease: lease.granted_at)
        return _PendingCell(
            target.eps,
            target.m,
            target.rep,
            target.seed,
            attempt=target.attempt,
            history=target.history,
            deaths=target.deaths,
            died_on=target.died_on,
        )

    def heartbeat(self, worker: Hashable, now: float) -> bool:
        """Extend *worker*'s lease deadline; ``False`` if it holds none.

        Heartbeats only push the *soft* deadline — the hard per-cell
        timeout is immovable, which is what separates "slow but alive"
        from "over budget".
        """
        lease = self.leases.get(worker)
        if lease is None:
            return False
        lease.heartbeats += 1
        lease.deadline = now + self.lease_timeout
        return True

    def release(
        self,
        worker: Hashable,
        detail: str,
        *,
        charge_cell: bool = True,
        died: bool = False,
    ) -> Lease | None:
        """Revoke *worker*'s lease after a failure; re-queue or quarantine.

        ``charge_cell=True`` (error, corrupt rows, hard timeout) spends
        the cell's retry budget.  ``charge_cell=False`` (lease expiry, a
        demoted group lease) re-queues the cell without charge — the
        *worker* is at fault, and the caller charges it instead.
        ``died=True`` (the worker process died holding the lease) is
        charge-free too, but the death is counted: after ``retries + 1``
        deaths the cell is quarantined as ``crash``, so a cell that kills
        every worker it touches cannot livelock the sweep; the dying
        worker's key joins the cell's ``died_on``.  With other
        copies still outstanding, or the cell already completed, nothing
        is re-queued.  Returns the revoked lease (``None`` if the worker
        held none).
        """
        lease = self.leases.pop(worker, None)
        if lease is None:
            return None
        if lease.seed not in self.remaining or self.outstanding(lease.seed):
            return lease  # completed meanwhile, or another copy is running
        history = lease.history + (f"{detail}",)
        deaths = lease.deaths + died
        if died:
            spent = deaths > self.retries
        else:
            spent = charge_cell and lease.attempt - lease.deaths > self.retries
        if not spent:
            self.pending.append(
                _PendingCell(
                    lease.eps,
                    lease.m,
                    lease.rep,
                    lease.seed,
                    attempt=lease.attempt + (1 if charge_cell or died else 0),
                    history=history,
                    deaths=deaths,
                    died_on=lease.died_on | {worker} if died else lease.died_on,
                )
            )
        else:
            self.remaining.discard(lease.seed)
            self.failures.append(
                CellFailure(
                    epsilon=lease.eps,
                    machines=lease.m,
                    repetition=lease.rep,
                    seed=lease.seed,
                    attempts=lease.attempt,
                    kind=detail.split(":", 1)[0],
                    detail=detail,
                    history=history,
                )
            )
        return lease

    def complete(
        self, worker: Hashable, seed: int, rows: list[SweepRow]
    ) -> tuple[str, Lease | None]:
        """Accept a result; returns ``(outcome, lease)``.

        Outcomes: ``"win"`` (first verified result for the cell — caller
        journals it), ``"duplicate"`` (cell already completed; *rows*
        were asserted bit-identical to the winner), ``"stale"`` (the
        worker's lease was revoked before the result arrived — *rows*
        are still checked against the winner when one exists).  Raises
        :class:`SpeculationMismatch` when duplicate rows differ.
        """
        lease = self.leases.get(worker)
        if lease is not None and lease.seed == seed:
            del self.leases[worker]
        else:
            lease = None
        if seed in self.completed:
            if rows != self.completed[seed]:
                raise SpeculationMismatch(
                    f"duplicate result for cell seed {seed} differs from the "
                    "accepted rows — the simulation stack is nondeterministic"
                )
            return ("duplicate" if lease is not None else "stale", lease)
        if seed not in self.remaining:
            return ("stale", lease)  # quarantined earlier; drop the late copy
        if lease is None:
            return ("stale", None)  # revoked lease; a live copy will land
        self.completed[seed] = rows
        self.remaining.discard(seed)
        return ("win", lease)

    def add_cells(self, cells: list[tuple[float, int, int, int]]) -> None:
        """Append fresh cells (adaptive repetitions issue reps lazily)."""
        for eps, m, rep, seed in cells:
            self.pending.append(_PendingCell(eps, m, rep, seed, attempt=1))
            self.remaining.add(seed)


# ---------------------------------------------------------------------------
# adaptive repetitions
# ---------------------------------------------------------------------------


class _AdaptiveReps:
    """Issue repetitions lazily; stop once the bootstrap CI is tight.

    Each grid config ``(eps, m)`` starts with :data:`ADAPTIVE_MIN_REPS`
    repetitions.  When every issued rep of a config has completed, the
    bootstrap CI of the mean accepted load is computed per algorithm over
    the completed reps: if every algorithm's relative halfwidth is within
    :data:`ADAPTIVE_REL_TOL` the remaining reps are *skipped*; otherwise
    one more rep is issued (re-queued), up to ``spec.repetitions``.
    Skipping only ever drops whole trailing reps, so the executed prefix
    stays bit-identical to the same reps of an exhaustive run.
    """

    def __init__(self, spec: SweepSpec, cells: list[tuple[float, int, int]]) -> None:
        self.spec = spec
        self.reps_by_config: dict[tuple[float, int], list[int]] = {}
        for eps, m, rep in cells:
            self.reps_by_config.setdefault((eps, m), []).append(rep)
        for reps in self.reps_by_config.values():
            reps.sort()
        self.issued: dict[tuple[float, int], set[int]] = {}
        self.done: dict[tuple[float, int], dict[int, list[SweepRow]]] = {}
        self.skipped = 0

    def initial_cells(
        self, completed: dict[int, list[SweepRow]]
    ) -> list[tuple[float, int, int]]:
        """First wave: :data:`ADAPTIVE_MIN_REPS` reps per config (replays
        count as done)."""
        initial: list[tuple[float, int, int]] = []
        for (eps, m), reps in self.reps_by_config.items():
            self.issued[(eps, m)] = set()
            self.done[(eps, m)] = {}
            for rep in reps:
                seed = self.spec.cell_seed(eps, m, rep)
                if seed in completed:
                    self.issued[(eps, m)].add(rep)
                    self.done[(eps, m)][rep] = completed[seed]
            for rep in reps:
                if len(self.issued[(eps, m)]) >= ADAPTIVE_MIN_REPS:
                    break
                if rep not in self.issued[(eps, m)]:
                    self.issued[(eps, m)].add(rep)
                    initial.append((eps, m, rep))
        return initial

    def on_win(
        self, eps: float, m: int, rep: int, rows: list[SweepRow]
    ) -> list[tuple[float, int, int]]:
        """Record a completed rep; returns freshly issued cells (0 or 1)."""
        config = (eps, m)
        self.done[config][rep] = rows
        if len(self.done[config]) < len(self.issued[config]):
            return []  # other reps of this config still in flight
        remaining = [r for r in self.reps_by_config[config] if r not in self.issued[config]]
        if not remaining:
            return []
        if self._tight(config):
            self.skipped += len(remaining)
            self.issued[config].update(remaining)  # never issue them
            return []
        nxt = remaining[0]
        self.issued[config].add(nxt)
        return [(eps, m, nxt)]

    def _tight(self, config: tuple[float, int]) -> bool:
        from repro.analysis.stats import bootstrap_mean

        rows_by_rep = self.done[config]
        if len(rows_by_rep) < 2:
            return False
        loads: dict[str, list[float]] = {}
        for rows in rows_by_rep.values():
            for row in rows:
                loads.setdefault(row.algorithm, []).append(row.accepted_load)
        for samples in loads.values():
            ci = bootstrap_mean(samples)
            if ci.mean == 0.0:
                if ci.halfwidth > 0.0:
                    return False
                continue
            if ci.halfwidth / abs(ci.mean) > ADAPTIVE_REL_TOL:
                return False
        return True


__all__ = [
    "ADAPTIVE_MIN_REPS",
    "ADAPTIVE_REL_TOL",
    "CellQueue",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "LEASE_TIMEOUT_BEATS",
    "Lease",
    "SpeculationMismatch",
]
