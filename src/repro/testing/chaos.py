"""Chaos / fault-injection harness for the resilient sweep runner.

A fault-tolerance layer is only trustworthy if its failure paths are
exercised deliberately.  :class:`ChaosPlan` injects the four failure
modes a real sweep fleet sees — worker **crashes** (hard process death),
**hangs** (a worker that never returns), **transient exceptions** and
**corrupted results** — into sweep cells, driven entirely by
deterministic seeds so every chaotic run is replayable.

The plan is a frozen, picklable dataclass: the sweep lease loop ships it
to worker processes, and each worker consults ``fault_for(cell_seed,
attempt)`` before (or, for corruption, after) evaluating its cell.  Fault
assignment depends only on ``(plan.seed, cell_seed)``, never on wall
clock or execution order, so a test can pre-compute exactly which cells
will misbehave and assert that the runner quarantines *only* the truly
poisoned ones.

Faults come in two severities:

* **transient** — injected on the first attempt only; a single retry
  recovers the cell.  Models flaky infrastructure.
* **persistent** — injected on *every* attempt; the runner must exhaust
  its retry budget and quarantine the cell.  Models poison cells
  (pathological inputs, broken dependencies).

The split is drawn per cell with probability ``persistent_rate``.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from dataclasses import dataclass
from typing import Iterable

from repro.utils.rng import interleave_seeds
from repro.workloads.sweep import SweepRow

#: Injectable fault kinds, in draw order.
FAULT_KINDS: tuple[str, ...] = ("crash", "hang", "error", "corrupt")

#: Exit code used by injected worker crashes (recognisable in tests/logs).
CHAOS_EXIT_CODE = 113

#: Salt folded into per-cell draws so chaos streams never collide with
#: the workload-generation streams derived from the same cell seed.
_CHAOS_SALT = 0xC4A05


class ChaosError(RuntimeError):
    """The injected transient exception ('error' fault kind)."""


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic fault-injection plan for one sweep run.

    Rates are independent probabilities stacked in :data:`FAULT_KINDS`
    order; their sum must be ``<= 1``.  ``seed`` namespaces the plan so
    two plans with equal rates but different seeds poison different
    cells.
    """

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: Of the faulted cells, the fraction whose fault repeats on every
    #: attempt (poison cells); the rest fault on attempt 1 only.
    persistent_rate: float = 0.0
    #: How long an injected hang sleeps; keep well above the runner's
    #: per-cell timeout so the timeout path, not the sleep, ends it.
    hang_seconds: float = 3600.0
    seed: int = 0

    def __post_init__(self) -> None:
        total = self.crash_rate + self.hang_rate + self.error_rate + self.corrupt_rate
        if not 0.0 <= total <= 1.0:
            raise ValueError(f"fault rates must sum to within [0, 1], got {total}")
        if not 0.0 <= self.persistent_rate <= 1.0:
            raise ValueError(f"persistent_rate must be in [0, 1], got {self.persistent_rate}")

    # -- deterministic fault assignment --------------------------------

    def draw(self, cell_seed: int) -> tuple[str | None, bool]:
        """Fault assignment for one cell: ``(kind | None, persistent)``."""
        rng = random.Random(interleave_seeds([self.seed, cell_seed, _CHAOS_SALT]))
        u = rng.random()
        persistent = rng.random() < self.persistent_rate
        edge = 0.0
        for kind, rate in zip(
            FAULT_KINDS,
            (self.crash_rate, self.hang_rate, self.error_rate, self.corrupt_rate),
        ):
            edge += rate
            if u < edge:
                return kind, persistent
        return None, False

    def fault_for(self, cell_seed: int, attempt: int) -> str | None:
        """The fault to inject on *attempt* (1-based) of this cell, if any."""
        kind, persistent = self.draw(cell_seed)
        if kind is None or (attempt > 1 and not persistent):
            return None
        return kind

    def faulted_cells(
        self, cell_seeds: Iterable[int]
    ) -> dict[int, tuple[str, bool]]:
        """Pre-compute ``{seed: (kind, persistent)}`` over a grid.

        Lets tests assert the chaos premise ("at least 20% of cells are
        faulted") and predict the exact quarantine set.
        """
        out: dict[int, tuple[str, bool]] = {}
        for seed in cell_seeds:
            kind, persistent = self.draw(seed)
            if kind is not None:
                out[seed] = (kind, persistent)
        return out

    # -- worker-side execution -----------------------------------------

    def trigger(self, kind: str | None) -> None:
        """Execute a pre-run fault inside the worker process.

        ``crash`` dies without cleanup (as a segfault/OOM-kill would),
        ``hang`` blocks until the runner's timeout reaps the process, and
        ``error`` raises :class:`ChaosError`.  ``corrupt`` and ``None``
        are no-ops here — corruption applies to the *result* via
        :meth:`corrupt_rows`.
        """
        if kind == "crash":
            os._exit(CHAOS_EXIT_CODE)
        if kind == "hang":
            time.sleep(self.hang_seconds)
        if kind == "error":
            raise ChaosError("injected transient fault")

    def corrupt_rows(self, rows: list[SweepRow]) -> list[SweepRow]:
        """Mangle a completed cell's rows (non-finite load, negative count).

        The damage is chosen to be *detectable*: the lease loop's
        row validator must reject these and count the attempt as a
        ``corrupt`` failure rather than journal garbage.
        """
        return [
            dataclasses.replace(row, accepted_load=float("nan"), accepted_count=-1)
            for row in rows
        ]


@dataclass(frozen=True)
class WorkerChaosPlan:
    """Deterministic *worker-level* fault plan for local worker links.

    Where :class:`ChaosPlan` poisons individual **cells** (the unit of
    retry), this plan poisons **worker slots** (the unit of leasing in
    :mod:`repro.workloads.remote`) — the failure modes a heterogeneous
    or dying fleet exhibits even when every cell is healthy:

    * ``slow_worker`` — the slot sleeps a fixed delay before every cell
      (a 10x-slower host).  Its heartbeats keep arriving, so the lease
      keeps extending: the scheduler must classify it *slow*, not hung,
      and recover the tail via speculation rather than terminating it.
    * ``dead_worker`` — the slot hard-dies (``os._exit``) when it picks
      up its Nth cell, every process generation.  The scheduler must
      re-dispatch the orphaned lease, count the slot failure, and
      quarantine the slot once its failure budget is spent.
    * ``lost_heartbeat`` — the slot computes normally but never sends
      heartbeats: from the outside it is indistinguishable from a hung
      worker.  Its leases must expire and re-dispatch elsewhere.
    * ``duplicate_result`` — the slot reports every completed cell
      twice.  The scheduler must accept the first copy and assert the
      second bit-identical (the same check speculation relies on).

    Faults are keyed by worker *slot* index, so a respawned process in
    the same slot inherits the slot's fault — which is exactly how a
    bad host behaves.  Fully deterministic: no RNG, no wall clock.
    """

    #: ``(slot, delay_seconds)``: sleep this long before every cell.
    slow_worker: tuple[tuple[int, float], ...] = ()
    #: ``(slot, nth_cell)``: hard-die when picking up the Nth cell
    #: (1-based) of each process generation in this slot.
    dead_worker: tuple[tuple[int, int], ...] = ()
    #: slots whose heartbeats are suppressed (hang-alike).
    lost_heartbeat: tuple[int, ...] = ()
    #: slots that send every result twice.
    duplicate_result: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for slot, delay in self.slow_worker:
            if delay < 0:
                raise ValueError(f"slow_worker delay must be >= 0, got {delay} (slot {slot})")
        for slot, nth in self.dead_worker:
            if nth < 1:
                raise ValueError(f"dead_worker cell index is 1-based, got {nth} (slot {slot})")

    def delay_for(self, slot: int) -> float:
        """Injected pre-cell sleep for this worker slot (0.0 = healthy)."""
        return next((d for s, d in self.slow_worker if s == slot), 0.0)

    def dies_on_cell(self, slot: int, nth_cell: int) -> bool:
        """Whether this slot hard-dies when picking up its *nth_cell* (1-based)."""
        return any(s == slot and nth_cell >= n for s, n in self.dead_worker)

    def suppresses_heartbeat(self, slot: int) -> bool:
        """Whether this slot's heartbeats are lost in transit."""
        return slot in self.lost_heartbeat

    def duplicates_result(self, slot: int) -> bool:
        """Whether this slot reports every completed cell twice."""
        return slot in self.duplicate_result

    @property
    def faulted_slots(self) -> set[int]:
        """Every worker slot this plan touches (tests assert the premise)."""
        return (
            {s for s, _ in self.slow_worker}
            | {s for s, _ in self.dead_worker}
            | set(self.lost_heartbeat)
            | set(self.duplicate_result)
        )


@dataclass(frozen=True)
class HostChaosPlan:
    """Deterministic *network-level* fault plan for remote worker links.

    Where :class:`WorkerChaosPlan` poisons worker **slots** on one
    machine, this plan poisons the network **between** the controller
    and whole remote hosts (:mod:`repro.workloads.remote`) — the
    failure domains a distributed fleet exhibits even when every host
    and every cell is healthy:

    * ``partition`` — from its Nth inbound message (0-based, counted
      after the handshake) the host's traffic is held by the network;
      ``heal_seconds`` after the first held message the partition heals
      and the stale backlog is delivered all at once.  Heartbeats are
      lost meanwhile, so leases expire and re-dispatch; the healed
      host's stale result must be deduped first-verified-wins and
      asserted bit-identical.
    * ``drop`` — the host's Nth inbound message vanishes (a lost
      datagram).  Sequence numbering must make the loss harmless.
    * ``duplicate`` — the host's Nth inbound message is delivered
      twice (a retransmit).  Sequence numbering must dedup the copy
      rather than double-charge the lease.
    * ``dead_host`` — the host's worker processes hard-die when the
      host has been granted its Nth lease (1-based): the whole machine
      is lost.  The scheduler must quarantine the host as one failure
      domain and requeue its leases charge-free.
    * ``slow_host`` — every worker on the host sleeps this long before
      each cell (an overloaded machine).  Heartbeats keep flowing, so
      the lease keeps extending: slow, not dead.

    Faults are keyed by host *name*, so every slot on the host shares
    the fault — which is exactly how a network failure behaves.  Fully
    deterministic: no RNG; the only clock involved is the controller's,
    driving ``heal_seconds``.
    """

    #: ``(host, first_idx, heal_seconds)``: hold inbound messages from
    #: index *first_idx* (0-based, post-handshake), heal after
    #: *heal_seconds* and deliver the backlog late.
    partition: tuple[tuple[str, int, float], ...] = ()
    #: ``(host, idx)``: drop the host's idx-th inbound message.
    drop: tuple[tuple[str, int], ...] = ()
    #: ``(host, idx)``: deliver the host's idx-th inbound message twice.
    duplicate: tuple[tuple[str, int], ...] = ()
    #: ``(host, nth_lease)``: the host dies on its Nth granted lease
    #: (1-based); every lease at or past the Nth kills the worker.
    dead_host: tuple[tuple[str, int], ...] = ()
    #: ``(host, delay_seconds)``: sleep before every cell on this host.
    slow_host: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        for host, first_idx, heal in self.partition:
            if first_idx < 0:
                raise ValueError(
                    f"partition first_idx must be >= 0, got {first_idx} ({host})"
                )
            if heal < 0:
                raise ValueError(
                    f"partition heal_seconds must be >= 0, got {heal} ({host})"
                )
        for host, idx in self.drop + self.duplicate:
            if idx < 0:
                raise ValueError(f"message index must be >= 0, got {idx} ({host})")
        for host, nth in self.dead_host:
            if nth < 1:
                raise ValueError(f"dead_host lease index is 1-based, got {nth} ({host})")
        for host, delay in self.slow_host:
            if delay < 0:
                raise ValueError(f"slow_host delay must be >= 0, got {delay} ({host})")

    def partition_for(self, host: str) -> tuple[int, float] | None:
        """``(first_idx, heal_seconds)`` if this host gets partitioned."""
        return next(
            ((idx, heal) for h, idx, heal in self.partition if h == host), None
        )

    def dropped(self, host: str, idx: int) -> bool:
        """Whether the host's idx-th inbound message is dropped."""
        return (host, idx) in self.drop

    def duplicated(self, host: str, idx: int) -> bool:
        """Whether the host's idx-th inbound message is delivered twice."""
        return (host, idx) in self.duplicate

    def dies_on_lease(self, host: str, nth_lease: int) -> bool:
        """Whether the host hard-dies on its *nth_lease* (1-based) grant."""
        return any(h == host and nth_lease >= n for h, n in self.dead_host)

    def slow_for(self, host: str) -> float:
        """Injected pre-cell sleep on this host (0.0 = healthy)."""
        return next((d for h, d in self.slow_host if h == host), 0.0)

    @property
    def faulted_hosts(self) -> set[str]:
        """Every host this plan touches (tests assert the premise)."""
        return (
            {h for h, _, _ in self.partition}
            | {h for h, _ in self.drop}
            | {h for h, _ in self.duplicate}
            | {h for h, _ in self.dead_host}
            | {h for h, _ in self.slow_host}
        )


def truncate_tail(path: str | os.PathLike, nbytes: int = 1) -> int:
    """Chop *nbytes* off the end of a file, simulating a hard kill mid-write.

    Models the one corruption an append-only, fsync-per-record journal can
    suffer: the final record cut off partway.  Returns the new size.
    Loaders (:func:`repro.workloads.journal.load_journal`, and therefore
    :func:`repro.workloads.sharding.merge_journals`) must tolerate the
    partial trailing line, report it, and count the damaged cell as
    missing rather than fail.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    new_size = max(0, size - max(1, int(nbytes)))
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
    return new_size


def bitflip(
    path: str | os.PathLike,
    seed: int = 0,
    count: int = 1,
    lo: int = 0,
    hi: int | None = None,
) -> list[int]:
    """Flip *count* bits in ``path[lo:hi]``, simulating in-transit bit rot.

    The damaged byte offsets are drawn deterministically from ``seed``
    (without replacement), so a test can corrupt one shard journal and
    assert that *exactly* the records covering those offsets are
    quarantined.  Restricting ``[lo, hi)`` lets tests aim at a specific
    record — e.g. the ``rows`` payload of one cell line — instead of
    hoping a random flip lands somewhere detectable.  Returns the flipped
    offsets.  The journal integrity layer
    (:func:`repro.workloads.journal.verify_journal`, row CRCs, seals)
    must detect every flip that touches consumed data.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    hi = size if hi is None else min(hi, size)
    if not 0 <= lo < hi:
        raise ValueError(f"empty flip range [{lo}, {hi}) for {size}-byte file")
    rng = random.Random(interleave_seeds([seed, size, _CHAOS_SALT]))
    count = min(int(count), hi - lo)
    offsets = sorted(rng.sample(range(lo, hi), count))
    with open(path, "r+b") as fh:
        for offset in offsets:
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ (1 << rng.randrange(8))]))
    return offsets


def drop_transfer(path: str | os.PathLike, seed: int = 0) -> int:
    """Truncate a file as a dropped connection would: mid-transfer.

    Unlike :func:`truncate_tail` (which models a hard kill cutting the
    *final* record), this cuts at a deterministic point somewhere in the
    middle of the byte stream — the shape a failed ``scp``/HTTP pull
    leaves behind.  Keeps at least one byte and always drops at least
    one; returns the new size.  The transport layer must either resume
    the pull from this offset or detect the damage at verification.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size < 2:
        raise ValueError(f"{path}: too small ({size} bytes) to drop mid-transfer")
    rng = random.Random(interleave_seeds([seed, size, _CHAOS_SALT]))
    new_size = rng.randrange(1, size)
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
    return new_size


class ChaosTransport:
    """Wrap a :class:`~repro.workloads.transport.Transport` with faults.

    *faults* is consumed one entry per ``fetch`` call, in order:

    * ``None`` — the call runs clean;
    * ``"bitflip"`` — the transfer completes, then one bit of the
      delivered file is flipped (in-transit corruption);
    * ``"drop"`` — the transfer is cut mid-stream
      (:func:`drop_transfer`) and raises ``TransportError``;
    * ``"fail"`` — the transfer raises before delivering anything;
    * ``"delay"`` — the transfer stalls ``delay_seconds`` before
      delivering clean (a congested link — retries must not give up on
      a transfer that is merely slow);
    * ``"duplicate"`` — the transfer delivers, then delivers *again*
      (a retransmitted message: the duplicate overwrites bit-identical
      bytes, and consumers with sequence numbering must not be
      double-charged).

    Once the sequence is exhausted every further call runs clean, so a
    test expresses "first pull corrupt, retry succeeds" as
    ``faults=["bitflip"]``.  Fault randomness is seeded per call index —
    fully deterministic, replayable runs.
    """

    def __init__(
        self,
        inner,
        faults: Iterable[str | None],
        seed: int = 0,
        delay_seconds: float = 0.05,
        sleep=time.sleep,
    ) -> None:
        self.inner = inner
        self.faults = list(faults)
        self.seed = int(seed)
        self.delay_seconds = float(delay_seconds)
        self.sleep = sleep
        self.calls = 0
        self.duplicated_calls = 0

    def fetch(
        self,
        source: str,
        dest: str | os.PathLike,
        *,
        offset: int = 0,
        timeout: float | None = None,
    ) -> int:
        from repro.workloads.transport import TransportError

        index = self.calls
        self.calls += 1
        fault = self.faults[index] if index < len(self.faults) else None
        if fault == "fail":
            raise TransportError(f"{source}: injected transport failure (call {index})")
        if fault == "delay":
            self.sleep(self.delay_seconds)
        total = self.inner.fetch(source, dest, offset=offset, timeout=timeout)
        if fault == "bitflip":
            bitflip(dest, seed=interleave_seeds([self.seed, index]))
        elif fault == "drop":
            drop_transfer(dest, seed=interleave_seeds([self.seed, index]))
            raise TransportError(
                f"{source}: injected dropped connection (call {index})"
            )
        elif fault == "duplicate":
            self.inner.fetch(source, dest, offset=offset, timeout=timeout)
            self.duplicated_calls += 1
        return total if fault in (None, "delay", "duplicate") else os.path.getsize(dest)


def corrupt_file(path: str | os.PathLike, seed: int = 0) -> str:
    """Deterministically damage a file on disk; returns the damage mode.

    Models the partial-write / bit-rot failures a persistent cache sees:
    depending on ``seed`` the file is truncated mid-byte, overwritten
    with non-JSON garbage, or rewritten as valid JSON of the wrong shape.
    Readers (e.g. :class:`repro.offline.cache.BracketCache`) must treat
    every mode as a miss, never an exception.
    """
    rng = random.Random(interleave_seeds([seed, _CHAOS_SALT]))
    mode = rng.choice(("truncate", "garbage", "wrong-shape"))
    path = os.fspath(path)
    if mode == "truncate":
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
    elif mode == "garbage":
        with open(path, "wb") as fh:
            fh.write(bytes(rng.getrandbits(8) for _ in range(64)))
    else:
        with open(path, "w") as fh:
            fh.write('{"not": "a bracket"}')
    return mode
