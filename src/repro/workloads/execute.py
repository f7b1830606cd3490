"""Unified sweep execution: one entrypoint, one policy object.

:func:`execute_sweep` runs every sweep under one contract:

* **what** to run is the :class:`~repro.workloads.sweep.SweepSpec`;
* **how** to run it is the :class:`ExecutionPolicy`, a frozen dataclass
  holding every execution knob (workers, timeout, retries, journal,
  resume, cache, shards, hosts, …);
* the result is always a
  :class:`~repro.workloads.resilient.ResilientSweepResult` — rows in
  canonical grid order, a :class:`~repro.workloads.resilient.FailureManifest`
  and merged bracket-cache counters — whichever path executed.

There are two paths: the serial in-process fast path, and the lease loop
of :mod:`repro.workloads.remote`, which serves cells to local worker
processes or to remote hosts.  Determinism is policy-independent: every
cell draws its instance from :func:`repro.workloads.sweep.cell_seed_for`,
so both paths and any shard of a multi-host run produce bit-identical
rows for the same spec.

Examples
--------

Serial, in-process::

    result = execute_sweep(spec)

Fault-tolerant production run::

    policy = ExecutionPolicy(workers=8, timeout=120.0, retries=2,
                             journal="sweep.jsonl")
    result = execute_sweep(spec, policy)

Shard 2 of a 4-host run (see :mod:`repro.workloads.sharding`)::

    policy = ExecutionPolicy(shards=4, shard_index=2,
                             journal="shard2.jsonl")
    result = execute_sweep(spec, policy)
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.engine.backend import BACKEND_CHOICES
from repro.offline.cache import BracketCache
from repro.workloads.resilient import (
    FailureManifest,
    ResilientSweepResult,
    SweepExecutionError,
    run_cells,
)
from repro.workloads.sweep import SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testing.chaos import ChaosPlan, HostChaosPlan, WorkerChaosPlan


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a sweep runs: every execution knob in one frozen value object.

    The default policy is the serial in-process path (cheapest for small
    grids and interactive use).  Setting any multiprocess field —
    ``workers``, ``timeout``, ``journal``, ``resume``, ``shards`` (> 1),
    ``hosts``, ``chaos`` or ``interrupt_after`` — routes execution through
    the lease loop (:mod:`repro.workloads.remote`: worker processes,
    heartbeats, retries, quarantine, checkpoint journal).  The scheduling
    fields below ``backend`` only apply on that path, and
    ``adaptive_reps`` and ``worker_chaos`` require it.
    """

    #: Local worker process count; ``None`` sizes to the pending cells /
    #: CPUs.  With ``hosts``: the local-fallback pool size.
    workers: int | None = None
    #: Per-cell wall-clock budget in seconds; hung workers are terminated.
    timeout: float | None = None
    #: Extra attempts per failed cell; a cell is also quarantined as
    #: ``crash`` after ``retries + 1`` worker deaths.
    retries: int = 2
    #: Append-only JSONL checkpoint journal path (None = no journal).
    journal: str | os.PathLike[str] | None = None
    #: Replay completed cells from ``journal`` and run only the remainder.
    resume: bool = False
    #: With ``resume``: repair a journal damaged mid-file (bit flips,
    #: failed transfers) instead of raising — corrupt records are
    #: quarantined, the file is rewritten clean, and their cells re-run.
    salvage: bool = False
    #: Bracket cache: a ready :class:`~repro.offline.cache.BracketCache`,
    #: ``True`` for the default directory, or ``None``/``False`` for off.
    cache: BracketCache | bool | None = None
    #: Cache directory (implies caching when set and ``cache`` is unset).
    cache_dir: str | os.PathLike[str] | None = None
    #: Partition the grid into this many disjoint shards (1 = no sharding).
    shards: int = 1
    #: Which shard this host executes (required when ``shards > 1``).
    shard_index: int | None = None
    #: Raise :class:`~repro.workloads.resilient.SweepExecutionError` if any
    #: cell is quarantined instead of degrading gracefully.
    strict: bool = False
    #: Fault-injection plan shipped to workers (tests only).
    chaos: "ChaosPlan | None" = None
    #: Testing hook: simulate a hard kill after this many new cells.
    interrupt_after: int | None = None
    #: Kernel backend for the simulations: ``"auto"`` (batch where it
    #: pays off), ``"scalar"`` (golden reference) or ``"batch"`` (loud
    #: fallback for unsupported algorithms).  See
    #: :mod:`repro.engine.backend` and ``docs/engine_backends.md``.
    backend: str = "auto"
    #: Speculatively re-execute straggler cells once the queue runs dry
    #: (first verified result wins; duplicates are asserted bit-identical).
    #: Group leases, granted with a batching backend, are never copied.
    speculate: bool = True
    #: Issue repetitions lazily and skip the remainder of a grid config
    #: once the bootstrap CI of every algorithm's mean accepted load is
    #: tight (see ``adaptive_rel_tol``).
    adaptive_reps: bool = False
    #: Repetitions always executed per config before the CI is consulted.
    adaptive_min_reps: int = 2
    #: Relative CI halfwidth below which remaining reps are skipped.
    adaptive_rel_tol: float = 0.01
    #: Worker heartbeat cadence in seconds.
    heartbeat_interval: float = 0.1
    #: Lease deadline in seconds; a lease whose worker misses heartbeats
    #: for this long is presumed dead and re-dispatched.  ``None`` uses
    #: 10x ``heartbeat_interval``.
    lease_timeout: float | None = None
    #: Local worker-slot failures tolerated before the slot is quarantined.
    worker_max_failures: int = 3
    #: Local worker-slot fault-injection plan (tests only).
    worker_chaos: "WorkerChaosPlan | None" = None
    #: Remote execution: a ``hosts.json`` registry path or a tuple of
    #: :class:`~repro.workloads.remote.HostSpec` entries.  The lease queue
    #: is served to worker processes on these hosts instead of local
    #: ones (handshake-verified, CRC'd, seq-deduped).
    hosts: Any = None
    #: Network-level fault-injection plan (tests only; requires hosts).
    host_chaos: "HostChaosPlan | None" = None
    #: Host failures (channel EOF, handshake timeout, protocol garbage)
    #: tolerated per host before the whole host is quarantined.
    host_max_failures: int = 2
    #: Seconds a freshly started worker has to say ``hello``.
    handshake_timeout: float = 30.0
    #: When every remote host is quarantined, finish the sweep on local
    #: fallback workers (recorded as ``manifest.degraded_to_local``)
    #: instead of quarantining the remaining cells.
    local_fallback: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown backend {self.backend!r}: expected one of "
                f"{BACKEND_CHOICES}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shards > 1 and self.shard_index is None:
            raise ValueError(
                f"a sharded policy (shards={self.shards}) requires shard_index"
            )
        if self.shard_index is not None and not 0 <= self.shard_index < self.shards:
            raise ValueError(
                f"shard_index {self.shard_index} out of range [0, {self.shards})"
            )
        if self.resume and self.journal is None:
            raise ValueError("resume=True requires a journal path")
        if self.salvage and not self.resume:
            raise ValueError("salvage=True requires resume=True")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.cache is False and self.cache_dir is not None:
            raise ValueError("cache=False conflicts with an explicit cache_dir")
        if self.heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.lease_timeout is not None and self.lease_timeout <= self.heartbeat_interval:
            raise ValueError(
                f"lease_timeout ({self.lease_timeout}) must exceed the "
                f"heartbeat_interval ({self.heartbeat_interval}) — a lease "
                "must survive at least one missed beat"
            )
        if self.worker_max_failures < 1:
            raise ValueError(
                f"worker_max_failures must be >= 1, got {self.worker_max_failures}"
            )
        if self.adaptive_min_reps < 2:
            raise ValueError(
                "adaptive_min_reps must be >= 2 (the bootstrap CI needs at "
                f"least two samples), got {self.adaptive_min_reps}"
            )
        if self.adaptive_rel_tol <= 0:
            raise ValueError(
                f"adaptive_rel_tol must be positive, got {self.adaptive_rel_tol}"
            )
        if not self.needs_processes:
            for name in ("adaptive_reps", "worker_chaos"):
                if getattr(self, name) not in (False, None):
                    raise ValueError(
                        f"{name} applies to worker processes: set workers, "
                        "journal, hosts or another multiprocess field"
                    )
        if self.host_max_failures < 1:
            raise ValueError(
                f"host_max_failures must be >= 1, got {self.host_max_failures}"
            )
        if self.handshake_timeout <= 0:
            raise ValueError(
                f"handshake_timeout must be positive, got {self.handshake_timeout}"
            )
        if self.hosts is None:
            if self.host_chaos is not None:
                raise ValueError("host_chaos requires hosts")
        else:
            if self.worker_chaos is not None:
                raise ValueError("worker_chaos targets local worker slots; "
                                 "use host_chaos with hosts")
            if self.adaptive_reps:
                raise ValueError("adaptive_reps is not supported with hosts")

    # -- derived views -------------------------------------------------

    @property
    def sharded(self) -> bool:
        """True when this policy executes one shard of a larger grid."""
        return self.shards > 1

    @property
    def needs_processes(self) -> bool:
        """True when any field demands worker processes (the lease loop)."""
        return (
            self.hosts is not None
            or self.workers is not None
            or self.timeout is not None
            or self.journal is not None
            or self.resume
            or self.sharded
            or self.chaos is not None
            or self.interrupt_after is not None
        )

    def resolve_cache(self) -> BracketCache | None:
        """Materialise the policy's bracket cache (``None`` = caching off)."""
        if isinstance(self.cache, BracketCache):
            return self.cache
        if self.cache is True or (self.cache is None and self.cache_dir is not None):
            return BracketCache(self.cache_dir)
        return None

    def with_shard(self, shard_index: int) -> "ExecutionPolicy":
        """Copy of this policy pointed at a different shard index."""
        return replace(self, shard_index=shard_index)


#: Cells per :func:`repro.workloads.resilient.run_cells` call on the serial
#: path — bounds batch working-set memory while amortising kernel setup.
_SERIAL_GROUP = 32


def _execute_serial(
    spec: SweepSpec,
    algorithm_kwargs: dict[str, dict[str, Any]],
    cache: BracketCache | None,
    backend: str = "auto",
) -> ResilientSweepResult:
    """In-process fast path: no worker processes, no journal, no retries."""
    cells = list(spec.cells())
    rows = []
    for lo in range(0, len(cells), _SERIAL_GROUP):
        group = cells[lo : lo + _SERIAL_GROUP]
        for cell_rows in run_cells(spec, group, algorithm_kwargs, cache, backend):
            rows.extend(cell_rows)
    manifest = FailureManifest(cells_total=len(cells), cells_completed=len(cells))
    return ResilientSweepResult(
        rows=rows,
        manifest=manifest,
        journal_path=None,
        cache_stats=None if cache is None else cache.stats.as_dict(),
    )


def execute_sweep(
    spec: SweepSpec,
    policy: ExecutionPolicy | None = None,
    algorithm_kwargs: dict[str, dict[str, Any]] | None = None,
) -> ResilientSweepResult:
    """Execute *spec* under *policy*; the single sweep entrypoint.

    Runs the serial in-process path, or — when the policy needs worker
    processes (see :class:`ExecutionPolicy`) — the lease loop of
    :mod:`repro.workloads.remote`, restricted to the policy's shard when
    ``shards > 1``.  Rows are bit-identical across paths for the same
    spec — the choice of policy is purely operational.

    Raises :class:`~repro.workloads.resilient.SweepExecutionError` when
    ``policy.strict`` and any cell was quarantined; the serial path
    propagates cell exceptions directly (it has no quarantine machinery).
    """
    policy = policy if policy is not None else ExecutionPolicy()
    algorithm_kwargs = algorithm_kwargs or {}
    cache = policy.resolve_cache()
    if policy.needs_processes:
        from repro.workloads.remote import run_lease_loop

        cells = None
        shard = None
        if policy.sharded:
            from repro.workloads.sharding import ShardPlan

            plan = ShardPlan.build(spec, policy.shards)
            cells = plan.cells_for(policy.shard_index)
            shard = (policy.shard_index, policy.shards)
        result = run_lease_loop(spec, policy, algorithm_kwargs, cache, cells, shard)
    else:
        result = _execute_serial(spec, algorithm_kwargs, cache, policy.backend)
    if policy.strict and result.manifest.failures:
        first = result.manifest.failures[0]
        raise SweepExecutionError(
            f"{result.manifest.quarantined} sweep cell(s) failed; first: "
            f"cell (eps={first.epsilon}, m={first.machines}, rep={first.repetition}) "
            f"[{first.kind}] {first.detail}",
            result.manifest,
        )
    return result


__all__ = ["ExecutionPolicy", "execute_sweep"]
