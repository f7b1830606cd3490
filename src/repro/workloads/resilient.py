"""Fault-tolerant sweep execution: cell evaluation, validation, results.

Every multiprocess sweep runs the lease loop of
:mod:`repro.workloads.remote`, reached through
:func:`repro.workloads.execute.execute_sweep`.  This module holds what
that loop and the serial path share, and what a sweep returns:

* :func:`run_cell` / :func:`run_cells` evaluate grid cells (workers call
  them; the serial path calls them in process);
* :func:`validate_cell_rows` checks a worker's result before acceptance,
  so a worker returning corrupted rows counts as a failure rather than
  polluting the dataset;
* :func:`prepare_journal` opens (or resumes) the append-only JSONL
  checkpoint journal (:mod:`repro.workloads.journal`); ``resume=True``
  replays completed cells from disk and re-executes only the remainder,
  bit-identical to an uninterrupted run;
* :class:`FailureManifest` reports quarantined cells, worker slots and
  hosts — the sweep still returns every completed row (graceful
  degradation) instead of throwing them away;
* ``SIGINT`` raises :class:`SweepInterrupted` carrying the partial
  result, after flushing the journal — nothing finished is ever lost.

Determinism is unchanged from the serial path: cells draw their
instances from :meth:`SweepSpec.cell_seed`, so retries, worker death and
resumption cannot alter the data.  The chaos harness
(:mod:`repro.testing.chaos`) injects crashes, hangs, transient errors
and corrupted rows to prove it.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any

from repro.baselines.registry import run_algorithm
from repro.core.guarantees import guarantee_for
from repro.offline.cache import BracketCache, CacheStats
from repro.workloads.journal import SweepJournal, spec_fingerprint
from repro.workloads.sweep import SweepRow, SweepSpec, cell_bracket

#: Grace period between SIGTERM and SIGKILL when reaping a worker.
_KILL_GRACE = 0.5


class SweepExecutionError(RuntimeError):
    """Raised by strict callers when a resilient sweep quarantined cells."""

    def __init__(self, message: str, manifest: "FailureManifest") -> None:
        super().__init__(message)
        self.manifest = manifest


class SweepInterrupted(KeyboardInterrupt):
    """SIGINT during a resilient sweep; carries the flushed partial result."""

    def __init__(self, result: "ResilientSweepResult") -> None:
        super().__init__("sweep interrupted")
        self.result = result


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: where it died and how, attempt by attempt."""

    epsilon: float
    machines: int
    repetition: int
    seed: int
    attempts: int
    kind: str  # final failure kind: crash | timeout | error | corrupt
    detail: str
    #: per-attempt "kind: detail" records, oldest first.
    history: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "epsilon": self.epsilon,
            "machines": self.machines,
            "repetition": self.repetition,
            "seed": self.seed,
            "attempts": self.attempts,
            "kind": self.kind,
            "detail": self.detail,
            "history": list(self.history),
        }


@dataclass(frozen=True)
class WorkerFailure:
    """One quarantined local worker *slot*, failure by failure.

    Cell failures quarantine cells; worker failures quarantine the slot —
    a host/process position that keeps crashing, hanging or missing
    heartbeats is removed from the pool (down to a floor of one) while
    its leased cells are re-dispatched to healthy slots.
    """

    slot: int
    failures: int
    detail: str  # final failure: why the slot was quarantined
    #: per-failure "kind: detail" records, oldest first.
    history: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "slot": self.slot,
            "failures": self.failures,
            "detail": self.detail,
            "history": list(self.history),
        }


@dataclass(frozen=True)
class HostFailure:
    """One quarantined remote *host*.

    A whole machine is a failure domain above the worker slot: when a
    host dies (every channel EOF), repeatedly fails its handshake, or
    keeps losing workers, the entire host is quarantined at once and
    every lease it held is requeued charge-free — the cells were never
    at fault.
    """

    host: str
    failures: int
    detail: str  # final failure: why the host was quarantined
    #: per-failure "kind: detail" records, oldest first.
    history: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "failures": self.failures,
            "detail": self.detail,
            "history": list(self.history),
        }


@dataclass
class FailureManifest:
    """Structured account of everything that went wrong in a sweep."""

    failures: list[CellFailure] = field(default_factory=list)
    #: cells that succeeded only after >= 1 retry (transient faults).
    recovered: int = 0
    #: total extra attempts spent across all cells.
    retries: int = 0
    cells_total: int = 0
    cells_completed: int = 0
    #: cells replayed from a checkpoint journal instead of re-executed.
    cells_replayed: int = 0
    #: local worker slots quarantined after exhausting their failure
    #: budget (the pool shrinks gracefully to a floor of 1).
    worker_failures: list[WorkerFailure] = field(default_factory=list)
    #: speculative duplicate executions launched during the end-game.
    speculated: int = 0
    #: repetitions skipped by adaptive repetitions (CI already tight).
    cells_skipped: int = 0
    #: remote hosts quarantined as whole failure domains (their leases
    #: were requeued charge-free).
    host_failures: list[HostFailure] = field(default_factory=list)
    #: the remote pool was lost entirely and the sweep finished on the
    #: local fallback workers (graceful degradation, not data loss).
    degraded_to_local: bool = False

    @property
    def quarantined(self) -> int:
        return len(self.failures)

    @property
    def workers_quarantined(self) -> int:
        return len(self.worker_failures)

    @property
    def hosts_quarantined(self) -> int:
        return len(self.host_failures)

    def as_dict(self) -> dict[str, Any]:
        return {
            "cells_total": self.cells_total,
            "cells_completed": self.cells_completed,
            "cells_replayed": self.cells_replayed,
            "cells_skipped": self.cells_skipped,
            "recovered": self.recovered,
            "retries": self.retries,
            "speculated": self.speculated,
            "quarantined": self.quarantined,
            "failures": [f.as_dict() for f in self.failures],
            "workers_quarantined": self.workers_quarantined,
            "worker_failures": [w.as_dict() for w in self.worker_failures],
            "hosts_quarantined": self.hosts_quarantined,
            "host_failures": [h.as_dict() for h in self.host_failures],
            "degraded_to_local": self.degraded_to_local,
        }

    def summary(self) -> str:
        extras = ""
        if self.cells_skipped:
            extras += f", {self.cells_skipped} skipped by adaptive repetitions"
        if self.speculated:
            extras += f", {self.speculated} speculated"
        if self.worker_failures:
            extras += f", {self.workers_quarantined} worker(s) quarantined"
        if self.host_failures:
            extras += f", {self.hosts_quarantined} host(s) quarantined"
        if self.degraded_to_local:
            extras += ", degraded to local pool"
        return (
            f"{self.cells_completed}/{self.cells_total} cells completed "
            f"({self.cells_replayed} replayed from journal, "
            f"{self.recovered} recovered via retry, "
            f"{self.quarantined} quarantined{extras})"
        )


@dataclass
class ResilientSweepResult:
    """Rows in canonical grid order plus the failure manifest."""

    rows: list[SweepRow]
    manifest: FailureManifest
    journal_path: str | None = None
    #: aggregated bracket-cache counters across all workers (dict form of
    #: :class:`repro.offline.cache.CacheStats`); ``None`` without a cache.
    cache_stats: dict[str, Any] | None = None

    @property
    def complete(self) -> bool:
        return not self.manifest.failures


# ---------------------------------------------------------------------------
# cell evaluation (workers and the serial path)
# ---------------------------------------------------------------------------


def run_cell(
    spec: SweepSpec,
    eps: float,
    m: int,
    rep: int,
    algorithm_kwargs: dict[str, dict[str, Any]],
    cache: BracketCache | None = None,
) -> list[SweepRow]:
    """Evaluate one grid cell for every algorithm (worker-side)."""
    seed = spec.cell_seed(eps, m, rep)
    instance = spec.workload(m, eps, seed)
    bracket = cell_bracket(spec, instance, cache)
    rows = []
    for name in spec.algorithms:
        result = run_algorithm(
            name,
            instance,
            record_events=spec.record_events,
            **algorithm_kwargs.get(name, {}),
        )
        rows.append(
            SweepRow(
                epsilon=eps,
                machines=m,
                repetition=rep,
                algorithm=name,
                accepted_load=result.accepted_load,
                accepted_count=result.accepted_count,
                n_jobs=len(instance),
                opt_lower=bracket.lower,
                opt_upper=bracket.upper,
                opt_exact=bracket.exact,
                guarantee=guarantee_for(name, eps, m),
            )
        )
    return rows


def run_cells(
    spec: SweepSpec,
    cells: list[tuple[float, int, int]],
    algorithm_kwargs: dict[str, dict[str, Any]],
    cache: BracketCache | None = None,
    backend: str = "scalar",
) -> list[list[SweepRow]]:
    """Evaluate several grid cells, optionally through the batch backend.

    With ``backend="scalar"`` this is exactly ``[run_cell(...) for cell in
    cells]``.  Otherwise all of the group's simulations are routed through
    :func:`repro.engine.backend.run_simulations` in one call, so compatible
    cells (same algorithm, machine count and job count) step through the
    structure-of-arrays kernel together.  Rows are bit-identical either way
    — the backend seam guarantees it — so journals, resumes and shard
    merges are unaffected by the backend choice.
    """
    if backend == "scalar":
        return [
            run_cell(spec, eps, m, rep, algorithm_kwargs, cache)
            for eps, m, rep in cells
        ]
    from repro.engine.backend import SimulationRequest, run_simulations

    instances = []
    brackets = []
    for eps, m, rep in cells:
        instance = spec.workload(m, eps, spec.cell_seed(eps, m, rep))
        instances.append(instance)
        brackets.append(cell_bracket(spec, instance, cache))
    requests = [
        SimulationRequest(
            name,
            instance,
            algorithm_kwargs.get(name, {}),
            record_events=spec.record_events,
        )
        for instance in instances
        for name in spec.algorithms
    ]
    results = run_simulations(requests, backend=backend)
    rows_per_cell: list[list[SweepRow]] = []
    i = 0
    for (eps, m, rep), instance, bracket in zip(cells, instances, brackets):
        rows = []
        for name in spec.algorithms:
            result = results[i]
            i += 1
            rows.append(
                SweepRow(
                    epsilon=eps,
                    machines=m,
                    repetition=rep,
                    algorithm=name,
                    accepted_load=result.accepted_load,
                    accepted_count=result.accepted_count,
                    n_jobs=len(instance),
                    opt_lower=bracket.lower,
                    opt_upper=bracket.upper,
                    opt_exact=bracket.exact,
                    guarantee=guarantee_for(name, eps, m),
                )
            )
        rows_per_cell.append(rows)
    return rows_per_cell


def validate_sweep_pickles(
    spec: SweepSpec, algorithm_kwargs: dict[str, dict[str, Any]]
) -> None:
    """Fail fast on unpicklable inputs instead of deep inside a worker.

    Checks the workload factory *and* every ``algorithm_kwargs`` value —
    an unpicklable kwarg used to surface as an opaque pool error.
    """
    try:
        pickle.dumps(spec.workload)
    except Exception as exc:
        raise TypeError(
            "the sweep workload factory must be picklable for parallel "
            "execution (use a module-level function or functools.partial, "
            f"not a lambda): {exc}"
        ) from exc
    for name, kwargs in algorithm_kwargs.items():
        try:
            pickle.dumps(kwargs)
        except Exception as exc:
            raise TypeError(
                f"algorithm_kwargs[{name!r}] must be picklable for parallel "
                f"execution (module-level callables and plain data only): {exc}"
            ) from exc


def validate_cell_rows(
    spec: SweepSpec, eps: float, m: int, rep: int, rows: object
) -> str | None:
    """Structural validation of a worker's result; ``None`` means clean.

    Guards the journal (and the returned dataset) against corrupted
    results from a sick worker: wrong shape, misaligned identity fields,
    non-finite or negative measurements, or an inverted OPT bracket.
    """
    if not isinstance(rows, list):
        return f"result is {type(rows).__name__}, not a list of rows"
    if len(rows) != len(spec.algorithms):
        return f"expected {len(spec.algorithms)} rows, got {len(rows)}"
    for row, name in zip(rows, spec.algorithms):
        if not isinstance(row, SweepRow):
            return f"row is {type(row).__name__}, not SweepRow"
        if (row.epsilon, row.machines, row.repetition) != (eps, m, rep):
            return (
                f"row identity {(row.epsilon, row.machines, row.repetition)} "
                f"does not match cell {(eps, m, rep)}"
            )
        if row.algorithm != name:
            return f"row algorithm {row.algorithm!r} misaligned (expected {name!r})"
        if not (math.isfinite(row.accepted_load) and row.accepted_load >= 0.0):
            return f"accepted_load {row.accepted_load!r} is not finite and >= 0"
        if not isinstance(row.accepted_count, int) or not (
            0 <= row.accepted_count <= row.n_jobs
        ):
            return f"accepted_count {row.accepted_count!r} out of range [0, {row.n_jobs}]"
        if not (math.isfinite(row.opt_lower) and math.isfinite(row.opt_upper)):
            return "OPT bracket is not finite"
        if row.opt_lower > row.opt_upper + 1e-9:
            return f"OPT bracket inverted: [{row.opt_lower}, {row.opt_upper}]"
    return None


# ---------------------------------------------------------------------------
# worker teardown
# ---------------------------------------------------------------------------


def _terminate(
    process: mp.process.BaseProcess, grace: float = _KILL_GRACE
) -> None:
    """Bounded SIGTERM -> SIGKILL escalation; always reaps the child.

    SIGTERM first (a cooperative worker exits promptly), SIGKILL once the
    grace period expires (a worker that ignores or blocks SIGTERM — e.g.
    one stuck in native code mid-group-lease — must not outlive the
    scheduler).  Every join is bounded, so teardown can never hang on an
    unkillable child; the final join after SIGKILL reaps the process so
    no zombie survives the sweep.
    """
    if not process.is_alive():
        process.join(grace)  # already exited: just reap
        return
    process.terminate()
    process.join(grace)
    if process.is_alive():
        process.kill()
        process.join(grace)


def _terminate_all(
    processes: list[mp.process.BaseProcess], grace: float = _KILL_GRACE
) -> None:
    """Tear down many workers with one shared grace period.

    Signals every process *first*, then waits — escalating serially would
    spend ``grace`` per worker and stretch a SIGINT teardown linearly in
    the pool size.
    """
    for process in processes:
        if process.is_alive():
            process.terminate()
    deadline = time.monotonic() + grace
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.is_alive():
            process.kill()
    for process in processes:
        process.join(grace)


# ---------------------------------------------------------------------------
# shared sweep plumbing (the lease loop and the serial path)
# ---------------------------------------------------------------------------


def check_seed_collisions(
    spec: SweepSpec, cells: list[tuple[float, int, int]]
) -> list[int]:
    """Refuse to run a grid whose cell seeds collide; returns the seeds.

    The journal and the completed-cell map key by seed; a collision would
    silently conflate two cells' results.
    """
    seeds = [spec.cell_seed(*cell) for cell in cells]
    if len(set(seeds)) != len(seeds):
        raise ValueError(
            "sweep grid produces colliding cell seeds; refusing to run — "
            "check SweepSpec.cell_seed inputs"
        )
    return seeds


def prepare_journal(
    spec: SweepSpec,
    cells: list[tuple[float, int, int]],
    journal_path: str | os.PathLike[str] | None,
    *,
    resume: bool = False,
    shard: tuple[int, int] | None = None,
    salvage: bool = False,
) -> tuple[SweepJournal | None, dict[int, list[SweepRow]]]:
    """Open (or create) the checkpoint journal and replay completed cells.

    Returns
    ``(journal, completed)`` where ``completed`` maps cell seed to the
    rows replayed from disk (restricted to *cells* — a merged journal may
    hold more than this shard executes).
    """
    completed: dict[int, list[SweepRow]] = {}
    journal: SweepJournal | None = None
    if journal_path is not None:
        if resume:
            journal, state = SweepJournal.resume(
                journal_path, spec, shard=shard, salvage=salvage
            )
            valid_seeds = {spec.cell_seed(*cell) for cell in cells}
            completed = {
                seed: rows
                for seed, rows in state.completed.items()
                if seed in valid_seeds
            }
        else:
            journal = SweepJournal.create(journal_path, spec, shard=shard)
    elif resume:
        raise ValueError("resume=True requires a journal_path")
    return journal, completed


def _assemble(
    spec: SweepSpec,
    cells: list[tuple[float, int, int]],
    completed: dict[int, list[SweepRow]],
    manifest: FailureManifest,
    journal: SweepJournal | None,
    cache_totals: CacheStats | None = None,
) -> ResilientSweepResult:
    """Rows in canonical grid order; quarantined cells are simply absent."""
    rows: list[SweepRow] = []
    for eps, m, rep in cells:
        rows.extend(completed.get(spec.cell_seed(eps, m, rep), []))
    return ResilientSweepResult(
        rows=rows,
        manifest=manifest,
        journal_path=None if journal is None else journal.path,
        cache_stats=None if cache_totals is None else cache_totals.as_dict(),
    )


__all__ = [
    "CellFailure",
    "FailureManifest",
    "HostFailure",
    "ResilientSweepResult",
    "SweepExecutionError",
    "SweepInterrupted",
    "WorkerFailure",
    "check_seed_collisions",
    "prepare_journal",
    "run_cell",
    "run_cells",
    "spec_fingerprint",
    "validate_cell_rows",
    "validate_sweep_pickles",
]
