"""Sharded multi-host sweep execution: partition, run, merge.

A publication-quality ``c(ε, m)`` landscape needs dense grids with many
repetitions — multi-hour work on one machine.  The checkpoint journal is
already the coordination substrate, so horizontal scaling needs exactly
three pieces, all here:

* :class:`ShardPlan` — a **deterministic partition** of a
  :class:`~repro.workloads.sweep.SweepSpec`'s cell set into ``n``
  disjoint shards, balanced by expected cell cost (machine count weights;
  repetitions enter as separate cells) via longest-processing-time-first
  greedy assignment.  The plan is a pure function of the spec's
  structural fingerprint: every host computes the identical partition
  from the spec alone, with no coordination traffic.
* **Per-shard execution** — each host runs
  ``execute_sweep(spec, ExecutionPolicy(shards=n, shard_index=i,
  journal=...))`` (``repro sweep --shards n --shard-index i``), which
  restricts the fault-tolerant scheduler to the shard's cells and writes
  a journal whose header is stamped ``(spec_fingerprint, shard_index,
  n_shards)``.  Cell seeds are shard-independent, so a sharded cell is
  bit-identical to the same cell in a single-host run.
* :func:`merge_journals` — validates that every journal carries the same
  spec fingerprint, detects overlapping and missing cells, deduplicates
  re-executed cells by their deterministic cell seed, and emits a single
  merged journal (itself resumable: ``repro sweep --resume merged.jsonl``
  fills any holes) plus a combined
  :class:`~repro.workloads.resilient.FailureManifest` and merged
  bracket-cache counters.  Coverage is checked against the grid encoded
  in the fingerprint itself — no spec object or workload factory needed
  at merge time.

The same pattern (deterministic partitioner → independent workers →
merge step) drives network-simulation sweeps in PSim; here the journal's
fingerprint/stamp discipline additionally makes every mis-pairing of
shard outputs a loud, early error instead of a silently wrong plot.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.offline.cache import CacheStats
from repro.utils.sealed_log import fingerprint_diff, record_line, rewrite
from repro.workloads.journal import (
    INTEGRITY_UNKNOWN,
    INTEGRITY_VERIFIED,
    CorruptionReport,
    JournalError,
    JournalIntegrityError,
    JournalMismatchError,
    JournalState,
    cell_record,
    header_record,
    load_journal,
    spec_fingerprint,
)
from repro.workloads.resilient import CellFailure, FailureManifest
from repro.workloads.sweep import SweepRow, cell_seed_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.sweep import SweepSpec

#: A grid cell: (epsilon, machines, repetition).
Cell = tuple[float, int, int]


def cell_cost(eps: float, m: int, rep: int) -> float:
    """Expected relative cost of one cell.

    The offline OPT bracket dominates cell cost and scales with the
    machine count (the exact solver's branching factor is ``m`` per job),
    so machine count is the balance weight; repetitions appear as
    separate cells and therefore weight a configuration linearly.
    """
    return float(m)


def fingerprint_cells(fingerprint: dict[str, Any]) -> list[Cell]:
    """The full cell grid encoded in a journal header fingerprint.

    Enables coverage checks at merge time from journals alone: the
    fingerprint carries epsilons, machine counts and repetitions, and
    :func:`repro.workloads.sweep.cell_seed_for` needs nothing else.
    """
    return [
        (float(eps), int(m), rep)
        for eps in fingerprint["epsilons"]
        for m in fingerprint["machine_counts"]
        for rep in range(int(fingerprint["repetitions"]))
    ]


def fingerprint_cell_seed(fingerprint: dict[str, Any], cell: Cell) -> int:
    """Deterministic seed of *cell* under a journal header fingerprint."""
    eps, m, rep = cell
    return cell_seed_for(int(fingerprint["base_seed"]), eps, m, rep)


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic, cost-balanced partition of a sweep grid.

    Built by :meth:`build`; stable under the spec fingerprint — two hosts
    holding specs with equal fingerprints compute byte-identical plans,
    which is what makes coordination-free multi-host execution safe.
    Within each shard, cells keep canonical grid order, so a shard run
    enumerates (and journals) them exactly as a single-host run would.
    """

    n_shards: int
    fingerprint: dict[str, Any]
    #: shard index -> its cells, canonical grid order within each shard.
    shards: tuple[tuple[Cell, ...], ...]

    @classmethod
    def build(cls, spec: "SweepSpec", n_shards: int) -> "ShardPlan":
        """Partition *spec*'s grid into *n_shards* disjoint shards.

        Longest-processing-time-first greedy: cells are taken in
        decreasing :func:`cell_cost` order (canonical grid order breaks
        ties) and each lands on the currently lightest shard (lowest
        index breaks ties).  Deterministic by construction — no RNG, no
        wall clock, no host state.
        """
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        cells = list(spec.cells())
        order = sorted(range(len(cells)), key=lambda i: (-cell_cost(*cells[i]), i))
        loads: list[tuple[float, int]] = [(0.0, k) for k in range(n_shards)]
        heapq.heapify(loads)
        assigned: dict[int, int] = {}
        for i in order:
            load, k = heapq.heappop(loads)
            assigned[i] = k
            heapq.heappush(loads, (load + cell_cost(*cells[i]), k))
        shards = tuple(
            tuple(cells[i] for i in range(len(cells)) if assigned[i] == k)
            for k in range(n_shards)
        )
        return cls(
            n_shards=n_shards, fingerprint=spec_fingerprint(spec), shards=shards
        )

    def cells_for(self, shard_index: int) -> list[Cell]:
        """The cells shard *shard_index* executes (canonical grid order)."""
        if not 0 <= shard_index < self.n_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range [0, {self.n_shards})"
            )
        return list(self.shards[shard_index])

    def shard_of(self, cell: Cell) -> int:
        """Which shard owns *cell*; raises ``KeyError`` for foreign cells."""
        for k, shard in enumerate(self.shards):
            if cell in shard:
                return k
        raise KeyError(f"cell {cell!r} is not in this plan's grid")

    def costs(self) -> tuple[float, ...]:
        """Total expected cost per shard (the balance the builder optimised)."""
        return tuple(
            sum(cell_cost(*cell) for cell in shard) for shard in self.shards
        )

    @property
    def balance_ratio(self) -> float:
        """Max over mean shard cost; 1.0 is a perfectly balanced plan."""
        costs = self.costs()
        mean = sum(costs) / len(costs)
        return float("inf") if mean == 0 else max(costs) / mean


# ---------------------------------------------------------------------------
# journal merge
# ---------------------------------------------------------------------------


@dataclass
class ShardJournalInfo:
    """Per-input accounting for one journal in a merge."""

    path: str
    shard_index: int
    n_shards: int
    cells: int
    failures: int
    truncated_tail: bool
    #: cumulative wall-clock over this journal's run/resume cycles, from
    #: its stats trailers; ``None`` for journals without any.
    wall_seconds: float | None
    #: overall integrity verdict from the loader (``verified`` /
    #: ``unknown`` / ``salvaged``); see :class:`~repro.workloads.journal.JournalState`.
    integrity: str = INTEGRITY_UNKNOWN
    #: True when the journal ended in a verified seal record.
    sealed: bool = False
    #: corrupt records quarantined from this journal during the merge load.
    corrupt_rows: int = 0
    #: scheduler that produced this journal (``static`` / ``elastic``),
    #: from its stats trailers; ``None`` for pre-stamp journals.
    scheduler: str | None = None
    #: worker process count from the stats trailers; ``None`` if unstamped.
    workers: int | None = None
    #: per-worker-slot wall-clock (elastic trailers only) — makes the
    #: straggler ratio reproducible from the journal alone.
    worker_wall_seconds: list[float] | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "shard_index": self.shard_index,
            "n_shards": self.n_shards,
            "cells": self.cells,
            "failures": self.failures,
            "truncated_tail": self.truncated_tail,
            "wall_seconds": self.wall_seconds,
            "integrity": self.integrity,
            "sealed": self.sealed,
            "corrupt_rows": self.corrupt_rows,
            "scheduler": self.scheduler,
            "workers": self.workers,
            "worker_wall_seconds": self.worker_wall_seconds,
        }


@dataclass(frozen=True)
class MergeConflict:
    """Two journals disagreed on one cell and a checksum broke the tie.

    Raised as a hard :class:`JournalError` only when both copies carry the
    *same* integrity level (genuinely diverging runs).  When exactly one
    copy is checksum-verified, the verified copy wins, the other is
    presumed transfer-damaged, and the event is reported here instead of
    being silently deduplicated.
    """

    seed: int
    cell: Cell
    winner: str
    loser: str
    winner_integrity: str
    loser_integrity: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "cell": list(self.cell),
            "winner": self.winner,
            "loser": self.loser,
            "winner_integrity": self.winner_integrity,
            "loser_integrity": self.loser_integrity,
        }


@dataclass
class MergeResult:
    """Outcome of :func:`merge_journals`: one dataset plus its provenance."""

    fingerprint: dict[str, Any]
    #: merged rows in canonical grid order (missing cells simply absent).
    rows: list[SweepRow]
    #: combined manifest over the whole grid (quarantines only count for
    #: cells no shard completed).
    manifest: FailureManifest
    #: bracket-cache counters summed across every journal's stats trailers.
    cache_stats: dict[str, Any] | None
    shards: list[ShardJournalInfo]
    #: expected cells absent from every journal, canonical grid order.
    missing: list[Cell] = field(default_factory=list)
    #: cells present in more than one journal with identical rows (deduped).
    duplicates: int = 0
    #: cross-journal disagreements resolved by checksum (verified copy won).
    conflicts: list[MergeConflict] = field(default_factory=list)
    #: per-journal corruption quarantined during the (salvage-mode) load.
    corruption: list[CorruptionReport] = field(default_factory=list)
    out_path: str | None = None

    @property
    def complete(self) -> bool:
        """True when every grid cell is covered and nothing is quarantined."""
        return not self.missing and not self.manifest.failures

    @property
    def straggler_ratio(self) -> float | None:
        """Max over mean shard wall-clock — how unbalanced the run *was*.

        ``None`` when no input journal carried timing trailers.  A ratio
        near 1.0 means the :class:`ShardPlan` cost model predicted real
        cell cost well; a large ratio names the tuning opportunity.
        """
        walls = [s.wall_seconds for s in self.shards if s.wall_seconds is not None]
        if not walls:
            return None
        mean = sum(walls) / len(walls)
        return None if mean == 0 else max(walls) / mean

    @property
    def worker_straggler_ratio(self) -> float | None:
        """Max over mean per-worker wall-clock, across every stamped slot.

        ``None`` unless at least one journal carries per-worker timing
        (elastic trailers).  Where :attr:`straggler_ratio` measures how
        unbalanced the *shard plan* was, this measures how unevenly the
        *worker pool* finished — an elastic run keeps it near 1.0 even
        with a pathologically slow worker, because leases flow to
        whichever slot is free.
        """
        walls = [
            w
            for s in self.shards
            if s.worker_wall_seconds
            for w in s.worker_wall_seconds
        ]
        if not walls:
            return None
        mean = sum(walls) / len(walls)
        return None if mean == 0 else max(walls) / mean

    def coverage_report(self) -> str:
        """Human-readable merge/coverage summary (the ``repro merge`` output)."""
        expected = self.manifest.cells_total
        lines = [
            f"merged {len(self.shards)} journal(s): "
            f"{self.manifest.cells_completed}/{expected} cells "
            f"({len(self.missing)} missing, {self.duplicates} duplicate, "
            f"{self.manifest.quarantined} quarantined)"
        ]
        for info in self.shards:
            wall = (
                "no timing" if info.wall_seconds is None
                else f"{info.wall_seconds:.2f}s"
            )
            tail = ", truncated tail" if info.truncated_tail else ""
            corrupt = (
                f", {info.corrupt_rows} corrupt record(s) quarantined"
                if info.corrupt_rows
                else ""
            )
            crew = (
                ""
                if info.workers is None
                else f", {info.scheduler or 'static'} x{info.workers} workers"
            )
            lines.append(
                f"  shard {info.shard_index}/{info.n_shards}: {info.path} "
                f"({info.cells} cells, {info.failures} failure(s), {wall}, "
                f"{info.integrity}{tail}{corrupt}{crew})"
            )
        ratio = self.straggler_ratio
        if ratio is not None:
            lines.append(f"  straggler ratio: {ratio:.2f} (max/mean shard wall-clock)")
        worker_ratio = self.worker_straggler_ratio
        if worker_ratio is not None:
            lines.append(
                f"  worker straggler ratio: {worker_ratio:.2f} "
                "(max/mean per-worker wall-clock)"
            )
        for conflict in self.conflicts:
            eps, m, rep = conflict.cell
            lines.append(
                f"  conflict on cell (eps={eps}, m={m}, rep={rep}): kept "
                f"{conflict.winner_integrity} copy from {conflict.winner}, "
                f"dropped {conflict.loser_integrity} copy from {conflict.loser}"
            )
        if self.missing:
            preview = ", ".join(
                f"(eps={eps}, m={m}, rep={rep})" for eps, m, rep in self.missing[:5]
            )
            more = "" if len(self.missing) <= 5 else f", … {len(self.missing) - 5} more"
            lines.append(f"  missing cells: {preview}{more}")
        return "\n".join(lines)


def merge_journals(
    paths: Sequence[str | os.PathLike[str]],
    out: str | os.PathLike[str] | None = None,
    spec: "SweepSpec | None" = None,
    *,
    salvage: bool = True,
    require_verified: bool = False,
) -> MergeResult:
    """Merge shard journals into one dataset (and optionally one journal).

    Validation and semantics:

    * every journal's header fingerprint must match the first's (and
      *spec*'s, when given) — :class:`JournalMismatchError` otherwise;
    * a truncated trailing line (hard-killed shard) is tolerated exactly
      as on resume: the partial record is ignored and its cell counts as
      missing;
    * journals load in **salvage mode** by default: corrupt mid-file
      records (bit-flips, failed transfers) are quarantined into
      :attr:`MergeResult.corruption` and their cells count as missing,
      instead of one damaged shard aborting the whole merge
      (``salvage=False`` restores strict fail-fast loading);
    * cells present in several journals (duplicate shard uploads, or a
      cell re-executed after a merge-and-resume) are **deduplicated by
      cell seed** when their rows are bit-identical; differing rows for
      one seed raise :class:`JournalError` — *unless* exactly one copy is
      checksum-verified, in which case the verified copy wins, the other
      is presumed transfer-damaged, and the event is reported in
      :attr:`MergeResult.conflicts` rather than silently deduplicated;
    * ``require_verified=True`` (``repro merge --verify``) insists every
      input is sealed with all row checksums intact —
      :class:`JournalIntegrityError` names the first journal that is not;
    * coverage is computed against the grid encoded in the fingerprint:
      ``result.missing`` lists expected cells no journal completed;
    * failure records only survive for cells *no* journal completed (a
      cell quarantined on one host but completed by a retry elsewhere is
      recovered, not failed);
    * per-journal stats trailers are summed into per-shard wall-clock
      (:attr:`MergeResult.straggler_ratio`) and merged
      ``cache_stats``.

    With *out*, the merged dataset is written as a normal journal —
    header, checksummed cell records in canonical order, unresolved
    failures, one stats trailer, one covering seal — which loads, resumes
    (to fill missing cells), verifies and re-merges like any other
    journal.  Refuses to overwrite an existing non-empty file, mirroring
    :meth:`SweepJournal.create`.
    """
    if not paths:
        raise ValueError("merge_journals needs at least one journal path")
    states: list[tuple[str, JournalState]] = []
    for path in paths:
        fspath = os.fspath(path)
        state = load_journal(path, salvage=salvage)
        if require_verified:
            problems = []
            if state.corruption:
                problems.append(state.corruption.summary())
            if state.truncated_tail:
                problems.append("truncated trailing record")
            if not state.sealed:
                problems.append("no final seal")
            unchecked = sum(
                1
                for v in state.integrity_by_seed.values()
                if v != INTEGRITY_VERIFIED
            )
            if unchecked:
                problems.append(f"{unchecked} cell(s) without checksums")
            if problems:
                raise JournalIntegrityError(
                    f"{fspath}: merge --verify requires sealed, checksum-"
                    f"verified journals: {'; '.join(problems)} — run "
                    "'repro verify' for details, 'repro collect' to "
                    "re-transfer, or merge without --verify to salvage"
                )
        states.append((fspath, state))

    first_path, first_state = states[0]
    fingerprint = first_state.fingerprint
    if spec is not None and spec_fingerprint(spec) != fingerprint:
        raise JournalMismatchError(
            f"{first_path}: journal fingerprint does not match the given spec"
        )
    for path, state in states[1:]:
        if state.fingerprint != fingerprint:
            raise JournalMismatchError(
                f"{path}: journal fingerprint does not match {first_path} "
                f"(mismatched fields: {fingerprint_diff(state.fingerprint, fingerprint)})"
                " — these journals belong to different sweeps and must not be merged"
            )

    expected = fingerprint_cells(fingerprint)
    seed_to_cell = {fingerprint_cell_seed(fingerprint, c): c for c in expected}

    completed: dict[int, list[SweepRow]] = {}
    completed_from: dict[int, str] = {}
    completed_integrity: dict[int, str] = {}
    duplicates = 0
    conflicts: list[MergeConflict] = []
    corruption: list[CorruptionReport] = []
    failures_by_seed: dict[int, dict[str, Any]] = {}
    infos: list[ShardJournalInfo] = []
    recovered = 0
    retries = 0
    cache_totals: CacheStats | None = None

    for path, state in states:
        if state.corruption:
            corruption.append(state.corruption)
        for seed, rows in state.completed.items():
            level = state.integrity_by_seed.get(seed, INTEGRITY_UNKNOWN)
            if seed not in seed_to_cell:
                raise JournalError(
                    f"{path}: cell seed {seed} is not in the grid its own "
                    "header describes — the journal is corrupt"
                )
            if seed in completed:
                if completed[seed] == rows:
                    duplicates += 1
                    if level == INTEGRITY_VERIFIED:
                        completed_integrity[seed] = level
                    continue
                held = completed_integrity[seed]
                if held == level:
                    # Same integrity level on both sides: nothing breaks
                    # the tie, so this really is diverging data.
                    eps, m, rep = seed_to_cell[seed]
                    raise JournalError(
                        f"conflicting rows for cell (eps={eps}, m={m}, rep={rep}) "
                        f"between {completed_from[seed]} and {path} — the journals "
                        "were produced by diverging runs and cannot be merged"
                    )
                if level == INTEGRITY_VERIFIED:
                    conflicts.append(
                        MergeConflict(
                            seed=seed,
                            cell=seed_to_cell[seed],
                            winner=path,
                            loser=completed_from[seed],
                            winner_integrity=level,
                            loser_integrity=held,
                        )
                    )
                    completed[seed] = rows
                    completed_from[seed] = path
                    completed_integrity[seed] = level
                else:
                    conflicts.append(
                        MergeConflict(
                            seed=seed,
                            cell=seed_to_cell[seed],
                            winner=completed_from[seed],
                            loser=path,
                            winner_integrity=held,
                            loser_integrity=level,
                        )
                    )
                continue
            completed[seed] = rows
            completed_from[seed] = path
            completed_integrity[seed] = level
        for failure in state.failures:
            seed = int(failure.get("seed", -1))
            failures_by_seed[seed] = failure
        wall: float | None = None
        scheduler: str | None = None
        shard_workers: int | None = None
        worker_walls: list[float] | None = None
        for stats in state.stats:
            wall = (wall or 0.0) + float(stats.get("wall_seconds") or 0.0)
            recovered += int(stats.get("recovered") or 0)
            retries += int(stats.get("retries") or 0)
            if stats.get("scheduler"):
                scheduler = str(stats["scheduler"])
            if stats.get("workers"):
                shard_workers = int(stats["workers"])
            if stats.get("worker_wall_seconds"):
                worker_walls = [float(w) for w in stats["worker_wall_seconds"]]
            if stats.get("cache"):
                if cache_totals is None:
                    cache_totals = CacheStats()
                cache_totals.merge(stats["cache"])
        infos.append(
            ShardJournalInfo(
                path=path,
                shard_index=state.shard[0],
                n_shards=state.shard[1],
                cells=len(state.completed),
                failures=len(state.failures),
                truncated_tail=state.truncated_tail,
                wall_seconds=wall,
                integrity=state.integrity,
                sealed=state.sealed,
                corrupt_rows=len(state.corruption.events) if state.corruption else 0,
                scheduler=scheduler,
                workers=shard_workers,
                worker_wall_seconds=worker_walls,
            )
        )

    missing = [c for c in expected if fingerprint_cell_seed(fingerprint, c) not in completed]
    unresolved = [
        failure
        for seed, failure in failures_by_seed.items()
        if seed not in completed
    ]
    manifest = FailureManifest(
        failures=[
            CellFailure(
                epsilon=float(f.get("epsilon", 0.0)),
                machines=int(f.get("machines", 0)),
                repetition=int(f.get("repetition", 0)),
                seed=int(f.get("seed", -1)),
                attempts=int(f.get("attempts", 0)),
                kind=str(f.get("kind", "unknown")),
                detail=str(f.get("detail", "")),
                history=tuple(f.get("history", ())),
            )
            for f in unresolved
        ],
        recovered=recovered,
        retries=retries,
        cells_total=len(expected),
        cells_completed=len(completed),
    )
    rows: list[SweepRow] = []
    for cell in expected:
        rows.extend(completed.get(fingerprint_cell_seed(fingerprint, cell), []))

    result = MergeResult(
        fingerprint=fingerprint,
        rows=rows,
        manifest=manifest,
        cache_stats=None if cache_totals is None else cache_totals.as_dict(),
        shards=infos,
        missing=missing,
        duplicates=duplicates,
        conflicts=conflicts,
        corruption=corruption,
    )
    if out is not None:
        result.out_path = _write_merged_journal(out, result, completed)
    return result


def _write_merged_journal(
    out: str | os.PathLike[str],
    result: MergeResult,
    completed: dict[int, list[SweepRow]],
) -> str:
    """Serialise a :class:`MergeResult` as a sealed (resumable) journal."""
    if os.path.exists(out) and os.path.getsize(out) > 0:
        raise JournalError(
            f"{os.fspath(out)}: merge output already exists; delete it "
            "explicitly to re-merge"
        )
    records: list[dict[str, Any]] = [header_record(result.fingerprint, "merged", None)]
    cell_count = 0
    for eps, m, rep in fingerprint_cells(result.fingerprint):
        seed = fingerprint_cell_seed(result.fingerprint, (eps, m, rep))
        if seed not in completed:
            continue
        cell_count += 1
        records.append(cell_record(seed, eps, m, rep, completed[seed]))
    for failure in result.manifest.failures:
        records.append({"kind": "failure", "failure": failure.as_dict()})
    walls = [s.wall_seconds for s in result.shards if s.wall_seconds is not None]
    workers = [s.workers for s in result.shards if s.workers is not None]
    worker_walls = [
        w
        for s in result.shards
        if s.worker_wall_seconds
        for w in s.worker_wall_seconds
    ]
    records.append(
        {
            "kind": "stats",
            "wall_seconds": round(sum(walls), 6) if walls else 0.0,
            "interrupted": False,
            "cells_completed": result.manifest.cells_completed,
            "cells_replayed": 0,
            "recovered": result.manifest.recovered,
            "retries": result.manifest.retries,
            "quarantined": result.manifest.quarantined,
            "cache": result.cache_stats,
            "merged_from": len(result.shards),
            # Worker provenance survives the merge so straggler ratios stay
            # reproducible from this journal alone.
            "scheduler": "merged",
            "workers": sum(workers) if workers else None,
            "worker_wall_seconds": worker_walls or None,
        }
    )
    # Seal the merged journal like any clean shard exit would: downstream
    # verification and re-merges treat it exactly like a shard journal.
    rewrite(
        out,
        map(record_line, records),
        JournalError,
        "journal",
        cells=cell_count,
        fingerprint=result.fingerprint,
        salvaged=bool(result.corruption) or bool(result.conflicts),
    ).close()
    return os.fspath(out)


def shard_journal_paths(
    base: str | os.PathLike[str], n_shards: int
) -> list[str]:
    """Conventional per-shard journal names: ``base.shard{i}-of-{n}.jsonl``.

    Purely a naming helper for local multi-shard runs (benchmarks, the
    CI smoke test); multi-host runs name journals however they like —
    the header stamp, not the filename, is what merge trusts.
    """
    base = os.fspath(base)
    stem, ext = os.path.splitext(base)
    ext = ext or ".jsonl"
    return [f"{stem}.shard{i}-of-{n_shards}{ext}" for i in range(n_shards)]


__all__ = [
    "Cell",
    "MergeConflict",
    "MergeResult",
    "ShardJournalInfo",
    "ShardPlan",
    "cell_cost",
    "fingerprint_cell_seed",
    "fingerprint_cells",
    "merge_journals",
    "shard_journal_paths",
]
