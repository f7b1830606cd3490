"""Append-only JSONL checkpoint journal for sweep execution.

A multi-hour sweep grid must survive worker crashes, machine reboots and
``SIGINT``.  The journal is the durability layer behind
:func:`repro.workloads.execute.execute_sweep`: every completed
cell is appended as one self-contained JSON line *before* the runner
moves on, so an interrupted run can be resumed with ``repro sweep
--resume <journal>`` and replay finished cells from disk instead of
recomputing them.

Design notes
------------

* **Keyed by the deterministic cell seed.**  ``SweepSpec.cell_seed`` is a
  pure function of ``(base_seed, epsilon, machines, repetition)``, so the
  seed uniquely identifies a cell across runs and across machines — the
  journal never needs to trust iteration order.
* **Append-only JSONL on the sealed log.**  The file itself is a
  :mod:`repro.utils.sealed_log`: one record per line, written, flushed
  and fsync'd as one commit per cell, or as one commit for every record
  of a :meth:`SweepJournal.group` (the lease loop's pass), byte for byte
  the same file.  A hard kill can at worst
  truncate the *final* line; the loader tolerates (and reports) a single
  trailing partial record, and :meth:`SweepJournal.resume` truncates it
  away before appending so that repeated kill/resume cycles never glue
  records onto the fragment.  A failed commit fails stop: it raises
  :class:`JournalError` (``journal commit failed``), every later write
  refuses, and the journal is left unsealed and resumable.
* **Fingerprinted header.**  The first line captures a structural
  fingerprint of the :class:`~repro.workloads.sweep.SweepSpec` (grid,
  algorithms, seeds, workload description).  Resuming against a journal
  written for a different spec raises :class:`JournalMismatchError`
  instead of silently mixing incompatible rows.
* **Shard stamp.**  A journal written by one shard of a multi-host sweep
  (see :mod:`repro.workloads.sharding`) additionally stamps its header
  with ``(shard_index, n_shards)``.  Resuming it under different shard
  flags raises :class:`JournalError` naming both stamps — silently
  recomputing a different cell subset would corrupt the eventual merge.
* **Run-stats trailer.**  Each run (initial or resumed) appends one
  ``stats`` record on exit — wall-clock seconds, manifest counters,
  bracket-cache counters — which the merge layer aggregates into
  per-shard timing and a combined cache report.  Loaders that predate
  the record type would reject it, but old journals (without it) load
  unchanged, so the format version is unbumped.
* **Lease provenance.**  A ``cell`` record may carry a ``prov`` object —
  which worker slot computed it, on which attempt, how many heartbeats
  the lease saw, how long it was held, and whether the winning copy was
  a speculative duplicate (see :mod:`repro.workloads.elastic`).
  Provenance is *outside* the row CRC (it describes the execution, not
  the data), is preserved by salvage (byte-for-byte record copies) and
  ignored by merge dedup; journals without it load unchanged.
* **Row checksums.**  Every ``cell`` record carries a short content CRC
  over ``(seed, rows)``, computed from a canonical JSON serialisation so
  it survives reformatting.  A bit-flip in transit (or at rest) is
  detected at load time instead of silently poisoning the dataset.
  Journals written before the CRC existed load unchanged with
  ``integrity="unknown"`` — the checksum is additive, so the format
  version is unbumped.
* **Seal records.**  A run that exits cleanly appends a ``seal`` record:
  a SHA-256 over the byte stream of every preceding line, the record and
  cell counts, a digest of the spec fingerprint and the shard stamp.
  :func:`verify_journal` (``repro verify``) and the merge layer check it
  — a sealed journal whose seal verifies is guaranteed bit-identical to
  what the writer produced.  Appending after a seal (a resumed run)
  simply leaves the journal *unsealed* until the next clean exit appends
  a fresh seal covering everything, earlier seals included.
* **Salvage mode.**  ``load_journal(path, salvage=True)`` quarantines
  corrupt or checksum-failing lines *mid-file* into a structured
  :class:`CorruptionReport` instead of raising: intact rows survive and
  the damaged cells simply count as missing (coverage holes a resumed
  sweep refills).  The default strict mode keeps the historical
  fail-fast behaviour.  :func:`salvage_journal` rewrites a damaged
  journal keeping only the intact records (original bytes, original
  order) and appends a fresh seal marked ``salvaged``.
* **Bit-identical replay.**  Rows are stored field-by-field; Python's
  ``json`` emits shortest round-trip float literals, so a replayed
  :class:`~repro.workloads.sweep.SweepRow` compares equal to the row the
  worker originally produced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import zlib
from contextlib import AbstractContextManager
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from repro.utils.sealed_log import (
    LogReader,
    LogWriter,
    fingerprint_diff,
    fingerprint_sha256,
    rewrite,
)
from repro.workloads.sweep import SweepRow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.workloads.sweep import SweepSpec

#: Journal format version; bumped on incompatible record changes.
JOURNAL_VERSION = 1

#: Ordered SweepRow constructor fields (the serialization schema).
ROW_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(SweepRow))

#: Integrity verdicts for a loaded journal / cell record.
INTEGRITY_VERIFIED = "verified"
INTEGRITY_UNKNOWN = "unknown"
INTEGRITY_SALVAGED = "salvaged"


class JournalError(RuntimeError):
    """A journal file is unreadable or structurally invalid."""


class JournalMismatchError(JournalError):
    """A journal's header fingerprint does not match the current spec."""


class JournalIntegrityError(JournalError):
    """A checksum or seal failed: the journal's bytes have been altered."""


def describe_workload(workload: Any) -> dict[str, Any]:
    """Stable, address-free description of a workload factory.

    ``repr(partial(...))`` embeds the wrapped function's memory address,
    which would make every fingerprint unique; this flattens partials to
    ``module.qualname`` plus bound-argument reprs instead.
    """
    if isinstance(workload, functools.partial):
        return {
            "partial": describe_workload(workload.func),
            "args": [repr(a) for a in workload.args],
            "kwargs": {k: repr(v) for k, v in sorted((workload.keywords or {}).items())},
        }
    name = getattr(workload, "__qualname__", None) or type(workload).__qualname__
    module = getattr(workload, "__module__", None) or type(workload).__module__
    return {"callable": f"{module}.{name}"}


def spec_fingerprint(spec: "SweepSpec") -> dict[str, Any]:
    """Structural identity of a sweep spec (what the journal binds to)."""
    return {
        "epsilons": [float(e) for e in spec.epsilons],
        "machine_counts": [int(m) for m in spec.machine_counts],
        "algorithms": list(spec.algorithms),
        "repetitions": int(spec.repetitions),
        "base_seed": int(spec.base_seed),
        "force_bounds": bool(spec.force_bounds),
        "exact_limit": spec.exact_limit,
        "record_events": bool(spec.record_events),
        "workload": describe_workload(spec.workload),
    }


def row_to_payload(row: SweepRow) -> list[Any]:
    """Serialise one row as a compact field-ordered list (see ROW_FIELDS)."""
    return [getattr(row, name) for name in ROW_FIELDS]


def row_from_payload(payload: list[Any]) -> SweepRow:
    """Inverse of :func:`row_to_payload`; bit-identical round trip."""
    if len(payload) != len(ROW_FIELDS):
        raise JournalError(
            f"row payload has {len(payload)} fields, expected {len(ROW_FIELDS)}"
        )
    row = dict(zip(ROW_FIELDS, payload))
    row["algorithm"] = sys.intern(row["algorithm"])  # one copy per name
    return SweepRow(**row)


def row_crc(seed: int, payloads: list[list[Any]]) -> str:
    """Content CRC of one cell record: 8 hex digits over ``(seed, rows)``.

    Computed from a *canonical* JSON serialisation (fixed separators,
    sorted nothing — lists only), so the checksum is stable under record
    reformatting and under a JSON round trip (shortest-repr floats).
    """
    blob = json.dumps([int(seed), payloads], allow_nan=False, separators=(",", ":"))
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def header_record(
    fingerprint: dict[str, Any], label: str | None, shard: tuple[int, int] | None
) -> dict[str, Any]:
    """The first line of a journal: format version, label, fingerprint."""
    header: dict[str, Any] = {
        "kind": "header",
        "version": JOURNAL_VERSION,
        "label": label,
        "fingerprint": fingerprint,
    }
    if shard is not None:
        header["shard"] = {"index": int(shard[0]), "of": int(shard[1])}
    return header


def cell_record(
    seed: int,
    eps: float,
    m: int,
    rep: int,
    rows: list[SweepRow],
    provenance: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One completed cell: its rows, their CRC and, optionally, ``prov``."""
    payloads = [row_to_payload(r) for r in rows]
    record: dict[str, Any] = {
        "kind": "cell",
        "seed": int(seed),
        "epsilon": float(eps),
        "machines": int(m),
        "repetition": int(rep),
        "rows": payloads,
        "crc": row_crc(int(seed), payloads),
    }
    if provenance is not None:
        record["prov"] = dict(provenance)
    return record


# ---------------------------------------------------------------------------
# corruption accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptionEvent:
    """One damaged journal line, quarantined during a salvage load."""

    line: int  # 1-based line number in the file
    kind: str  # unparsable | crc-mismatch | seal-mismatch | bad-record | unknown-kind
    detail: str
    #: cell seed the damaged record claimed, when recoverable.
    seed: int | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "line": self.line,
            "kind": self.kind,
            "detail": self.detail,
            "seed": self.seed,
        }


@dataclass
class CorruptionReport:
    """Structured account of everything quarantined from one journal."""

    path: str
    events: list[CorruptionEvent] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def quarantined_seeds(self) -> set[int]:
        """Cell seeds whose records were dropped (recoverable ones only)."""
        return {e.seed for e in self.events if e.seed is not None}

    def as_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "events": [e.as_dict() for e in self.events],
        }

    def summary(self) -> str:
        if not self.events:
            return f"{self.path}: no corruption"
        kinds: dict[str, int] = {}
        for e in self.events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        breakdown = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        return (
            f"{self.path}: {len(self.events)} corrupt record(s) quarantined "
            f"({breakdown})"
        )


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovers from disk."""

    fingerprint: dict[str, Any]
    #: cell seed -> replayed rows, in the order they were journaled.
    completed: dict[int, list[SweepRow]]
    #: quarantine records observed in the journal (observability only —
    #: resumed runs re-execute these cells rather than trusting old verdicts).
    failures: list[dict[str, Any]]
    #: ``(shard_index, n_shards)`` stamp from the header; ``(0, 1)`` for
    #: unsharded journals (including every journal written before sharding).
    shard: tuple[int, int] = (0, 1)
    #: run-stats trailer records (one per run/resume cycle), oldest first.
    stats: list[dict[str, Any]] = field(default_factory=list)
    #: True when the final line was cut off mid-write (hard kill).
    truncated_tail: bool = False
    #: byte offset of the end of the last complete record; everything past
    #: it is the truncated tail, which :meth:`SweepJournal.resume` chops
    #: off before appending (a new record glued onto a partial line would
    #: corrupt the journal for every later load).
    valid_bytes: int = 0
    #: header label (``spec.label`` at creation time; ``"merged"`` etc.).
    label: str | None = None
    #: overall verdict: ``verified`` (seal checked out, every row CRC
    #: matched), ``salvaged`` (corrupt records were quarantined) or
    #: ``unknown`` (pre-integrity journal, or unsealed).
    integrity: str = INTEGRITY_UNKNOWN
    #: True when the final record is a seal that verified.
    sealed: bool = False
    #: the final verified seal record, when ``sealed``.
    seal: dict[str, Any] | None = None
    #: per-cell integrity: seed -> ``verified`` | ``unknown`` (cells whose
    #: CRC failed are quarantined and never reach ``completed``).
    integrity_by_seed: dict[int, str] = field(default_factory=dict)
    #: per-cell execution provenance (worker slot, attempt, heartbeats,
    #: lease duration, speculative flag) for journals written by the
    #: elastic scheduler; empty for push-scheduler journals.
    provenance: dict[int, dict[str, Any]] = field(default_factory=dict)
    #: corrupt lines quarantined during a salvage load (empty when clean).
    corruption: CorruptionReport | None = None


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _scan_journal(
    reader: LogReader, salvage: bool, kept: list[str] | None = None
) -> tuple[JournalState, int]:
    """Shared loader core: one pass of *reader* over a journal.

    Returns the state and the number of intact cell records (what a
    writer continuing the file counts toward its seal).  A *kept* list
    gathers the lines of every surviving record *except* seals (a
    rewrite changes the byte stream, so any old seal would be stale) —
    the input to :func:`salvage_journal`.
    """
    path = reader.path
    completed: dict[int, list[SweepRow]] = {}
    provenance: dict[int, dict[str, Any]] = {}
    failures: list[dict[str, Any]] = []
    stats: list[dict[str, Any]] = []
    fingerprint: dict[str, Any] | None = None
    label: str | None = None
    shard = (0, 1)
    integrity_by_seed: dict[int, str] = {}
    report = CorruptionReport(path=path)
    last_seal: dict[str, Any] | None = None
    last_seal_index: int | None = None
    cells = 0

    def _quarantine(i: int, kind: str, detail: str, seed: int | None = None) -> None:
        if not salvage:
            if kind in ("crc-mismatch", "seal-mismatch"):
                raise JournalIntegrityError(
                    f"{path}: {detail} on line {i + 1}; the journal's "
                    "bytes were altered after writing — re-transfer it, or load "
                    "with salvage to quarantine the damaged records"
                )
            raise JournalError(f"{path}: corrupt journal record on line {i + 1}")
        report.events.append(CorruptionEvent(line=i + 1, kind=kind, detail=detail, seed=seed))

    for i, raw, record in reader:
        keep_line = False
        if record is None:
            _quarantine(i, "unparsable", f"undecodable record: {reader.error}")
            continue
        kind = record.get("kind")
        if kind == "header":
            if record.get("version") != JOURNAL_VERSION:
                # Not salvageable: an unknown format cannot be interpreted.
                raise JournalError(
                    f"{path}: journal version {record.get('version')!r} is not "
                    f"supported (expected {JOURNAL_VERSION})"
                )
            fingerprint = record["fingerprint"]
            label = record.get("label")
            if "shard" in record:
                shard = (int(record["shard"]["index"]), int(record["shard"]["of"]))
            keep_line = True
        elif kind == "cell":
            try:
                seed = int(record["seed"])
                payloads = record["rows"]
                rows = [row_from_payload(p) for p in payloads]
            except (KeyError, TypeError, ValueError, JournalError) as exc:
                _quarantine(
                    i,
                    "bad-record",
                    f"malformed cell record: {exc}",
                    seed=int(record["seed"])
                    if isinstance(record.get("seed"), (int, float))
                    else None,
                )
            else:
                crc = record.get("crc")
                if crc is None:
                    completed[seed] = rows
                    integrity_by_seed[seed] = INTEGRITY_UNKNOWN
                    keep_line = True
                elif crc == row_crc(seed, payloads):
                    completed[seed] = rows
                    integrity_by_seed[seed] = INTEGRITY_VERIFIED
                    keep_line = True
                else:
                    _quarantine(
                        i,
                        "crc-mismatch",
                        f"row checksum mismatch (cell seed {seed}): stored "
                        f"{crc!r} != computed {row_crc(seed, payloads)!r}",
                        seed=seed,
                    )
                if keep_line:
                    cells += 1
                if seed in completed and isinstance(record.get("prov"), dict):
                    provenance[seed] = record["prov"]
        elif kind == "failure":
            if "failure" not in record:
                _quarantine(i, "bad-record", "failure record has no 'failure' field")
            else:
                failures.append(record["failure"])
                keep_line = True
        elif kind == "stats":
            stats.append({k: v for k, v in record.items() if k != "kind"})
            keep_line = True
        elif kind == "seal":
            problems = []
            if record.get("stream_sha256") != reader.hasher.hexdigest():
                problems.append("stream hash mismatch")
            if record.get("records") != i:
                problems.append(
                    f"record count mismatch (seal says {record.get('records')}, "
                    f"stream has {i})"
                )
            if fingerprint is None:
                problems.append("seal precedes the header")
            elif record.get("fingerprint_sha256") != fingerprint_sha256(fingerprint):
                problems.append("fingerprint digest mismatch")
            if problems:
                _quarantine(
                    i, "seal-mismatch", "seal verification failed: " + "; ".join(problems)
                )
            else:
                last_seal = record
                last_seal_index = i
            # Never kept: a rewrite invalidates every pre-existing seal.
        else:
            if not salvage:
                raise JournalError(
                    f"{path}: unknown journal record kind {kind!r}"
                )
            _quarantine(i, "unknown-kind", f"unknown journal record kind {kind!r}")
        if keep_line and kept is not None:
            line = raw.decode("utf-8")
            kept.append(line if line.endswith("\n") else line + "\n")
    if fingerprint is None:
        raise JournalError(f"{path}: journal has no header record")
    sealed = (
        last_seal_index == len(reader.lines) - 1 and reader.ends_with_newline
    )
    if report.events:
        integrity = INTEGRITY_SALVAGED
    elif sealed and all(
        v == INTEGRITY_VERIFIED for v in integrity_by_seed.values()
    ):
        integrity = INTEGRITY_VERIFIED
    else:
        integrity = INTEGRITY_UNKNOWN
    state = JournalState(
        fingerprint=fingerprint,
        completed=completed,
        provenance=provenance,
        failures=failures,
        shard=shard,
        stats=stats,
        truncated_tail=reader.truncated_tail,
        valid_bytes=reader.valid_bytes,
        label=label,
        integrity=integrity,
        sealed=sealed,
        seal=last_seal if sealed else None,
        integrity_by_seed=integrity_by_seed,
        corruption=report,
    )
    return state, cells


def load_journal(
    path: str | os.PathLike[str], *, salvage: bool = False
) -> JournalState:
    """Read a journal back; tolerates one truncated trailing line.

    In the default strict mode a corrupt mid-file record raises
    :class:`JournalError` (:class:`JournalIntegrityError` when a row CRC
    or seal fails).  With ``salvage=True`` damaged lines are quarantined
    into ``state.corruption`` instead: intact rows survive, and the
    affected cells simply count as missing so a resumed sweep refills
    them.
    """
    state, _ = _scan_journal(LogReader(path), salvage)
    return state


# ---------------------------------------------------------------------------
# verification and salvage
# ---------------------------------------------------------------------------


@dataclass
class JournalVerification:
    """Outcome of :func:`verify_journal` (the ``repro verify`` payload)."""

    path: str
    #: ``verified`` | ``unsealed`` | ``corrupt``
    status: str
    cells: int = 0
    detail: str = ""
    corruption: CorruptionReport | None = None
    state: JournalState | None = None

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def summary(self) -> str:
        extra = f" — {self.detail}" if self.detail else ""
        return f"{self.path}: {self.status} ({self.cells} cell(s)){extra}"


def verify_journal(path: str | os.PathLike[str]) -> JournalVerification:
    """Check a journal's integrity end to end without loading it strictly.

    ``verified``: the final record is a seal whose stream hash, record
    count and fingerprint digest all check out, and every cell CRC
    matched — the file is bit-identical to what its writer produced.
    ``unsealed``: no damage found, but there is no (final) seal and/or
    some records predate the checksum, so integrity is unknown.
    ``corrupt``: at least one record is damaged (or the file is not a
    journal at all).
    """
    path = os.fspath(path)
    try:
        state = load_journal(path, salvage=True)
    except (JournalError, OSError) as exc:
        return JournalVerification(
            path=path, status="corrupt", detail=str(exc),
            corruption=CorruptionReport(path=path),
        )
    if state.corruption:
        detail = state.corruption.summary()
        if state.truncated_tail:
            detail += "; truncated tail"
        return JournalVerification(
            path=path, status="corrupt", cells=len(state.completed),
            detail=detail, corruption=state.corruption, state=state,
        )
    if state.truncated_tail:
        return JournalVerification(
            path=path, status="corrupt", cells=len(state.completed),
            detail="truncated trailing record", corruption=state.corruption,
            state=state,
        )
    if state.integrity == INTEGRITY_VERIFIED:
        detail = "sealed"
        if state.seal and state.seal.get("salvaged"):
            detail = "sealed (salvaged upstream)"
        return JournalVerification(
            path=path, status="verified", cells=len(state.completed),
            detail=detail, corruption=state.corruption, state=state,
        )
    reasons = []
    if not state.sealed:
        reasons.append("no final seal")
    unknown = sum(
        1 for v in state.integrity_by_seed.values() if v != INTEGRITY_VERIFIED
    )
    if unknown:
        reasons.append(f"{unknown} cell(s) without checksums")
    return JournalVerification(
        path=path, status="unsealed", cells=len(state.completed),
        detail="; ".join(reasons) or "integrity unknown",
        corruption=state.corruption, state=state,
    )


def _rewrite_salvaged(
    dest: str | os.PathLike[str], state: JournalState, kept: list[str]
) -> LogWriter:
    """Rewrite *kept* lines plus a fresh covering seal to *dest*, atomically."""
    return rewrite(
        dest,
        kept,
        JournalError,
        "journal",
        cells=len(state.completed),
        fingerprint=state.fingerprint,
        shard=None if state.shard == (0, 1) else state.shard,
        salvaged=bool(state.corruption) or state.truncated_tail,
    )


def salvage_journal(
    src: str | os.PathLike[str], dest: str | os.PathLike[str] | None = None
) -> tuple[JournalState, CorruptionReport]:
    """Rewrite a damaged journal keeping only its intact records.

    Surviving records are copied *byte-for-byte* in their original order
    (so replay stays bit-identical); corrupt lines, the truncated tail
    and stale seals are dropped, and a fresh seal marked ``salvaged`` is
    appended.  ``dest=None`` rewrites in place (atomic replace).  Returns
    the pre-salvage state and the corruption report describing everything
    that was quarantined.

    Raises :class:`JournalError` when the journal cannot be salvaged at
    all (no readable header) — that is a file for quarantine, not repair.
    """
    src = os.fspath(src)
    kept: list[str] = []
    state, _ = _scan_journal(LogReader(src), salvage=True, kept=kept)
    _rewrite_salvaged(src if dest is None else dest, state, kept).close()
    assert state.corruption is not None
    return state, state.corruption


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------


class SweepJournal:
    """Writer handle for an append-only sweep checkpoint journal.

    Use :meth:`create` for a fresh journal or :meth:`resume` to reopen an
    existing one (validating its fingerprint and recovering completed
    cells).  Each record is one commit on the underlying
    :class:`~repro.utils.sealed_log.LogWriter`, so completed work survives
    a hard kill, and a failed commit raises :class:`JournalError` and
    refuses every later write.  :meth:`record_seal` closes a run with a
    verifiable seal.
    """

    def __init__(
        self,
        log: LogWriter,
        fingerprint: dict[str, Any],
        shard: tuple[int, int] | None = None,
        cells: int = 0,
    ) -> None:
        self._log = log
        self.path = log.path
        self._fingerprint = fingerprint
        self._shard = shard
        #: Cell records in the file (the seal's ``cells``).
        self._cells = cells

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike[str],
        spec: "SweepSpec",
        shard: tuple[int, int] | None = None,
    ) -> "SweepJournal":
        """Start a fresh journal; refuses to clobber an existing one.

        A journal is the only durable copy of hours of completed cells, so
        silently truncating one (e.g. a ``--journal`` run where the user
        forgot ``--resume``) would destroy exactly the work it exists to
        protect.  Raises :class:`JournalError` if *path* already holds data.

        ``shard=(shard_index, n_shards)`` stamps a shard-scoped journal so
        that resume and merge can verify which slice of the grid it holds.
        """
        fingerprint = spec_fingerprint(spec)
        log = LogWriter.create(
            path,
            header_record(fingerprint, spec.label, shard),
            JournalError,
            "journal",
            "resume from it (repro sweep --resume) or delete it explicitly to "
            "start over",
        )
        return cls(log, fingerprint, shard)

    @classmethod
    def resume(
        cls,
        path: str | os.PathLike[str],
        spec: "SweepSpec",
        shard: tuple[int, int] | None = None,
        salvage: bool = False,
    ) -> tuple["SweepJournal", JournalState]:
        """Reopen *path* for append, returning the recovered state.

        Raises :class:`JournalMismatchError` when the journal belongs to a
        different spec — resuming would otherwise silently mix rows from
        incompatible grids — and :class:`JournalError` when its shard
        stamp disagrees with the requested ``(shard_index, n_shards)``:
        the completed-cell set on disk belongs to a *different slice* of
        the grid, so continuing would silently recompute the wrong subset
        and poison the eventual merge.

        A hard kill can leave a partial trailing line; appending straight
        after it would glue the next record onto the fragment, silently
        dropping that record and corrupting the journal for every later
        load.  The tail is therefore truncated back to the last complete
        record before the file is reopened for append.

        With ``salvage=True`` a journal damaged *mid-file* (bit-flips,
        failed transfers) is repaired first — intact records are kept
        byte-for-byte, corrupt ones quarantined (their cells re-run) —
        instead of raising :class:`JournalIntegrityError`.

        The file is read once: the writer continues the load's stream
        hash and record count.
        """
        reader = LogReader(path)
        kept: list[str] | None = [] if salvage else None
        state, cells = _scan_journal(reader, salvage, kept)
        current = spec_fingerprint(spec)
        if state.fingerprint != current:
            raise JournalMismatchError(
                f"{reader.path}: journal was written for a different sweep "
                f"spec (mismatched fields: {fingerprint_diff(state.fingerprint, current)})"
            )
        wanted = (0, 1) if shard is None else (int(shard[0]), int(shard[1]))
        if state.shard != wanted:
            raise JournalError(
                f"{reader.path}: journal is stamped shard_index={state.shard[0]} "
                f"of n_shards={state.shard[1]}, but this run requests "
                f"shard_index={wanted[0]} of n_shards={wanted[1]}; resume a shard "
                "journal with the same --shards/--shard-index it was written with"
            )
        if kept is not None and state.corruption:
            # Rewrite the journal clean (atomic) before appending: corrupt
            # lines must not stay behind to poison every later strict load.
            log = _rewrite_salvaged(reader.path, state, kept)
        else:
            log = LogWriter.reopen(reader, JournalError, "journal")
        shard_stamp = None if state.shard == (0, 1) else state.shard
        return cls(log, state.fingerprint, shard_stamp, cells), state

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def group(self) -> AbstractContextManager[None]:
        """Commit every record of the block with one commit on exit.

        See :meth:`~repro.utils.sealed_log.LogWriter.group`: the bytes are
        those of one commit per record, and the records are committed even
        when the block raises.
        """
        return self._log.group()

    # -- records -------------------------------------------------------

    def record_cell(
        self,
        seed: int,
        eps: float,
        m: int,
        rep: int,
        rows: list[SweepRow],
        provenance: dict[str, Any] | None = None,
    ) -> None:
        """Checkpoint one completed cell (durable once this returns).

        ``provenance`` attaches execution metadata (worker slot, attempt,
        heartbeat count, lease duration, speculative flag) outside the row
        CRC — it describes how the cell ran, never what it produced.
        """
        self._log.append(cell_record(seed, eps, m, rep, rows, provenance))
        self._cells += 1

    def record_failure(self, failure: dict[str, Any]) -> None:
        """Log a quarantined cell (observability; re-run on resume).

        The payload is nested under ``"failure"`` — it carries its own
        ``"kind"`` (crash/timeout/error/corrupt), which must not collide
        with the record-level ``"kind"`` the loader dispatches on.
        """
        self._log.append({"kind": "failure", "failure": dict(failure)})

    def record_stats(self, stats: dict[str, Any]) -> None:
        """Append a run-stats trailer (wall clock, counters, cache stats).

        One is written per run or resume cycle; the merge layer sums them
        per journal, so cumulative per-shard timing survives any number of
        interruptions.
        """
        self._log.append({"kind": "stats", **stats})

    def record_seal(self, *, salvaged: bool = False) -> None:
        """Close the run with a seal covering every line written so far.

        Appended on clean exit (the journal stays resumable — records
        appended later simply leave it unsealed until the next clean exit
        seals it again, earlier seals included in the new stream hash).
        """
        self._log.seal(
            cells=self._cells, fingerprint=self._fingerprint, shard=self._shard,
            salvaged=salvaged,
        )
