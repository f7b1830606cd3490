"""Reference oracle: the journal writers before the shared sealed log.

:class:`SweepJournal`, :class:`DecisionJournal`, ``_write_sealed_lines``
and the ``_split_lines`` they read back with are the writers as they were
when each journal kept its own: each wrote its own file, and a resume
re-read the file it had just loaded to rebuild the stream hash.  They are
kept verbatim, so driving them and the writers on
:mod:`repro.utils.sealed_log` with the same records must write the same
bytes.  Two differences are intended.  Fail stop: this
:class:`SweepJournal` swallows a failed ``os.fsync``.  And a resume of a
file whose last record lost only its newline: these writers append the
next record onto that line.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import contextmanager
from typing import IO, TYPE_CHECKING, Any, Iterator

from repro.model.job import Job
from repro.serve.snapshotter import (
    _JSON,
    DECISION_LOG_VERSION,
    DecisionJournalError,
    DecisionLogState,
    _decision_line,
    load_decision_journal,
)
from repro.utils.sealed_log import make_seal
from repro.workloads.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalMismatchError,
    JournalState,
    load_journal,
    row_crc,
    row_to_payload,
    salvage_journal,
    spec_fingerprint,
)
from repro.workloads.sweep import SweepRow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.sweep import SweepSpec


def _split_lines(data: bytes) -> list[tuple[bytes, int]]:
    """(raw line, byte offset just past its newline), blank lines dropped."""
    lines: list[tuple[bytes, int]] = []
    pos = 0
    while pos < len(data):
        newline = data.find(b"\n", pos)
        end = len(data) if newline == -1 else newline + 1
        raw = data[pos:end]
        if raw.strip():
            lines.append((raw, end))
        pos = end
    return lines


def _write_sealed_lines(
    dest: str | os.PathLike[str],
    raw_lines: list[bytes],
    *,
    fingerprint: dict[str, Any],
    shard: tuple[int, int] | None,
    cells: int,
    salvaged: bool,
) -> None:
    """Write raw record lines plus a fresh covering seal, atomically."""
    dest = os.fspath(dest)
    hasher = hashlib.sha256()
    tmp = dest + ".tmp"
    with open(tmp, "wb") as fh:
        for raw in raw_lines:
            fh.write(raw)
            hasher.update(raw)
        seal = make_seal(
            stream_sha256=hasher.hexdigest(),
            records=len(raw_lines),
            cells=cells,
            fingerprint=fingerprint,
            shard=shard,
            salvaged=salvaged,
        )
        fh.write((json.dumps(seal, allow_nan=False) + "\n").encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, dest)


class SweepJournal:
    """Writer handle for an append-only sweep checkpoint journal.

    Use :meth:`create` for a fresh journal or :meth:`resume` to reopen an
    existing one (validating its fingerprint and recovering completed
    cells).  Records are flushed and fsync'd per append so that completed
    work survives a hard kill.  The writer keeps a running SHA-256 over
    everything it has written so :meth:`record_seal` can close a run with
    a verifiable seal.
    """

    def __init__(
        self,
        path: str,
        fh: IO[str],
        *,
        fingerprint: dict[str, Any] | None = None,
        shard: tuple[int, int] | None = None,
    ) -> None:
        self.path = path
        self._fh = fh
        self._fingerprint = fingerprint or {}
        self._shard = shard
        self._hasher = hashlib.sha256()
        self._records = 0
        self._cells = 0

    def _prime_from_disk(self) -> None:
        """Re-establish the running hash/counters from the file's bytes."""
        with open(self.path, "rb") as fh:
            data = fh.read()
        self._hasher = hashlib.sha256()
        self._records = 0
        self._cells = 0
        for raw, _ in _split_lines(data):
            self._hasher.update(raw)
            self._records += 1
            try:
                if json.loads(raw.decode("utf-8")).get("kind") == "cell":
                    self._cells += 1
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                pass  # salvage-mode leftovers; counted as records only

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
        try:
            fh = open(path, "x", encoding="utf-8")
        except FileExistsError:
            if os.path.getsize(path) > 0:
                raise JournalError(
                    f"{os.fspath(path)}: journal already exists; resume from it "
                    "(repro sweep --resume) or delete it explicitly to start over"
                ) from None
            fh = open(path, "w", encoding="utf-8")
        fingerprint = spec_fingerprint(spec)
        journal = cls(os.fspath(path), fh, fingerprint=fingerprint, shard=shard)
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "label": spec.label,
            "fingerprint": fingerprint,
        }
        if shard is not None:
            header["shard"] = {"index": int(shard[0]), "of": int(shard[1])}
        journal._append(header)
        return journal

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
        """
        state = load_journal(path, salvage=salvage)
        current = spec_fingerprint(spec)
        if state.fingerprint != current:
            diffs = [
                key
                for key in sorted(set(state.fingerprint) | set(current))
                if state.fingerprint.get(key) != current.get(key)
            ]
            raise JournalMismatchError(
                f"{os.fspath(path)}: journal was written for a different sweep "
                f"spec (mismatched fields: {', '.join(diffs)})"
            )
        wanted = (0, 1) if shard is None else (int(shard[0]), int(shard[1]))
        if state.shard != wanted:
            raise JournalError(
                f"{os.fspath(path)}: journal is stamped shard_index={state.shard[0]} "
                f"of n_shards={state.shard[1]}, but this run requests "
                f"shard_index={wanted[0]} of n_shards={wanted[1]}; resume a shard "
                "journal with the same --shards/--shard-index it was written with"
            )
        if salvage and state.corruption:
            # Rewrite the journal clean (atomic) before appending: corrupt
            # lines must not stay behind to poison every later strict load.
            salvage_journal(path)
        elif state.truncated_tail:
            with open(path, "r+b") as trunc:
                trunc.truncate(state.valid_bytes)
        fh = open(path, "a", encoding="utf-8")
        journal = cls(
            os.fspath(path),
            fh,
            fingerprint=state.fingerprint,
            shard=None if state.shard == (0, 1) else state.shard,
        )
        journal._prime_from_disk()
        return journal, state

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

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
        self._append(record)

    def record_failure(self, failure: dict[str, Any]) -> None:
        """Log a quarantined cell (observability; re-run on resume).

        The payload is nested under ``"failure"`` — it carries its own
        ``"kind"`` (crash/timeout/error/corrupt), which must not collide
        with the record-level ``"kind"`` the loader dispatches on.
        """
        self._append({"kind": "failure", "failure": dict(failure)})

    def record_stats(self, stats: dict[str, Any]) -> None:
        """Append a run-stats trailer (wall clock, counters, cache stats).

        One is written per run or resume cycle; the merge layer sums them
        per journal, so cumulative per-shard timing survives any number of
        interruptions.
        """
        self._append({"kind": "stats", **stats})

    def record_seal(self, *, salvaged: bool = False) -> None:
        """Close the run with a seal covering every line written so far.

        Appended on clean exit (the journal stays resumable — records
        appended later simply leave it unsealed until the next clean exit
        seals it again, earlier seals included in the new stream hash).
        """
        self._append(
            make_seal(
                stream_sha256=self._hasher.hexdigest(),
                records=self._records,
                cells=self._cells,
                fingerprint=self._fingerprint,
                shard=self._shard,
                salvaged=salvaged,
            )
        )

    def _append(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, allow_nan=False) + "\n"
        self._fh.write(line)
        self._fh.flush()
        self._hasher.update(line.encode("utf-8"))
        self._records += 1
        if record.get("kind") == "cell":
            self._cells += 1
        try:
            os.fsync(self._fh.fileno())
        except (OSError, ValueError, io.UnsupportedOperation):  # pragma: no cover
            pass  # non-seekable/mock sinks: flush is the best we can do


class DecisionJournal:
    """Writer handle for the append-only decision log.

    One :meth:`record_decision` per served request, durable before the
    reply is sent — once the client hears "committed", the decision
    survives a crash.  :meth:`group` makes a batch of decisions durable
    with one write, flush and fsync.  :meth:`seal` closes a clean
    shutdown with a verifiable SHA-256 seal (same shape as sweep-journal
    seals).
    """

    def __init__(self, path: str, fh: IO[str], service: dict[str, Any]) -> None:
        self.path = path
        self._fh = fh
        self.service = service
        import hashlib

        self._hasher = hashlib.sha256()
        self._records = 0
        self.decisions = 0
        #: Lines :meth:`record_decision` staged inside :meth:`group`.
        self._staged: list[str] | None = None
        #: The error of the commit that failed; every later write refuses.
        self._failed: OSError | None = None

    @classmethod
    def create(
        cls, path: str | os.PathLike[str], service: dict[str, Any]
    ) -> "DecisionJournal":
        """Start a fresh log; refuses to clobber an existing non-empty one."""
        try:
            fh = open(path, "x", encoding="utf-8")
        except FileExistsError:
            if os.path.getsize(path) > 0:
                raise DecisionJournalError(
                    f"{os.fspath(path)}: decision log already exists; resume "
                    "from it (repro serve --resume) or delete it explicitly"
                ) from None
            fh = open(path, "w", encoding="utf-8")
        journal = cls(os.fspath(path), fh, service)
        journal._append(
            {"kind": "header", "version": DECISION_LOG_VERSION, "service": service}
        )
        return journal

    @classmethod
    def resume(
        cls, path: str | os.PathLike[str], service: dict[str, Any]
    ) -> tuple["DecisionJournal", DecisionLogState]:
        """Reopen *path* for append, returning the recovered state.

        The service fingerprint must match the header (a log from a
        different algorithm/fleet must not be extended), and a truncated
        trailing line (hard kill mid-append) is chopped off before the
        file is reopened, exactly like the sweep journal's resume.
        """
        state = load_decision_journal(path)
        if state.service != service:
            diffs = [
                key
                for key in sorted(set(state.service) | set(service))
                if state.service.get(key) != service.get(key)
            ]
            raise DecisionJournalError(
                f"{os.fspath(path)}: decision log was written by a different "
                f"service (mismatched fields: {', '.join(diffs)})"
            )
        if state.truncated_tail:
            with open(path, "r+b") as trunc:
                trunc.truncate(state.valid_bytes)
        fh = open(path, "a", encoding="utf-8")
        journal = cls(os.fspath(path), fh, service)
        journal._prime_from_disk()
        return journal, state

    def _prime_from_disk(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        for raw, _ in _split_lines(data):
            self._hasher.update(raw)
            self._records += 1
            try:
                if json.loads(raw.decode("utf-8")).get("kind") == "decision":
                    self.decisions += 1
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                pass

    def record_decision(self, seq: int, job: Job, decision: Any) -> None:
        """Append one served decision.

        The line is built straight from *job* and *decision*, each number
        formatted once, byte for byte what ``json.dumps`` writes for the
        record of :func:`~repro.engine.controller.job_to_payload` and
        :func:`~repro.engine.controller.decision_to_payload`.
        Outside :meth:`group` the record is written, flushed and fsync'd
        before this returns.  Inside it the record is staged, and it is
        durable once the group has committed.
        """
        line = _decision_line(
            seq,
            (job.release, job.processing, job.deadline, job.weight),
            (bool(decision.accepted), decision.machine, decision.start),
        )
        if self._staged is None:
            self._commit([line])
        else:
            self._staged.append(line)
        self.decisions += 1

    @contextmanager
    def group(self) -> Iterator[None]:
        """Commit every decision recorded in the block together on exit.

        The staged records go out with one write, one flush and one fsync,
        byte for byte the lines one commit per record would have written.
        They are committed even when the block raises: the session has
        made those decisions, so the log must hold them to stay its exact
        replay.  A caller must not acknowledge any of them before the
        block has exited without error.
        """
        if self._staged is not None:
            raise RuntimeError("decision-journal groups do not nest")
        self._staged = []
        try:
            yield
        finally:
            staged, self._staged = self._staged, None
            if staged:
                self._commit(staged)

    def seal(self) -> None:
        """Close a clean shutdown with a covering seal (stays resumable)."""
        self._append(
            make_seal(
                stream_sha256=self._hasher.hexdigest(),
                records=self._records,
                cells=self.decisions,
                fingerprint=self.service,
            )
        )

    def close(self) -> None:
        if not self._fh.closed:
            try:
                self._fh.close()
            except OSError:
                # Closing re-flushes what a failed commit left buffered.
                if self._failed is None:
                    raise

    def _append(self, record: dict[str, Any]) -> None:
        self._commit([_JSON.encode(record) + "\n"])

    def _commit(self, lines: list[str]) -> None:
        """Write, flush and fsync *lines*; fail stop on any error.

        After a failed fsync a later one can succeed although the dirty
        pages were lost, so the journal refuses every write after the
        first failure instead of retrying.
        """
        if self._failed is not None:
            raise DecisionJournalError(
                f"{self.path}: decision log failed earlier ({self._failed}); "
                "refusing to write"
            )
        data = "".join(lines)
        try:
            self._fh.write(data)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._failed = exc
            raise DecisionJournalError(
                f"{self.path}: decision log commit failed: {exc}"
            ) from exc
        self._hasher.update(data.encode("utf-8"))
        self._records += len(lines)
