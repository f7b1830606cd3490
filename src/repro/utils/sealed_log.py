"""Append-only sealed JSONL log: the file discipline under every journal.

The sweep checkpoint journal (:mod:`repro.workloads.journal`), its merged
form (:mod:`repro.workloads.sharding`) and the served decision log
(:mod:`repro.serve.snapshotter`) are record formats on this one file
layer, which imports only the standard library:

* **One record per line.**  Each record is one JSON object on one line;
  blank lines are skipped.  A hard kill can at worst tear the *last*
  line: :class:`LogReader` stops before an undecodable last line and
  reports it (``truncated_tail``, ``valid_bytes``), and
  :meth:`LogWriter.reopen` cuts it off before appending, so repeated
  kill/resume cycles never glue a record onto a fragment.
* **A running SHA-256 over the byte stream.**  A seal record carries the
  hash of every line before it.  While the reader hands out a line, its
  hash covers exactly the earlier lines, which is what a seal on that
  line must match; the writer's hash covers what it has committed.
* **One commit path, fail stop.**  Every commit is one write, one flush
  and one ``os.fsync``; inside :meth:`LogWriter.group` the staged lines
  are one commit.  After a failed fsync a later one can succeed although
  the dirty pages were lost, so a writer whose commit failed refuses
  every later write instead of retrying, and raises its owner's error.
* **Atomic rewrites.**  :func:`rewrite` writes record lines and a
  covering seal to a temporary file, fsyncs it and moves it over the
  destination with ``os.replace``.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Any, BinaryIO, Iterable, Iterator

#: Encoder built once (``json.dumps`` with options builds one per call).
_JSON = json.JSONEncoder(allow_nan=False)


def split_lines(data: bytes) -> list[tuple[bytes, int]]:
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


def record_line(record: dict[str, Any]) -> str:
    """*record* as one log line: ``json.dumps(record, allow_nan=False)``."""
    return _JSON.encode(record) + "\n"


def fingerprint_sha256(fingerprint: dict[str, Any]) -> str:
    """Canonical digest of a log's fingerprint (stored inside seals)."""
    blob = json.dumps(fingerprint, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fingerprint_diff(stored: dict[str, Any], current: dict[str, Any]) -> str:
    """The keys on which two fingerprints differ, comma-separated."""
    keys = sorted(set(stored) | set(current))
    return ", ".join(k for k in keys if stored.get(k) != current.get(k))


def make_seal(
    *,
    stream_sha256: str,
    records: int,
    cells: int,
    fingerprint: dict[str, Any],
    shard: tuple[int, int] | None = None,
    salvaged: bool = False,
) -> dict[str, Any]:
    """Build a seal record covering *records* preceding lines."""
    seal: dict[str, Any] = {
        "kind": "seal",
        "algo": "sha256",
        "stream_sha256": stream_sha256,
        "records": int(records),
        "cells": int(cells),
        "fingerprint_sha256": fingerprint_sha256(fingerprint),
        "salvaged": bool(salvaged),
    }
    if shard is not None:
        seal["shard"] = {"index": int(shard[0]), "of": int(shard[1])}
    return seal


class LogReader:
    """One pass over a log file, line by line.

    Iterating yields ``(index, raw line, record)``, where *record* is the
    decoded JSON object, or ``None`` for a line that does not decode (its
    error is in :attr:`error`).  An undecodable *last* line is a torn
    write: the pass stops before it and sets :attr:`truncated_tail`.
    After a line has been handled, :attr:`hasher` and :attr:`valid_bytes`
    cover it, so while a line is handled they cover every earlier line.
    A seal on the last line covers the file only if
    :attr:`ends_with_newline`: a last line that lost its newline was cut.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            #: The non-blank lines, each with the offset just past it.
            self.lines = split_lines(fh.read())
        #: Whether the last line ends with its newline.
        self.ends_with_newline = not self.lines or self.lines[-1][0].endswith(b"\n")
        self.hasher = hashlib.sha256()
        #: Byte offset of the end of the last handled line.
        self.valid_bytes = 0
        self.truncated_tail = False
        #: Why the current line did not decode.
        self.error: ValueError | None = None

    def __iter__(self) -> Iterator[tuple[int, bytes, dict[str, Any] | None]]:
        last = len(self.lines) - 1
        for i, (raw, end) in enumerate(self.lines):
            try:
                record = json.loads(raw.decode("utf-8"))
                if not isinstance(record, dict):
                    raise ValueError("record is not a JSON object")
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                if i == last:
                    self.truncated_tail = True  # hard kill mid-append
                    return
                record, self.error = None, exc
            yield i, raw, record
            self.hasher.update(raw)
            self.valid_bytes = end


class LogWriter:
    """Append handle on a log file; every commit is durable or fails stop.

    :meth:`create` starts a log and :meth:`reopen` continues one a
    :class:`LogReader` has read.  A failed commit raises *error* (the
    owner's exception type) as ``"<path>: <name> commit failed: …"``, and
    every later write raises ``"… failed earlier …"``.
    """

    def __init__(
        self,
        path: str,
        fh: BinaryIO,
        error: type[Exception],
        name: str,
        *,
        hasher: Any = None,
        records: int = 0,
    ) -> None:
        self.path = path
        self._fh = fh
        self._error = error
        self._name = name
        self._hasher = hashlib.sha256() if hasher is None else hasher
        #: Lines committed to the file, from its first line on.
        self.records = records
        #: Lines :meth:`write` staged inside :meth:`group`.
        self._staged: list[str] | None = None
        #: The error of the commit that failed; every later write refuses.
        self._failed: OSError | None = None

    @classmethod
    def create(
        cls,
        path: str | os.PathLike[str],
        header: dict[str, Any],
        error: type[Exception],
        name: str,
        exists: str,
    ) -> "LogWriter":
        """Start a log with its *header* record; never clobbers data.

        An existing non-empty file raises *error* as ``"<path>: <name>
        already exists; <exists>"``.
        """
        path = os.fspath(path)
        try:
            fh = open(path, "xb")
        except FileExistsError:
            if os.path.getsize(path) > 0:
                raise error(f"{path}: {name} already exists; {exists}") from None
            fh = open(path, "wb")
        log = cls(path, fh, error, name)
        try:
            log.append(header)
        except BaseException:
            log.close()
            raise
        return log

    @classmethod
    def reopen(
        cls, reader: LogReader, error: type[Exception], name: str
    ) -> "LogWriter":
        """Append to the file *reader* has read to its end.

        The torn tail is cut off first, and the hash and record count
        continue from the reader's.  A last line that lost only its
        newline is completed, so the next record starts a line of its own.
        """
        records = len(reader.lines)
        if reader.truncated_tail:
            records -= 1
            with open(reader.path, "r+b") as fh:
                fh.truncate(reader.valid_bytes)
        log = cls(
            reader.path, open(reader.path, "ab"), error, name,
            hasher=reader.hasher.copy(), records=records,
        )
        if not (reader.truncated_tail or reader.ends_with_newline):
            log._commit(b"\n", 0)
        return log

    def append(self, record: dict[str, Any]) -> None:
        """Write one record as its :func:`record_line`."""
        self.write(record_line(record))

    def write(self, line: str) -> None:
        """Commit one newline-terminated line, or stage it inside :meth:`group`."""
        if self._staged is None:
            self._commit(line.encode("utf-8"), 1)
        else:
            self._staged.append(line)

    @contextmanager
    def group(self) -> Iterator[None]:
        """Commit every line written in the block together on exit.

        The staged lines go out with one write, one flush and one fsync,
        byte for byte what one commit per line would have written.  They
        are committed even when the block raises.
        """
        if self._staged is not None:
            raise RuntimeError(f"{self._name} groups do not nest")
        self._staged = []
        try:
            yield
        finally:
            staged, self._staged = self._staged, None
            if staged:
                self._commit("".join(staged).encode("utf-8"), len(staged))

    def seal(self, **fields: Any) -> None:
        """Append a seal covering every committed line (outside a group).

        *fields* are :func:`make_seal`'s ``cells``, ``fingerprint``,
        ``shard`` and ``salvaged``.
        """
        self.append(
            make_seal(stream_sha256=self._hasher.hexdigest(), records=self.records, **fields)
        )

    def close(self) -> None:
        if not self._fh.closed:
            try:
                self._fh.close()
            except OSError:
                # Closing re-flushes what a failed commit left buffered.
                if self._failed is None:
                    raise

    def _commit(self, data: bytes, lines: int) -> None:
        """Write, flush and fsync *data*; fail stop on any error."""
        if self._failed is not None:
            raise self._error(
                f"{self.path}: {self._name} failed earlier ({self._failed}); "
                "refusing to write"
            )
        try:
            self._fh.write(data)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._failed = exc
            raise self._error(
                f"{self.path}: {self._name} commit failed: {exc}"
            ) from exc
        self._hasher.update(data)
        self.records += lines


def rewrite(
    dest: str | os.PathLike[str],
    lines: Iterable[str],
    error: type[Exception],
    name: str,
    **seal: Any,
) -> LogWriter:
    """Replace *dest* atomically with *lines* and a covering seal.

    The lines and the seal (*seal* as :meth:`LogWriter.seal` takes it) are
    committed to ``dest + ".tmp"``, which then moves over *dest*.
    Returns the writer, still open at the end of the new file.
    """
    dest = os.fspath(dest)
    tmp = dest + ".tmp"
    log = LogWriter(tmp, open(tmp, "wb"), error, name)
    try:
        with log.group():
            for line in lines:
                log.write(line)
        log.seal(**seal)
        os.replace(tmp, dest)
    except BaseException:
        log.close()
        raise
    log.path = dest
    return log
