"""Durable decision log: crash recovery on the sealed append-only log.

Every decision the server makes is appended to an append-only JSONL
journal *before* its reply leaves the process.  The file is a
:mod:`repro.utils.sealed_log`, the same log the sweep checkpoint journal
is written on: one self-contained record per line with a content CRC, a
fingerprinted header binding the log to its service configuration, and a
SHA-256 seal record on clean shutdown.  A record is written, flushed and
fsync'd as it is appended, or, inside :meth:`DecisionJournal.group`,
together with every other record of the group in one write, one flush
and one fsync (group commit: the server answers a whole socket read that
way).  A failed commit is never swallowed: the journal refuses every
later write, so no decision that may have missed the disk is ever
acknowledged.  The log is simultaneously:

* the **snapshot** — deterministic policies rebuild their exact state by
  replaying the logged jobs (``repro serve --resume``), and resume
  *verifies* every replayed decision against the record, so a recovered
  server cannot silently fork its history;
* the **served request log** — :func:`verify_decision_log` replays it
  through the offline batch engine (:func:`repro.engine.simulator.simulate`)
  and asserts bit-identical decisions, the contract CI enforces.

Record shapes::

    {"kind": "header", "version": 1, "service": {...}}
    {"kind": "decision", "seq": 0, "job": [r, p, d, w],
     "dec": [accepted, machine, start], "crc": "9a0b1c2d"}
    {"kind": "seal", ...}                      # utils.sealed_log.make_seal
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, ContextManager, Sequence

from repro.engine.controller import (
    AdmissionController,
    decision_to_payload,
    job_from_payload,
    open_session,
)
from repro.model.instance import Instance
from repro.model.job import Job
from repro.utils.sealed_log import (
    LogReader,
    LogWriter,
    fingerprint_diff,
    fingerprint_sha256,
)

#: Decision-log format version; bumped on incompatible record changes.
DECISION_LOG_VERSION = 1


class DecisionJournalError(RuntimeError):
    """A decision log is unreadable, corrupt or belongs to another service."""


def service_fingerprint(
    algorithm: str,
    machines: int,
    epsilon: float,
    kwargs: dict[str, Any] | None = None,
    name: str = "",
) -> dict[str, Any]:
    """Structural identity of a service (what the log's header binds to)."""
    return {
        "algorithm": algorithm,
        "machines": int(machines),
        "epsilon": float(epsilon),
        "kwargs": dict(kwargs or {}),
        "name": name,
    }


#: Encoders built once (``json.dumps`` with options builds one per call).
_JSON = json.JSONEncoder(allow_nan=False)
_COMPACT_JSON = json.JSONEncoder(allow_nan=False, separators=(",", ":"))


def decision_crc(seq: int, job: list[Any], dec: list[Any]) -> str:
    """8-hex-digit content CRC of one decision record."""
    return _crc32_hex(_COMPACT_JSON.encode([int(seq), job, dec]))


def _crc32_hex(blob: str) -> str:
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


_FLOAT_REPR = float.__repr__
_INT_REPR = int.__repr__
_isfinite = math.isfinite


def _json_items(values: Sequence[Any]) -> list[str]:
    """Each of *values* as ``json`` writes it in a list.

    ``float.__repr__`` for any finite float (a NumPy scalar included, whose
    ``repr`` would not do), ``int.__repr__``, ``true``/``false``/``null``.
    Anything else goes through the encoder, which raises what ``json``
    raises: ``ValueError`` for a non-finite float, ``TypeError`` for a
    type it cannot encode.
    """
    items = []
    for value in values:
        if isinstance(value, float) and _isfinite(value):
            items.append(_FLOAT_REPR(value))
        elif value is None:
            items.append("null")
        elif value is True:
            items.append("true")
        elif value is False:
            items.append("false")
        elif isinstance(value, int):
            items.append(_INT_REPR(value))
        else:
            items.append(_JSON.encode(value))
    return items


def _decision_line(seq: int, job: Sequence[Any], dec: Sequence[Any]) -> str:
    """The log line of one decision record, newline included.

    The bytes ``json.dumps`` writes for the record ``{"kind": "decision",
    "seq", "job": list(job), "dec": list(dec), "crc"}``.  Each number is
    formatted once and spliced into both the line and its CRC blob.
    """
    seq = int(seq)
    job_items, dec_items = _json_items(job), _json_items(dec)
    compact = f"[{seq},[{','.join(job_items)}],[{','.join(dec_items)}]]"
    return (
        f'{{"kind": "decision", "seq": {seq}, "job": [{", ".join(job_items)}], '
        f'"dec": [{", ".join(dec_items)}], "crc": "{_crc32_hex(compact)}"}}\n'
    )


@dataclass
class DecisionLogState:
    """Everything :func:`load_decision_journal` recovers from disk."""

    service: dict[str, Any]
    #: job payloads in submission order (see ``job_to_payload``).
    jobs: list[list[Any]] = field(default_factory=list)
    #: decision payloads, aligned with ``jobs``.
    decisions: list[list[Any]] = field(default_factory=list)
    truncated_tail: bool = False
    valid_bytes: int = 0
    sealed: bool = False

    def instance(self) -> Instance:
        """The served request log as an offline :class:`Instance`."""
        return Instance(
            [job_from_payload(p) for p in self.jobs],
            machines=int(self.service["machines"]),
            epsilon=float(self.service["epsilon"]),
            name=self.service.get("name", ""),
        )

    def restore_session(self, *, verify: bool = True) -> AdmissionController:
        """Rebuild the live session by deterministic replay of the log."""
        snapshot = {
            "version": 1,
            "algorithm": self.service["algorithm"],
            "kwargs": dict(self.service.get("kwargs", {})),
            "machines": int(self.service["machines"]),
            "epsilon": float(self.service["epsilon"]),
            "name": self.service.get("name", ""),
            "jobs": self.jobs,
            "decisions": self.decisions,
        }
        return AdmissionController.restore(snapshot, verify=verify)


def load_decision_journal(path: str | os.PathLike[str]) -> DecisionLogState:
    """Read a decision log back; tolerates one truncated trailing line.

    A mid-file corruption (CRC mismatch, undecodable record) raises
    :class:`DecisionJournalError` — unlike sweep cells, decisions are an
    *ordered* history, so a hole cannot simply be recomputed around.
    """
    return _read_decisions(LogReader(path))


def _read_decisions(reader: LogReader) -> DecisionLogState:
    """One pass of *reader* over a decision log (see :func:`load_decision_journal`)."""
    path = reader.path
    if not reader.lines:
        raise DecisionJournalError(f"{path}: decision log is empty")
    state: DecisionLogState | None = None
    sealed = False
    for i, _, record in reader:
        if record is None:
            raise DecisionJournalError(
                f"{path}: corrupt decision record on line {i + 1}: {reader.error}"
            ) from reader.error
        kind = record.get("kind")
        if kind == "header":
            if record.get("version") != DECISION_LOG_VERSION:
                raise DecisionJournalError(
                    f"{path}: decision-log version {record.get('version')!r} "
                    f"is not supported (expected {DECISION_LOG_VERSION})"
                )
            state = DecisionLogState(service=record["service"])
        elif kind == "decision":
            if state is None:
                raise DecisionJournalError(f"{path}: decision before header")
            try:
                seq = int(record["seq"])
                job = list(record["job"])
                dec = list(record["dec"])
                crc = record["crc"]
            except (KeyError, TypeError, ValueError) as exc:
                raise DecisionJournalError(
                    f"{path}: malformed decision record on line {i + 1}: {exc}"
                ) from exc
            if seq != len(state.jobs):
                raise DecisionJournalError(
                    f"{path}: decision sequence broken on line {i + 1}: "
                    f"got seq {seq}, expected {len(state.jobs)}"
                )
            if crc != decision_crc(seq, job, dec):
                raise DecisionJournalError(
                    f"{path}: decision CRC mismatch on line {i + 1} (seq {seq}) "
                    "— the log's bytes were altered after writing"
                )
            state.jobs.append(job)
            state.decisions.append(dec)
            sealed = False
        elif kind == "seal":
            if state is None:
                raise DecisionJournalError(f"{path}: seal precedes the header")
            problems = []
            if record.get("stream_sha256") != reader.hasher.hexdigest():
                problems.append("stream hash mismatch")
            if record.get("fingerprint_sha256") != fingerprint_sha256(
                state.service
            ):
                problems.append("fingerprint digest mismatch")
            if problems:
                raise DecisionJournalError(
                    f"{path}: seal verification failed on line {i + 1}: "
                    + "; ".join(problems)
                )
            sealed = i == len(reader.lines) - 1 and reader.ends_with_newline
        else:
            raise DecisionJournalError(
                f"{path}: unknown decision-log record kind {kind!r}"
            )
    if state is None:
        raise DecisionJournalError(f"{path}: decision log has no header record")
    state.truncated_tail = reader.truncated_tail
    state.valid_bytes = reader.valid_bytes
    state.sealed = sealed
    return state


class DecisionJournal:
    """Writer handle for the append-only decision log.

    One :meth:`record_decision` per served request, durable before the
    reply is sent — once the client hears "committed", the decision
    survives a crash.  :meth:`group` makes a batch of decisions durable
    with one write, flush and fsync.  :meth:`seal` closes a clean
    shutdown with a verifiable SHA-256 seal (same shape as sweep-journal
    seals).  A failed commit raises :class:`DecisionJournalError` and
    every later write refuses.
    """

    def __init__(
        self, log: LogWriter, service: dict[str, Any], decisions: int = 0
    ) -> None:
        self._log = log
        self.path = log.path
        self.service = service
        #: Decision records in the file (the seal's ``cells``).
        self.decisions = decisions

    @classmethod
    def create(
        cls, path: str | os.PathLike[str], service: dict[str, Any]
    ) -> "DecisionJournal":
        """Start a fresh log; refuses to clobber an existing non-empty one."""
        log = LogWriter.create(
            path,
            {"kind": "header", "version": DECISION_LOG_VERSION, "service": service},
            DecisionJournalError,
            "decision log",
            "resume from it (repro serve --resume) or delete it explicitly",
        )
        return cls(log, service)

    @classmethod
    def resume(
        cls, path: str | os.PathLike[str], service: dict[str, Any]
    ) -> tuple["DecisionJournal", DecisionLogState]:
        """Reopen *path* for append, returning the recovered state.

        The service fingerprint must match the header (a log from a
        different algorithm/fleet must not be extended), and a truncated
        trailing line (hard kill mid-append) is chopped off before the
        file is reopened, exactly like the sweep journal's resume.  The
        file is read once: the writer continues the load's stream hash.
        """
        reader = LogReader(path)
        state = _read_decisions(reader)
        if state.service != service:
            raise DecisionJournalError(
                f"{reader.path}: decision log was written by a different "
                f"service (mismatched fields: {fingerprint_diff(state.service, service)})"
            )
        log = LogWriter.reopen(reader, DecisionJournalError, "decision log")
        return cls(log, service, len(state.decisions)), state

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
        self._log.write(
            _decision_line(
                seq,
                (job.release, job.processing, job.deadline, job.weight),
                (bool(decision.accepted), decision.machine, decision.start),
            )
        )
        self.decisions += 1

    def group(self) -> ContextManager[None]:
        """Commit every decision recorded in the block together on exit.

        The staged records go out with one write, one flush and one fsync,
        byte for byte the lines one commit per record would have written.
        They are committed even when the block raises: the session has
        made those decisions, so the log must hold them to stay its exact
        replay.  A caller must not acknowledge any of them before the
        block has exited without error.
        """
        return self._log.group()

    def seal(self) -> None:
        """Close a clean shutdown with a covering seal (stays resumable)."""
        self._log.seal(cells=self.decisions, fingerprint=self.service)

    def close(self) -> None:
        self._log.close()


# ---------------------------------------------------------------------------
# offline replay: the bit-identity contract
# ---------------------------------------------------------------------------


def replay_decision_log(path: str | os.PathLike[str]) -> Any:
    """Replay a served log through the *batch* engine, returning the schedule.

    Builds the offline :class:`Instance` from the logged jobs and runs the
    logged algorithm through :func:`repro.engine.simulator.simulate` — the
    run-to-completion path every sweep and benchmark uses.
    """
    from repro.baselines.registry import make_algorithm
    from repro.engine.simulator import simulate

    state = load_decision_journal(path)
    policy = make_algorithm(
        state.service["algorithm"], **state.service.get("kwargs", {})
    )
    return simulate(policy, state.instance())


def verify_decision_log(path: str | os.PathLike[str]) -> tuple[bool, str]:
    """Check that the served log replays bit-identical through ``simulate``.

    Returns ``(ok, detail)``: every served decision must equal — as exact
    floats — the decision the offline batch engine makes for the same job
    sequence.  This is the acceptance gate CI runs against the serve smoke
    log.
    """
    state = load_decision_journal(path)
    schedule = replay_decision_log(path)
    offline = [
        decision_to_payload(record.decision)
        for record in schedule.meta["trace"]
    ]
    if len(offline) != len(state.decisions):
        return False, (
            f"decision count mismatch: served {len(state.decisions)}, "
            f"offline replay {len(offline)}"
        )
    for i, (served, replayed) in enumerate(zip(state.decisions, offline)):
        if served != replayed:
            return False, (
                f"decision {i} diverged: served {served}, offline {replayed}"
            )
    return True, (
        f"{len(offline)} served decision(s) replay bit-identical through "
        "the batch engine"
    )
