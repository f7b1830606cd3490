"""The sweep lease loop: one scheduler for every multiprocess sweep.

The controller serves cells from one
:class:`~repro.workloads.elastic.CellQueue` to worker *links* of two
kinds, both running :func:`repro.workloads.remote_worker.main` over the
same wire protocol:

* a **local link** is a worker process forked through
  :mod:`multiprocessing`, so it inherits the imported stack, the shared
  bracket cache and the after-fork hooks.  Its failure domain is the
  worker *slot*: respawned, then quarantined as a
  :class:`~repro.workloads.resilient.WorkerFailure`.  A local link that
  misses heartbeats is killed.
* a **remote link** is a worker launched by a ``hosts.json`` command
  (ssh, a container exec, or a plain subprocess in tests).  Its failure
  domain is the whole *host*, quarantined as a
  :class:`~repro.workloads.resilient.HostFailure`.  A remote link that
  misses heartbeats is left running, so a healed partition can still
  deliver.

The moving parts:

* **Host registry** — ``hosts.json`` (:func:`load_hosts`) names each
  host, its launch command (a ``{python}``-templated transport spec, ssh
  or otherwise), its worker slot count, and optionally a pinned code
  fingerprint.
* **Launch handshake** — a worker's first message is ``hello`` carrying
  its :func:`env_fingerprint` (code tree hash, python, numpy, protocol
  version).  The controller verifies it against its own (or the
  registry's pinned value) before any lease is granted; a mismatched
  host is rejected and quarantined — distributed determinism starts with
  refusing to run divergent code.
* **Wire protocol** — NDJSON framing reused from
  :mod:`repro.serve.protocol`, one message per line, each carrying a
  per-message CRC and a per-channel sequence number.  Duplicate delivery
  (a retransmit) is detected by sequence and deduped rather than
  double-charged; a CRC mismatch is loud.
* **Failure accounting** — a cell fault (``nack``, corrupt rows, hard
  timeout) spends the cell's retry budget.  A worker death re-queues the
  cell charge-free but counts the death (``retries + 1`` deaths
  quarantine the cell as ``crash``) and charges the link's domain.
  Lease expiry re-queues charge-free.  A **partitioned host** just goes
  quiet: its leases expire and re-dispatch with *no* host charge, and if
  the partition heals the stale result is deduped first-verified-wins
  and asserted bit-identical.  A **slow host** keeps heartbeating and
  keeps its leases.
* **Group leases** — with a batching backend and no fault injection, one
  lease carries up to :data:`_GROUP_CELLS` fresh cells (a fair share of
  the queue) so the batch kernel amortises across them; group leases
  are not speculated.  A group that fails is demoted to independent
  per-cell attempts, so retry semantics stay per-cell.
* **Graceful degradation** — when every remote host is quarantined the
  sweep finishes on local links (``manifest.degraded_to_local``); with
  ``local_fallback=False`` the remaining cells are quarantined instead
  (kind ``"host"``).
* **No threads, no polling** — the controller blocks in one
  :func:`multiprocessing.connection.wait` over every link's read end,
  with the nearest lease, handshake or heal deadline as the timeout.  It
  holds no thread of its own, so forking a local link mid-sweep (a
  respawn, the local fallback) is safe.

Rows land through the journal with host/transport provenance *outside*
the row CRC, so ``merge_journals``, ``repro verify`` and resume are
unchanged — a chaotic run merges bit-identical to the serial scalar run
(benches E26, E28).  Network chaos
(:class:`repro.testing.chaos.HostChaosPlan`) is applied controller-side
on the inbound path via :class:`HostLink`, a pure state machine
(explicit ``now``) so partition/heal/dedup interleavings are
property-testable without processes.
"""

from __future__ import annotations

import base64
import hashlib
import json
import multiprocessing as mp
import os
import pickle
import platform
import shlex
import signal
import subprocess
import sys
import time
import zlib
from collections.abc import Hashable
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing.connection import wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.offline.cache import BracketCache, CacheStats
from repro.serve.protocol import encode_line
from repro.workloads import resilient
from repro.workloads.elastic import LEASE_TIMEOUT_BEATS, CellQueue, Lease, _AdaptiveReps
from repro.workloads.journal import row_from_payload
from repro.workloads.resilient import (
    _KILL_GRACE,
    CellFailure,
    FailureManifest,
    HostFailure,
    ResilientSweepResult,
    SweepInterrupted,
    WorkerFailure,
    _assemble,
    _terminate,
    _terminate_all,
    check_seed_collisions,
    prepare_journal,
    validate_sweep_pickles,
)
from repro.workloads.sweep import SweepRow, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testing.chaos import HostChaosPlan
    from repro.workloads.execute import ExecutionPolicy

#: Version of the lease-over-the-wire protocol (part of the handshake).
REMOTE_PROTOCOL_VERSION = 1

#: Wire operations.  Controller -> worker: ``init``, ``reject``,
#: ``lease``, ``stop``.  Worker -> controller: ``hello``, ``ready``,
#: ``heartbeat``, ``result``, ``nack``.
REMOTE_OPS = (
    "hello",
    "init",
    "reject",
    "ready",
    "lease",
    "heartbeat",
    "result",
    "nack",
    "stop",
)

#: Default launch command: a worker on the local machine.  Real hosts
#: prefix it with their transport, e.g.
#: ``"ssh worker-3 {python} -m repro.workloads.remote_worker"``.
DEFAULT_WORKER_COMMAND = "{python} -m repro.workloads.remote_worker"

#: Registry name of the host owning the local links of a sweep without hosts.
LOCAL_HOST = "local"

#: Registry name of the synthesized local-fallback host.
LOCAL_FALLBACK_HOST = "local-fallback"

#: ``scheduler`` value of the journal stats trailer (older journals carry
#: ``static``, ``elastic`` or ``elastic-remote``).
SCHEDULER = "lease"

#: Cells per group lease when the backend batches and no fault injection
#: is active: the batch kernel amortises its setup across them.
_GROUP_CELLS = 8

#: Seconds idle links get to exit after ``stop`` before they are killed.
_STOP_GRACE = 1.0


class RemoteProtocolError(ValueError):
    """A wire message violates the remote protocol (op, CRC, shape)."""


# ---------------------------------------------------------------------------
# wire codec: NDJSON lines (serve framing) + per-message CRC + sequence
# ---------------------------------------------------------------------------


def message_crc(message: Mapping[str, Any]) -> str:
    """8-hex-digit CRC over the canonical JSON of *message* minus ``crc``.

    Canonical = sorted keys, compact separators — stable under field
    reordering, so both endpoints compute the same digest.
    """
    body = {key: value for key, value in message.items() if key != "crc"}
    blob = json.dumps(body, allow_nan=True, separators=(",", ":"), sort_keys=True)
    return format(zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF, "08x")


def encode_message(op: str, seq: int, **fields: Any) -> bytes:
    """Frame one wire message: op + sequence number + CRC, one JSON line."""
    if op not in REMOTE_OPS:
        raise RemoteProtocolError(f"unknown op {op!r}")
    message: dict[str, Any] = {"op": op, "seq": int(seq), **fields}
    message["crc"] = message_crc(message)
    try:
        return encode_line(message)
    except ValueError:
        # Injected 'corrupt' chaos rows carry non-finite floats; they
        # must survive the wire so the controller can classify them.
        return (json.dumps(message, allow_nan=True) + "\n").encode("utf-8")


def decode_message(raw: bytes | str) -> dict[str, Any]:
    """Parse + verify one wire line; raises :class:`RemoteProtocolError`."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RemoteProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        message = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise RemoteProtocolError(f"message is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise RemoteProtocolError("message must be a JSON object")
    op = message.get("op")
    if op not in REMOTE_OPS:
        raise RemoteProtocolError(f"unknown op {op!r}; expected one of {list(REMOTE_OPS)}")
    if not isinstance(message.get("seq"), int):
        raise RemoteProtocolError(f"{op}: missing integer seq")
    crc = message.get("crc")
    expected = message_crc(message)
    if crc != expected:
        raise RemoteProtocolError(
            f"{op} seq={message['seq']}: CRC mismatch (got {crc!r}, expected {expected})"
        )
    return message


# ---------------------------------------------------------------------------
# environment fingerprint (the handshake's determinism gate)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Short hash of the installed ``repro`` package source tree.

    Two hosts with equal fingerprints run byte-identical code; the
    handshake refuses hosts where they differ, because a silently
    divergent checkout is the one failure bit-identity checks cannot
    localise after the fact.
    """
    root = Path(__file__).resolve().parent.parent  # the repro package
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_fingerprint() -> dict[str, Any]:
    """What a worker announces in ``hello`` and a controller verifies."""
    import numpy

    return {
        "code": code_fingerprint(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "protocol": REMOTE_PROTOCOL_VERSION,
    }


def fingerprint_mismatch(
    expected: Mapping[str, Any], actual: Mapping[str, Any]
) -> str | None:
    """First differing handshake field, or ``None`` when compatible."""
    for key in ("protocol", "code", "python", "numpy"):
        if expected.get(key) != actual.get(key):
            return f"{key}: controller has {expected.get(key)!r}, host has {actual.get(key)!r}"
    return None


# ---------------------------------------------------------------------------
# host registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostSpec:
    """One entry of the host registry (``hosts.json``)."""

    name: str
    #: Launch command template; ``{python}`` expands to the controller's
    #: interpreter.  The command must start a
    #: :mod:`repro.workloads.remote_worker` speaking the wire protocol
    #: on its stdio — everything in front of it is the transport.
    command: str = DEFAULT_WORKER_COMMAND
    #: Concurrent worker processes launched on this host.
    slots: int = 1
    #: Optional pinned ``code`` fingerprint; when set, the host must
    #: announce exactly this value (instead of matching the controller).
    fingerprint: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.slots < 1:
            raise ValueError(f"host {self.name!r}: slots must be >= 1, got {self.slots}")
        if not self.command.strip():
            raise ValueError(f"host {self.name!r}: empty launch command")

    def argv(self) -> list[str]:
        """The resolved launch argv for this host's workers."""
        return shlex.split(self.command.format(python=sys.executable))


def load_hosts(path: str | os.PathLike[str]) -> tuple[HostSpec, ...]:
    """Parse a ``hosts.json`` registry into :class:`HostSpec` entries.

    Accepts either a bare JSON list of host objects or an object with a
    ``"hosts"`` list.  Unknown keys are rejected — a typoed ``slots``
    must not silently launch one worker.
    """
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("hosts")
    if not isinstance(data, list) or not data:
        raise ValueError(f"{path}: expected a non-empty list of hosts")
    allowed = {"name", "command", "slots", "fingerprint"}
    specs = []
    for entry in data:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: host entries must be objects, got {entry!r}")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(f"{path}: unknown host keys {sorted(unknown)}")
        if "name" not in entry:
            raise ValueError(f"{path}: every host needs a name")
        specs.append(HostSpec(**entry))
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate host names in registry")
    return tuple(specs)


def resolve_hosts(
    hosts: str | os.PathLike[str] | tuple[HostSpec, ...] | list[HostSpec],
) -> tuple[HostSpec, ...]:
    """Normalise a policy's ``hosts`` field into :class:`HostSpec` entries."""
    if isinstance(hosts, (str, os.PathLike)):
        return load_hosts(hosts)
    specs = tuple(hosts)
    if not specs:
        raise ValueError("hosts must name at least one host")
    return specs


# ---------------------------------------------------------------------------
# inbound link: CRC + sequence dedup + injected network faults
# ---------------------------------------------------------------------------


class HostLink:
    """Inbound message path of one worker channel: a pure state machine.

    Owns the per-channel delivery guarantees — CRC verification,
    sequence-number dedup of duplicate delivery — and, under test, the
    injected network faults of a :class:`~repro.testing.chaos.HostChaosPlan`
    (drop, duplicate, partition/heal).  Every method takes ``now``
    explicitly and nothing here touches sockets or clocks, so any
    interleaving of partition -> expiry -> re-dispatch -> heal ->
    duplicate delivery is directly property-testable.

    Message indexes for fault targeting are 0-based and count
    post-handshake inbound messages on *this* channel.
    """

    def __init__(
        self,
        host: str,
        chaos: "HostChaosPlan | None" = None,
        *,
        exempt: bool = False,
    ) -> None:
        self.host = host
        self.chaos = None if exempt else chaos
        self.seen: set[int] = set()
        self.msg_index = 0
        self.held: list[dict[str, Any]] = []
        self.first_held_at: float | None = None
        self.healed = False
        self.dropped = 0
        self.duplicates_dropped = 0

    @property
    def partitioned(self) -> bool:
        """Messages are currently being held by an injected partition."""
        return self.first_held_at is not None

    @property
    def heal_at(self) -> float | None:
        """When the held backlog becomes deliverable (``None``: nothing held)."""
        part = None if self.chaos is None else self.chaos.partition_for(self.host)
        if self.first_held_at is None or part is None:
            return None
        return self.first_held_at + part[1]

    def receive(self, raw: bytes | str, now: float) -> list[dict[str, Any]]:
        """Decode one inbound line; return the messages deliverable *now*.

        Raises :class:`RemoteProtocolError` on garbage/CRC failure.  May
        return zero messages (dropped, partition-held, duplicate seq) or
        more than one (a heal flushing backlog, an injected duplicate).
        """
        message = decode_message(raw)
        index = self.msg_index
        self.msg_index += 1
        copies = 1
        if self.chaos is not None:
            if self.chaos.dropped(self.host, index):
                self.dropped += 1
                return []
            if self.chaos.duplicated(self.host, index):
                copies = 2
            part = self.chaos.partition_for(self.host)
            if part is not None and not self.healed and index >= part[0]:
                if self.first_held_at is None:
                    self.first_held_at = now
                self.held.extend([message] * copies)
                return self.flush(now)
        return self._dedup([message] * copies)

    def flush(self, now: float) -> list[dict[str, Any]]:
        """Deliver the held backlog if the partition has healed by *now*."""
        if self.first_held_at is None or self.chaos is None:
            return []
        part = self.chaos.partition_for(self.host)
        if part is None or now - self.first_held_at < part[1]:
            return []
        backlog, self.held = self.held, []
        self.first_held_at = None
        self.healed = True
        return self._dedup(backlog)

    def _dedup(self, messages: list[dict[str, Any]]) -> list[dict[str, Any]]:
        out = []
        for message in messages:
            seq = message["seq"]
            if seq in self.seen:
                self.duplicates_dropped += 1
                continue
            self.seen.add(seq)
            out.append(message)
        return out


# ---------------------------------------------------------------------------
# controller-side host / link state
# ---------------------------------------------------------------------------


@dataclass
class _Host:
    """A failure domain: one registry host, or the controller's machine."""

    spec: HostSpec
    #: links are forked local processes, charged per slot, never per host.
    local: bool = False
    failures: int = 0
    history: tuple[str, ...] = ()
    quarantined: bool = False
    leases_granted: int = 0
    cells_done: int = 0


@dataclass
class _Link:
    """One worker position on a host, across process generations."""

    id: int
    host: _Host
    slot: int
    #: ``multiprocessing.Process`` (local) or ``subprocess.Popen`` (remote).
    process: Any = None
    #: unbuffered pipe ends: the worker's output and input.
    rfile: Any = None
    wfile: Any = None
    inbound: HostLink | None = None
    #: a partial line read ahead of its newline.
    buffer: bytes = b""
    #: ``hello`` (awaiting handshake) or ``active``.
    state: str = "hello"
    hello_deadline: float = 0.0
    idle: bool = False
    out_seq: int = 0
    #: leases sent to this process generation (worker chaos counts them).
    leases: int = 0
    #: slot failures; a local link is its own failure domain.
    failures: int = 0
    history: tuple[str, ...] = ()
    quarantined: bool = False
    started_at: float = 0.0
    last_activity: float = 0.0
    cells_done: int = 0

    @property
    def live(self) -> bool:
        return self.process is not None and not (self.quarantined or self.host.quarantined)


def _local_worker(stdin_fd: int, stdout_fd: int, inherited: list[int], job: tuple) -> None:
    """Body of a forked local link: the worker loop over a pipe pair."""
    from repro.workloads.remote_worker import main

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the controller owns ^C
    for fd in inherited:
        os.close(fd)  # other links' pipe ends: their EOF must not wait on us
    try:
        with os.fdopen(stdin_fd, "rb") as stdin, os.fdopen(stdout_fd, "wb") as stdout:
            main(stdin, stdout, job=job)
    except OSError:  # the controller went away mid-write
        pass


def _kill_process(process: subprocess.Popen) -> None:
    """Bounded SIGTERM -> SIGKILL teardown of a remote link's launcher."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(_KILL_GRACE)
        except subprocess.TimeoutExpired:  # pragma: no cover - stubborn worker
            process.kill()
            process.wait()


def _join(process: Any, timeout: float) -> None:
    """Wait up to *timeout* seconds for a link's process to exit."""
    if isinstance(process, subprocess.Popen):
        try:
            process.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
    else:
        process.join(timeout)


# ---------------------------------------------------------------------------
# the lease loop
# ---------------------------------------------------------------------------


def run_lease_loop(
    spec: SweepSpec,
    policy: "ExecutionPolicy",
    algorithm_kwargs: dict[str, dict[str, Any]],
    cache: BracketCache | None,
    cells: list[tuple[float, int, int]] | None = None,
    shard: tuple[int, int] | None = None,
) -> ResilientSweepResult:
    """The process path of :func:`repro.workloads.execute.execute_sweep`.

    Serves *cells* (default: the whole grid) to local links — or, with
    ``policy.hosts``, to remote links — until every cell is completed or
    quarantined.  ``shard`` is the ``(index, count)`` stamp written into
    and checked against the journal.  Returns a
    :class:`~repro.workloads.resilient.ResilientSweepResult`; never
    raises for individual cell failures (see ``result.manifest``).  A
    ``SIGINT`` (or ``policy.interrupt_after``) tears every link down and
    raises :class:`~repro.workloads.resilient.SweepInterrupted` carrying
    the flushed partial result.
    """
    validate_sweep_pickles(spec, algorithm_kwargs)
    cells = list(spec.cells()) if cells is None else list(cells)
    check_seed_collisions(spec, cells)
    return _LeaseLoop(spec, policy, algorithm_kwargs, cache, cells, shard).run()


class _LeaseLoop:
    """Controller state of one multiprocess sweep (see the module docstring)."""

    def __init__(
        self,
        spec: SweepSpec,
        policy: "ExecutionPolicy",
        algorithm_kwargs: dict[str, dict[str, Any]],
        cache: BracketCache | None,
        cells: list[tuple[float, int, int]],
        shard: tuple[int, int] | None,
    ) -> None:
        from repro.workloads import remote_worker  # noqa: F401 - loaded once, before any fork

        self.spec = spec
        self.policy = policy
        self.cells = cells
        self.host_specs = None if policy.hosts is None else resolve_hosts(policy.hosts)
        self.manifest = FailureManifest(cells_total=len(cells))
        self.journal, self.completed = prepare_journal(
            spec, cells, policy.journal, resume=policy.resume, shard=shard,
            salvage=policy.salvage,
        )
        self.manifest.cells_replayed = len(self.completed)
        self.adaptive: _AdaptiveReps | None = None
        if policy.adaptive_reps:
            self.adaptive = _AdaptiveReps(
                spec, cells, min_reps=policy.adaptive_min_reps,
                rel_tol=policy.adaptive_rel_tol,
            )
            todo = self.adaptive.initial_cells(self.completed)
        else:
            todo = [cell for cell in cells if spec.cell_seed(*cell) not in self.completed]
        faultless = (
            policy.chaos is None
            and policy.worker_chaos is None
            and policy.host_chaos is None
            and policy.interrupt_after is None
        )
        self.group_size = _GROUP_CELLS if policy.backend != "scalar" and faultless else 1
        self.queue = CellQueue(
            [(eps, m, rep, spec.cell_seed(eps, m, rep)) for eps, m, rep in todo],
            retries=policy.retries,
            lease_timeout=policy.lease_timeout
            or LEASE_TIMEOUT_BEATS * policy.heartbeat_interval,
            timeout=policy.timeout,
            # A group is one batch: copying its cells one by one would
            # redo the batch's work (and its cache lookups) piecemeal.
            speculate=policy.speculate and self.group_size == 1,
        )
        self.cell_by_seed = {spec.cell_seed(*cell): cell for cell in cells}
        #: what a local link inherits; a remote one gets it pickled, uncached.
        self.job = (spec, algorithm_kwargs, policy.backend, policy.chaos, cache)
        self.fingerprint = env_fingerprint()
        self.cache_totals = CacheStats() if cache is not None else None
        self.hosts: list[_Host] = []
        self.links: dict[int, _Link] = {}
        #: this pass's ``(link, lease, rows, lease_ms)`` wins, journaled after the grants.
        self.wins: list[tuple[_Link, Lease, list[SweepRow], float]] = []
        self.heartbeats = 0
        self.new_cells = 0
        self.started = time.monotonic()
        self._payload: str | None = None

    # -- links ---------------------------------------------------------

    def add_host(self, spec: HostSpec, *, local: bool) -> None:
        host = _Host(spec=spec, local=local)
        self.hosts.append(host)
        for slot in range(spec.slots):
            if host.quarantined:
                break  # every launch failed
            link = _Link(id=len(self.links), host=host, slot=slot)
            self.links[link.id] = link
            self.spawn(link)

    def spawn(self, link: _Link) -> None:
        """Start a fresh worker for *link*: forked if local, launched if remote."""
        now = time.monotonic()
        link.state, link.idle, link.out_seq, link.leases, link.buffer = "hello", False, 0, 0, b""
        link.inbound = HostLink(
            link.host.spec.name, self.policy.host_chaos, exempt=link.host.local
        )
        link.hello_deadline = now + self.policy.handshake_timeout
        link.started_at = link.started_at or now
        link.last_activity = now
        if link.host.local:
            rfd, child_out = os.pipe()
            child_in, wfd = os.pipe()
            inherited = [rfd, wfd] + [
                stream.fileno()
                for other in self.links.values()
                for stream in (other.rfile, other.wfile)
                if stream is not None
            ]
            link.process = mp.get_context("fork").Process(
                target=_local_worker,
                args=(child_in, child_out, inherited, self.job),
                daemon=True,
            )
            link.process.start()
            os.close(child_in)
            os.close(child_out)
            link.rfile = os.fdopen(rfd, "rb", buffering=0)
            link.wfile = os.fdopen(wfd, "wb", buffering=0)
            return
        try:
            link.process = subprocess.Popen(
                link.host.spec.argv(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=self.worker_env(),
                bufsize=0,
            )
        except OSError as exc:
            self.link_fault(link, f"handshake: launch failed ({exc})")
            return
        link.rfile, link.wfile = link.process.stdout, link.process.stdin

    def worker_env(self) -> dict[str, str]:
        """The controller's environment with its source tree importable."""
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src_root, env.get("PYTHONPATH")) if p)
        return env

    def kill(self, link: _Link) -> None:
        """Tear down *link*'s process and pipes (bounded; reaps the child)."""
        for stream in (link.rfile, link.wfile):
            if stream is not None:
                stream.close()
        link.rfile = link.wfile = None
        if isinstance(link.process, subprocess.Popen):
            _kill_process(link.process)
        elif link.process is not None:
            _terminate(link.process)
        link.process = None
        link.idle = False

    def kill_all(self) -> None:
        _terminate_all(
            [link.process for link in self.links.values()
             if link.host.local and link.process is not None]
        )
        for link in self.links.values():
            self.kill(link)

    def send(self, link: _Link, op: str, **fields: Any) -> None:
        """Write one framed message to *link* (best-effort: a dead worker
        shows up as EOF on the read side)."""
        if link.wfile is None:
            return
        link.out_seq += 1
        data = encode_message(op, link.out_seq, **fields)
        try:
            while data:
                data = data[link.wfile.write(data):]
        except OSError:
            pass

    def payload(self) -> str:
        """The sweep pickled for remote links (no cache: it is host-local)."""
        if self._payload is None:
            self._payload = base64.b64encode(pickle.dumps(self.job[:4] + (None,))).decode("ascii")
        return self._payload

    def init_fields(self, link: _Link) -> dict[str, Any]:
        """``init`` for *link*: the worker or host chaos plan as directives."""
        policy, slot = self.policy, link.slot
        fields: dict[str, Any] = {
            "host": link.host.spec.name,
            "slot": slot,
            "heartbeat_interval": policy.heartbeat_interval,
        }
        if not link.host.local:
            fields["payload"] = self.payload()
            if policy.host_chaos is not None:
                fields["slow"] = policy.host_chaos.slow_for(link.host.spec.name)
        elif policy.worker_chaos is not None:
            chaos = policy.worker_chaos
            fields["slow"] = chaos.delay_for(slot)
            fields["duplicate"] = chaos.duplicates_result(slot)
            if chaos.suppresses_heartbeat(slot):
                fields["heartbeat_interval"] = 0.0
        return fields

    def dies(self, link: _Link) -> bool:
        """Whether the chaos plans kill *link* on the lease being sent."""
        policy = self.policy
        if link.host.local:
            chaos = policy.worker_chaos
            return chaos is not None and chaos.dies_on_cell(link.slot, link.leases)
        chaos = policy.host_chaos
        return chaos is not None and chaos.dies_on_lease(
            link.host.spec.name, link.host.leases_granted
        )

    # -- failure domains -----------------------------------------------

    def held(self, link: _Link) -> list[Hashable]:
        """Keys of the leases *link* holds: ``(link id, group member)``."""
        return [key for key in self.queue.leases if key[0] == link.id]

    def release(self, key: Hashable, detail: str, *, charge_cell: bool, died: bool = False) -> None:
        queue = self.queue
        failures, pending = len(queue.failures), len(queue.pending)
        queue.release(key, detail, charge_cell=charge_cell, died=died)
        if len(queue.pending) > pending and (charge_cell or died):
            self.manifest.retries += 1
        for failure in queue.failures[failures:]:
            self.quarantine_cell(failure)

    def fail_leases(
        self, link: _Link, detail: str, *, charge_cell: bool = True, died: bool = False
    ) -> None:
        """Revoke every lease *link* holds.  A group lease is demoted: its
        cells re-queue charge-free as independent attempts."""
        keys = self.held(link)
        if len(keys) > 1:
            detail, charge_cell, died = f"group-lease {detail}", False, False
        for key in keys:
            self.release(key, detail, charge_cell=charge_cell, died=died)

    def quarantine_cell(self, failure: CellFailure) -> None:
        self.manifest.failures.append(failure)
        if self.journal is not None:
            self.journal.record_failure(failure.as_dict())

    def link_fault(self, link: _Link, detail: str, *, died: bool = False) -> None:
        """*link* failed (death, garbage, handshake, local expiry): revoke its
        leases charge-free, then respawn it or quarantine its domain — the
        slot of a local link, the host of a remote one."""
        self.fail_leases(link, detail, charge_cell=False, died=died)
        self.kill(link)
        domain = link if link.host.local else link.host
        domain.failures += 1
        domain.history += (detail,)
        if link.host.local:
            floor = not any(
                other.live for other in self.links.values()
                if other.host.local and other is not link
            )
            if link.failures > self.policy.worker_max_failures and not floor:
                link.quarantined = True
                self.manifest.worker_failures.append(
                    WorkerFailure(link.slot, link.failures, detail, link.history)
                )
                return
        elif link.host.failures > self.policy.host_max_failures:
            self.quarantine_host(link.host, detail)
            return
        if not self.queue.done:
            self.spawn(link)

    def quarantine_host(self, host: _Host, detail: str) -> None:
        """Remove a whole host from the pool; its leases requeue charge-free."""
        if host.quarantined:
            return
        host.quarantined = True
        host.history += (detail,)
        for link in self.links.values():
            if link.host is host:
                self.fail_leases(link, detail, charge_cell=False)
                self.kill(link)
        self.manifest.host_failures.append(
            HostFailure(host.spec.name, host.failures, detail, host.history)
        )
        if self.queue.done or not all(h.quarantined for h in self.hosts):
            return
        if self.policy.local_fallback and not self.manifest.degraded_to_local:
            self.manifest.degraded_to_local = True
            slots = self.policy.workers or min(2, os.cpu_count() or 2)
            self.add_host(HostSpec(name=LOCAL_FALLBACK_HOST, slots=slots), local=True)
        else:
            self.abort_remaining("host: every host quarantined, no fallback left")

    def abort_remaining(self, detail: str) -> None:
        """Quarantine everything still unfinished as a host-domain loss."""
        queue = self.queue
        for key in list(queue.leases):
            queue.release(key, detail, charge_cell=False)
        while queue.pending:
            task = queue.pending.popleft()
            if task.seed not in queue.remaining:
                continue
            queue.remaining.discard(task.seed)
            self.quarantine_cell(
                CellFailure(
                    epsilon=task.eps,
                    machines=task.m,
                    repetition=task.rep,
                    seed=task.seed,
                    attempts=max(task.attempt - 1, 0),
                    kind="host",
                    detail=detail,
                    history=task.history + (detail,),
                )
            )

    # -- inbound -------------------------------------------------------

    def handshake(self, link: _Link, raw: bytes) -> None:
        try:
            message = decode_message(raw)
        except RemoteProtocolError as exc:
            return self.link_fault(link, f"protocol: {exc}")
        if message["op"] != "hello":
            return self.link_fault(link, f"protocol: expected hello, got {message['op']!r}")
        expected = dict(self.fingerprint)
        if link.host.spec.fingerprint is not None:
            expected["code"] = link.host.spec.fingerprint
        mismatch = fingerprint_mismatch(expected, message.get("fingerprint") or {})
        if mismatch is not None:
            self.send(link, "reject", detail=mismatch)
            link.host.failures += 1
            return self.quarantine_host(
                link.host, f"handshake: fingerprint mismatch ({mismatch})"
            )
        link.state = "active"
        self.send(link, "init", **self.init_fields(link))

    def on_message(self, link: _Link, message: dict[str, Any], now: float) -> None:
        op = message["op"]
        link.last_activity = now
        if op == "ready":
            link.idle = True
            self.grant(link)
        elif op == "heartbeat":
            self.heartbeats += 1
            for key in self.held(link):
                self.queue.heartbeat(key, now)
        elif op == "result":
            self.on_result(link, message, now)
        elif op == "nack":
            if any(self.queue.leases[key].seed == message.get("seed") for key in self.held(link)):
                self.fail_leases(link, f"error: {message.get('detail', 'worker nack')}")
        # hello out of band, anything else ignored (future-proofing)

    def on_result(self, link: _Link, message: dict[str, Any], now: float) -> None:
        if self.cache_totals is not None and message.get("cache"):
            self.cache_totals.merge(message["cache"])
        seed = message.get("seed")
        key = next((k for k in self.held(link) if self.queue.leases[k].seed == seed), None)
        try:
            rows = [row_from_payload(payload) for payload in message["rows"]]
        except Exception as exc:  # noqa: BLE001 - wire payloads are hostile
            problem = f"undecodable result rows ({exc})"
        else:
            cell = self.cell_by_seed.get(seed)
            problem = (
                "unknown cell seed"
                if cell is None
                else resilient.validate_cell_rows(self.spec, *cell, rows)
            )
        if problem is not None:
            if key is not None:
                self.release(key, f"corrupt: {problem}", charge_cell=True)
            return  # corrupt stale/duplicate copies just drop
        outcome, lease = self.queue.complete((link.id, None) if key is None else key, seed, rows)
        if outcome != "win":
            return
        link.cells_done += 1
        link.host.cells_done += 1
        if self.adaptive is not None:
            fresh = self.adaptive.on_win(lease.eps, lease.m, lease.rep, rows)
            self.queue.add_cells([(e, m, r, self.spec.cell_seed(e, m, r)) for e, m, r in fresh])
        self.wins.append((link, lease, rows, round((now - lease.granted_at) * 1e3, 3)))

    def on_eof(self, link: _Link) -> None:
        """The worker's output closed: it died (or never said hello)."""
        if link.state == "hello":
            detail = "handshake: worker exited before hello"
        elif link.host.local:
            link.process.join(_KILL_GRACE)
            detail = f"crash: worker process died with exit code {link.process.exitcode}"
        else:
            detail = "crash: worker channel closed (host died?)"
        self.link_fault(link, detail, died=True)

    def pump(self, timeout: float | None) -> None:
        """Block until a link has output or *timeout* passes; handle every
        complete line that arrived."""
        readers = {link.rfile: link for link in self.links.values() if link.live}
        for rfile in wait(list(readers), timeout):
            link = readers[rfile]
            if link.rfile is not rfile:
                continue  # torn down earlier in this pass
            data = rfile.read(1 << 16)
            now = time.monotonic()
            if not data:
                self.on_eof(link)
                continue
            *lines, link.buffer = (link.buffer + data).split(b"\n")
            for raw in lines:
                if link.rfile is not rfile:
                    break
                if link.state == "hello":
                    self.handshake(link, raw)
                    continue
                try:
                    messages = link.inbound.receive(raw, now)
                except RemoteProtocolError as exc:
                    self.link_fault(link, f"protocol: {exc}")
                    break
                for message in messages:
                    self.on_message(link, message, now)

    # -- leases and deadlines ------------------------------------------

    def grant(self, link: _Link) -> None:
        """Lease the next cell — or a group of fresh ones — to an idle link."""
        queue = self.queue
        if not (link.idle and link.state == "active" and link.live) or self.held(link):
            return
        now = time.monotonic()
        active = sum(other.live and other.state == "active" for other in self.links.values())
        size = min(self.group_size, -(-len(queue.pending) // active))  # a fair share
        leases: list[Lease] = []
        while len(leases) < max(size, 1):
            if leases and not (queue.pending and not queue.pending[0].history):
                break  # only fresh cells share a group lease
            lease = queue.next_lease((link.id, len(leases)), now)
            if lease is None:
                break
            leases.append(lease)
            if lease.history or lease.speculative:
                break
        if not leases:
            return
        if len(leases) > 1 and self.policy.timeout is not None:
            for lease in leases:  # one batch: the group shares one budget
                lease.hard_deadline = now + self.policy.timeout * len(leases)
        link.idle = False
        link.leases += 1
        link.host.leases_granted += 1
        first = leases[0]
        group = {"group": [[l.eps, l.m, l.rep, l.seed] for l in leases[1:]]} if leases[1:] else {}
        self.send(
            link, "lease", eps=first.eps, m=first.m, rep=first.rep, seed=first.seed,
            attempt=first.attempt, die=self.dies(link), **group,
        )

    def next_wakeup(self) -> float | None:
        """Seconds until the nearest lease, handshake or heal deadline."""
        times = [
            t
            for lease in self.queue.leases.values()
            for t in (lease.deadline, lease.hard_deadline)
            if t is not None
        ]
        for link in self.links.values():
            if link.live:
                times.append(link.hello_deadline if link.state == "hello" else link.inbound.heal_at)
        times = [t for t in times if t is not None]
        return max(0.0, min(times) - time.monotonic()) if times else None

    def check_deadlines(self) -> None:
        now = time.monotonic()
        for link in list(self.links.values()):
            if not link.live:
                continue
            if link.state == "hello" and now >= link.hello_deadline:
                self.link_fault(link, "handshake: timed out")
            elif link.state == "active":
                for message in link.inbound.flush(now):  # a healed partition's backlog
                    self.on_message(link, message, now)
        # Hard per-cell timeout: the cell is charged; the worker is torn
        # down and relaunched without charging its domain.
        for lease in self.queue.overdue(now):
            if self.queue.leases.get(lease.worker) is lease:
                link = self.links[lease.worker[0]]
                self.fail_leases(link, "timeout: cell exceeded its timeout; worker terminated")
                self.kill(link)
                if not self.queue.done:
                    self.spawn(link)
        # Soft expiry (missed heartbeats) re-queues charge-free.  A local
        # link is presumed hung and killed; a remote one may merely be
        # partitioned, so it keeps running and a healed partition can
        # still deliver its stale result (first-verified-wins).
        for lease in self.queue.expired(now):
            if self.queue.leases.get(lease.worker) is lease:
                link = self.links[lease.worker[0]]
                detail = "expired: lease deadline passed without a heartbeat"
                if link.host.local:
                    self.link_fault(link, detail)
                else:
                    self.fail_leases(link, detail, charge_cell=False)

    def journal_wins(self) -> None:
        """Record this pass's wins.  Runs after the pass's grants, so a
        journal fsync never holds up a worker's next lease."""
        wins, self.wins = self.wins, []
        for i, (link, lease, rows, lease_ms) in enumerate(wins):
            self.completed[lease.seed] = rows
            self.manifest.cells_completed += 1
            if lease.attempt > 1 or lease.history:
                self.manifest.recovered += 1
            if self.journal is not None:
                self.journal.record_cell(
                    lease.seed, lease.eps, lease.m, lease.rep, rows,
                    provenance={
                        "host": link.host.spec.name,
                        "slot": link.slot,
                        "worker": link.id,
                        "attempt": lease.attempt,
                        "heartbeats": lease.heartbeats,
                        "lease_ms": lease_ms,
                        "speculative": lease.speculative,
                        "transport": "local" if link.host.local else "remote",
                    },
                )
            self.new_cells += 1
            limit = self.policy.interrupt_after
            if limit is not None and self.new_cells >= limit and (
                i + 1 < len(wins) or not self.queue.done
            ):
                raise KeyboardInterrupt  # simulated hard kill, same path as SIGINT

    # -- the loop ------------------------------------------------------

    def run(self) -> ResilientSweepResult:
        try:
            if not self.queue.done:
                if self.host_specs is None:
                    workers = self.policy.workers or min(
                        len(self.queue.pending), os.cpu_count() or 2
                    )
                    self.add_host(HostSpec(name=LOCAL_HOST, slots=workers), local=True)
                for spec in self.host_specs or ():
                    self.add_host(spec, local=False)
            while not self.queue.done:
                for link in list(self.links.values()):
                    self.grant(link)
                self.pump(self.next_wakeup())
                self.check_deadlines()
                self.journal_wins()
            # Every launched worker identifies itself (or times out) before
            # the sweep reports, so a divergent host is quarantined even
            # when the others finished the cells without it.
            while any(link.live and link.state == "hello" for link in self.links.values()):
                self.pump(self.next_wakeup())
                self.check_deadlines()
            # Drained: stop idle workers gracefully (they flush at exit),
            # cut stragglers loose (in-flight speculative losers).
            idle = [link for link in self.links.values() if link.live and link.idle]
            for link in idle:
                self.send(link, "stop")
            deadline = time.monotonic() + _STOP_GRACE
            for link in idle:
                _join(link.process, max(0.0, deadline - time.monotonic()))
            self.kill_all()
            self.finish(interrupted=False)
            if self.journal is not None:
                self.journal.record_seal()
        except KeyboardInterrupt:
            self.kill_all()
            self.finish(interrupted=True)
            raise SweepInterrupted(self.result()) from None
        except BaseException:
            self.kill_all()
            raise
        finally:
            if self.journal is not None:
                self.journal.close()
        return self.result()

    def finish(self, *, interrupted: bool) -> None:
        manifest = self.manifest
        if not interrupted:
            manifest.cells_completed = len(self.completed) - manifest.cells_replayed
        manifest.speculated = self.queue.speculated
        if self.adaptive is not None:
            manifest.cells_skipped = self.adaptive.skipped
        if self.journal is None:
            return
        links = list(self.links.values())
        self.journal.record_stats(
            {
                "wall_seconds": round(time.monotonic() - self.started, 6),
                "interrupted": interrupted,
                "scheduler": SCHEDULER,
                "workers": len(links),
                "worker_wall_seconds": [
                    round(max(0.0, link.last_activity - link.started_at), 6) for link in links
                ],
                "worker_cells": [link.cells_done for link in links],
                "hosts": [
                    {
                        "name": host.spec.name,
                        "slots": host.spec.slots,
                        "leases": host.leases_granted,
                        "cells": host.cells_done,
                        "failures": host.failures
                        + sum(link.failures for link in links if link.host is host),
                        "quarantined": host.quarantined,
                    }
                    for host in self.hosts
                ],
                "leases": self.queue.granted,
                "heartbeats": self.heartbeats,
                "speculated": self.queue.speculated,
                "cells_completed": manifest.cells_completed,
                "cells_replayed": manifest.cells_replayed,
                "cells_skipped": manifest.cells_skipped,
                "recovered": manifest.recovered,
                "retries": manifest.retries,
                "quarantined": manifest.quarantined,
                "workers_quarantined": manifest.workers_quarantined,
                "hosts_quarantined": manifest.hosts_quarantined,
                "degraded_to_local": manifest.degraded_to_local,
                "cache": None if self.cache_totals is None else self.cache_totals.as_dict(),
            }
        )

    def result(self) -> ResilientSweepResult:
        return _assemble(
            self.spec, self.cells, self.completed, self.manifest, self.journal,
            self.cache_totals,
        )


__all__ = [
    "DEFAULT_WORKER_COMMAND",
    "HostLink",
    "HostSpec",
    "LOCAL_FALLBACK_HOST",
    "LOCAL_HOST",
    "REMOTE_OPS",
    "REMOTE_PROTOCOL_VERSION",
    "RemoteProtocolError",
    "SCHEDULER",
    "code_fingerprint",
    "decode_message",
    "encode_message",
    "env_fingerprint",
    "fingerprint_mismatch",
    "load_hosts",
    "message_crc",
    "resolve_hosts",
    "run_lease_loop",
]
