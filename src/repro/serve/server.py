"""The asyncio admission server behind ``repro serve``.

One process, one event loop, one :class:`~repro.engine.controller.
AdmissionController` session.  Two listeners share the session:

* a **socket** listener speaking line-delimited JSON (one request line in,
  one reply line out; ``watch`` upgrades the connection to a decision
  stream) — the fast path the load generator drives;
* an **HTTP/1.1** listener mapping the same messages onto ``POST /offer``,
  ``GET /stats``, ``GET /healthz`` and ``POST /shutdown`` — hand-rolled
  over asyncio streams so the service needs nothing beyond the standard
  library.

The socket listener commits in groups.  Each read takes whatever bytes
the connection has delivered; every complete request line in them is
decided in order in one synchronous pass (decode → ``session.offer`` →
journal stage → encode), the pass's decision records go to the journal
with one write, one flush and one fsync, and only then do the pass's
replies leave, in one write.  Nothing awaits between a pass's first
decision and its commit, so the single-threaded loop serialises all
offers, no watcher, stats reply or other connection sees a decision
before it is on disk, and a crash can never acknowledge a decision it did
not persist.  A ``watch`` or ``shutdown`` line ends the pass: the lines
before it are committed and answered first.  The HTTP listener journals
each offer durably before it replies.

A failed journal commit stops the service: that pass's replies are never
sent, nothing more is decided, the log is left unsealed and
:attr:`AdmissionServer.failure` carries the error.  On SIGINT/SIGTERM the
server stops accepting, drains open connections, seals the decision log
and reports the drain time.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, IO

from repro.engine.controller import AdmissionController, open_session
from repro.engine.kernel import SimulationError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decision_message,
    decode_line,
    encode_line,
    error_message,
    job_from_message,
)
from repro.serve.snapshotter import (
    DecisionJournal,
    DecisionJournalError,
    service_fingerprint,
)

#: Cap on one request line (1 MiB is far beyond any legal offer); a
#: longer line gets a ``request too large`` error and its connection closes.
MAX_LINE_BYTES = 1 << 20

#: Most bytes one socket read takes (the stream reader's buffer limit).
READ_BYTES = 1 << 16


@dataclass
class ServeConfig:
    """Everything needed to bring up (or resume) an admission service."""

    algorithm: str = "threshold"
    machines: int = 4
    epsilon: float = 0.5
    kwargs: dict[str, Any] = field(default_factory=dict)
    name: str = ""
    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port (reported by :attr:`AdmissionServer.
    #: socket_port` / ``http_port`` and the ``listening`` announcement).
    socket_port: int = 0
    http_port: int = 0
    #: Decision-log path; ``None`` disables persistence (bench-only mode).
    decision_log: str | None = None
    #: Resume from an existing decision log instead of refusing to clobber.
    resume: bool = False
    max_jobs: int = 1_000_000
    #: Grace period (seconds) open connections get to finish their last
    #: reply during shutdown before they are cancelled.
    drain_grace: float = 5.0
    #: Hard bound (seconds) on the post-cancel settle: a client that
    #: stops *reading* leaves its handler stuck flushing a write buffer
    #: that can never empty, and cancellation alone cannot unstick it.
    #: When the bound expires the stalled transports are aborted
    #: (buffered bytes dropped — every acknowledged decision is already
    #: journaled), :attr:`AdmissionServer.drain_timed_out` is set, and
    #: shutdown still seals the journal and exits cleanly.  ``None``
    #: (the default) waits forever, preserving the old behaviour.
    drain_timeout: float | None = None
    #: Stream to announce ``{"kind": "listening", ...}`` on once bound
    #: (the CLI passes stdout so callers can discover ephemeral ports).
    announce: IO[str] | None = None

    def service(self) -> dict[str, Any]:
        return service_fingerprint(
            self.algorithm, self.machines, self.epsilon, self.kwargs, self.name
        )


class AdmissionServer:
    """Lifecycle owner: session + journal + the two asyncio listeners."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.session: AdmissionController | None = None
        self.journal: DecisionJournal | None = None
        self.resumed_decisions = 0
        self.socket_port: int | None = None
        self.http_port: int | None = None
        self.started_at = 0.0
        self.drain_seconds: float | None = None
        self.drain_timed_out = False
        #: The journal error that stopped the service (``None`` if none did).
        self.failure: DecisionJournalError | None = None
        #: Watch events of the pass being decided, published once it commits.
        self._held_events: list[dict[str, Any]] | None = None
        self._servers: list[asyncio.base_events.Server] = []
        self._watchers: set[asyncio.Queue] = set()
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Build/resume the session, open the journal, bind both listeners."""
        config = self.config
        service = config.service()
        if config.decision_log and config.resume:
            self.journal, state = DecisionJournal.resume(
                config.decision_log, service
            )
            self.session = state.restore_session(verify=True)
            self.resumed_decisions = len(state.decisions)
        else:
            self.session = open_session(
                config.algorithm,
                machines=config.machines,
                epsilon=config.epsilon,
                name=config.name,
                max_jobs=config.max_jobs,
                **config.kwargs,
            )
            if config.decision_log:
                self.journal = DecisionJournal.create(
                    config.decision_log, service
                )
        socket_server = await asyncio.start_server(
            self._serve_socket, config.host, config.socket_port
        )
        http_server = await asyncio.start_server(
            self._serve_http, config.host, config.http_port
        )
        self._servers = [socket_server, http_server]
        self.socket_port = socket_server.sockets[0].getsockname()[1]
        self.http_port = http_server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()
        if config.announce is not None:
            config.announce.write(
                json.dumps(
                    {
                        "kind": "listening",
                        "host": config.host,
                        "socket_port": self.socket_port,
                        "http_port": self.http_port,
                        "algorithm": config.algorithm,
                        "machines": config.machines,
                        "epsilon": config.epsilon,
                        "resumed_decisions": self.resumed_decisions,
                        "pid": __import__("os").getpid(),
                    }
                )
                + "\n"
            )
            config.announce.flush()

    def request_shutdown(self) -> None:
        """Flag graceful shutdown (idempotent; safe from signal handlers)."""
        self._stopping.set()

    async def serve_until_shutdown(self) -> None:
        """Block until shutdown is requested, then drain and seal."""
        await self._stopping.wait()
        t0 = time.monotonic()
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        # Wake watch streams so their connections can unwind, then give
        # every open connection a bounded chance to finish its last reply.
        for queue in list(self._watchers):
            queue.put_nowait(None)
        pending = [task for task in self._connections if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_grace)
            for task in pending:
                if not task.done():
                    task.cancel()
            # Consume the cancellations so no handler exception escapes
            # to the loop's exception handler during teardown.
            settle = asyncio.gather(*pending, return_exceptions=True)
            if self.config.drain_timeout is None:
                await settle
            else:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(settle), self.config.drain_timeout
                    )
                except asyncio.TimeoutError:
                    # A stalled client: its handler is pinned flushing a
                    # write buffer the peer will never read.  Abort the
                    # transports (drops the buffered bytes; the journal
                    # already holds every acknowledged decision) so
                    # ``wait_closed`` resolves and the handlers finish.
                    self.drain_timed_out = True
                    for writer in list(self._writers):
                        transport = writer.transport
                        if transport is not None:
                            transport.abort()
                    await settle
        if self.journal is not None:
            if self.failure is None:
                self.journal.seal()
            self.journal.close()
        self.drain_seconds = time.monotonic() - t0

    async def run(self) -> None:
        """``start()`` + serve until shutdown (the CLI's main coroutine)."""
        await self.start()
        await self.serve_until_shutdown()

    # ------------------------------------------------------------------
    # The decision hot path (synchronous within one event-loop tick)
    # ------------------------------------------------------------------
    def offer_payload(self, payload: Any, tag: Any = None) -> dict[str, Any]:
        """Decide one offer and journal it; returns the reply message.

        Durable on return, unless called inside the journal's ``group``
        (the socket listener's pass), which commits it on exit.
        """
        session = self.session
        assert session is not None, "server not started"
        if self.failure is not None:
            return error_message(f"not deciding: {self.failure}", tag)
        seq = session.job_count
        try:
            job = job_from_message(
                payload, clock=session.now, epsilon=session.epsilon, job_id=seq
            )
        except ProtocolError as exc:
            return error_message(str(exc), tag)
        try:
            decision = session.offer(job)
        except SimulationError as exc:
            return error_message(str(exc), tag)
        if self.journal is not None:
            self.journal.record_decision(seq, job, decision)
        message = decision_message(seq, job, decision, session.loads(), tag)
        if self._watchers:
            event = dict(message)
            event.pop("tag", None)
            if self._held_events is None:
                self._publish(event)
            else:
                self._held_events.append(event)
        return message

    def _publish(self, event: dict[str, Any]) -> None:
        for queue in self._watchers:
            queue.put_nowait(event)

    def _fail(self, exc: DecisionJournalError) -> None:
        """Fail stop: decide nothing more and shut down without a seal."""
        if self.failure is None:
            self.failure = exc
        self.request_shutdown()

    def _decide(self, lines: list[bytes]) -> tuple[list[bytes], str | None]:
        """Answer request *lines* in order in one pass, committed on return.

        Returns the encoded replies and, if the pass stopped at a
        ``watch`` or ``shutdown`` line, that op (``shutdown``'s ack is the
        last reply; ``watch`` acks itself).  The pass's decisions reach the
        journal with one write, flush and fsync before this returns, and
        their watch events are published only then; a failed commit
        raises :class:`DecisionJournalError` and publishes nothing.
        """
        replies: list[bytes] = []
        events = self._held_events = []
        try:
            if self.journal is None:
                op = self._answer(lines, replies)
            else:
                with self.journal.group():
                    op = self._answer(lines, replies)
        finally:
            self._held_events = None
        for event in events:
            self._publish(event)
        return replies, op

    def _answer(self, lines: list[bytes], replies: list[bytes]) -> str | None:
        for raw in lines:
            try:
                message = decode_line(raw)
            except ProtocolError as exc:
                replies.append(encode_line(error_message(str(exc))))
                continue
            op = message["op"]
            if op == "offer":
                reply = self.offer_payload(message.get("job"), message.get("tag"))
                replies.append(encode_line(reply))
            elif op == "stats":
                replies.append(encode_line(self.stats_payload()))
            elif op == "ping":
                replies.append(encode_line(
                    {"ok": True, "kind": "pong", "protocol": PROTOCOL_VERSION}
                ))
            elif op == "shutdown":
                replies.append(encode_line({"ok": True, "kind": "shutdown"}))
                return op
            else:  # watch
                return op
        return None

    def stats_payload(self) -> dict[str, Any]:
        session = self.session
        assert session is not None, "server not started"
        stats = session.stats()
        return {
            "ok": True,
            "kind": "stats",
            "protocol": PROTOCOL_VERSION,
            "algorithm": session.algorithm,
            "machines": session.machines,
            "epsilon": session.epsilon,
            "now": session.now,
            "jobs": stats.jobs,
            "accepted": stats.accepted,
            "rejected": stats.rejected,
            "accepted_load": stats.accepted_load,
            "loads": session.loads(),
            "resumed_decisions": self.resumed_decisions,
            "watchers": len(self._watchers),
            "uptime_seconds": (
                time.monotonic() - self.started_at if self.started_at else 0.0
            ),
        }

    # ------------------------------------------------------------------
    # Socket listener (NDJSON)
    # ------------------------------------------------------------------
    async def _serve_socket(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self._writers.add(writer)
        pending = b""  # a request line whose newline has not arrived yet
        try:
            while not self._stopping.is_set():
                chunk = await reader.read(READ_BYTES)
                if chunk:
                    *lines, pending = (pending + chunk).split(b"\n")
                else:  # EOF: an unterminated last line is still a request
                    lines, pending = ([pending] if pending else []), b""
                too_large = len(pending) > MAX_LINE_BYTES
                for i, raw in enumerate(lines):
                    if len(raw) > MAX_LINE_BYTES:
                        del lines[i:]
                        too_large = True
                        break
                replies, op = self._decide(lines)
                if replies:
                    writer.write(b"".join(replies))
                    await writer.drain()
                if op == "watch":
                    await self._stream_watch(writer)
                    break
                if op == "shutdown":
                    self.request_shutdown()
                    break
                if too_large:
                    writer.write(encode_line(error_message("request too large")))
                    await writer.drain()
                    break
                if not chunk:
                    break
        except DecisionJournalError as exc:
            # The pass's replies are dropped: none of it is known durable.
            self._fail(exc)
        except (
            ConnectionResetError,
            BrokenPipeError,
        ):  # pragma: no cover - client went away mid-read or mid-reply
            pass
        except asyncio.CancelledError:
            # Drain deadline expired on a still-open connection.  Absorb
            # the cancel and finish normally: every acknowledged decision
            # is already journaled, and a task left in the cancelled
            # state would trip asyncio's stream done-callback
            # (task.exception() raising) during teardown.
            task.uncancel()
        finally:
            self._connections.discard(task)
            writer.close()
            # The drain deadline cancels lingering handlers mid-read; the
            # close must not re-raise that cancellation out of the task.
            try:
                await asyncio.shield(writer.wait_closed())
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - client gone / drain-deadline cancel
                pass
            self._writers.discard(writer)

    async def _stream_watch(self, writer: asyncio.StreamWriter) -> None:
        """Turn the connection into a push stream of decision events."""
        queue: asyncio.Queue = asyncio.Queue()
        self._watchers.add(queue)
        writer.write(
            encode_line({"ok": True, "kind": "watch", "protocol": PROTOCOL_VERSION})
        )
        try:
            await writer.drain()
            while True:
                event = await queue.get()
                if event is None:  # shutdown sentinel
                    break
                writer.write(encode_line(event))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            self._watchers.discard(queue)

    # ------------------------------------------------------------------
    # HTTP listener (minimal HTTP/1.1, connection: close)
    # ------------------------------------------------------------------
    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self._writers.add(writer)
        try:
            status, body = await self._handle_http(reader)
            payload = json.dumps(body).encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + payload)
            await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):  # pragma: no cover - client went away mid-request
            pass
        except asyncio.CancelledError:
            # See _serve_socket: absorb the drain-deadline cancel.
            task.uncancel()
        finally:
            self._connections.discard(task)
            writer.close()
            # The drain deadline cancels lingering handlers mid-read; the
            # close must not re-raise that cancellation out of the task.
            try:
                await asyncio.shield(writer.wait_closed())
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # pragma: no cover - client gone / drain-deadline cancel
                pass
            self._writers.discard(writer)

    async def _handle_http(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, dict[str, Any]]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return "400 Bad Request", error_message("malformed request line")
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            header = (await reader.readline()).decode("latin-1").strip()
            if not header:
                break
            key, _, value = header.partition(":")
            if key.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return "400 Bad Request", error_message(
                        "bad content-length"
                    )
        if content_length > MAX_LINE_BYTES:
            return "413 Payload Too Large", error_message("request too large")
        body = await reader.readexactly(content_length) if content_length else b""
        if method == "GET" and path == "/healthz":
            return "200 OK", {"ok": True, "kind": "health"}
        if method == "GET" and path == "/stats":
            return "200 OK", self.stats_payload()
        if method == "POST" and path == "/offer":
            try:
                message = json.loads(body.decode("utf-8")) if body else {}
                if not isinstance(message, dict):
                    raise ValueError("body must be a JSON object")
            except (ValueError, UnicodeDecodeError) as exc:
                return "400 Bad Request", error_message(f"bad body: {exc}")
            payload = message.get("job", message if message else None)
            try:
                reply = self.offer_payload(payload, message.get("tag"))
            except DecisionJournalError as exc:
                self._fail(exc)
                return "503 Service Unavailable", error_message(str(exc))
            return ("200 OK" if reply["ok"] else "400 Bad Request"), reply
        if method == "POST" and path == "/shutdown":
            self.request_shutdown()
            return "200 OK", {"ok": True, "kind": "shutdown"}
        return "404 Not Found", error_message(f"no route {method} {path}")


def run_server(config: ServeConfig) -> AdmissionServer:
    """Run an admission server to completion (the ``repro serve`` body).

    Installs SIGINT/SIGTERM handlers for graceful drain, serves until a
    shutdown is requested, and returns the server (drain timing included)
    for the caller to report on.  Raises :class:`DecisionJournalError` /
    ``OSError`` before serving if the journal or sockets cannot be opened;
    a journal commit that fails while serving stops the service and is
    left in :attr:`AdmissionServer.failure`.
    """
    server = AdmissionServer(config)

    async def main() -> None:
        import signal

        # Handlers first: a signal that arrives as soon as ``start``
        # announces ``listening`` must drain and seal, not kill.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.start()
        await server.serve_until_shutdown()

    asyncio.run(main())
    return server


__all__ = [
    "AdmissionServer",
    "DecisionJournalError",
    "MAX_LINE_BYTES",
    "ServeConfig",
    "run_server",
]
