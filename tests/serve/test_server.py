"""The asyncio admission server: transports, streaming, crash recovery.

In-process tests drive :class:`AdmissionServer` inside ``asyncio.run``
(the suite has no async test runner, deliberately — each test owns its
loop).  The chaos half of the file spawns real ``repro serve``
subprocesses, SIGKILLs one mid-stream, resumes from the decision journal
and proves the post-resume decisions are bit-identical to an
uninterrupted run.
"""

import asyncio
import errno
import json
import os
import signal
import socket
import subprocess
import sys
import urllib.request

import pytest

from repro.engine.controller import AdmissionController
from repro.serve.loadgen import drive_instance, percentile, run_bench
from repro.serve.protocol import decode_line, encode_line
from repro.serve.server import MAX_LINE_BYTES, AdmissionServer, ServeConfig
from repro.serve.snapshotter import (
    load_decision_journal,
    verify_decision_log,
)
from repro.workloads.arrivals import mmpp_instance
from repro.workloads.random_instances import random_instance


async def _request(host: str, port: int, *messages: dict) -> list[dict]:
    """One socket connection, n request lines, n reply lines."""
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for message in messages:
            writer.write(encode_line(message))
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
    finally:
        writer.close()
        await writer.wait_closed()
    return replies


def _with_server(config: ServeConfig, body) -> AdmissionServer:
    """Start a server, run ``await body(server)``, drain gracefully."""

    async def main() -> AdmissionServer:
        server = AdmissionServer(config)
        await server.start()
        try:
            await body(server)
        finally:
            server.request_shutdown()
            await server.serve_until_shutdown()
        return server

    return asyncio.run(main())


class TestSocketTransport:
    def test_offer_stats_ping_round_trip(self):
        async def body(server):
            replies = await _request(
                "127.0.0.1", server.socket_port,
                {"op": "ping"},
                {"op": "offer", "tag": "a",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
                {"op": "offer", "job": {"processing": 1.0, "slack": 1.0}},
                {"op": "stats"},
            )
            pong, first, relative, stats = replies
            assert pong["kind"] == "pong"
            assert first["ok"] and first["seq"] == 0 and first["tag"] == "a"
            assert first["accepted"] is True and len(first["loads"]) == 2
            # relative job was stamped at the session clock (0.0)
            assert relative["t"] == 0.0
            assert stats["jobs"] == 2 and stats["machines"] == 2

        _with_server(ServeConfig(machines=2, epsilon=0.5), body)

    def test_bad_requests_keep_the_connection_alive(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            try:
                writer.write(b"this is not json\n")
                writer.write(encode_line({"op": "offer", "job": {}}))
                writer.write(encode_line(
                    {"op": "offer",
                     "job": {"release": 0.0, "processing": 1.0,
                             "deadline": 2.0}},
                ))
                await writer.drain()
                garbage = json.loads(await reader.readline())
                badjob = json.loads(await reader.readline())
                good = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            assert not garbage["ok"] and "JSON" in garbage["error"]
            assert not badjob["ok"] and "processing" in badjob["error"]
            assert good["ok"] and good["seq"] == 0

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)

    def test_stale_release_is_an_error_not_a_crash(self):
        async def body(server):
            replies = await _request(
                "127.0.0.1", server.socket_port,
                {"op": "offer",
                 "job": {"release": 5.0, "processing": 1.0, "deadline": 7.0}},
                {"op": "offer",
                 "job": {"release": 1.0, "processing": 1.0, "deadline": 3.0}},
                {"op": "stats"},
            )
            assert replies[0]["ok"]
            assert not replies[1]["ok"]
            assert replies[2]["jobs"] == 1  # the stale offer left no trace

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)

    def test_watch_streams_decisions_to_subscribers(self):
        events = []

        async def body(server):
            watch_reader, watch_writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            watch_writer.write(encode_line({"op": "watch"}))
            await watch_writer.drain()
            ack = json.loads(await watch_reader.readline())
            assert ack["kind"] == "watch"
            await _request(
                "127.0.0.1", server.socket_port,
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
                {"op": "offer",
                 "job": {"release": 1.0, "processing": 1.0, "deadline": 3.0}},
            )
            for _ in range(2):
                events.append(
                    json.loads(await asyncio.wait_for(
                        watch_reader.readline(), timeout=5.0))
                )
            watch_writer.close()
            await watch_writer.wait_closed()

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)
        assert [e["seq"] for e in events] == [0, 1]
        assert all(e["kind"] == "decision" for e in events)

    def test_oversized_lines_get_their_reply(self):
        """A line past the stream reader's 64 KiB limit is still served; one
        past MAX_LINE_BYTES gets ``request too large`` and a close, and the
        loop's exception handler hears of neither."""
        loop_errors = []

        def exchange(port, payload):
            """Send *payload*, then read until the server closes."""
            data = b""
            with socket.create_connection(
                ("127.0.0.1", port), timeout=10
            ) as sock:
                try:
                    sock.sendall(payload)
                    sock.shutdown(socket.SHUT_WR)
                except OSError:
                    pass  # closed on us mid-send: any reply is already queued
                try:
                    while chunk := sock.recv(1 << 16):
                        data += chunk
                except ConnectionResetError:
                    pass
            return [json.loads(line) for line in data.splitlines()]

        def padded(op, size):
            line = encode_line({"op": op, "pad": ""})
            return encode_line({"op": op, "pad": "x" * (size - len(line))})

        async def body(server):
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda loop, ctx: loop_errors.append(ctx)
            )
            port = server.socket_port
            ping = padded("ping", 70_000)
            assert len(ping) == 70_000
            big, huge = padded("ping", MAX_LINE_BYTES), padded("ping", 2_000_000)
            served = await loop.run_in_executor(
                None, exchange, port, ping + encode_line({"op": "ping"}) + big
            )
            assert [r["kind"] for r in served] == ["pong", "pong", "pong"]
            refused = await loop.run_in_executor(
                None, exchange, port, encode_line({"op": "ping"}) + huge + ping
            )
            assert refused == [
                {"ok": True, "kind": "pong", "protocol": 1},
                {"ok": False, "kind": "error", "error": "request too large"},
            ]

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)
        assert loop_errors == []

    def test_unterminated_last_line_is_served(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            writer.write(encode_line({"op": "ping"}) + b'{"op": "stats"}')
            writer.write_eof()
            replies = [json.loads(r) for r in (await reader.read()).splitlines()]
            writer.close()
            await writer.wait_closed()
            assert [r["kind"] for r in replies] == ["pong", "stats"]

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)


class TestHttpTransport:
    def test_routes(self):
        async def body(server):
            base = f"http://127.0.0.1:{server.http_port}"

            def fetch(path, data=None, method=None):
                req = urllib.request.Request(
                    base + path, data=data, method=method
                )
                try:
                    with urllib.request.urlopen(req, timeout=5) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as err:
                    return err.code, json.loads(err.read())

            loop = asyncio.get_running_loop()
            status, health = await loop.run_in_executor(
                None, fetch, "/healthz"
            )
            assert status == 200 and health["ok"]
            offer = json.dumps({
                "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0},
                "tag": "http-1",
            }).encode()
            status, decision = await loop.run_in_executor(
                None, lambda: fetch("/offer", offer, "POST")
            )
            assert status == 200 and decision["accepted"]
            assert decision["tag"] == "http-1"
            status, bad = await loop.run_in_executor(
                None, lambda: fetch("/offer", b'{"job": {}}', "POST")
            )
            assert status == 400 and not bad["ok"]
            status, stats = await loop.run_in_executor(None, fetch, "/stats")
            assert status == 200 and stats["jobs"] == 1
            status, missing = await loop.run_in_executor(
                None, fetch, "/nowhere"
            )
            assert status == 404

        _with_server(ServeConfig(machines=1, epsilon=0.5), body)


class TestLoadGenerator:
    def test_run_bench_measures_and_journals(self, tmp_path):
        log = tmp_path / "bench.jsonl"
        inst = mmpp_instance(120, machines=2, epsilon=0.5, seed=20)
        config = ServeConfig(
            machines=2, epsilon=0.5, name=inst.name, decision_log=str(log)
        )
        report, server = run_bench(config, inst, window=16)
        assert report.jobs == 120 and report.errors == 0
        assert report.accepted + report.rejected == 120
        assert report.decisions_per_second > 0
        assert 0.0 < report.latency_p50_ms <= report.latency_p99_ms
        assert report.latency_p99_ms <= report.latency_p999_ms
        assert report.drain_seconds is not None
        assert len(report.final_loads) == 2
        ok, detail = verify_decision_log(log)
        assert ok, detail
        assert load_decision_journal(log).sealed

    def test_percentile_is_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile([], 50) == 0.0

    def test_drive_instance_against_plain_server(self):
        inst = random_instance(30, 2, 0.4, seed=21)

        async def main():
            server = AdmissionServer(ServeConfig(machines=2, epsilon=0.4))
            await server.start()
            try:
                return await drive_instance(
                    "127.0.0.1", server.socket_port, inst, window=8
                )
            finally:
                server.request_shutdown()
                await server.serve_until_shutdown()

        report = asyncio.run(main())
        assert report.accepted + report.rejected == 30


class TestOfferHotPath:
    def test_offers_never_copy_the_job_history(self, tmp_path, monkeypatch):
        """Each offer reads one job of the session, not a copy of all of
        them, so a long session costs the same per offer as a short one."""

        def refuse(self):
            raise AssertionError("offer_payload copied the whole job history")

        monkeypatch.setattr(AdmissionController, "jobs", property(refuse))
        log = tmp_path / "log.jsonl"
        inst = mmpp_instance(200, machines=3, epsilon=0.5, seed=7)

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=3, epsilon=0.5, name=inst.name, decision_log=str(log)
            ))
            await server.start()
            try:
                return [
                    server.offer_payload(
                        {"release": job.release, "processing": job.processing,
                         "deadline": job.deadline},
                        tag=i,
                    )
                    for i, job in enumerate(inst)
                ]
            finally:
                server.request_shutdown()
                await server.serve_until_shutdown()

        replies = asyncio.run(main())
        assert [r["seq"] for r in replies] == list(range(200))
        assert all(r["ok"] and r["tag"] == r["seq"] for r in replies)
        ok, detail = verify_decision_log(log)
        assert ok, detail

    def test_one_job_and_one_load_per_machine_per_offer(self, tmp_path, monkeypatch):
        """The job ``job_from_message`` builds is the one the session
        keeps, and the step, the policy and the reply share one
        ``outstanding`` computation per machine (plus one for the machine
        an acceptance commits to)."""
        from repro.model import machine
        from repro.model.job import Job
        from repro.serve import server as server_module

        built, counts = [], {"jobs": 0, "loads": 0}
        real_job_from_message = server_module.job_from_message
        real_post_init = Job.__post_init__
        real_bisect_right = machine.bisect_right

        def job_from_message(*args, **kwargs):
            built.append(real_job_from_message(*args, **kwargs))
            return built[-1]

        def post_init(job):
            counts["jobs"] += 1
            real_post_init(job)

        def bisect_right(*args):
            counts["loads"] += 1
            return real_bisect_right(*args)

        n, m = 300, 4
        stream = [
            {"release": job.release, "processing": job.processing,
             "deadline": job.deadline}
            for job in mmpp_instance(n, machines=m, epsilon=0.5, seed=3)
        ]
        monkeypatch.setattr(server_module, "job_from_message", job_from_message)
        monkeypatch.setattr(Job, "__post_init__", post_init)
        monkeypatch.setattr(machine, "bisect_right", bisect_right)

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=m, epsilon=0.5, decision_log=str(tmp_path / "log.jsonl")
            ))
            await server.start()
            try:
                replies = [server.offer_payload(job) for job in stream]
                return replies, server.session
            finally:
                server.request_shutdown()
                await server.serve_until_shutdown()

        replies, session = asyncio.run(main())
        accepted = sum(r["accepted"] for r in replies)
        assert 0 < accepted < n
        assert counts["jobs"] == n
        assert all(session.job(seq) is job for seq, job in enumerate(built))
        assert counts["loads"] <= m * n + accepted


def _offer_lines(jobs):
    return [
        encode_line({
            "op": "offer", "tag": i,
            "job": {"release": job.release, "processing": job.processing,
                    "deadline": job.deadline},
        })
        for i, job in enumerate(jobs)
    ]


async def _read_replies(reader, n):
    return [json.loads(await reader.readline()) for _ in range(n)]


class TestGroupCommit:
    """One socket read, one journal commit, then that read's replies."""

    def test_a_window_of_offers_costs_at_most_two_fsyncs(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "log.jsonl"
        inst = mmpp_instance(64, machines=2, epsilon=0.5, seed=40)
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        async def body(server):
            monkeypatch.setattr(os, "fsync", counting_fsync)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            writer.write(b"".join(_offer_lines(inst.jobs)))
            await writer.drain()
            replies = await _read_replies(reader, 64)
            writer.close()
            await writer.wait_closed()
            assert len(fsyncs) <= 2
            assert [(r["tag"], r["seq"]) for r in replies] == [
                (i, i) for i in range(64)
            ]

        _with_server(ServeConfig(
            machines=2, epsilon=0.5, name=inst.name, decision_log=str(log)
        ), body)
        assert 1 <= len(fsyncs) <= 3  # and the seal
        ok, detail = verify_decision_log(log)
        assert ok, detail
        assert load_decision_journal(log).sealed

    def test_pipelined_log_is_byte_identical_to_one_at_a_time(self, tmp_path):
        inst = mmpp_instance(300, machines=3, epsilon=0.5, seed=41)
        lines = _offer_lines(inst.jobs)

        async def pipelined(server):
            report = await drive_instance(
                "127.0.0.1", server.socket_port, inst, window=64
            )
            assert report.errors == 0

        async def one_at_a_time(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            for line in lines:
                writer.write(line)
                await writer.drain()
                assert json.loads(await reader.readline())["ok"]
            writer.close()
            await writer.wait_closed()

        logs = []
        for body in (pipelined, one_at_a_time):
            logs.append(tmp_path / f"{body.__name__}.jsonl")
            _with_server(ServeConfig(
                machines=3, epsilon=0.5, name=inst.name,
                decision_log=str(logs[-1]),
            ), body)
        assert logs[0].read_bytes() == logs[1].read_bytes()
        assert len(load_decision_journal(logs[0]).decisions) == 300

    def test_no_reply_leaves_before_its_record_is_durable(
        self, tmp_path, monkeypatch
    ):
        """Order the journal's fsyncs against the server's socket writes: every
        decision a write carries is in the file at the last fsync before it."""
        log = tmp_path / "log.jsonl"
        inst = mmpp_instance(400, machines=2, epsilon=0.5, seed=42)
        durable = [0]  # decision records on disk as of the last fsync
        checked, early = [], []
        real_fsync, real_write = os.fsync, asyncio.StreamWriter.write

        def fsync(fd):
            real_fsync(fd)
            durable[0] = log.read_bytes().count(b'"kind": "decision"')

        async def body(server):
            def write(writer, data):
                if writer in server._writers:
                    for line in data.splitlines():
                        seq = json.loads(line).get("seq")
                        if seq is not None:
                            checked.append(seq)
                            if seq >= durable[0]:
                                early.append((seq, durable[0]))
                return real_write(writer, data)

            monkeypatch.setattr(os, "fsync", fsync)
            monkeypatch.setattr(asyncio.StreamWriter, "write", write)
            report = await drive_instance(
                "127.0.0.1", server.socket_port, inst, window=64
            )
            assert report.errors == 0

        _with_server(ServeConfig(
            machines=2, epsilon=0.5, name=inst.name, decision_log=str(log)
        ), body)
        assert checked == list(range(400))
        assert early == []


class TestFailStop:
    """A failed journal commit is never acknowledged, and stops the service."""

    def test_failed_fsync_sends_no_reply_and_decides_nothing_more(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "log.jsonl"
        inst = mmpp_instance(20, machines=2, epsilon=0.5, seed=43)
        lines = _offer_lines(inst.jobs)

        def broken_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=2, epsilon=0.5, name=inst.name, decision_log=str(log)
            ))
            await server.start()
            port = server.socket_port
            watch_reader, watch_writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            watch_writer.write(encode_line({"op": "watch"}))
            assert json.loads(await watch_reader.readline())["kind"] == "watch"
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"".join(lines[:5]))
            assert len(await _read_replies(reader, 5)) == 5
            monkeypatch.setattr(os, "fsync", broken_fsync)
            writer.write(b"".join(lines[5:10]))
            # Closed, with no reply, and the service is shutting down.
            assert await asyncio.wait_for(reader.read(), timeout=10) == b""
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=10)
            # The watcher saw only the decisions that reached the disk.
            watched = await asyncio.wait_for(watch_reader.read(), timeout=10)
            for w in (writer, watch_writer):
                w.close()
                await w.wait_closed()
            return server, [json.loads(e)["seq"] for e in watched.splitlines()]

        server, watched = asyncio.run(main())
        assert watched == [0, 1, 2, 3, 4]
        assert "Input/output error" in str(server.failure)
        # Nothing more is decided, on any transport.
        refused = server.offer_payload(
            {"release": 99.0, "processing": 1.0, "deadline": 101.0}
        )
        assert refused["ok"] is False and "not deciding" in refused["error"]
        assert server.session.job_count == 10
        assert not load_decision_journal(log).sealed

    def test_http_offer_gets_503_when_its_commit_fails(self, tmp_path, monkeypatch):
        log = tmp_path / "log.jsonl"

        def broken_fsync(fd):
            raise OSError(errno.EIO, "Input/output error")

        def post_offer(port):
            body = json.dumps({"job": {"release": 0.0, "processing": 1.0,
                                       "deadline": 2.0}}).encode()
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/offer", data=body, method="POST"
            )
            try:
                with urllib.request.urlopen(req, timeout=10) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as err:
                return err.code, json.loads(err.read())

        async def body(server):
            monkeypatch.setattr(os, "fsync", broken_fsync)
            status, reply = await asyncio.get_running_loop().run_in_executor(
                None, post_offer, server.http_port
            )
            assert status == 503 and not reply["ok"]
            assert "commit failed" in reply["error"]

        server = _with_server(
            ServeConfig(machines=1, epsilon=0.5, decision_log=str(log)), body
        )
        assert server.failure is not None
        assert not load_decision_journal(log).sealed

    def test_repro_serve_exits_nonzero_on_a_failed_commit(self, tmp_path):
        """The CLI, with ``os.fsync`` failing after the header's commit."""
        log = tmp_path / "log.jsonl"
        launcher = (
            "import errno, os, sys\n"
            "calls = []\n"
            "real = os.fsync\n"
            "def fsync(fd):\n"
            "    calls.append(fd)\n"
            "    if len(calls) > 1:\n"
            "        raise OSError(errno.EIO, 'Input/output error')\n"
            "    return real(fd)\n"
            "os.fsync = fsync\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", launcher, "serve", "--m", "2", "--eps", "0.5",
             "--decision-log", str(log)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_serve_env(),
            text=True,
        )
        try:
            announcement = json.loads(proc.stdout.readline())
            with socket.create_connection(
                ("127.0.0.1", announcement["socket_port"]), timeout=10
            ) as sock:
                sock.sendall(b"".join(_offer_lines(
                    mmpp_instance(8, machines=2, epsilon=0.5, seed=44).jobs
                )))
                assert sock.recv(1 << 16) == b""  # no reply, connection closed
            _, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1
        assert err.startswith("error: ") and "decision log commit failed" in err
        assert "Traceback" not in err
        state = load_decision_journal(log)
        assert not state.sealed


class TestGracefulShutdown:
    def test_socket_shutdown_op_seals_the_journal(self, tmp_path):
        log = tmp_path / "log.jsonl"

        async def body(server):
            replies = await _request(
                "127.0.0.1", server.socket_port,
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
                {"op": "shutdown"},
            )
            assert replies[1] == {"ok": True, "kind": "shutdown"}

        server = _with_server(
            ServeConfig(machines=1, epsilon=0.5, decision_log=str(log)), body
        )
        assert server.drain_seconds is not None
        state = load_decision_journal(log)
        assert state.sealed and len(state.decisions) == 1

    def test_lingering_connection_is_cancelled_silently(self, tmp_path):
        """A client that never disconnects must not block or dirty shutdown.

        The drain deadline cancels its handler; the cancel has to be
        absorbed (no loop-exception-handler noise, no unsealed journal).
        """
        log = tmp_path / "log.jsonl"
        loop_errors = []

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=1, epsilon=0.5, decision_log=str(log),
                drain_grace=0.2,
            ))
            await server.start()
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: loop_errors.append(ctx)
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            writer.write(encode_line(
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
            ))
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            # ... and then the client just sits there, connection open.
            server.request_shutdown()
            await server.serve_until_shutdown()
            await asyncio.sleep(0.05)  # let any stray callbacks fire
            writer.close()
            return server

        server = asyncio.run(main())
        assert server.drain_seconds < 2.0
        assert loop_errors == []
        assert server.drain_timed_out is False
        state = load_decision_journal(log)
        assert state.sealed and len(state.decisions) == 1

    def test_drain_timeout_bounds_a_client_that_stopped_reading(self, tmp_path):
        """--drain-timeout: a stalled *reader* cannot hang shutdown.

        Cancellation alone cannot unstick a handler that is flushing a
        write buffer the peer will never read (``wait_closed`` waits for
        the flush).  The timeout aborts the stalled transport, seals the
        journal, and shutdown completes cleanly.
        """
        log = tmp_path / "log.jsonl"
        loop_errors = []

        async def main():
            server = AdmissionServer(ServeConfig(
                machines=1, epsilon=0.5, decision_log=str(log),
                drain_grace=0.1, drain_timeout=0.3,
            ))
            await server.start()
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, ctx: loop_errors.append(ctx)
            )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.socket_port
            )
            writer.write(encode_line(
                {"op": "offer",
                 "job": {"release": 0.0, "processing": 1.0, "deadline": 2.0}},
            ))
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            # Pipeline thousands of large requests and never read another
            # byte: the replies (bad-job errors echo the 8 KiB tag, and
            # are never journaled) overflow the socket buffers and wedge
            # the server handler inside ``writer.drain()``.  (No ``drain``
            # on the client side either — it would block the same way.)
            tag = "x" * 8192
            for _ in range(2000):
                writer.write(encode_line({"op": "offer", "job": {},
                                          "tag": tag}))
            # Wait until the server handler is actually wedged: its
            # transport holding user-space buffered bytes means the
            # kernel buffers are full and ``drain()`` is blocked.
            for _ in range(200):
                if any(
                    w.transport is not None
                    and w.transport.get_write_buffer_size() > 0
                    for w in server._writers
                ):
                    break
                await asyncio.sleep(0.025)
            server.request_shutdown()
            await asyncio.wait_for(server.serve_until_shutdown(), timeout=5.0)
            await asyncio.sleep(0.05)  # let any stray callbacks fire
            writer.close()
            return server

        server = asyncio.run(main())
        assert server.drain_timed_out is True
        assert server.drain_seconds < 3.0
        assert loop_errors == []
        state = load_decision_journal(log)
        assert state.sealed and len(state.decisions) == 1


# ---------------------------------------------------------------------------
# Chaos: SIGKILL a live server mid-stream, resume, prove bit-identity
# ---------------------------------------------------------------------------


def _serve_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _spawn_server(log_path, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--m", "2", "--eps", "0.5",
         "--decision-log", str(log_path), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_serve_env(),
        text=True,
    )
    announcement = json.loads(proc.stdout.readline())
    assert announcement["kind"] == "listening"
    return proc, announcement


def _offer_jobs(port, jobs):
    """Offer jobs over a fresh socket; returns the decision payloads."""
    decisions = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        fh = sock.makefile("rwb")
        for job in jobs:
            fh.write(encode_line({
                "op": "offer",
                "job": {"release": job.release, "processing": job.processing,
                        "deadline": job.deadline},
            }))
            fh.flush()
            reply = json.loads(fh.readline())
            assert reply["ok"], reply
            decisions.append(
                [reply["accepted"], reply["machine"], reply["start"]]
            )
    return decisions


def _stop(proc, sig=signal.SIGTERM):
    """Signal *proc*, wait for it and close its pipes; returns its exit code."""
    proc.send_signal(sig)
    proc.communicate(timeout=20)
    return proc.returncode


def _offer_window(port, jobs, window=64, kill=None):
    """Keep *window* offers in flight; returns (decisions, offers in flight).

    With ``kill=(after, proc)``, SIGKILLs *proc* once *after* replies are in
    and the window is full again, then reads whatever replies still arrive.
    """
    lines = _offer_lines(jobs)
    decisions, buf, sent, in_flight = [], b"", 0, 0
    with socket.create_connection(("127.0.0.1", port), timeout=20) as sock:
        while len(decisions) < len(lines):
            upto = min(len(lines), len(decisions) + window)
            if sent < upto:
                sock.sendall(b"".join(lines[sent:upto]))
                sent = upto
            if kill is not None and len(decisions) >= kill[0]:
                in_flight = sent - len(decisions)
                _stop(kill[1], signal.SIGKILL)
                kill = None
            try:
                chunk = sock.recv(1 << 16)
            except ConnectionResetError:
                break
            if not chunk:
                break
            *replies, buf = (buf + chunk).split(b"\n")
            for raw in replies:
                reply = json.loads(raw)
                assert reply["ok"] and reply["tag"] == len(decisions), reply
                decisions.append(
                    [reply["accepted"], reply["machine"], reply["start"]]
                )
    return decisions, in_flight


class TestChaosKillResume:
    """Satellite: SIGKILL mid-stream, resume, bit-identical remainder."""

    def test_kill_resume_decisions_bit_identical(self, tmp_path):
        inst = mmpp_instance(40, machines=2, epsilon=0.5, seed=30)
        cut = 15

        # Reference: one uninterrupted server over the full stream.
        ref_log = tmp_path / "uninterrupted.jsonl"
        proc, announcement = _spawn_server(ref_log)
        try:
            reference = _offer_jobs(announcement["socket_port"], inst.jobs)
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0

        # Chaos run: serve `cut` jobs, SIGKILL (no drain, no seal), resume
        # from the journal, serve the remainder.
        log = tmp_path / "chaos.jsonl"
        proc, announcement = _spawn_server(log)
        try:
            before = _offer_jobs(
                announcement["socket_port"], inst.jobs[:cut]
            )
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=20)
            assert not load_decision_journal(log).sealed  # hard death

            proc, announcement = _spawn_server(log, "--resume")
            assert announcement["resumed_decisions"] == cut
            after = _offer_jobs(
                announcement["socket_port"], inst.jobs[cut:]
            )
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0

        # Every decision — before the kill and after the resume — matches
        # the uninterrupted run exactly.
        assert before + after == reference

        # And both journals replay bit-identical through the batch engine.
        for path in (ref_log, log):
            ok, detail = verify_decision_log(path)
            assert ok, detail
        assert load_decision_journal(log).sealed

    def test_kill_with_a_window_in_flight_loses_no_acknowledged_decision(
        self, tmp_path
    ):
        """SIGKILL with 64 offers in flight: every decision the client got
        a reply for is in the log, and the log plus the resumed run's
        decisions equal an uninterrupted run's."""
        inst = mmpp_instance(600, machines=2, epsilon=0.5, seed=31)

        ref_log = tmp_path / "uninterrupted.jsonl"
        proc, announcement = _spawn_server(ref_log)
        try:
            reference, _ = _offer_window(announcement["socket_port"], inst.jobs)
        finally:
            assert _stop(proc) == 0
        assert len(reference) == 600

        log = tmp_path / "chaos.jsonl"
        proc, announcement = _spawn_server(log)
        try:
            acked, in_flight = _offer_window(
                announcement["socket_port"], inst.jobs, kill=(200, proc)
            )
            assert in_flight == 64
            state = load_decision_journal(log)
            assert not state.sealed
            logged = state.decisions
            assert len(acked) <= len(logged)
            assert acked == logged[: len(acked)]

            proc, announcement = _spawn_server(log, "--resume")
            assert announcement["resumed_decisions"] == len(logged)
            after, _ = _offer_window(
                announcement["socket_port"], inst.jobs[len(logged):]
            )
        finally:
            assert _stop(proc) == 0

        assert logged + after == reference
        ok, detail = verify_decision_log(log)
        assert ok, detail
        assert load_decision_journal(log).sealed

    def test_resume_without_log_fails_cleanly(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--m", "2",
             "--eps", "0.5", "--decision-log",
             str(tmp_path / "missing.jsonl"), "--resume"],
            capture_output=True, env=_serve_env(), text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
