"""Bundled load generator: drive an admission server with workload jobs.

``repro serve-bench`` uses this module to push the jobs of any
:class:`~repro.model.instance.Instance` — typically an MMPP burst from
:func:`repro.workloads.arrivals.mmpp_instance` or a trace replay — over
the NDJSON socket in a pipelined window, measuring per-offer decision
latency (p50/p99/p999), sustained decisions/sec, and (when self-hosting
the server in-process) the graceful-shutdown drain time.

Offers carry the client's ``tag`` so latency is measured per request even
under pipelining; the server decides in arrival order on one connection,
which also keeps the served decision log replayable offline.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any

from repro.model.instance import Instance
from repro.serve.protocol import decode_line, encode_line
from repro.serve.server import AdmissionServer, ServeConfig


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 on empty input."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[min(len(ordered), int(rank)) - 1]


@dataclass
class LoadReport:
    """What one load-generation run measured."""

    jobs: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    decisions_per_second: float = 0.0
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    latency_p999_ms: float = 0.0
    latency_max_ms: float = 0.0
    #: Graceful-shutdown drain time (self-hosted runs only).
    drain_seconds: float | None = None
    final_loads: list[float] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "wall_seconds": self.wall_seconds,
            "decisions_per_second": self.decisions_per_second,
            "latency_ms": {
                "p50": self.latency_p50_ms,
                "p99": self.latency_p99_ms,
                "p999": self.latency_p999_ms,
                "max": self.latency_max_ms,
            },
            "drain_seconds": self.drain_seconds,
            "final_loads": self.final_loads,
        }


async def drive_instance(
    host: str,
    port: int,
    instance: Instance,
    *,
    window: int = 64,
) -> LoadReport:
    """Pipeline the instance's jobs over the socket; measure latencies.

    Keeps up to *window* offers in flight on one connection (the server
    still decides strictly in submission order), records wall-clock
    round-trip latency per offer, and finishes with a ``stats`` request so
    the report carries the server's final per-machine loads.
    """
    reader, writer = await asyncio.open_connection(host, port)
    report = LoadReport(jobs=len(instance.jobs))
    send_times: dict[int, float] = {}
    latencies: list[float] = []
    gate = asyncio.Semaphore(window)

    async def pump() -> None:
        for i, job in enumerate(instance.jobs):
            await gate.acquire()
            message = {
                "op": "offer",
                "tag": i,
                "job": {
                    "release": job.release,
                    "processing": job.processing,
                    "deadline": job.deadline,
                },
            }
            if job.weight is not None:
                message["job"]["weight"] = job.weight
            send_times[i] = time.perf_counter()
            writer.write(encode_line(message))
            await writer.drain()

    t0 = time.perf_counter()
    pump_task = asyncio.create_task(pump())
    try:
        for _ in range(len(instance.jobs)):
            raw = await reader.readline()
            if not raw:
                raise ConnectionError("server closed the connection mid-run")
            now = time.perf_counter()
            reply = decode_reply(raw)
            tag = reply.get("tag")
            if tag in send_times:
                latencies.append(now - send_times.pop(tag))
            if reply.get("ok") and reply.get("kind") == "decision":
                if reply.get("accepted"):
                    report.accepted += 1
                else:
                    report.rejected += 1
            else:
                report.errors += 1
            gate.release()
        await pump_task
        writer.write(encode_line({"op": "stats"}))
        await writer.drain()
        stats_raw = await reader.readline()
        if stats_raw:
            report.final_loads = list(decode_reply(stats_raw).get("loads", []))
    finally:
        pump_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
    report.wall_seconds = time.perf_counter() - t0
    decided = report.accepted + report.rejected
    if report.wall_seconds > 0:
        report.decisions_per_second = decided / report.wall_seconds
    millis = [1000.0 * s for s in latencies]
    report.latency_p50_ms = percentile(millis, 50)
    report.latency_p99_ms = percentile(millis, 99)
    report.latency_p999_ms = percentile(millis, 99.9)
    report.latency_max_ms = max(millis) if millis else 0.0
    return report


def decode_reply(raw: bytes) -> dict[str, Any]:
    """Parse one reply line (replies have no ``op``, so not decode_line)."""
    import json

    reply = json.loads(raw.decode("utf-8"))
    if not isinstance(reply, dict):
        raise ValueError("reply must be a JSON object")
    return reply


def run_load(
    host: str, port: int, instance: Instance, *, window: int = 64
) -> LoadReport:
    """Synchronous wrapper: drive an already-running server."""
    return asyncio.run(drive_instance(host, port, instance, window=window))


def run_bench(
    config: ServeConfig, instance: Instance, *, window: int = 64
) -> tuple[LoadReport, AdmissionServer]:
    """Self-hosted benchmark: start, drive, drain — all in one process.

    Brings the server up on ephemeral ports inside a private event loop,
    drives the instance through the socket, then performs a full graceful
    shutdown so the report includes the measured drain time (and, if the
    config names a decision log, the sealed journal is left behind for
    :func:`repro.serve.snapshotter.verify_decision_log`).
    """

    async def main() -> tuple[LoadReport, AdmissionServer]:
        server = AdmissionServer(config)
        await server.start()
        assert server.socket_port is not None
        try:
            report = await drive_instance(
                config.host, server.socket_port, instance, window=window
            )
        finally:
            server.request_shutdown()
            await server.serve_until_shutdown()
            if server.failure is not None:
                raise server.failure
        report.drain_seconds = server.drain_seconds
        return report, server

    return asyncio.run(main())


__all__ = [
    "LoadReport",
    "drive_instance",
    "percentile",
    "run_bench",
    "run_load",
]
