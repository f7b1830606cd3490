"""The benchmark workloads.

Each workload runs *rounds* of fixed size: a round is one complete unit a
user would launch (a sweep, a pass of the simulation mix, a served
session), and throughput is reported as the median over rounds.  A run
makes at least ``draws`` rounds: sweep rounds cycle through that many
draws of cells (:func:`inputs.round_seed`); the simulation mix and the
served session repeat the same jobs every round.  ``run_round`` times
only the work; ``check`` is the correctness gate, applied to every round
after the timed phase.  ``install`` puts the span wrappers of the traced
run in place and ``layers`` turns the merged spans into per-layer
metrics.

Why each workload exists, and which layer it is meant to expose, is
recorded in ``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import random
import signal
import socket
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import inputs
from spans import Tracer, layer_totals, self_times

HERE = pathlib.Path(__file__).resolve().parent

#: Cells per run re-run on the scalar backend as the reference.
SCALAR_SAMPLE_CELLS = 8
#: Offers in the throw-away session that warms a serve run up.
SERVE_WARMUP_OFFERS = 2_000
#: Seconds a server gets to announce, drain or finish replying.
SERVE_TIMEOUT = 60.0


@dataclass
class Context:
    root: pathlib.Path
    work: pathlib.Path
    seed: int
    seconds: float
    env: dict[str, str]


@dataclass
class Round:
    #: work done, in the throughput's unit.
    units: int
    wall: float
    #: units the correctness gate judges (cells, simulations or offers);
    #: the throughput's units unless given.
    attempted: int | None = None
    #: what the correctness gate needs to inspect the round.
    payload: Any = None
    #: set-up time observed while starting the round (serve only).
    setup_s: float | None = None
    latencies: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.attempted is None:
            self.attempted = self.units


def probe(ctx: Context, workload: str, tag: str) -> tuple[float, float]:
    """One fresh interpreter brought to its first unit of work.

    Returns ``(spawn-to-ready seconds, seconds spent importing)``.
    """
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(ctx.work), str(ctx.seed), tag],
        env=ctx.env, cwd=ctx.root, capture_output=True, text=True, timeout=120,
    )
    ready = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()}")
    return ready, json.loads(out.stdout.splitlines()[-1])["import_s"]


def calls_and_self(totals: dict, names: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in names:
        calls, own = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = own
    return out


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

OFFLINE_LAYERS = ["offline.exact", "offline.flow", "offline.heuristic", "offline.cache"]
CELL_LAYERS = ["workloads.instance", "engine.run", "core.guarantee"]


def install_cell_layers(tracer: Tracer) -> None:
    """Spans around the calls one sweep cell makes (any process)."""
    from repro.offline import bracket
    from repro.offline.cache import BracketCache
    from repro.engine import backend
    from repro.workloads import resilient

    tracer.patch(bracket, "exact_optimum", "offline.exact")
    tracer.patch(bracket, "opt_upper_bound", "offline.flow")
    tracer.patch(bracket, "opt_lower_bound", "offline.heuristic")
    tracer.patch(BracketCache, "bracket", "offline.cache")
    tracer.patch(inputs, "cell_instance", "workloads.instance",
                 unit=lambda args, kwargs: args[4])
    tracer.patch(backend, "run_simulations", "engine.run")
    tracer.patch(resilient, "guarantee_for", "core.guarantee")


def rows_by_cell(rows: list) -> dict[tuple, list]:
    cells: dict[tuple, list] = {}
    for row in rows:
        cells.setdefault((row.epsilon, row.machines, row.repetition), []).append(row)
    return cells


def check_sweeps(ctx: Context, runs: list[tuple]) -> int:
    """Failed cells over ``(spec, result)`` pairs: invalid or missing rows,
    or rows that differ from a seeded sample of cells re-run on the scalar
    backend without a cache."""
    from repro.workloads.resilient import run_cells, validate_cell_rows

    got = [rows_by_cell(result.rows) for _, result in runs]
    bad = {
        (i, cell)
        for i, (spec, _) in enumerate(runs)
        for cell in spec.cells()
        if validate_cell_rows(spec, *cell, got[i].get(cell)) is not None
    }
    population = [(i, cell) for i, (spec, _) in enumerate(runs) for cell in spec.cells()]
    for i, cell in random.Random(ctx.seed).sample(population, SCALAR_SAMPLE_CELLS):
        [reference] = run_cells(runs[i][0], [cell], {}, None, backend="scalar")
        if got[i].get(cell) != reference:
            bad.add((i, cell))
    return len(bad)


class SweepCold:
    """Serial in-process ``execute_sweep`` into a fresh on-disk cache."""

    name = "sweep-cold"
    unit = "cells"
    draws = inputs.SWEEP_DRAWS

    def prepare(self, ctx: Context) -> None:
        pass

    def setup(self, ctx: Context, tag: str) -> float:
        return probe(ctx, self.name, tag)[0]

    def install(self, tracer: Tracer) -> None:
        install_cell_layers(tracer)

    def run_round(self, ctx: Context, tag: str, index: int, tracer: Tracer | None = None) -> Round:
        from repro.offline.cache import BracketCache
        from repro.workloads.execute import ExecutionPolicy, execute_sweep

        specs = inputs.cold_specs(ctx.seed, index)
        policy = ExecutionPolicy(cache=BracketCache(ctx.work / f"cache-{tag}"))
        with _root_span(tracer, "workloads.other"):
            t0 = time.perf_counter()
            results = [execute_sweep(spec, policy) for spec in specs]
            wall = time.perf_counter() - t0
        cells = sum(r.manifest.cells_total for r in results)
        return Round(units=cells, wall=wall, payload=(specs, results, policy.cache))

    def check(self, ctx: Context, rounds: list[Round]) -> int:
        return check_sweeps(
            ctx, [pair for r in rounds for pair in zip(r.payload[0], r.payload[1])]
        )

    def layers(self, spans, counters, rnd: Round) -> dict[str, float]:
        totals = layer_totals(spans)
        out = calls_and_self(totals, OFFLINE_LAYERS + CELL_LAYERS)
        stats = rnd.payload[2].stats
        out["offline.cache.hits"] = stats.hits
        out["offline.cache.writes"] = stats.writes
        out["workloads.other_s"] = totals.get("workloads.other", (0, 0.0))[1]
        return out


class SweepJournaled:
    """``repro sweep --journal``: static scheduler, ``nproc`` workers."""

    name = "sweep-journaled"
    unit = "cells"
    draws = inputs.SWEEP_DRAWS

    def prepare(self, ctx: Context) -> None:
        pass

    def setup(self, ctx: Context, tag: str) -> float:
        return probe(ctx, self.name, tag)[0]

    def install(self, tracer: Tracer) -> None:
        from repro.workloads import resilient
        from repro.workloads.journal import SweepJournal

        install_cell_layers(tracer)
        worker = tracer.wrap(tracer.original(resilient, "run_cells"), "workloads.worker")

        def run_cells(*args: Any, **kwargs: Any) -> Any:
            rows = worker(*args, **kwargs)
            tracer.count("workloads.ipc.bytes", len(pickle.dumps(rows)))
            return rows

        tracer.replace(resilient, "run_cells", run_cells)
        tracer.patch(SweepJournal, "record_cell", "workloads.journal")
        tracer.patch(os, "fsync", "workloads.fsync")
        tracer.patch(resilient, "validate_cell_rows", "workloads.validate")

    def run_round(self, ctx: Context, tag: str, index: int, tracer: Tracer | None = None) -> Round:
        from repro.offline.cache import BracketCache
        from repro.workloads.execute import ExecutionPolicy, execute_sweep

        spec = inputs.journaled_spec(ctx.seed, index)
        journal = ctx.work / f"journal-{tag}.jsonl"
        policy = ExecutionPolicy(
            workers=inputs.JOURNALED_WORKERS,
            journal=journal,
            cache=BracketCache(ctx.work / f"cache-{tag}"),
        )
        with _root_span(tracer, "workloads.scheduler.other"):
            t0 = time.perf_counter()
            result = execute_sweep(spec, policy)
            wall = time.perf_counter() - t0
        return Round(units=result.manifest.cells_total, wall=wall,
                     payload=(spec, result, journal))

    def check(self, ctx: Context, rounds: list[Round]) -> int:
        """Failed cells as for every sweep (a quarantined cell has no rows),
        plus cells whose journal record differs from the returned rows; a
        journal that is not sealed and CRC-clean fails all its cells."""
        from repro.workloads.journal import verify_journal

        failed = check_sweeps(ctx, [r.payload[:2] for r in rounds])
        for rnd in rounds:
            spec, result, journal = rnd.payload
            verdict = verify_journal(journal)
            if not verdict.ok:
                failed += rnd.units
                continue
            got = rows_by_cell(result.rows)
            for cell in spec.cells():
                if verdict.state.completed.get(spec.cell_seed(*cell)) != got.get(cell):
                    failed += 1
        return failed

    def layers(self, spans, counters, rnd: Round) -> dict[str, float]:
        totals = layer_totals(spans)
        out = calls_and_self(
            totals,
            OFFLINE_LAYERS + CELL_LAYERS
            + ["workloads.worker", "workloads.journal", "workloads.fsync", "workloads.validate"],
        )
        _, result, _ = rnd.payload
        cache = result.cache_stats or {}
        out["offline.cache.hits"] = cache.get("hits", 0)
        out["offline.cache.writes"] = cache.get("writes", 0)
        busy = sum(s["end"] - s["start"] for s in spans if s["name"] == "workloads.worker") / 1e9
        out["workloads.ipc.bytes"] = counters.get("workloads.ipc.bytes", 0)
        out["workloads.scheduler.utilisation"] = busy / (inputs.JOURNALED_WORKERS * rnd.wall)
        out["workloads.scheduler.retries"] = result.manifest.retries
        out["workloads.scheduler.quarantined"] = result.manifest.quarantined
        out["workloads.scheduler.other_s"] = totals.get("workloads.scheduler.other", (0, 0.0))[1]
        return out


# ---------------------------------------------------------------------------
# simulate-mix
# ---------------------------------------------------------------------------

MODELS = ["immediate", "delayed", "admission", "penalties"]


class SimulateMix:
    """``run_simulations(backend="auto")``, one call per algorithm."""

    name = "simulate-mix"
    unit = "jobs"
    draws = 1

    def prepare(self, ctx: Context) -> None:
        path = ctx.work / "mix-inputs.json"
        inputs.write_instances(path, inputs.mix_instances(ctx.seed))
        self.instances = inputs.read_instances(path)

    def setup(self, ctx: Context, tag: str) -> float:
        return probe(ctx, self.name, tag)[0]

    def install(self, tracer: Tracer) -> None:
        pass

    def run_round(self, ctx: Context, tag: str, index: int, tracer: Tracer | None = None) -> Round:
        from repro.engine.backend import SimulationRequest, run_simulations

        outcomes = {}
        with _root_span(tracer, "workloads.other"):
            t0 = time.perf_counter()
            for algorithm, model in inputs.MIX_ALGORITHMS.items():
                requests = [SimulationRequest(algorithm, inst) for inst in self.instances]
                with _root_span(tracer, f"engine.{model}"):
                    results = run_simulations(requests, backend="auto")
                outcomes[algorithm] = results
            wall = time.perf_counter() - t0
        # Keep only what the gate and the trace read, so retained schedules
        # do not grow the heap (and the collector's work) round by round.
        payload = {
            algorithm: [
                (r.accepted_load, r.accepted_count,
                 getattr(r.detail, "meta", {}).get("backend"))
                for r in results
            ]
            for algorithm, results in outcomes.items()
        }
        jobs = len(inputs.MIX_ALGORITHMS) * sum(len(inst) for inst in self.instances)
        simulations = len(inputs.MIX_ALGORITHMS) * len(self.instances)
        return Round(units=jobs, wall=wall, attempted=simulations, payload=payload)

    def check(self, ctx: Context, rounds: list[Round]) -> int:
        """Failed simulations: a seeded sample re-run on the scalar backend
        must match every round on accepted load and count."""
        from repro.engine.backend import SimulationRequest, run_simulations

        pick = random.Random(ctx.seed)
        failed = 0
        for algorithm in inputs.MIX_ALGORITHMS:
            i = pick.randrange(len(self.instances))
            ref = run_simulations([SimulationRequest(algorithm, self.instances[i])],
                                  backend="scalar")[0]
            for rnd in rounds:
                if rnd.payload[algorithm][i][:2] != (ref.accepted_load, ref.accepted_count):
                    failed += 1
        return failed

    def layers(self, spans, counters, rnd: Round) -> dict[str, float]:
        totals = layer_totals(spans)
        out = calls_and_self(totals, [f"engine.{m}" for m in MODELS])
        per_instance = sum(len(inst) for inst in self.instances)
        batch = total = 0
        for m in MODELS:
            out[f"engine.{m}.jobs"] = 0
        for algorithm, model in inputs.MIX_ALGORITHMS.items():
            out[f"engine.{model}.jobs"] += per_instance
            for _, _, backend in rnd.payload[algorithm]:
                total += 1
                batch += backend == "batch"
        out["engine.batch_share"] = batch / total
        out["workloads.other_s"] = totals.get("workloads.other", (0, 0.0))[1]
        return out


# ---------------------------------------------------------------------------
# serve-journaled and serve-durable
# ---------------------------------------------------------------------------

SERVE_LAYERS = [
    "serve.decode", "serve.job", "engine.controller", "serve.journal",
    "serve.fsync", "serve.reply", "serve.offer_payload",
]


class ServeJournaled:
    """``repro serve --decision-log`` driven over its NDJSON socket by one
    connection in a closed loop with a fixed window of offers in flight.

    The server runs with ``os.fsync`` a no-op, as on a RAM-backed file
    system: every decision is still journaled, flushed and its fsync
    call counted, but the session's speed does not hang on the host's
    storage.
    """

    name = "serve-journaled"
    unit = "offers"
    draws = 1
    durable = False

    def prepare(self, ctx: Context) -> None:
        self.lines = [
            json.dumps(
                {"op": "offer", "tag": i, "job": {
                    "release": job.release, "processing": job.processing,
                    "deadline": job.deadline}}
            ).encode() + b"\n"
            for i, job in enumerate(inputs.serve_offers(ctx.seed))
        ]

    def setup(self, ctx: Context, tag: str) -> float:
        """One server start, from spawn to its ``listening`` line."""
        proc, ready, _ = self._launch(ctx, ctx.work / f"probe-{tag}.jsonl")
        self._stop(proc)
        return ready

    def install(self, tracer: Tracer) -> None:
        pass  # the server process installs its own (serve_launcher.py)

    def warm_up(self, ctx: Context) -> None:
        proc, _, port = self._launch(ctx, ctx.work / "warmup.jsonl")
        try:
            drive(port, self.lines[:SERVE_WARMUP_OFFERS], inputs.SERVE_WINDOW)
        finally:
            self._stop(proc)

    def run_round(self, ctx: Context, tag: str, index: int, tracer: Tracer | None = None) -> Round:
        log = ctx.work / f"decisions-{tag}.jsonl"
        proc, ready, port = self._launch(
            ctx, log, None if tracer is None else tracer.out_dir
        )
        try:
            t0, wall, latencies, errors = drive(port, self.lines, inputs.SERVE_WINDOW)
        finally:
            code = self._stop(proc)
        return Round(units=len(self.lines), wall=wall, setup_s=ready,
                     latencies=latencies, payload=(log, errors, code, t0))

    def check(self, ctx: Context, rounds: list[Round]) -> int:
        """Failed offers: error replies, plus every offer of a session whose
        server exited uncleanly, whose log is not sealed or whose logged
        decisions differ from the first session's, which must replay
        bit-identical through the batch engine (every session serves the
        same offers, so one replay covers them all)."""
        from repro.serve.snapshotter import load_decision_journal, verify_decision_log

        first = rounds[0].payload[0]
        ok, _ = verify_decision_log(first)
        replayed = load_decision_journal(first).decisions if ok else None
        failed = 0
        for rnd in rounds:
            log, errors, code, _ = rnd.payload
            state = load_decision_journal(log)
            if (code != 0 or not state.sealed or len(state.decisions) != rnd.units
                    or state.decisions != replayed):
                failed += rnd.units
            else:
                failed += errors
        return failed

    def layers(self, spans, counters, rnd: Round) -> dict[str, float]:
        _, _, _, t0 = rnd.payload
        start, end = int(t0 * 1e9), int((t0 + rnd.wall) * 1e9)
        window = [s for s in spans if s["start"] >= start and s["end"] <= end]
        totals = layer_totals(window)
        out = calls_and_self(totals, SERVE_LAYERS)
        out["serve.fsyncs_per_decision"] = totals.get("serve.fsync", (0, 0.0))[0] / rnd.units
        quarters: list[list[float]] = [[], [], [], []]
        own = self_times(window)
        for s, own_s in zip(window, own):
            if s["name"] == "serve.offer_payload":
                quarters[min(3, 4 * s["unit"] // rnd.units)].append(own_s)
        for q, values in enumerate(quarters, 1):
            out[f"serve.offer_payload.self_us_q{q}"] = (
                1e6 * sum(values) / len(values) if values else 0.0
            )
        out["serve.loop.other_s"] = rnd.wall - sum(own)
        return out

    # -- process handling ----------------------------------------------

    def _launch(self, ctx: Context, log: pathlib.Path, span_dir=None):
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if span_dir is not None:
            cmd += ["--spans", str(span_dir)]
        if not self.durable:
            cmd.append("--no-fsync")
        cmd += ["serve", "--m", str(inputs.SERVE_MACHINES),
                "--eps", str(inputs.SERVE_EPSILON), "--decision-log", str(log)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=ctx.env, cwd=ctx.root,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if not line:
            _, err = proc.communicate(timeout=SERVE_TIMEOUT)
            raise RuntimeError(f"server did not start: {err.decode().strip()}")
        return proc, ready, json.loads(line)["socket_port"]

    @staticmethod
    def _stop(proc: subprocess.Popen) -> int:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=SERVE_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return proc.returncode


class ServeDurable(ServeJournaled):
    """The same sessions with every decision fsync'd.  Not gated: its
    speed follows the host's storage (see ``perfbench/README.md``)."""

    name = "serve-durable"
    durable = True


def drive(port: int, lines: list[bytes], window: int):
    """Closed loop: keep *window* offers in flight until all are answered.

    Returns ``(start, wall, latencies, errors)``; a latency runs from the
    offer's send to the arrival of its reply, and a reply that is not a
    decision for the next offer in order counts as an error.
    """
    n = len(lines)
    sent_at = [0.0] * n
    latencies = [0.0] * n
    errors = sent = got = 0
    buf = b""
    clock = time.perf_counter
    sock = socket.create_connection(("127.0.0.1", port), timeout=SERVE_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        start = clock()
        while got < n:
            upto = min(n, got + window)
            if sent < upto:
                now = clock()
                for i in range(sent, upto):
                    sent_at[i] = now
                sock.sendall(b"".join(lines[sent:upto]))
                sent = upto
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection mid-session")
            now = clock()
            *replies, buf = (buf + chunk).split(b"\n")
            for raw in replies:
                reply = json.loads(raw)
                if not (reply.get("ok") and reply.get("kind") == "decision"
                        and reply.get("tag") == got):
                    errors += 1
                latencies[got] = now - sent_at[got]
                got += 1
        wall = clock() - start
    finally:
        sock.close()
    return start, wall, latencies, errors


def _root_span(tracer: Tracer | None, name: str):
    """A harness span around a block when tracing, else nothing."""
    return nullcontext() if tracer is None else tracer.span(name)


WORKLOADS = {
    w.name: w for w in (SweepCold, SweepJournaled, SimulateMix, ServeJournaled, ServeDurable)
}
