"""Benchmark harness: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``, run from the root of a source checkout.

It brings the checkout's ``src`` tree up, runs rounds of one workload for
``--seconds`` after a discarded warm-up round, gates every round on
correctness and prints, as its last stdout line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it stamps the environment and the host noise seen during the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` installs the
span wrappers on alternate rounds and reports the per-layer metrics
(averaged over traced rounds) plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import pathlib
import resource
import shutil
import sys
import tempfile
import time

#: Fresh-process set-ups timed per run; set-up time is their median.
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit.

    Every workload prints the whole catalogue, zero where a layer does
    not run in it.
    """
    from workloads import CELL_LAYERS, MODELS, OFFLINE_LAYERS, SERVE_LAYERS

    units: dict[str, str] = {}
    spans = (
        OFFLINE_LAYERS + CELL_LAYERS
        + ["workloads.worker", "workloads.journal", "workloads.fsync", "workloads.validate"]
        + [f"engine.{m}" for m in MODELS]
        + SERVE_LAYERS
    )
    for name in spans:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "offline.cache.hits": "count",
        "offline.cache.writes": "count",
        "workloads.other_s": "s",
        "workloads.ipc.bytes": "bytes",
        "workloads.scheduler.utilisation": "ratio",
        "workloads.scheduler.retries": "count",
        "workloads.scheduler.quarantined": "count",
        "workloads.scheduler.other_s": "s",
        "engine.batch_share": "ratio",
        "serve.fsyncs_per_decision": "ratio",
        "serve.loop.other_s": "s",
        "setup.import_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    for m in MODELS:
        units[f"engine.{m}.jobs"] = "count"
    for q in range(1, 5):
        units[f"serve.offer_payload.self_us_q{q}"] = "us"
    return units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {src}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Bytecode is compiled once per checkout; no run should pay for it.
    compileall.compile_dir(str(src), quiet=1)

    import env

    noise = env.HostNoise()
    noise.start()
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    ctx = Context(
        root=root, work=work, seed=args.seed, seconds=args.seconds,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    workload = WORKLOADS[args.workload]()
    try:
        if args.trace:
            attempted, failed, metrics, info = traced(workload, ctx)
        else:
            attempted, failed, metrics, info = untraced(workload, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    print(json.dumps({"env": env.stamp(src), "noise": noise.stop(), "info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced(workload, ctx):
    import env
    import stats

    marks = [time.perf_counter()]
    workload.prepare(ctx)
    warm_up(workload, ctx)
    marks.append(time.perf_counter())
    setups = [workload.setup(ctx, f"setup{i}") for i in range(SETUP_SAMPLES)]
    marks.append(time.perf_counter())
    rounds, probes = timed_rounds(
        ctx, workload.draws, lambda i: workload.run_round(ctx, str(i), i)
    )
    marks.append(time.perf_counter())
    failed = workload.check(ctx, rounds)
    marks.append(time.perf_counter())
    attempted = sum(r.attempted for r in rounds)
    setups += [r.setup_s for r in rounds if r.setup_s is not None]
    raw = [r.units / r.wall for r in rounds]
    # The host's speed drifts by 20-30% over seconds to minutes, more than
    # the program's own noise; the probe on either side of a round tracks
    # it, so each round's rate is scaled to the reference host speed.
    speed = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    rates = [rate * ms / env.PROBE_REFERENCE_MS for rate, ms in zip(raw, speed)]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": stats.median(setups),
        "throughput_per_s": stats.median(rates),
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    info = {
        "workload": workload.name,
        "unit": workload.unit,
        "rounds": len(rounds),
        "throughput_per_round": rates,
        "throughput_iqr_share": stats.iqr_share(rates),
        "raw_throughput_per_s": stats.median(raw),
        "raw_throughput_per_round": raw,
        "host_probe_ms": probes,
        "setup_samples_s": setups,
        "failed_share": failed / attempted,
        "phase_s": dict(zip(("warm_up", "set_up", "rounds", "check"),
                            (b - a for a, b in zip(marks, marks[1:])))),
    }
    latencies = [1000.0 * x for r in rounds for x in r.latencies]
    if latencies:
        info["latency_samples"] = len(latencies)
        for q in (50, 99):
            info[f"latency_p{q}_ms"] = stats.guarded_percentile(latencies, q)
    return attempted, failed, metrics, info


def traced(workload, ctx):
    """Alternate untraced and traced rounds; layers averaged over the traced."""
    import stats
    from spans import Tracer, load_spans
    from workloads import probe

    units = per_layer_units()
    workload.prepare(ctx)
    warm_up(workload, ctx)
    imports = [probe(ctx, workload.name, f"import{i}")[1] for i in range(SETUP_SAMPLES)]
    plain: list = []
    layered: list = []
    sums = dict.fromkeys(units, 0.0)

    def pair(i):
        plain.append(workload.run_round(ctx, f"{i}u", i))
        gc.collect()
        tracer = Tracer(ctx.work / f"spans-{i}")
        workload.install(tracer)
        try:
            rnd = workload.run_round(ctx, f"{i}t", i, tracer)
        finally:
            tracer.restore()
        tracer.flush()
        spans, counters = load_spans(tracer.out_dir)
        for name, value in workload.layers(spans, counters, rnd).items():
            sums[name] += value
        layered.append(rnd)
        return rnd

    timed_rounds(ctx, workload.draws, pair)
    rounds = plain + layered
    failed = workload.check(ctx, rounds)
    attempted = sum(r.attempted for r in rounds)
    metrics = {name: (sums[name] / len(layered), unit) for name, unit in units.items()}
    # Layers are averaged per traced round, so the wall they add up to is
    # the mean traced round; the overhead compares medians.
    metrics["setup.import_s"] = (stats.median(imports), "s")
    metrics["trace.wall_s"] = (sum(r.wall for r in layered) / len(layered), "s")
    metrics["trace.overhead_ratio"] = (
        stats.median([r.wall for r in layered]) / stats.median([r.wall for r in plain]),
        "ratio",
    )
    info = {
        "workload": workload.name,
        "traced_rounds": len(layered),
        "untraced_wall_s": [r.wall for r in plain],
        "traced_wall_s": [r.wall for r in layered],
        "failed_share": failed / attempted,
    }
    return attempted, failed, metrics, info


def warm_up(workload, ctx) -> None:
    """One discarded round: the first round after an idle spell runs slow."""
    if hasattr(workload, "warm_up"):
        workload.warm_up(ctx)
    else:
        workload.run_round(ctx, "warmup", 0)


def timed_rounds(ctx, least: int, run) -> tuple[list, list[float]]:
    """``run(index)`` for rounds 1, 2, ... until ``ctx.seconds`` have
    passed and at least *least* rounds ran; index 0 is the warm-up's.

    Returns the rounds and the host-speed probe (ms) taken before the
    first round and after each.  Each round starts from a collected heap,
    so the collector's work in a round does not depend on how many
    rounds came before it.
    """
    import env

    rounds, probes = [], [env.host_speed_probe_ms()]
    t0 = time.perf_counter()
    while len(rounds) < least or time.perf_counter() - t0 < ctx.seconds:
        gc.collect()
        rounds.append(run(len(rounds) + 1))
        probes.append(env.host_speed_probe_ms())
    return rounds, probes


if __name__ == "__main__":
    raise SystemExit(main())
