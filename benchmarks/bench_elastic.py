"""E26 — elastic vs static scheduling under a 10x-slow worker.

The sharding layer (E24) fixes cell->host assignment up front, so a
heterogeneous fleet pays for its slowest member: one 10x-slow host
stretches the merged sweep by roughly the slow shard's whole wall-clock
(straggler ratio ~2-3 on four shards).  The lease loop every
multiprocess sweep runs (`repro.workloads.remote`) removes that tax —
workers lease cells from
a shared queue under heartbeats, a dead worker's cells re-dispatch, and
the end-game speculatively re-executes stragglers — so per-worker
wall-clock stays near-uniform even with one 10x-slow worker *and* one
worker that dies mid-sweep.  This bench runs the same grid both ways
and certifies:

* static shard assignment: straggler ratio (max/mean shard wall-clock)
  **>= 1.9** with one 10x-slow host;
* elastic pool under the same slowness plus a dying worker: worker
  straggler ratio (max/mean per-worker wall-clock) **< 1.2**, zero
  cells quarantined;
* both datasets — the shard merge and the elastic journal — are
  **bit-identical** to the serial scalar run.

Run directly (``python benchmarks/bench_elastic.py``) to write the
machine-readable snapshot ``BENCH_elastic.json`` at the repository
root.
"""

import json
import os
import tempfile
import time
from functools import partial
from pathlib import Path

from repro.analysis.tables import format_table
from repro.testing import WorkerChaosPlan
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.sharding import merge_journals, shard_journal_paths
from repro.workloads.sweep import SweepSpec

EPSILONS = [0.2, 0.4]
MACHINES = [1, 2]
REPS = 4
N_JOBS = 10
N_SHARDS = 4
#: Injected per-cell delay on the slow host/worker (~10x a healthy cell,
#: which costs ~20 ms here including process spawn overhead).
SLOW_DELAY = 0.2
#: Env knob the workload reads at call time: set while the slow shard
#: runs (forked workers inherit it), unset everywhere else.  The env is
#: not part of the spec fingerprint, so all runs share one journal
#: lineage — the delay changes *when* cells finish, never their rows.
DELAY_ENV = "E26_CELL_DELAY"


def _e26_workload(n: int, m: int, eps: float, seed: int):
    delay = float(os.environ.get(DELAY_ENV, "0") or 0.0)
    if delay:
        time.sleep(delay)
    return random_instance(n, m, eps, seed=seed)


def _spec() -> SweepSpec:
    return SweepSpec(
        epsilons=EPSILONS,
        machine_counts=MACHINES,
        algorithms=["threshold", "greedy"],
        workload=partial(_e26_workload, N_JOBS),
        repetitions=REPS,
        base_seed=26,
        label="elastic-bench",
    )


def snapshot() -> dict:
    """Static shard assignment vs elastic pool, same grid, same slow host."""
    spec = _spec()

    serial = execute_sweep(spec)
    assert serial.complete

    # -- static: one single-worker pass per shard; shard 0 is the slow host.
    with tempfile.TemporaryDirectory() as tmp:
        paths = shard_journal_paths(Path(tmp) / "sweep.jsonl", N_SHARDS)
        shard_seconds = []
        for i, path in enumerate(paths):
            if i == 0:
                os.environ[DELAY_ENV] = str(SLOW_DELAY)
            try:
                t0 = time.perf_counter()
                result = execute_sweep(
                    spec,
                    ExecutionPolicy(
                        shards=N_SHARDS, shard_index=i, journal=path, workers=1
                    ),
                )
                shard_seconds.append(round(time.perf_counter() - t0, 6))
            finally:
                os.environ.pop(DELAY_ENV, None)
            assert result.complete
        static_merged = merge_journals(paths)
    static_ratio = static_merged.straggler_ratio

    # -- elastic: one pull-scheduler pass; slot 0 is 10x slow (heartbeats
    #    flowing), slot 1 hard-dies picking up its 3rd cell every respawn.
    plan = WorkerChaosPlan(
        slow_worker=((0, SLOW_DELAY),), dead_worker=((1, 3),)
    )
    with tempfile.TemporaryDirectory() as tmp:
        elastic_path = Path(tmp) / "elastic.jsonl"
        t0 = time.perf_counter()
        elastic = execute_sweep(
            spec,
            ExecutionPolicy(
                workers=N_SHARDS,
                heartbeat_interval=0.05,
                journal=elastic_path,
                worker_chaos=plan,
            ),
        )
        elastic_seconds = time.perf_counter() - t0
        elastic_merged = merge_journals([elastic_path])
    info = elastic_merged.shards[0]
    elastic_ratio = elastic_merged.worker_straggler_ratio

    return {
        "bench": "E26 elastic vs static under a slow worker",
        "cells": static_merged.manifest.cells_total,
        "n_jobs": N_JOBS,
        "machines": MACHINES,
        "epsilons": EPSILONS,
        "repetitions": REPS,
        "base_seed": 26,
        "slow_delay_seconds": SLOW_DELAY,
        "n_workers": N_SHARDS,
        "static_shard_seconds": shard_seconds,
        "static_shard_walls": [s.wall_seconds for s in static_merged.shards],
        "static_straggler_ratio": (
            None if static_ratio is None else round(static_ratio, 4)
        ),
        "elastic_seconds": round(elastic_seconds, 6),
        "elastic_worker_walls": info.worker_wall_seconds,
        "elastic_straggler_ratio": (
            None if elastic_ratio is None else round(elastic_ratio, 4)
        ),
        "elastic_scheduler": info.scheduler,
        "elastic_recovered": elastic.manifest.recovered,
        "elastic_speculated": elastic.manifest.speculated,
        "elastic_cells_quarantined": elastic.manifest.quarantined,
        "elastic_workers_quarantined": elastic.manifest.workers_quarantined,
        "static_rows_bit_identical": static_merged.rows == serial.rows,
        "elastic_rows_bit_identical": elastic_merged.rows == serial.rows,
    }


def test_e26_elastic_beats_static_straggler(benchmark, save_artifact):
    snap = benchmark.pedantic(snapshot, rounds=1, iterations=1)

    # The acceptance bar: a 10x-slow host must stretch the static layout
    # but not the elastic pool, and neither may change the dataset.
    assert snap["static_straggler_ratio"] >= 1.9
    assert snap["elastic_straggler_ratio"] < 1.2
    assert snap["elastic_cells_quarantined"] == 0
    assert snap["static_rows_bit_identical"]
    assert snap["elastic_rows_bit_identical"]
    assert snap["elastic_scheduler"] == "lease"

    benchmark.extra_info.update(
        {
            "cells": snap["cells"],
            "static_straggler_ratio": snap["static_straggler_ratio"],
            "elastic_straggler_ratio": snap["elastic_straggler_ratio"],
            "elastic_speculated": snap["elastic_speculated"],
        }
    )
    rows = [
        {
            "scheduler": "static",
            "unit": f"shard {i}" + (" (slow)" if i == 0 else ""),
            "wall (s)": snap["static_shard_walls"][i],
        }
        for i in range(snap["n_workers"])
    ] + [
        {
            "scheduler": "elastic",
            "unit": f"worker {i}"
            + {0: " (slow)", 1: " (dies)"}.get(i, ""),
            "wall (s)": snap["elastic_worker_walls"][i],
        }
        for i in range(snap["n_workers"])
    ]
    save_artifact(
        "e26_elastic.txt",
        format_table(
            rows,
            title=f"E26 — straggler ratio {snap['static_straggler_ratio']} "
            f"static vs {snap['elastic_straggler_ratio']} elastic "
            f"({snap['cells']} cells, {snap['slow_delay_seconds']}s slow delay)",
        ),
    )


def main() -> int:
    snap = snapshot()
    out = Path(__file__).resolve().parent.parent / "BENCH_elastic.json"
    out.write_text(json.dumps(snap, indent=2) + "\n")
    print(f"cells                    : {snap['cells']:10d}")
    print(f"static straggler ratio   : {snap['static_straggler_ratio']:10.3f}")
    print(f"elastic straggler ratio  : {snap['elastic_straggler_ratio']:10.3f}")
    print(f"elastic speculated       : {snap['elastic_speculated']:10d}")
    print(f"cells quarantined        : {snap['elastic_cells_quarantined']:10d}")
    print(
        "bit-identical rows       : "
        f"static={snap['static_rows_bit_identical']} "
        f"elastic={snap['elastic_rows_bit_identical']}"
    )
    print(f"wrote {out}")
    ok = (
        snap["static_rows_bit_identical"]
        and snap["elastic_rows_bit_identical"]
        and snap["elastic_cells_quarantined"] == 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
