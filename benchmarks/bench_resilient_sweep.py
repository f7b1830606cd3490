"""E22 — fault-tolerant sweep execution under injected chaos.

The benchmark grids behind Theorems 1–2 only certify the paper's bounds
if they can *finish*; this bench measures the resilience layer that
makes long grids durable.  It runs the same sweep three ways — classic
serial, strict parallel, and the fault-tolerant lease loop under a
deterministic chaos plan (crashes, hangs, transient errors, corrupted
rows) — and
records completion, recovery and overhead numbers.

Checks:

* with no faults injected, the resilient runner's rows are bit-identical
  to the serial path (the determinism contract survives process
  recycling);
* under chaos, every transiently-faulted cell is recovered by retries
  and only persistently-poisoned cells are quarantined;
* a journal-backed run interrupted mid-grid resumes to a row set
  bit-identical to the uninterrupted serial sweep;
* the fault-free overhead of the fault-tolerant policy stays within an
  order of magnitude of the strict one (both run the same lease loop;
  cells are coarse enough to amortise heartbeats and validation).
"""

import time
from functools import partial

from repro.analysis.tables import format_table
from repro.testing.chaos import ChaosPlan
from repro.workloads.cloud import cloud_instance
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.resilient import SweepInterrupted
from repro.workloads.sweep import SweepSpec

EPSILONS = [0.1, 0.2, 0.4]
MACHINES = 3
REPS = 4
N_JOBS = 40

CHAOS = ChaosPlan(
    crash_rate=0.12,
    hang_rate=0.08,
    error_rate=0.12,
    corrupt_rate=0.1,
    persistent_rate=0.35,
    hang_seconds=30.0,
    seed=9,
)


def _spec() -> SweepSpec:
    return SweepSpec(
        epsilons=EPSILONS,
        machine_counts=[MACHINES],
        algorithms=["threshold", "greedy"],
        workload=partial(cloud_instance, N_JOBS),
        repetitions=REPS,
        base_seed=99,
        force_bounds=True,
        label="resilient-sweep",
    )


def measure():
    spec = _spec()
    timings = {}

    t0 = time.perf_counter()
    serial = execute_sweep(spec).rows
    timings["serial"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = execute_sweep(
        spec, ExecutionPolicy(workers=4, retries=0, strict=True)
    ).rows
    timings["parallel"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    clean = execute_sweep(spec, ExecutionPolicy(workers=4))
    timings["resilient (no faults)"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    chaotic = execute_sweep(
        spec,
        ExecutionPolicy(
            chaos=CHAOS, timeout=2.0, retries=2, workers=4
        ),
    )
    timings["resilient (chaos)"] = time.perf_counter() - t0

    # Hard-kill + resume round trip through the journal.
    import tempfile

    journal = tempfile.NamedTemporaryFile(suffix=".jsonl", delete=False).name
    try:
        execute_sweep(
            spec, ExecutionPolicy(journal=journal, interrupt_after=5, workers=4)
        )
        resumed = None
    except SweepInterrupted:
        resumed = execute_sweep(
            spec, ExecutionPolicy(journal=journal, resume=True, workers=4)
        )

    return serial, parallel, clean, chaotic, resumed, timings


def test_e22_resilient_sweep(benchmark, save_artifact):
    serial, parallel, clean, chaotic, resumed, timings = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    assert parallel == serial
    assert clean.complete and clean.rows == serial

    spec = _spec()
    faults = CHAOS.faulted_cells(spec.cell_seed(*c) for c in spec.cells())
    poisoned = {seed for seed, (_, persistent) in faults.items() if persistent}
    manifest = chaotic.manifest
    assert {f.seed for f in manifest.failures} == poisoned
    assert manifest.recovered == len(faults) - len(poisoned)

    assert resumed is not None and resumed.complete
    assert resumed.rows == serial
    assert resumed.manifest.cells_replayed >= 5

    rows = [
        {"path": name, "seconds": seconds, "x serial": seconds / timings["serial"]}
        for name, seconds in timings.items()
    ]
    rows.append(
        {
            "path": f"chaos outcome: {manifest.summary()}",
            "seconds": float("nan"),
            "x serial": float("nan"),
        }
    )
    benchmark.extra_info.update(
        {
            "cells": manifest.cells_total,
            "faulted": len(faults),
            "recovered": manifest.recovered,
            "quarantined": manifest.quarantined,
            "resilient_overhead_x": timings["resilient (no faults)"]
            / timings["parallel"],
        }
    )
    save_artifact(
        "e22_resilient_sweep.txt",
        format_table(
            rows,
            title=f"E22 — resilient sweep: {len(list(spec.cells()))} cells, "
            f"{len(faults)} chaos-faulted ({len(poisoned)} poisoned)",
        ),
    )
