"""E16/E25 — engine performance: simulation throughput and scaling.

Not a paper artefact, but a deliverable of a production-quality
implementation: the simulator must sustain laptop-scale sweeps.  These
benches track

* jobs/second of the full admission loop (threshold and greedy) on a
  5 000-job Poisson stream over 4 machines;
* near-linear scaling in the stream length (the sorted-array
  ``MachineState`` makes per-decision work ``O(m log n)``; the original
  linear-scan implementation profiled at 3.5k jobs/s on 8k jobs —
  the regression guard below would catch such a slide);
* bound-solver throughput (full parameter solve, m = 8).

Run directly (``python benchmarks/bench_engine_throughput.py``) to time
every commitment-model engine on the shared kernel and write the
machine-readable snapshot ``BENCH_engine.json`` (jobs/s per model) at the
repository root — the artefact the throughput regression guard compares
against.

E25 extends the snapshot with the **batch backend**
(:mod:`repro.engine.backend`): the immediate-model workloads through the
structure-of-arrays NumPy kernels, amortised over a 64-instance batch (the
batch kernel's unit of work).  The delayed, admission and penalties models
have no batch row: their scalar engines, one flat loop each, are the
fast path.  The snapshot stamps the python/numpy versions and
per-backend speedups so regressions are attributable.
"""

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.baselines.greedy import GreedyPolicy
from repro.core.params import BoundFunction
from repro.core.threshold import ThresholdPolicy
from repro.engine.simulator import simulate
from repro.workloads import random_instance

N_JOBS = 5000
MACHINES = 4

_INSTANCE = random_instance(N_JOBS, MACHINES, 0.2, seed=42)


def test_throughput_threshold(benchmark):
    schedule = benchmark(lambda: simulate(ThresholdPolicy(), _INSTANCE))
    assert schedule.accepted_count > 0
    benchmark.extra_info["jobs_per_second"] = N_JOBS / benchmark.stats["mean"]


def test_throughput_greedy(benchmark):
    schedule = benchmark(lambda: simulate(GreedyPolicy(), _INSTANCE))
    assert schedule.accepted_count > 0
    benchmark.extra_info["jobs_per_second"] = N_JOBS / benchmark.stats["mean"]


def test_scaling_is_near_linear(benchmark, save_artifact):
    """Doubling the stream should not much more than double the runtime."""

    def measure():
        rows = []
        for n in (2000, 4000, 8000, 16000):
            inst = random_instance(n, MACHINES, 0.2, seed=7)
            t0 = time.perf_counter()
            simulate(ThresholdPolicy(), inst)
            dt = time.perf_counter() - t0
            rows.append({"n": n, "seconds": dt, "jobs_per_s": n / dt})
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    # Throughput may dip with n (cache effects, machine-state growth) but a
    # quadratic engine collapses by >4x over this range; require < 2.5x.
    rates = [r["jobs_per_s"] for r in rows]
    assert min(rates) > max(rates) / 2.5, rows
    from repro.analysis.tables import format_table

    save_artifact(
        "e16_engine_scaling.txt",
        format_table(rows, title="E16 — simulator scaling (threshold, m=4)"),
    )


def test_bound_solver_throughput(benchmark):
    bf = BoundFunction(8)

    def solve_many():
        return [bf.value(e) for e in (0.01, 0.05, 0.1, 0.3, 0.7, 1.0)]

    values = benchmark(solve_many)
    assert all(v > 0 for v in values)


# ---------------------------------------------------------------------------
# Direct invocation: per-model kernel throughput snapshot (BENCH_engine.json).
# ---------------------------------------------------------------------------


#: Single-machine twin of the main stream, for the m=1-only algorithms
#: (``goldwasser-kerbikov``, ``classify-select``).
_INSTANCE_1 = random_instance(N_JOBS, 1, 0.2, seed=42)


def _model_runs():
    """(label, thunk) per commitment model, all on the same 5k-job stream."""
    from repro.baselines.dasgupta_palis import DasGuptaPalisPolicy
    from repro.baselines.registry import run_algorithm
    from repro.engine.admission import AdmissionLazyPolicy, simulate_admission
    from repro.engine.delayed import DelayedGreedyPolicy, simulate_delayed
    from repro.engine.penalties import RevocableGreedyPolicy, simulate_with_penalties
    from repro.engine.preemptive import simulate_preemptive

    eps = _INSTANCE.epsilon
    return [
        ("immediate[threshold]", lambda: simulate(ThresholdPolicy(), _INSTANCE)),
        ("immediate[greedy]", lambda: simulate(GreedyPolicy(), _INSTANCE)),
        (
            "immediate[lee-style]",
            lambda: run_algorithm("lee-style", _INSTANCE),
        ),
        (
            "immediate[goldwasser-kerbikov]",
            lambda: run_algorithm("goldwasser-kerbikov", _INSTANCE_1),
        ),
        (
            "immediate[random-admission]",
            lambda: run_algorithm("random-admission", _INSTANCE),
        ),
        (
            "immediate[classify-select]",
            lambda: run_algorithm("classify-select", _INSTANCE_1),
        ),
        (
            "delayed[delayed-greedy]",
            lambda: simulate_delayed(DelayedGreedyPolicy(), _INSTANCE, eps / 2),
        ),
        (
            "admission[admission-greedy]",
            lambda: run_algorithm("admission-greedy", _INSTANCE),
        ),
        (
            "admission[admission-lazy]",
            lambda: simulate_admission(AdmissionLazyPolicy(), _INSTANCE),
        ),
        (
            "penalties[revocable-greedy]",
            lambda: simulate_with_penalties(RevocableGreedyPolicy(), _INSTANCE, 0.5),
        ),
        (
            "preemptive[dasgupta-palis]",
            lambda: simulate_preemptive(DasGuptaPalisPolicy(), _INSTANCE),
        ),
    ]


#: Batch size for the immediate-model batch-backend rows (E25).
BATCH_SIZE = 64


def _batch_runs():
    """(label, total_jobs, thunk) per batch-backend row (E25).

    Every row amortises over a 64-lane batch, the kernel's unit of work.
    """
    from repro.engine.batch import (
        IMMEDIATE_RULES,
        run_classify_select_batch,
        run_immediate_batch,
        run_random_admission_batch,
    )

    batch = [
        random_instance(N_JOBS, MACHINES, 0.2, seed=42 + i) for i in range(BATCH_SIZE)
    ]
    batch_1 = [
        random_instance(N_JOBS, 1, 0.2, seed=42 + i) for i in range(BATCH_SIZE)
    ]
    return [
        (
            "immediate[threshold]",
            BATCH_SIZE * N_JOBS,
            lambda: run_immediate_batch(IMMEDIATE_RULES["threshold"], batch),
        ),
        (
            "immediate[greedy]",
            BATCH_SIZE * N_JOBS,
            lambda: run_immediate_batch(IMMEDIATE_RULES["greedy"], batch),
        ),
        (
            "immediate[lee-style]",
            BATCH_SIZE * N_JOBS,
            lambda: run_immediate_batch(IMMEDIATE_RULES["lee-style"], batch),
        ),
        (
            "immediate[goldwasser-kerbikov]",
            BATCH_SIZE * N_JOBS,
            lambda: run_immediate_batch(
                IMMEDIATE_RULES["goldwasser-kerbikov"], batch_1
            ),
        ),
        (
            "immediate[random-admission]",
            BATCH_SIZE * N_JOBS,
            lambda: run_random_admission_batch(batch),
        ),
        (
            "immediate[classify-select]",
            BATCH_SIZE * N_JOBS,
            lambda: run_classify_select_batch(batch_1),
        ),
    ]


def _best_of(run, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def snapshot_throughput(rounds: int = 3) -> dict:
    """Best-of-*rounds* jobs/s for every engine; pure measurement, no I/O."""
    results = {}
    for label, run in _model_runs():
        results[label] = round(N_JOBS / _best_of(run, rounds), 1)
    batch_results = {}
    for label, total, run in _batch_runs():
        rate = total / _best_of(run, rounds)
        batch_results[label] = {
            "jobs_per_second": round(rate, 1),
            "batch_size": total // N_JOBS,
            "speedup_vs_scalar": round(rate / results[label], 2),
        }
    backends = {
        "scalar": {"jobs_per_second": results},
        "batch": batch_results,
    }
    return {
        "n_jobs": N_JOBS,
        "machines": MACHINES,
        "epsilon": _INSTANCE.epsilon,
        "seed": 42,
        "rounds": rounds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jobs_per_second": results,
        "backends": backends,
    }


def main() -> int:
    snapshot = snapshot_throughput()
    out = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    out.write_text(json.dumps(snapshot, indent=2) + "\n")
    for label, rate in snapshot["jobs_per_second"].items():
        print(f"{label:33s} {rate:>12,.0f} jobs/s  [scalar]")
    for label, row in snapshot["backends"]["batch"].items():
        print(
            f"{label:33s} {row['jobs_per_second']:>12,.0f} jobs/s  "
            f"[batch x{row['batch_size']}, {row['speedup_vs_scalar']}x scalar]"
        )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
