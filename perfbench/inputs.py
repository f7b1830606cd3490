"""Benchmark inputs, all derived from the workload seed.

Sweeps hand the seed to the program as ``SweepSpec.base_seed``; the
simulation mix and the served offers are generated here and the program
receives only the generated jobs.  Sizes are fixed, so every run with the
same seed does the same work.

The shapes are the program's own: the grids of the repository's sweep
benchmarks (``benchmarks/bench_*.py``) and the defaults of ``repro
simulate`` and ``repro serve``.  Only the counts (repetitions, instances,
offers) are the benchmark's, chosen so that a round lasts a few seconds.
"""

from __future__ import annotations

import json
import pathlib
from functools import partial

from repro.model.instance import Instance
from repro.model.job import Job
from repro.workloads.arrivals import mmpp_instance
from repro.workloads.cloud import cloud_instance
from repro.workloads.random_instances import random_instance
from repro.workloads.sweep import SweepSpec

#: The algorithm pair of every sweep the repository runs.
SWEEP_ALGORITHMS = ("threshold", "greedy")

#: sweep-cold, exact cells: the bracket-cache benchmark's cells (n=12,
#: inside the exact-solver limit, branch-and-bound) at m=2.  At m=3 one
#: n=12 bracket takes 0.7-1 s, so a round would hold only a handful.
COLD_EXACT = dict(kind="random", jobs=12, machines=(2,), epsilons=(0.1, 0.25), reps=10)
#: sweep-cold, flow cells: the cloud-sweep benchmark's grid (cloud
#: instances, n=60 above the exact-solver limit, m=4).
COLD_FLOW = dict(kind="cloud", jobs=60, machines=(4,), epsilons=(0.05, 0.1, 0.2, 0.4), reps=6)

#: sweep-journaled: the remote-execution benchmark's grid of many small
#: cells (n=8), so per-lease forks, polling, IPC and the per-cell journal
#: fsync dominate.
JOURNALED = dict(kind="random", jobs=8, machines=(2,), epsilons=(0.2, 0.4), reps=300)
JOURNALED_WORKERS = 2

#: simulate-mix: ``repro simulate`` defaults (n=200, m=3, eps=0.2), a
#: batch of 64 instances as in the engine-throughput benchmark, and one
#: ``run_simulations`` call per algorithm.
MIX_ALGORITHMS = {
    "threshold": "immediate",
    "greedy": "immediate",
    "delayed-greedy": "delayed",
    "admission-greedy": "admission",
    "revocable-greedy": "penalties",
}
MIX_INSTANCES, MIX_JOBS, MIX_MACHINES, MIX_EPSILON = 128, 200, 3, 0.2

#: serve: ``repro serve`` defaults (m=4, eps=0.5) and the serve
#: benchmark's window of 64 offers in flight, over a session of MMPP
#: offers twice as long as that benchmark's, so per-offer cost that grows
#: with the session shows.
SERVE_OFFERS, SERVE_WINDOW = 6_000, 64
SERVE_MACHINES, SERVE_EPSILON = 4, 0.5

FACTORIES = {"random": random_instance, "cloud": cloud_instance}


def cell_instance(kind: str, n: int, machines: int, epsilon: float, seed: int) -> Instance:
    """Sweep workload factory: one cell instance of *n* jobs."""
    return FACTORIES[kind](n, machines, epsilon, seed=seed)


#: Cell draws a sweep run cycles through; every run covers all of them.
SWEEP_DRAWS = 4


def round_seed(seed: int, index: int) -> int:
    """``SweepSpec.base_seed`` of round *index* (0 is the warm-up).

    Timed rounds cycle through :data:`SWEEP_DRAWS` draws of cells rather
    than repeat one: one branch-and-bound bracket can cost several times
    another, and its memory too, so a single draw would carry its luck
    into the whole run.  The cycle is fixed so that a faster program,
    fitting more rounds into a run, does not meet cells a slower one
    never ran.
    """
    return seed * 1000 + (0 if index == 0 else (index - 1) % SWEEP_DRAWS + 1)


def spec(grid: dict, seed: int, label: str) -> SweepSpec:
    return SweepSpec(
        epsilons=grid["epsilons"],
        machine_counts=grid["machines"],
        algorithms=SWEEP_ALGORITHMS,
        workload=partial(cell_instance, grid["kind"], grid["jobs"]),
        repetitions=grid["reps"],
        base_seed=seed,
        label=label,
    )


def cold_specs(seed: int, index: int) -> list[SweepSpec]:
    base = round_seed(seed, index)
    return [
        spec(COLD_EXACT, base, "perfbench-cold-exact"),
        spec(COLD_FLOW, base, "perfbench-cold-flow"),
    ]


def journaled_spec(seed: int, index: int) -> SweepSpec:
    return spec(JOURNALED, round_seed(seed, index), "perfbench-journaled")


def mix_instances(seed: int) -> list[Instance]:
    return [
        random_instance(MIX_JOBS, MIX_MACHINES, MIX_EPSILON, seed=seed * 1000 + i)
        for i in range(MIX_INSTANCES)
    ]


def serve_offers(seed: int) -> list[Job]:
    """MMPP jobs in release order, offered as absolute jobs."""
    return list(mmpp_instance(SERVE_OFFERS, SERVE_MACHINES, SERVE_EPSILON, seed=seed).jobs)


def write_instances(path: pathlib.Path, instances: list[Instance]) -> None:
    path.write_text(
        json.dumps(
            [
                {
                    "machines": inst.machines,
                    "epsilon": inst.epsilon,
                    "jobs": [[j.release, j.processing, j.deadline] for j in inst.jobs],
                }
                for inst in instances
            ]
        )
    )


def read_instances(path: pathlib.Path) -> list[Instance]:
    return [
        Instance(
            [Job(*triple) for triple in item["jobs"]],
            machines=item["machines"],
            epsilon=item["epsilon"],
        )
        for item in json.loads(path.read_text())
    ]
