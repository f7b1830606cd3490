"""Multiprocess sweeps through ``execute_sweep``: same rows as serial.

A worker count routes the sweep through the lease loop; the rows must
not depend on it, and inputs that cannot reach a worker process are
refused up front.
"""

from functools import partial

import pytest

from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.sweep import SweepSpec


def _workload(m: int, eps: float, seed: int, n: int = 10):
    return random_instance(n, m, eps, seed=seed)


def _spec() -> SweepSpec:
    return SweepSpec(
        epsilons=[0.2, 0.5],
        machine_counts=[1, 2],
        algorithms=["threshold", "greedy"],
        workload=partial(_workload, n=10),
        repetitions=2,
        base_seed=3,
    )


def _parallel(spec, workers=None, **kwargs):
    policy = ExecutionPolicy(workers=workers or 2, retries=0, strict=True)
    return execute_sweep(spec, policy, **kwargs).rows


class TestParallelSweep:
    def test_matches_serial_exactly(self):
        spec = _spec()
        serial = execute_sweep(spec).rows
        parallel = _parallel(spec, workers=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a == b

    def test_worker_count_does_not_change_results(self):
        spec = _spec()
        one = _parallel(spec, workers=1)
        two = _parallel(spec, workers=2)
        assert one == two

    def test_lambda_workload_rejected(self):
        spec = SweepSpec(
            epsilons=[0.5],
            machine_counts=[1],
            algorithms=["greedy"],
            workload=lambda m, e, s: random_instance(5, m, e, seed=s),
            repetitions=1,
        )
        with pytest.raises(TypeError, match="picklable"):
            _parallel(spec)

    def test_unpicklable_algorithm_kwargs_rejected(self):
        # Used to fail deep inside the pool with an opaque error; now the
        # kwargs values are pickle-checked up front like the workload.
        spec = _spec()
        with pytest.raises(TypeError, match=r"algorithm_kwargs\['greedy'\]"):
            _parallel(spec, algorithm_kwargs={"greedy": {"hook": lambda: None}})
