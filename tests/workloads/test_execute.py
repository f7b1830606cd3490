"""The unified sweep entrypoint: policy validation and dispatch.

``execute_sweep(spec, policy)`` is the single way to run a sweep; these
tests pin its contract — policy validation fails fast, and the serial
and multiprocess paths return bit-identical rows.
"""

from functools import partial

import pytest

from repro.offline.cache import BracketCache
from repro.testing.chaos import ChaosPlan
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.resilient import SweepExecutionError
from repro.workloads.sweep import SweepSpec


def _spec(base_seed: int = 5, **overrides) -> SweepSpec:
    defaults = dict(
        epsilons=[0.25, 0.5],
        machine_counts=[1],
        algorithms=["greedy"],
        workload=partial(random_instance, 6),
        repetitions=2,
        base_seed=base_seed,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def _broken_workload(m: int, eps: float, seed: int):
    """Module-level (picklable) workload that always raises."""
    raise ValueError("this workload is permanently broken")


class TestExecutionPolicyValidation:
    def test_defaults_are_serial(self):
        policy = ExecutionPolicy()
        assert not policy.needs_processes
        assert not policy.sharded
        assert policy.resolve_cache() is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chaos": ChaosPlan()},
            {"workers": 2},
            {"timeout": 5.0},
            {"journal": "x.jsonl"},
            {"journal": "x.jsonl", "resume": True},
            {"shards": 2, "shard_index": 0},
            {"interrupt_after": 1},
        ],
    )
    def test_process_fields_route_to_scheduler(self, kwargs):
        assert ExecutionPolicy(**kwargs).needs_processes

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"shards": 0, "shard_index": 0}, "shards"),
            ({"shards": 3}, "shard_index"),
            ({"shards": 3, "shard_index": 3}, "out of range"),
            ({"shards": 3, "shard_index": -1}, "out of range"),
            ({"resume": True}, "journal"),
            ({"retries": -1}, "retries"),
            ({"adaptive_reps": True}, "worker processes"),
            ({"workers": 0}, "workers"),
            ({"timeout": 0.0}, "timeout"),
            ({"cache": False, "cache_dir": "/tmp/x"}, "cache"),
        ],
    )
    def test_invalid_policies_fail_fast(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExecutionPolicy(**kwargs)

    def test_resolve_cache(self, tmp_path):
        ready = BracketCache(tmp_path)
        assert ExecutionPolicy(cache=ready).resolve_cache() is ready
        assert ExecutionPolicy(cache=False).resolve_cache() is None
        implied = ExecutionPolicy(cache_dir=tmp_path).resolve_cache()
        assert isinstance(implied, BracketCache)
        explicit = ExecutionPolicy(cache=True, cache_dir=tmp_path).resolve_cache()
        assert isinstance(explicit, BracketCache)

    def test_with_shard(self):
        policy = ExecutionPolicy(shards=4, shard_index=0)
        assert policy.with_shard(3).shard_index == 3
        assert policy.with_shard(3).shards == 4
        with pytest.raises(ValueError, match="out of range"):
            policy.with_shard(4)


class TestExecuteSweep:
    def test_serial_and_scheduler_paths_bit_identical(self):
        spec = _spec()
        serial = execute_sweep(spec)
        scheduled = execute_sweep(spec, ExecutionPolicy(workers=2))
        assert serial.rows == scheduled.rows
        assert serial.manifest.cells_completed == serial.manifest.cells_total
        assert serial.complete and scheduled.complete

    def test_serial_reports_cache_stats(self, tmp_path):
        spec = _spec()
        result = execute_sweep(spec, ExecutionPolicy(cache=BracketCache(tmp_path)))
        assert result.cache_stats is not None
        assert result.cache_stats["misses"] == result.manifest.cells_total
        assert execute_sweep(spec).cache_stats is None

    def test_strict_raises_on_quarantine(self):
        spec = _spec(workload=_broken_workload)
        with pytest.raises(SweepExecutionError, match="permanently broken") as err:
            execute_sweep(
                spec,
                ExecutionPolicy(workers=2, retries=0, strict=True),
            )
        assert err.value.manifest.quarantined == err.value.manifest.cells_total

    def test_non_strict_degrades_gracefully(self):
        spec = _spec(workload=_broken_workload)
        result = execute_sweep(
            spec, ExecutionPolicy(workers=2, retries=0)
        )
        assert result.rows == []
        assert result.manifest.quarantined == result.manifest.cells_total
