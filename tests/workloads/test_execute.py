"""The unified sweep entrypoint: policy validation and dispatch.

``execute_sweep(spec, policy)`` is the single way to run a sweep; these
tests pin its contract — policy validation fails fast, and the serial
and multiprocess paths return bit-identical rows.
"""

from dataclasses import fields
from functools import partial

import pytest

from repro.offline.cache import BracketCache
from repro.testing.chaos import ChaosPlan
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.resilient import (
    SeedCollisionError,
    SingleMachineGridError,
    SweepExecutionError,
    UnknownAlgorithmError,
)
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
        assert policy.cache is None

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
            ({"cache": True}, "cache"),
        ],
    )
    def test_invalid_policies_fail_fast(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExecutionPolicy(**kwargs)

    def test_cache_is_a_bracket_cache_or_none(self, tmp_path):
        ready = BracketCache(tmp_path)
        assert ExecutionPolicy(cache=ready).cache is ready
        assert ExecutionPolicy(cache=None).cache is None
        for flag in (True, False):
            with pytest.raises(ValueError, match="BracketCache or None"):
                ExecutionPolicy(cache=flag)

    def test_six_knobs_are_gone(self):
        for name in (
            "backend",
            "cache_dir",
            "adaptive_min_reps",
            "adaptive_rel_tol",
            "worker_max_failures",
            "handshake_timeout",
        ):
            with pytest.raises(TypeError):
                ExecutionPolicy(**{name: None})
        assert len(fields(ExecutionPolicy)) == 21

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


#: ``repro sweep``'s default grid at 70 repetitions: 12 of its 280 cells
#: share a seed with another cell.  Split into two shards, neither shard's
#: own cells collide, so only a check over the whole grid refuses it.
_COLLIDING = dict(
    epsilons=[0.1, 0.3], machine_counts=[2, 3], repetitions=70, base_seed=2020
)


class TestSeedCollisions:
    @pytest.mark.parametrize(
        "policy",
        [
            {},
            {"journal": "sweep.jsonl"},
            {"shards": 2, "shard_index": 0, "journal": "shard0.jsonl"},
            {"shards": 2, "shard_index": 1, "journal": "shard1.jsonl"},
        ],
        ids=["serial", "journaled", "shard-0-of-2", "shard-1-of-2"],
    )
    def test_every_path_refuses_the_grid_before_running(self, tmp_path, policy):
        if "journal" in policy:
            policy = {**policy, "journal": tmp_path / policy["journal"]}
        with pytest.raises(SeedCollisionError, match="12 colliding cell seed"):
            execute_sweep(_spec(**_COLLIDING), ExecutionPolicy(**policy))
        assert list(tmp_path.iterdir()) == []

    def test_a_collision_free_grid_runs(self):
        spec = _spec(**{**_COLLIDING, "repetitions": 40})
        assert execute_sweep(spec).manifest.cells_completed == 160


class TestSingleMachineAlgorithms:
    @pytest.mark.parametrize(
        "policy", [{}, {"journal": "sweep.jsonl"}], ids=["serial", "journaled"]
    )
    def test_every_path_refuses_more_machines_before_running(self, tmp_path, policy):
        if "journal" in policy:
            policy = {**policy, "journal": tmp_path / policy["journal"]}
        spec = _spec(
            machine_counts=[1, 2, 3],
            algorithms=["greedy", "goldwasser-kerbikov"],
        )
        with pytest.raises(
            SingleMachineGridError,
            match=r"goldwasser-kerbikov .* machine count\(s\) 2, 3$",
        ):
            execute_sweep(spec, ExecutionPolicy(**policy))
        assert list(tmp_path.iterdir()) == []

    def test_a_single_machine_grid_runs(self):
        spec = _spec(algorithms=["greedy", "goldwasser-kerbikov"])
        assert execute_sweep(spec).manifest.cells_completed == 4


class TestUnknownAlgorithms:
    @pytest.mark.parametrize(
        "policy", [{}, {"journal": "sweep.jsonl"}], ids=["serial", "journaled"]
    )
    def test_every_path_refuses_an_unknown_name_before_running(self, tmp_path, policy):
        if "journal" in policy:
            policy = {**policy, "journal": tmp_path / policy["journal"]}
        spec = _spec(algorithms=["greedy", "nosuch"])
        with pytest.raises(
            UnknownAlgorithmError,
            match=r"unknown algorithm 'nosuch' in the sweep grid; known: .*greedy.*threshold",
        ) as refused:
            execute_sweep(spec, ExecutionPolicy(**policy))
        assert isinstance(refused.value, ValueError)
        assert list(tmp_path.iterdir()) == []
