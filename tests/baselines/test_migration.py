"""Unit tests for the migration-model baseline and its flow oracle."""

import json
import os
import random
import subprocess
import sys

import pytest

from repro.baselines.migration import (
    MigrationGreedyScheduler,
    flow_schedule,
    migration_feasible,
)
from repro.model.instance import Instance
from repro.model.job import Job
from repro.workloads import random_instance
from tests.offline import flow_reference


def _random_states(count, seed):
    """``(now, remainders, machines)`` with integer or real times.

    Every third state, a real-valued one, has its work scaled by
    ``flow / total``, which puts it at or just around saturation.
    """
    rng = random.Random(seed)
    states = []
    for case in range(count):
        machines, n = rng.randint(1, 4), rng.randint(1, 10)
        now = rng.choice([0.0, rng.uniform(0.0, 50.0)])
        if case % 3 == 0:
            now = float(int(now))
            rem = [(float(rng.randint(1, 6)), now + rng.randint(1, 12)) for _ in range(n)]
        else:
            rem = [(rng.uniform(0.01, 5.0), now + rng.uniform(0.01, 10.0)) for _ in range(n)]
        if case % 3 == 2:
            value, _ = flow_schedule(now, rem, machines)
            share = value / sum(r for r, _ in rem)
            rem = [(r * share, d) for r, d in rem]
        states.append((now, rem, machines))
    return states


class TestFlowFeasibility:
    def test_empty_feasible(self):
        assert migration_feasible(0.0, [], 2)

    def test_single_job(self):
        assert migration_feasible(0.0, [(2.0, 3.0)], 1)
        assert not migration_feasible(0.0, [(2.0, 1.5)], 1)

    def test_parallel_capacity(self):
        # 3 jobs of 2 by deadline 3 on 2 machines: 6 <= 6 and each <= 3.
        assert migration_feasible(0.0, [(2.0, 3.0)] * 3, 2)
        # 4 such jobs: 8 > 6.
        assert not migration_feasible(0.0, [(2.0, 3.0)] * 4, 2)

    def test_no_self_parallelism(self):
        # One job of 4 by deadline 3 is infeasible even on 10 machines.
        assert not migration_feasible(0.0, [(4.0, 3.0)], 10)

    def test_mcnaughton_classic(self):
        # A(4,d4), B(4,d4), C(4,d6) on 2 machines is infeasible (C can get
        # at most 2 units after 4).
        assert not migration_feasible(0.0, [(4.0, 4.0), (4.0, 4.0), (4.0, 6.0)], 2)

    def test_deadline_in_past_infeasible(self):
        assert not migration_feasible(5.0, [(1.0, 4.0)], 2)

    def test_now_offset_respected(self):
        assert migration_feasible(1.0, [(2.0, 3.0)], 1)
        assert not migration_feasible(1.5, [(2.0, 3.0)], 1)

    def test_cut_formula_matches_networkx_reference(self):
        states = _random_states(3000, seed=0)
        new = [migration_feasible(*state) for state in states]
        old = [flow_reference.migration_feasible(*state) for state in states]
        assert new == old
        assert 0 < sum(new) < len(new)


class TestFlowSchedule:
    def test_plan_saturates_feasible_work(self):
        remainders = [(2.0, 3.0), (2.0, 3.0), (1.0, 5.0)]
        value, plan = flow_schedule(0.0, remainders, 2)
        assert value == pytest.approx(5.0)
        # Per-interval totals within machine capacity; per-job within length.
        for lo, hi, per_job in plan:
            assert sum(per_job) <= 2 * (hi - lo) + 1e-9
            assert all(w <= (hi - lo) + 1e-9 for w in per_job)
        # Each job's plan total equals its remainder.
        for j, (rem, _) in enumerate(remainders):
            assert sum(p[j] for _, _, p in plan) == pytest.approx(rem)

    def test_empty_plan(self):
        value, plan = flow_schedule(0.0, [(0.0, 5.0)], 2)
        assert value == 0.0 and plan == []

    def test_random_plans_saturate_feasible_work_within_both_caps(self):
        checked = 0
        for now, remainders, machines in _random_states(300, seed=1):
            value, plan = flow_schedule(now, remainders, machines)
            for lo, hi, per_job in plan:
                assert all(0.0 <= w <= hi - lo for w in per_job)
                assert sum(per_job) <= machines * (hi - lo) + 1e-9
            if migration_feasible(now, remainders, machines):
                checked += 1
                for j, (rem, _) in enumerate(remainders):
                    assert sum(p[j] for _, _, p in plan) == pytest.approx(rem, abs=1e-9)
        assert checked > 50


class TestScheduler:
    def test_accepts_everything_when_easy(self):
        jobs = [Job(0, 1, 5), Job(0.5, 1, 6), Job(1, 1, 7)]
        inst = Instance(jobs, machines=2, epsilon=1.0)
        out = MigrationGreedyScheduler().run(inst)
        assert out.accepted_load == pytest.approx(3.0)

    def test_rejects_infeasible_additions(self):
        jobs = [Job(0, 2, 2.4), Job(0, 2, 2.4), Job(0, 2, 2.4)]
        inst = Instance(jobs, machines=2, epsilon=0.2)
        out = MigrationGreedyScheduler().run(inst)
        assert len(out.accepted_ids) == 2

    def test_edf_counterexample_handled(self):
        # The 7-job state where global EDF misses a deadline: the fluid
        # flow executor completes everything (regression test for the EDF
        # executor bug found during development).
        inst = random_instance(30, 3, 0.2, seed=7)
        out = MigrationGreedyScheduler().run(inst)
        out.audit()

    @pytest.mark.parametrize("seed", range(6))
    def test_never_misses_deadline_random(self, seed):
        inst = random_instance(50, 3, 0.15, seed=seed)
        out = MigrationGreedyScheduler().run(inst)
        out.audit()

    def test_accepts_at_least_nonmigratory_baseline(self):
        # Migration is the most powerful model; feasibility-greedy with
        # migration accepts at least as much as single-machine feasibility
        # would on this crafted stream.
        jobs = [Job(0, 3, 4), Job(0, 3, 4), Job(0, 2, 8)]
        inst = Instance(jobs, machines=2, epsilon=0.3)
        out = MigrationGreedyScheduler().run(inst)
        assert out.accepted_load == pytest.approx(8.0)


_HASH_SEED_SCRIPT = """
import json
from repro.baselines.registry import run_algorithm
from repro.workloads import random_instance

instances = [random_instance(40, m, 0.2, seed=s) for m in (2, 3, 4) for s in range(10)]
instances.append(random_instance(60, 3, 0.2, seed=1))
rows = []
for instance in instances:
    result = run_algorithm("migration-greedy", instance)
    rows.append([repr(result.accepted_load), sorted(result.detail.accepted_ids)])
print(json.dumps(rows))
"""


def test_runs_do_not_depend_on_the_hash_seed():
    # A max flow's plan is not unique: any order that follows
    # PYTHONHASHSEED (set iteration over string labels, say) would change
    # the executed plan, and so the rows, between processes.
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            capture_output=True, env=env, text=True, timeout=300, check=True,
        )
        outputs.append(json.loads(proc.stdout))
    assert len(outputs[0]) == 31
    assert outputs[0] == outputs[1]
