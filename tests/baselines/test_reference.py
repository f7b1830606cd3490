"""Tests for the oracle and random-admission reference policies."""

import pytest

from repro.baselines.reference import OraclePolicy, RandomAdmissionPolicy, run_oracle
from repro.engine.simulator import simulate
from repro.offline import exact
from repro.offline.exact import exact_optimum
from repro.offline.heuristics import best_offline_schedule
from repro.workloads import random_instance


class TestOracle:
    def test_matches_exact_optimum_small(self):
        inst = random_instance(10, 2, 0.2, seed=4)
        schedule = run_oracle(inst)
        assert schedule.accepted_load == pytest.approx(exact_optimum(inst).value)
        schedule.audit()

    def test_matches_heuristic_large(self):
        inst = random_instance(60, 2, 0.2, seed=4)
        schedule = run_oracle(inst)
        assert schedule.accepted_load == pytest.approx(
            best_offline_schedule(inst).accepted_load
        )

    def test_dominates_online_algorithms_small(self):
        from repro.core.threshold import ThresholdPolicy

        inst = random_instance(12, 2, 0.25, seed=8)
        oracle = run_oracle(inst).accepted_load
        online = simulate(ThresholdPolicy(), inst).accepted_load
        assert oracle >= online - 1e-9

    def test_requires_priming(self):
        inst = random_instance(5, 1, 0.2, seed=0)
        with pytest.raises(RuntimeError, match="prime"):
            simulate(OraclePolicy(), inst)

    def test_budget_overrun_plans_heuristically(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_EXPLORED_STATES", 10)
        inst = random_instance(12, 2, 0.1, seed=3)
        schedule = run_oracle(inst)
        assert schedule.accepted_load == best_offline_schedule(inst).accepted_load

    def test_explicit_plan_accepted(self):
        inst = random_instance(8, 2, 0.2, seed=1)
        plan = best_offline_schedule(inst)
        schedule = simulate(OraclePolicy(plan=plan), inst)
        assert schedule.accepted_load == pytest.approx(plan.accepted_load)


class TestRandomAdmission:
    def test_q_zero_rejects_all(self):
        inst = random_instance(20, 2, 0.2, seed=2)
        s = simulate(RandomAdmissionPolicy(q=0.0), inst)
        assert s.accepted_count == 0

    def test_q_one_equals_feasibility_greedy_count(self):
        inst = random_instance(20, 2, 0.2, seed=2)
        s = simulate(RandomAdmissionPolicy(q=1.0), inst)
        assert s.accepted_count > 0
        s.audit()

    def test_q_validation(self):
        with pytest.raises(ValueError):
            RandomAdmissionPolicy(q=1.5)

    def test_deterministic_given_seed(self):
        inst = random_instance(30, 2, 0.2, seed=3)
        a = simulate(RandomAdmissionPolicy(q=0.5, rng=7), inst).accepted_load
        b = simulate(RandomAdmissionPolicy(q=0.5, rng=7), inst).accepted_load
        assert a == b

    def test_monotone_in_q_on_average(self):
        inst = random_instance(80, 2, 0.2, seed=5)
        lo = simulate(RandomAdmissionPolicy(q=0.2, rng=1), inst).accepted_load
        hi = simulate(RandomAdmissionPolicy(q=0.9, rng=1), inst).accepted_load
        assert hi > lo
