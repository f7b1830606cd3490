"""Tests for the δ-delayed-commitment engine and policy."""

import pytest

from repro.engine.delayed import (
    DelayedGreedyPolicy,
    decision_deadline,
    simulate_delayed,
)
from repro.model.job import Job
from repro.utils.tolerances import TIME_EPS
from repro.workloads import alternating_instance, random_instance


class TestDecisionDeadline:
    def test_basic(self):
        job = Job(1.0, 2.0, 10.0)
        assert decision_deadline(job, 0.5) == pytest.approx(2.0)

    def test_clipped_to_latest_start(self):
        job = Job(0.0, 2.0, 2.5)  # latest start 0.5
        assert decision_deadline(job, 1.0) == pytest.approx(0.5)

    def test_zero_delta_is_release(self):
        job = Job(3.0, 1.0, 10.0)
        assert decision_deadline(job, 0.0) == 3.0


class TestEngine:
    def test_delta_zero_matches_immediate_greedy_shape(self):
        inst = random_instance(30, 2, 0.2, seed=1)
        s = simulate_delayed(DelayedGreedyPolicy(lookahead=False), inst, 0.0)
        s.audit()
        assert s.accepted_load > 0

    def test_delta_out_of_range(self):
        inst = random_instance(5, 1, 0.2, seed=0)
        with pytest.raises(ValueError, match="delta"):
            simulate_delayed(DelayedGreedyPolicy(), inst, 0.5)
        with pytest.raises(ValueError, match="delta"):
            simulate_delayed(DelayedGreedyPolicy(), inst, -0.1)

    def test_all_jobs_decided(self):
        inst = random_instance(40, 3, 0.3, seed=2)
        s = simulate_delayed(DelayedGreedyPolicy(), inst, 0.15)
        assert len(s.assignments) + len(s.rejected) == len(inst)

    def test_audited_schedule(self):
        inst = random_instance(50, 2, 0.25, seed=3)
        s = simulate_delayed(DelayedGreedyPolicy(), inst, 0.25)
        s.audit()

    def test_policy_must_decide_due_jobs(self):
        # Maximal deferral: each job is decided when its decision
        # deadline fires, never later and never a tolerance earlier.
        inst = random_instance(40, 3, 0.3, seed=2)
        for delta in (0.0, 0.15, 0.3):
            s = simulate_delayed(DelayedGreedyPolicy(), inst, delta, record_events=True)
            for ev in s.meta["events"].of_kind("decision"):
                dd = decision_deadline(inst.jobs[ev.job_id], delta)
                assert dd - TIME_EPS <= ev.time <= dd + TIME_EPS

    def test_policy_cannot_decide_unknown_jobs(self):
        # Every decision names a submitted job, and each job exactly once.
        inst = random_instance(40, 2, 0.3, seed=3)
        s = simulate_delayed(DelayedGreedyPolicy(), inst, 0.2, record_events=True)
        decided = [ev.job_id for ev in s.meta["events"].of_kind("decision")]
        assert sorted(decided) == [job.job_id for job in inst]

    def test_other_policies_are_refused(self):
        class Custom:
            name = "custom"

            def decide(self, t, due, pending, machines):
                return {}

        inst = random_instance(3, 1, 0.2, seed=0)
        with pytest.raises(TypeError, match="DelayedGreedyPolicy"):
            simulate_delayed(Custom(), inst, 0.1)

    def test_delta_meta_recorded(self):
        inst = random_instance(5, 1, 0.2, seed=0)
        s = simulate_delayed(DelayedGreedyPolicy(), inst, 0.1)
        assert s.meta["delta"] == 0.1


class TestPriceOfImmediacy:
    def test_deferral_dodges_bait_and_whale(self):
        eps = 0.1
        inst = alternating_instance(3, machines=2, epsilon=eps)
        immediate = simulate_delayed(DelayedGreedyPolicy(), inst, 0.0)
        deferred = simulate_delayed(DelayedGreedyPolicy(), inst, eps / 2)
        assert deferred.accepted_load > 3.0 * immediate.accepted_load

    def test_lookahead_matters(self):
        eps = 0.1
        inst = alternating_instance(3, machines=2, epsilon=eps)
        with_la = simulate_delayed(DelayedGreedyPolicy(lookahead=True), inst, eps)
        without = simulate_delayed(DelayedGreedyPolicy(lookahead=False), inst, eps)
        assert with_la.accepted_load >= without.accepted_load

    def test_deferral_harmless_on_benign(self):
        inst = random_instance(60, 3, 0.2, seed=4)
        d0 = simulate_delayed(DelayedGreedyPolicy(), inst, 0.0).accepted_load
        d1 = simulate_delayed(DelayedGreedyPolicy(), inst, 0.2).accepted_load
        assert d1 > 0.8 * d0
