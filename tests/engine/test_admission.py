"""Tests for the commitment-on-admission engine and policies."""

import pytest

from repro.engine.admission import (
    AdmissionGreedyPolicy,
    AdmissionLazyPolicy,
    simulate_admission,
)
from repro.model.instance import Instance
from repro.model.job import Job, tight_deadline
from repro.workloads import alternating_instance, random_instance


class TestEngineBasics:
    def test_accepts_easy_stream(self):
        jobs = [Job(0, 1, 10), Job(0.5, 1, 10), Job(1.0, 1, 10)]
        inst = Instance(jobs, machines=2, epsilon=1.0)
        s = simulate_admission(AdmissionGreedyPolicy(), inst)
        assert s.accepted_count == 3
        s.audit()

    def test_expires_unstartable_jobs(self):
        # Two tight unit jobs on one machine: the second cannot start.
        eps = 0.2
        jobs = [
            Job(0.0, 1.0, tight_deadline(0.0, 1.0, eps)),
            Job(0.0, 1.0, tight_deadline(0.0, 1.0, eps)),
        ]
        inst = Instance(jobs, machines=1, epsilon=eps)
        s = simulate_admission(AdmissionGreedyPolicy(), inst)
        assert s.accepted_count == 1
        assert len(s.rejected) == 1

    def test_empty_instance(self):
        inst = Instance([], machines=2, epsilon=0.5)
        s = simulate_admission(AdmissionGreedyPolicy(), inst)
        assert s.accepted_count == 0

    def test_model_recorded(self):
        inst = random_instance(5, 1, 0.3, seed=0)
        s = simulate_admission(AdmissionLazyPolicy(), inst)
        assert s.meta["model"] == "commitment-on-admission"

    def test_all_jobs_decided(self):
        inst = random_instance(60, 3, 0.2, seed=8)
        s = simulate_admission(AdmissionLazyPolicy(), inst)
        assert len(s.assignments) + len(s.rejected) == len(inst)

    def test_borderline_expiry_terminates(self):
        # Regression: a job expiring exactly while all machines are busy
        # used to hang the event loop.
        jobs = [
            Job(0.0, 2.0, 10.0),          # occupies the machine
            Job(0.1, 1.0, 1.2),           # latest start 0.2 < machine free
        ]
        inst = Instance(jobs, machines=1, epsilon=0.1)
        s = simulate_admission(AdmissionGreedyPolicy(), inst)
        assert 1 in s.rejected

    def test_bogus_policy_choice_rejected(self):
        # Only the built-in policies run: the loop implements them.
        class Bogus:
            name = "bogus"

            def choose(self, t, pending):
                return Job(0.0, 1.0, 100.0, job_id=999)

        inst = random_instance(3, 1, 0.5, seed=1)
        with pytest.raises(TypeError, match="AdmissionGreedyPolicy"):
            simulate_admission(Bogus(), inst)


class TestPolicies:
    def test_greedy_prefers_largest(self):
        jobs = [Job(0.0, 1.0, 10.0), Job(0.0, 3.0, 10.0)]
        inst = Instance(jobs, machines=1, epsilon=1.0)
        s = simulate_admission(AdmissionGreedyPolicy(), inst)
        assert s.assignments[1].start == pytest.approx(0.0)

    def test_lazy_waits_until_forced(self):
        eps = 0.5
        jobs = [Job(0.0, 1.0, tight_deadline(0.0, 1.0, eps))]
        inst = Instance(jobs, machines=1, epsilon=eps)
        s = simulate_admission(AdmissionLazyPolicy(), inst)
        # Started at the latest start time, not at release.
        assert s.assignments[0].start == pytest.approx(0.5, abs=1e-6)

    def test_lazy_dodges_bait_and_whale(self):
        eps = 0.05
        inst = alternating_instance(3, machines=2, epsilon=eps)
        lazy = simulate_admission(AdmissionLazyPolicy(), inst)
        eager = simulate_admission(AdmissionGreedyPolicy(), inst)
        whales = {j.job_id for j in inst if j.tag("kind") == "whale"}
        assert whales <= set(lazy.assignments)
        assert lazy.accepted_load > 5.0 * eager.accepted_load

    @pytest.mark.parametrize(
        "policy",
        [AdmissionGreedyPolicy(), AdmissionLazyPolicy(slack_margin=1.0), AdmissionLazyPolicy()],
    )
    def test_random_runs_audited(self, policy):
        for seed in range(3):
            inst = random_instance(50, 3, 0.25, seed=seed)
            simulate_admission(policy, inst).audit()
