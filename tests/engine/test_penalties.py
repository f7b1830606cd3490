"""Tests for the commitment-with-penalties engine and policy."""

import pytest

from repro.engine.kernel import SimulationError
from repro.engine.penalties import (
    PenaltyPolicy,
    PlannedJob,
    RevocableGreedyPolicy,
    simulate_with_penalties,
)
from repro.model.instance import Instance
from repro.model.job import Job
from repro.workloads import alternating_instance, random_instance
from tests.engine.penalties_reference import reference_run


class TestPlannedJob:
    def test_end_and_started(self):
        p = PlannedJob(Job(0, 2, 10, job_id=0), machine=0, start=3.0)
        assert p.end == 5.0
        assert not p.started(2.0)
        assert p.started(3.0)


class TestEngineValidation:
    def test_negative_phi_rejected(self):
        inst = random_instance(3, 1, 0.2, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            simulate_with_penalties(RevocableGreedyPolicy(), inst, -1.0)

    def test_post_start_revocation_forbidden(self):
        class Cheater(PenaltyPolicy):
            name = "cheater"

            def on_submission(self, job, t, plans):
                if plans:
                    # Try to revoke a started plan.
                    return None, [plans[0].job.job_id]
                return PlannedJob(job, 0, t), []

        jobs = [Job(0.0, 1.0, 3.0), Job(0.5, 1.0, 3.5)]
        inst = Instance(jobs, machines=1, epsilon=1.0)
        with pytest.raises(ValueError, match="post-start"):
            simulate_with_penalties(Cheater(), inst, 0.0)

    def test_overlapping_plan_rejected(self):
        class Overlapper(PenaltyPolicy):
            name = "overlapper"

            def on_submission(self, job, t, plans):
                return PlannedJob(job, 0, job.latest_start), []

        jobs = [Job(0.0, 2.0, 2.5), Job(0.0, 2.0, 2.5)]
        inst = Instance(jobs, machines=1, epsilon=0.25)
        with pytest.raises(ValueError, match="overlaps"):
            simulate_with_penalties(Overlapper(), inst, 0.0)

    def test_unknown_revocation(self):
        class Ghost(PenaltyPolicy):
            name = "ghost"

            def on_submission(self, job, t, plans):
                return None, [12345]

        inst = random_instance(2, 1, 0.2, seed=0)
        with pytest.raises(ValueError, match="unknown"):
            simulate_with_penalties(Ghost(), inst, 0.0)


class TestOutcomeAccounting:
    def test_net_value(self):
        eps = 0.1
        inst = alternating_instance(2, machines=2, epsilon=eps)
        out = simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.5)
        assert out.net_value == pytest.approx(
            out.completed_load - 0.5 * sum(inst[j].processing for j in out.revoked)
        )

    def test_audit_covers_all_jobs(self):
        inst = random_instance(40, 2, 0.2, seed=5)
        out = simulate_with_penalties(RevocableGreedyPolicy(), inst, 1.0)
        assert len(out.completed) + len(out.revoked) + len(out.rejected) == len(inst)
        out.audit()


class TestRevocableGreedy:
    def test_revokes_bait_for_whale(self):
        eps = 0.1
        inst = alternating_instance(2, machines=2, epsilon=eps)
        out = simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.0)
        assert len(out.revoked) > 0
        whales = {j.job_id for j in inst if j.tag("kind") == "whale"}
        assert whales <= set(out.completed), "all whales should be kept"

    def test_high_penalty_stops_revocation(self):
        eps = 0.1
        inst = alternating_instance(2, machines=2, epsilon=eps)
        out = simulate_with_penalties(RevocableGreedyPolicy(), inst, 1e6)
        assert len(out.revoked) == 0

    def test_net_value_monotone_in_phi(self):
        eps = 0.1
        inst = alternating_instance(3, machines=2, epsilon=eps)
        values = [
            simulate_with_penalties(RevocableGreedyPolicy(), inst, phi).net_value
            for phi in (0.0, 0.5, 2.0, 1e6)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_swap_rule_respects_penalty_threshold(self):
        # Whale worth 9.8; bait worth 1.  Swap profitable iff 9.8 > (1+phi).
        eps = 0.1
        inst = alternating_instance(1, machines=1, epsilon=eps)
        profitable = simulate_with_penalties(RevocableGreedyPolicy(), inst, 5.0)
        unprofitable = simulate_with_penalties(RevocableGreedyPolicy(), inst, 20.0)
        assert len(profitable.revoked) == 1
        assert len(unprofitable.revoked) == 0

    def test_random_runs_audited(self):
        for seed in range(4):
            inst = random_instance(50, 3, 0.25, seed=seed)
            out = simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.5)
            out.audit()


class _Scripted(PenaltyPolicy):
    """Places job ``j`` at ``script[j] = (machine, start, revoked_ids)``."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def on_submission(self, job, t, plans):
        machine, start, revoked = self.script[job.job_id]
        return PlannedJob(job, machine, start), list(revoked)


class TestOverlapIndex:
    def test_overlap_names_earliest_inserted_plan(self):
        # Job 0 is planned late, job 1 early; job 2 overlaps both and the
        # error names job 0, the first surviving plan in insertion order.
        jobs = [Job(0.0, 1.0, 20.0), Job(0.0, 1.0, 20.0), Job(0.0, 4.0, 20.0)]
        inst = Instance(jobs, machines=2, epsilon=1.0)
        script = {0: (0, 5.0, ()), 1: (0, 2.0, ()), 2: (0, 2.5, ())}
        with pytest.raises(SimulationError, match="overlaps surviving plan 0$") as err:
            simulate_with_penalties(_Scripted(script), inst, 0.0)
        assert (err.value.job_id, err.value.time) == (2, 0.0)

    def test_revoked_slot_is_free(self):
        jobs = [Job(0.0, 2.0, 20.0), Job(1.0, 2.0, 20.0)]
        inst = Instance(jobs, machines=1, epsilon=1.0)
        script = {0: (0, 5.0, ()), 1: (0, 5.0, (0,))}
        out = simulate_with_penalties(_Scripted(script), inst, 0.0)
        assert out.revoked == {0}
        assert {j: p.start for j, p in out.completed.items()} == {1: 5.0}

    def test_finished_plan_checked_against_earlier_release(self):
        # Job 1 is released after job 0's plan ends, but job 2 comes back
        # to t=0.5 (an unvalidated instance): job 0 must still block it.
        jobs = [Job(0.0, 1.0, 3.0), Job(5.0, 1.0, 8.0), Job(0.5, 1.0, 3.0)]
        inst = Instance(jobs, machines=1, epsilon=1.0, validate=False)
        script = {0: (0, 0.0, ()), 1: (0, 5.0, ()), 2: (0, 0.5, ())}
        with pytest.raises(SimulationError, match="overlaps surviving plan 0$"):
            simulate_with_penalties(_Scripted(script), inst, 0.0)


def _outcome_key(out):
    return (
        [(j, p.machine, p.start) for j, p in out.completed.items()],
        out.revoked,
        out.rejected,
        out.net_value,
    )


class TestPolicyState:
    def test_reused_instance_matches_fresh_ones(self):
        a = random_instance(80, 3, 0.2, seed=7)
        b = random_instance(60, 2, 0.3, seed=8)
        policy = RevocableGreedyPolicy()
        reused = [simulate_with_penalties(policy, inst, 0.5) for inst in (a, b)]
        fresh = [
            simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.5)
            for inst in (a, b)
        ]
        assert [_outcome_key(o) for o in reused] == [_outcome_key(o) for o in fresh]

    @pytest.mark.parametrize("phi", [0.0, 0.5])
    def test_event_stream_matches_reference(self, phi):
        inst = random_instance(60, 2, 0.2, seed=2)
        out = simulate_with_penalties(
            RevocableGreedyPolicy(), inst, phi, record_events=True
        )
        ref = reference_run(inst, phi, record_events=True).detail
        assert out.meta["events"].of_kind("revoke")
        assert list(out.meta["events"]) == list(ref.meta["events"])
