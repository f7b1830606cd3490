"""Tests for the commitment-with-penalties engine and policy."""

import math

import pytest

from repro.engine.kernel import SimulationError
from repro.engine.penalties import (
    PenaltyOutcome,
    PlannedJob,
    RevocableGreedyPolicy,
    simulate_with_penalties,
)
from repro.model.instance import Instance
from repro.model.job import Job
from repro.workloads import alternating_instance, random_instance
from tests.engine.penalties_reference import (
    ReferenceRevocableGreedyPolicy,
    reference_run,
)


class TestPlannedJob:
    def test_end_and_started(self):
        p = PlannedJob(Job(0, 2, 10, job_id=0), machine=0, start=3.0)
        assert p.end == 5.0
        assert not p.started(2.0)
        assert p.started(3.0)


def _run(jobs, phi=0.0, epsilon=1.0, validate=True):
    """Revocable-greedy on one machine over ``(release, p, deadline)`` jobs."""
    inst = Instance(
        [Job(*job) for job in jobs], machines=1, epsilon=epsilon, validate=validate
    )
    return simulate_with_penalties(RevocableGreedyPolicy(), inst, phi)


def _starts(out):
    return {j: p.start for j, p in out.completed.items()}


class TestEngineValidation:
    def test_negative_phi_rejected(self):
        inst = random_instance(3, 1, 0.2, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            simulate_with_penalties(RevocableGreedyPolicy(), inst, -1.0)

    def test_nan_phi_rejected(self):
        inst = random_instance(3, 1, 0.2, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            simulate_with_penalties(RevocableGreedyPolicy(), inst, math.nan)

    def test_infinite_phi_never_revokes(self):
        # Without revocations the penalty is 0.0 at every phi, infinite too.
        quiet = random_instance(10, 4, 0.5, seed=1)  # revokes at no phi
        for phi in (0.0, 0.5, 1e300, math.inf):
            out = simulate_with_penalties(RevocableGreedyPolicy(), quiet, phi)
            assert (out.revoked, out.penalty_paid) == (set(), 0.0)
            assert out.net_value == out.completed_load
        # Where phi = 0.5 revokes, phi = inf keeps every plan.
        for inst in (
            random_instance(20, 2, 0.2, seed=0),
            alternating_instance(2, machines=2, epsilon=0.1),
        ):
            assert simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.5).revoked
            frozen = simulate_with_penalties(RevocableGreedyPolicy(), inst, math.inf)
            assert frozen.revoked == set()
            assert frozen.net_value == frozen.completed_load

    @pytest.mark.parametrize("policy", [object(), ReferenceRevocableGreedyPolicy()])
    def test_foreign_policy_rejected(self, policy):
        inst = random_instance(3, 1, 0.2, seed=0)
        with pytest.raises(TypeError, match="RevocableGreedyPolicy"):
            simulate_with_penalties(policy, inst, 0.5)

    def test_post_start_revocation_forbidden(self):
        # A bait planned at 0.125 and a whale worth four baits: the whale
        # displaces the bait only while the bait has not started.
        bait = (0.0, 1.0, 1.125)
        early = _run([bait, (0.0625, 4.0, 4.5625)], epsilon=0.125)
        assert early.revoked == {0}
        assert _starts(early) == {1: 0.5625}
        late = _run([bait, (0.25, 4.0, 4.75)], epsilon=0.125)
        assert late.revoked == set()
        assert late.rejected == {1}
        assert _starts(late) == {0: 0.125}

    def test_overlapping_plan_rejected(self):
        # Two copies of a job whose only slot is [0.5, 2.5): the copy is
        # rejected (not worth the swap at phi = 0), never planned over it.
        jobs = [(0.0, 2.0, 2.5), (0.0, 2.0, 2.5)]
        out = _run(jobs, epsilon=0.25)
        assert _starts(out) == {0: 0.5}
        assert out.rejected == {1}
        overlapping = _hand_built(jobs, {0: (0, 0.5), 1: (0, 0.5)})
        with pytest.raises(AssertionError, match="jobs 0 and 1 overlap"):
            overlapping.audit()


def _hand_built(jobs, plans, revoked=(), rejected=()):
    """An outcome with ``plans[j] = (machine, start)`` for job ``j``."""
    inst = Instance([Job(*job) for job in jobs], machines=2, epsilon=1.0, validate=False)
    out = PenaltyOutcome(instance=inst, algorithm="hand-built", phi=0.0)
    out.completed = {
        j: PlannedJob(inst[j], machine, start) for j, (machine, start) in plans.items()
    }
    out.revoked = set(revoked)
    out.rejected = set(rejected)
    return out


class TestAudit:
    """:meth:`PenaltyOutcome.audit` on hand-built outcomes."""

    def test_valid_outcome_passes(self):
        jobs = [(0.0, 1.0, 2.0), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0)]
        # Touching plans, plans overlapping by under TIME_EPS and the
        # other machine's plans are all fine.
        out = _hand_built(
            jobs, {0: (0, 0.0), 1: (0, 1.0 - 0.5e-9), 2: (1, 0.5)}, revoked={3}
        )
        out.audit()

    def test_overlap(self):
        out = _hand_built([(0.0, 2.0, 5.0), (0.0, 2.0, 5.0)], {0: (1, 0.0), 1: (1, 1.0)})
        with pytest.raises(AssertionError, match="jobs 0 and 1 overlap"):
            out.audit()

    def test_plan_nested_in_tolerance(self):
        # Plan 1 lies inside plan 0 and ends before plan 0's end minus
        # TIME_EPS: a symmetric "each starts before the other ends" test
        # passes it, the audit's start order does not.
        out = _hand_built(
            [(0.0, 2e-9, 4e-9), (0.5e-9, 2e-10, 2e-9)], {0: (0, 0.0), 1: (0, 0.5e-9)}
        )
        with pytest.raises(AssertionError, match="jobs 0 and 1 overlap"):
            out.audit()

    def test_missed_deadline(self):
        out = _hand_built([(0.0, 1.0, 2.0)], {0: (0, 1.5)})
        with pytest.raises(AssertionError, match="job 0 misses its deadline"):
            out.audit()

    def test_start_before_release(self):
        out = _hand_built([(1.0, 1.0, 3.0)], {0: (0, 0.5)})
        with pytest.raises(AssertionError, match="job 0 starts before release"):
            out.audit()

    def test_missing_job(self):
        out = _hand_built([(0.0, 1.0, 2.0), (0.0, 1.0, 2.0)], {0: (0, 0.0)})
        with pytest.raises(AssertionError, match=r"missing=\[1\] extra=\[\]"):
            out.audit()

    def test_extra_job(self):
        out = _hand_built([(0.0, 1.0, 2.0)], {0: (0, 0.0)}, rejected={7})
        with pytest.raises(AssertionError, match=r"missing=\[\] extra=\[7\]"):
            out.audit()


#: Instances (one machine) on which the earlier engine's policy proposed
#: a plan the engine or the audit refuses: ``(jobs, epsilon, starts,
#: rejected)``, with the loop's starts and rejections.
REPRODUCERS = {
    # The gap's clamped start lands past its end minus p: refused by the
    # earlier engine's overlap check.
    "clamp-past-gap": ([(0, 2e-9, 4e-9), (1e-9, 2e-9, 5e-9)], 1.0, {0: 2e-9}, {1}),
    # The clamped start lands past the deadline minus p, by rounding.
    "clamp-past-deadline": (
        [
            (0.0, 7.706189709426145e-10, 1.541237941885229e-09),
            (0.0, 2.1151076863704258e-09, 2.6563456282556548e-09),
        ],
        0.01,
        {0: 7.706189709426145e-10},
        {1},
    ),
    # Job 1 nests at plan 0's start, within its tolerance; the fold took
    # job 1's end as the next gap's lower edge, inside plan 0.
    "nested-lower-edge": (
        [(0, 1, 2), (1, 1e-9, 1.000000003), (1, 2e-9, 1.000000004)],
        1.0,
        {0: 1.0, 1: 1.0},
        {2},
    ),
    # A job below TIME_EPS nested inside plan 0: passed the earlier
    # engine's symmetric check, failed the audit.
    "sub-eps-nested": ([(0, 2e-9, 4e-9), (2.5e-9, 2e-10, 3e-9)], 1.0, {0: 2e-9}, {1}),
}


class TestReproducers:
    @pytest.mark.parametrize("phi", [0.0, 0.5])
    @pytest.mark.parametrize("name", sorted(REPRODUCERS))
    def test_completes_and_passes_audit(self, name, phi):
        jobs, epsilon, starts, rejected = REPRODUCERS[name]
        out = _run(jobs, phi, epsilon)
        out.audit()
        assert _starts(out) == starts
        assert out.rejected == rejected
        assert out.revoked == set()
        with pytest.raises((SimulationError, AssertionError), match="overlap|infeasible"):
            reference_run(out.instance, phi)


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


class TestOverlapIndex:
    """The per-machine plan lists the overlap rule reads."""

    def test_revoked_slot_is_free(self):
        # The whale takes [0.5625, 4.5625), over the revoked bait's
        # [0.125, 1.125).
        out = _run([(0.0, 1.0, 1.125), (0.0625, 4.0, 4.5625)], epsilon=0.125)
        assert out.revoked == {0}
        assert _starts(out) == {1: 0.5625}
        out.audit()

    def test_finished_plan_checked_against_earlier_release(self):
        # Job 1 is released after job 0's plan [2, 3) ends, but job 2 comes
        # back to t=0.5 (an unvalidated instance): job 0 must still block
        # job 2's latest start 2.0, which moves to 1.0.
        out = _run(
            [(0.0, 1.0, 3.0), (5.0, 1.0, 8.0), (0.5, 1.0, 3.0)], validate=False
        )
        assert _starts(out) == {0: 2.0, 1: 7.0, 2: 1.0}
        out.audit()


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
