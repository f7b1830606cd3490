"""Unit tests for Algorithm 1 (ThresholdPolicy)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.params import clamp_epsilon, threshold_parameters
from repro.core.threshold import AllocationRule, ThresholdPolicy
from repro.engine.simulator import simulate
from repro.model.instance import Instance
from repro.model.job import Job, tight_deadline
from repro.model.machine import MachineState


def run(jobs, machines, epsilon, **policy_kwargs):
    inst = Instance(jobs, machines=machines, epsilon=epsilon)
    return simulate(ThresholdPolicy(**policy_kwargs), inst)


class TestAcceptanceRule:
    def test_accepts_on_empty_system(self):
        s = run([Job(0.0, 1.0, 2.0)], machines=2, epsilon=0.5)
        assert s.accepted_count == 1

    def test_single_machine_matches_goldwasser_rule(self):
        # m = 1: accept iff d >= t + l * (1+eps)/eps.
        eps = 0.5
        jobs = [
            Job(0.0, 1.0, 10.0),  # accepted, load becomes 1
            # at t=0? no: release 0.5, outstanding 0.5, threshold 0.5+0.5*3=2.0
            Job(0.5, 0.9, 1.9),  # d < 2.0 -> reject
            Job(0.5, 1.0, 2.1),  # d >= 2.0 -> accept
        ]
        s = run(jobs, machines=1, epsilon=eps)
        assert not s.is_accepted(1)
        assert s.is_accepted(2)

    def test_threshold_uses_least_loaded_machines_only(self):
        # m = 3, eps = 0.2 -> k = 2: the most loaded machine is ignored.
        eps = 0.2
        params = threshold_parameters(eps, 3)
        assert params.k == 2
        jobs = [
            Job(0.0, 5.0, 100.0),  # big job onto one machine
            Job(0.0, 1.0, 6.0),  # would be rejected if rank-1 load counted
        ]
        s = run(jobs, machines=3, epsilon=eps)
        # rank-1 load is 5 -> ignoring it, ranks 2..3 have load 0 ->
        # threshold = t -> accept.
        assert s.accepted_count == 2

    def test_rejects_below_threshold(self):
        eps = 0.2  # m=2 -> k=1, f = [f_1, f_2] with f_2 = 6
        params = threshold_parameters(eps, 2)
        assert params.f[-1] == pytest.approx(6.0)
        policy = ThresholdPolicy()
        policy.reset(2, eps)
        m0, m1 = MachineState(0), MachineState(1)
        m0.commit(Job(0.0, 1.0, 100.0, job_id=90), 0.0)
        m1.commit(Job(0.0, 1.0, 100.0, job_id=91), 0.0)
        # Both loads are 1 -> d_lim = max(f_1, f_2) = 6 at t = 0.
        reject = policy.on_submission(Job(0.0, 1.0, 5.9, job_id=1), 0.0, [m0, m1])
        accept = policy.on_submission(Job(0.0, 1.0, 6.0, job_id=2), 0.0, [m0, m1])
        assert not reject.accepted
        assert accept.accepted
        assert reject.info["d_lim"] == pytest.approx(6.0)

    def test_decision_info_carries_threshold(self):
        s = run([Job(0.0, 1.0, 3.0)], machines=1, epsilon=0.5)
        trace = s.meta["trace"]
        assert "d_lim" in trace.records[0].decision.info


class TestAllocation:
    def _loaded_machines(self, t=0.0):
        m0, m1, m2 = MachineState(0), MachineState(1), MachineState(2)
        m0.commit(Job(0.0, 3.0, 100.0, job_id=90), 0.0)
        m1.commit(Job(0.0, 1.0, 100.0, job_id=91), 0.0)
        return [m0, m1, m2]

    def test_best_fit_picks_most_loaded_candidate(self):
        policy = ThresholdPolicy()
        policy.reset(3, 0.2)
        machines = self._loaded_machines()
        job = Job(0.0, 1.0, 100.0, job_id=1)
        decision = policy.on_submission(job, 0.0, machines)
        assert decision.accepted and decision.machine == 0
        assert decision.start == pytest.approx(3.0)

    def test_best_fit_skips_non_candidates(self):
        policy = ThresholdPolicy()
        policy.reset(3, 0.2)
        machines = self._loaded_machines()
        # Deadline 3.5 rules out machine 0 (start 3.0 + p 1.0 = 4.0 > 3.5).
        job = Job(0.0, 1.0, 3.5, job_id=1)
        decision = policy.on_submission(job, 0.0, machines)
        assert decision.accepted and decision.machine == 1

    def test_worst_fit_picks_least_loaded(self):
        policy = ThresholdPolicy(allocation=AllocationRule.WORST_FIT)
        policy.reset(3, 0.2)
        decision = policy.on_submission(
            Job(0.0, 1.0, 100.0, job_id=1), 0.0, self._loaded_machines()
        )
        assert decision.machine == 2

    def test_first_fit_picks_lowest_index(self):
        policy = ThresholdPolicy(allocation=AllocationRule.FIRST_FIT)
        policy.reset(3, 0.2)
        decision = policy.on_submission(
            Job(0.0, 1.0, 3.5, job_id=1), 0.0, self._loaded_machines()
        )
        assert decision.machine == 1  # machine 0 not a candidate

    def test_start_immediately_after_outstanding_load(self):
        s = run(
            [Job(0.0, 1.0, 50.0), Job(0.0, 1.0, 50.0), Job(0.0, 2.0, 50.0)],
            machines=1,
            epsilon=1.0,
        )
        starts = sorted(a.start for a in s.assignments.values())
        assert starts == [0.0, 1.0, 2.0]


class TestClaim1Invariant:
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tight_jobs_never_miss(self, eps, m):
        # A stream of tight jobs at increasing releases; the audit inside
        # simulate() would raise on any deadline miss (Claim 1).
        jobs = []
        t = 0.0
        for i in range(25):
            p = 0.5 + (i % 5) * 0.5
            jobs.append(Job(t, p, tight_deadline(t, p, eps)))
            t += 0.3
        s = run(jobs, machines=m, epsilon=eps)
        s.audit()

    def test_accepted_job_always_has_candidate(self):
        # Stress with simultaneous arrivals; the policy asserts internally
        # if the Claim-1 candidate guarantee ever breaks.
        jobs = [Job(0.0, 1.0, 8.0) for _ in range(10)]
        s = run(jobs, machines=2, epsilon=0.3)
        s.audit()


class TestConfiguration:
    def test_epsilon_above_one_clamped(self):
        s = run([Job(0.0, 1.0, 10.0)], machines=2, epsilon=3.0)
        assert s.accepted_count == 1

    def test_explicit_parameters_must_match_m(self):
        params = threshold_parameters(0.2, 3)
        policy = ThresholdPolicy(parameters=params)
        with pytest.raises(ValueError, match="m="):
            policy.reset(2, 0.2)

    def test_factor_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(factor_scale=0.0)

    def test_name_reflects_variant(self):
        assert ThresholdPolicy().name == "threshold"
        assert "worst-fit" in ThresholdPolicy(allocation=AllocationRule.WORST_FIT).name
        assert "fx2" in ThresholdPolicy(factor_scale=2.0).name

    def test_describe_after_reset(self):
        policy = ThresholdPolicy()
        policy.reset(3, 0.2)
        d = policy.describe()
        assert d["m"] == 3 and d["k"] == 2 and d["c"] > 1

    def test_threshold_at_exposed(self):
        policy = ThresholdPolicy()
        policy.reset(2, 0.2)
        d_lim = policy.threshold_at(1.0, [1.0, 1.0])
        assert d_lim == pytest.approx(1.0 + 6.0)  # f_2 = (1+.2)/.2 = 6


def _numpy_threshold_at(params, factor_scale, t, loads):
    """The NumPy expression ``threshold_at`` evaluated before it moved to
    Python floats: the oracle its IEEE results must match bit for bit."""
    sorted_loads = np.sort(np.asarray(loads, dtype=float))[::-1]
    tail = sorted_loads[params.k - 1 :]
    factors = params.f * factor_scale
    return float(t + np.max(tail * factors))


_epsilons = st.floats(min_value=1e-6, max_value=1.0)
_scales = st.just(1.0) | st.floats(min_value=0.05, max_value=20.0)


@st.composite
def _loads(draw, m):
    """m loads drawn from a few values, so ties and zeros are common."""
    pool = draw(
        st.lists(st.just(0.0) | st.floats(0.0, 1e6), min_size=1, max_size=m)
    )
    loads = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    return np.array(loads) if draw(st.booleans()) else loads


class TestThresholdAtOracle:
    @given(
        data=st.data(),
        m=st.integers(1, 8),
        eps=_epsilons,
        scale=_scales,
        t=st.floats(0.0, 1e6),
        explicit=st.booleans(),
    )
    def test_matches_the_numpy_expression_bit_for_bit(
        self, data, m, eps, scale, t, explicit
    ):
        params = threshold_parameters(clamp_epsilon(eps), m)
        policy = ThresholdPolicy(
            parameters=params if explicit else None, factor_scale=scale
        )
        policy.reset(m, eps)
        for _ in range(3):
            loads = data.draw(_loads(m))
            expected = _numpy_threshold_at(policy.params, scale, t, loads)
            got = policy.threshold_at(t, loads)
            assert type(got) is float
            assert got.hex() == expected.hex()

    @given(
        data=st.data(),
        m=st.integers(1, 8),
        epsilons=st.lists(_epsilons, min_size=2, max_size=4),
        scale=_scales,
        t=st.floats(0.0, 1e6),
    )
    def test_follows_params_assigned_or_swapped_between_calls(
        self, data, m, epsilons, scale, t
    ):
        policy = ThresholdPolicy(factor_scale=scale)  # never reset
        for eps in epsilons:
            policy.params = threshold_parameters(clamp_epsilon(eps), m)
            loads = data.draw(_loads(m))
            expected = _numpy_threshold_at(policy.params, scale, t, loads)
            assert policy.threshold_at(t, loads).hex() == expected.hex()

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_wrong_number_of_loads_raises(self, m):
        policy = ThresholdPolicy()
        policy.reset(m, 0.3)
        for count in (m - 1, m + 1):
            with pytest.raises(ValueError):
                policy.threshold_at(1.0, [1.0] * count)
