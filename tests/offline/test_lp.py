"""The LP formulation of the Horn relaxation, and the flow bound against it."""

import pytest

from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.bounds import flow_upper_bound
from repro.offline.exact import exact_optimum
from repro.workloads import random_instance
from tests.offline.lp_reference import lp_upper_bound


def _inst(jobs, m=1, eps=0.5):
    return Instance(jobs, machines=m, epsilon=eps, validate=False)


class TestLpUpperBound:
    def test_empty(self):
        assert lp_upper_bound(_inst([])) == 0.0

    def test_single_job(self):
        assert lp_upper_bound(_inst([Job(0, 2, 4)])) == pytest.approx(2.0)

    def test_window_cap(self):
        jobs = [Job(0, 1, 1.2), Job(0, 1, 1.2)]
        assert lp_upper_bound(_inst(jobs)) == pytest.approx(1.2)

    def test_self_parallelism_cap(self):
        jobs = [Job(0, 3, 3.0)] * 3
        assert lp_upper_bound(_inst(jobs, m=2)) == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_flow_bound(self, seed):
        inst = random_instance(20, 2, 0.2, seed=seed)
        assert lp_upper_bound(inst) == pytest.approx(flow_upper_bound(inst), abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_exact(self, seed):
        inst = random_instance(9, 2, 0.25, seed=seed)
        assert lp_upper_bound(inst) >= exact_optimum(inst).value - 1e-7

    def test_multi_machine_scaling(self):
        jobs = [Job(0, 1, 1.2)] * 4
        one = lp_upper_bound(_inst(jobs, m=1))
        two = lp_upper_bound(_inst(jobs, m=2))
        assert two == pytest.approx(2 * one)
