"""Unit tests for the offline packing heuristics."""

import random

import pytest

from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.offline.exact import exact_optimum
from repro.offline.heuristics import ORDERINGS, best_offline_schedule, opt_lower_bound
from repro.utils.tolerances import TIME_EPS
from repro.workloads import random_instance
from repro.workloads.cloud import cloud_instance
from repro.workloads.sweep import cell_seed_for
from tests.offline import packer_reference


def _inst(jobs, m=1, eps=0.5):
    return Instance(jobs, machines=m, epsilon=eps, validate=False)


class TestEarliestFeasibleStart:
    def test_empty_machine(self):
        assert MachineState(0).earliest_feasible_start(Job(1, 2, 10, job_id=0)) == 1.0

    def test_uses_gap(self):
        ms = MachineState(0)
        ms.commit(Job(0, 2, 50, job_id=9), 0.0)
        ms.commit(Job(0, 2, 50, job_id=8), 5.0)
        # Gap [2, 5) fits a 2-unit job.
        assert ms.earliest_feasible_start(Job(0, 2, 10, job_id=0)) == pytest.approx(2.0)

    def test_no_gap_returns_none(self):
        ms = MachineState(0)
        ms.commit(Job(0, 3, 50, job_id=9), 0.0)
        assert ms.earliest_feasible_start(Job(0, 2, 4, job_id=0)) is None

    def test_deadline_blocks_late_gap(self):
        ms = MachineState(0)
        ms.commit(Job(0, 5, 50, job_id=9), 0.0)
        assert ms.earliest_feasible_start(Job(0, 1, 5.5, job_id=0)) is None


class TestBestOfflineSchedule:
    def test_schedules_everything_when_easy(self):
        jobs = [Job(0, 1, 10), Job(1, 1, 10), Job(2, 1, 10)]
        s = best_offline_schedule(_inst(jobs, m=2))
        assert s.accepted_count == 3

    def test_gap_filling_beats_online_greedy(self):
        # A later-released short job fits before a delayed long one.
        jobs = [Job(0.0, 10.0, 100.0), Job(1.0, 1.0, 2.0)]
        s = best_offline_schedule(_inst(jobs))
        assert s.accepted_count == 2

    def test_audited(self):
        inst = random_instance(40, 3, 0.2, seed=8)
        s = best_offline_schedule(inst)
        s.audit()

    def test_ordering_recorded(self):
        inst = random_instance(10, 2, 0.3, seed=1)
        s = best_offline_schedule(inst)
        assert s.meta["ordering"] in ORDERINGS

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bounds_exact(self, seed):
        inst = random_instance(9, 2, 0.2, seed=seed)
        assert opt_lower_bound(inst) <= exact_optimum(inst).value + 1e-7

    def test_orderings_cover_known_families(self):
        assert {"edd", "long-first", "release"} <= set(ORDERINGS)


def _packed(pack, instance):
    """Everything two packers must agree on, floats as exact hex."""
    try:
        schedule = pack(instance)
    except ValueError as exc:  # errors must match too
        return ("raised", str(exc))
    return (
        schedule.accepted_load.hex(),
        schedule.meta["ordering"],
        {jid: (a.machine, a.start.hex()) for jid, a in schedule.assignments.items()},
        schedule.rejected,
    )


def _assert_packs_like_reference(instance):
    packed = _packed(best_offline_schedule, instance)
    assert packed == _packed(packer_reference.best_offline_schedule, instance)
    return packed


def _edge_instance(seed, m, sub_eps_share):
    """Whole-number windows, so commitments touch end to start, with a
    share of jobs no longer than TIME_EPS."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(20):
        if rng.random() < sub_eps_share:
            p = rng.choice([TIME_EPS / 4, TIME_EPS / 2, TIME_EPS])
        else:
            p = float(rng.randint(1, 3))
        release = float(rng.randint(0, 10))
        jobs.append(Job(release, p, release + p * rng.choice([1.0, 1.0, 2.0, 3.0])))
    return Instance(jobs, machines=m, epsilon=1.0, validate=False)


class TestMatchesGapListPacker:
    """The one-walk packer against the gap-list packer it replaced."""

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4])
    def test_sweep_cold_flow_cells(self, eps):
        # The cloud cells of the sweep-cold benchmark (n = 60, m = 4).
        for rep in range(6):
            _assert_packs_like_reference(
                cloud_instance(60, 4, eps, seed=cell_seed_for(5001, eps, 4, rep))
            )

    @pytest.mark.parametrize("factory", [random_instance, cloud_instance])
    @pytest.mark.parametrize("n", [15, 40, 120])
    def test_random_and_cloud(self, factory, n):
        for m in range(1, 6):
            _assert_packs_like_reference(factory(n, m, 0.1 * m, seed=n + m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_touching_commitments(self, m):
        for seed in range(10):
            _assert_packs_like_reference(_edge_instance(seed, m, sub_eps_share=0.0))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_jobs_shorter_than_time_eps(self, m):
        # The gap-list packer skips a commitment no longer than TIME_EPS
        # that starts at a job's release as ended, and committing over it
        # raises.  The one-walk packer never raises, and packs like the
        # gap-list packer wherever that one completes.
        reference_raised = []
        for seed in range(10):
            instance = _edge_instance(seed, m, sub_eps_share=0.1)
            packed = _packed(best_offline_schedule, instance)
            reference = _packed(packer_reference.best_offline_schedule, instance)
            assert packed[0] != "raised", packed
            if reference[0] != "raised":
                assert packed == reference
            reference_raised.append(reference[0] == "raised")
        assert any(reference_raised)
