"""Canonical dispatch against the bitmask solver that branched everywhere.

``tests/offline/bitmask_reference.py`` keeps the solver that appended any
alive job to any distinct machine frontier.  The live solver branches
only on the machine that frees earliest, so it meets the same optimal
schedules in another order and sums each value in another order:

* outside the nano family both accept the same load — ``math.fsum`` of
  the accepted processing times is equal bit for bit — and the values
  differ by at most 4 ulps;
* with processing times of a few ``TIME_EPS`` (the nano family) the
  searches' ``TIME_EPS`` tests can decide otherwise.  A state keeps a
  branch within ``TIME_EPS`` of its best one, so each level of either
  search can settle up to ``TIME_EPS`` short of the optimum: over at
  most ``n`` dispatches the values differ by at most ``n * TIME_EPS``.
  With sizes drawn uniformly the difference stays below ``TIME_EPS``;
  with many sizes of exactly ``TIME_EPS`` it reaches about
  ``1.6 * TIME_EPS``.

Every schedule is audited and carries its value: ``math.fsum`` of its
accepted processing times is within a few ulps of ``value``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline import exact
from repro.offline.bounds import opt_upper_bound
from repro.offline.exact import ExactSolverBudgetExceeded, exact_optimum
from repro.offline.heuristics import opt_lower_bound
from repro.utils.tolerances import TIME_EPS
from repro.workloads import random_instance
from repro.workloads.sweep import cell_seed_for
from tests.offline import bitmask_reference
from tests.offline.test_exact_reference import (
    _SETTINGS,
    _distinct_instances,
    _tied_instances,
)


def _accepted_fsum(result):
    instance = result.schedule.instance
    return math.fsum(instance[jid].processing for jid in result.schedule.assignments)


def _assert_carries_value(result):
    result.schedule.audit()
    load = _accepted_fsum(result)
    assert abs(load - result.value) <= len(result.schedule.instance) * math.ulp(result.value)


def _assert_matches_reference(instance):
    result = exact_optimum(instance)
    reference = bitmask_reference.exact_optimum(instance)
    _assert_carries_value(result)
    if any(job.processing < 1e-6 for job in instance):  # the nano family
        assert abs(result.value - reference.value) <= len(instance) * TIME_EPS
    else:
        assert _accepted_fsum(result) == _accepted_fsum(reference)
        assert abs(result.value - reference.value) <= 4 * math.ulp(reference.value)
    return result, reference


@settings(max_examples=150, **_SETTINGS)
@given(
    st.one_of(
        _distinct_instances(st.integers(0, 8), st.sampled_from(["unit", "nano", "far"])),
        _distinct_instances(st.integers(9, 10), st.sampled_from(["unit", "nano", "far"])),
    )
)
def test_matches_reference_on_distinct_processing_times(instance):
    _assert_matches_reference(instance)


@settings(max_examples=150, **_SETTINGS)
@given(_tied_instances(st.integers(2, 12)))
def test_matches_reference_on_tied_processing_times(instance):
    _assert_matches_reference(instance)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_matches_reference_on_benchmark_cells(n, eps):
    states = reference_states = 0
    for seed in range(4):
        result, reference = _assert_matches_reference(random_instance(n, 2, eps, seed=seed))
        states += result.explored_states
        reference_states += reference.explored_states
    # One visit per schedule instead of one per interleaving of the
    # machines' dispatch sequences.
    assert states < reference_states


def test_nano_schedule_carries_its_value():
    # One machine, two jobs of about 3 TIME_EPS.  Both orders are within
    # 1e-7 of the optimum, so the bitmask solver's reconstruction took
    # job 0 first, after which job 1 misses its deadline: its "optimal"
    # schedule carried one job.  Following the branch that reproduces
    # the memoised value exactly schedules both.
    jobs = [
        Job(2.9636265143953057e-09, 2.9954227679654427e-09, 1.4445804255125872e-08),
        Job(4.563148848146908e-09, 2.920713965442203e-09, 7.48386281358911e-09),
    ]
    instance = Instance(jobs, machines=1, epsilon=1.0, validate=False)
    result = exact_optimum(instance)
    assert result.value == jobs[1].processing + jobs[0].processing
    assert sorted(result.schedule.assignments) == [0, 1]
    _assert_carries_value(result)
    reference = bitmask_reference.exact_optimum(instance)
    assert reference.value == result.value
    assert sorted(reference.schedule.assignments) == [0]


def test_n18_four_machine_cell_completes():
    # Rep 0 of `repro sweep --n 18 --machines 4 --epsilons 0.3 --seed 1`,
    # which overran the state budget when every frontier was branched on.
    instance = random_instance(18, 4, 0.3, seed=cell_seed_for(1, 0.3, 4, 0))
    result = exact_optimum(instance)
    assert result.explored_states < exact.MAX_EXPLORED_STATES
    _assert_carries_value(result)
    assert opt_lower_bound(instance) <= result.value + TIME_EPS
    assert result.value <= opt_upper_bound(instance) + TIME_EPS


def test_budget_error(monkeypatch):
    monkeypatch.setattr(exact, "MAX_EXPLORED_STATES", 50)
    with pytest.raises(ExactSolverBudgetExceeded, match="exceeded 50 memoised states$"):
        exact_optimum(random_instance(12, 2, 0.1, seed=3))
