"""The bitmask branch-and-bound against the frozenset solver it replaced.

``tests/offline/exact_reference.py`` keeps the frozenset solver verbatim,
and ``tests/offline/bitmask_reference.py`` the bitmask solver that
replaced it, as it was before the search branched only on the machine
that frees earliest (``tests/offline/test_exact_canonical.py`` compares
the live solver with it).  The two references must agree bit for bit:
the value, every assignment, the rejected set, ``explored_states`` and
any exception.  The frozenset solver took two orders from ``frozenset``
iteration, which is ascending job id only while every id is below 8; the
bitmask solver uses ascending job id throughout.  That gives the two
documented differences, both from 9 jobs on:

* equal processing times branch in job id order (pinned below);
* a state's remaining load is summed in job id order.  The sum can then
  differ in its last bit, and with processing times of a few
  ``TIME_EPS`` that can flip the early exit (``best >= total -
  TIME_EPS``): ``explored_states`` and the value can change at the
  ``TIME_EPS`` scale (pinned below).

From 9 jobs on, the bitmask solver is therefore compared with the
frozenset solver run with every ``frozenset`` iterated in job id order,
which is exactly the two rules above; that comparison is bit for bit
again.  The live solver still follows both rules, so
:func:`test_ties_branch_in_job_id_order` (one machine, where it searches
as the bitmask solver did) runs on it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.exact import ExactSolverBudgetExceeded, exact_optimum
from repro.workloads import random_instance
from tests.offline import bitmask_reference, exact_reference


def _outcome(solve, instance):
    """Everything the two solvers must agree on, floats as exact hex."""
    try:
        result = solve(instance)
    except Exception as exc:  # noqa: BLE001 - errors must match too
        return ("raised", type(exc), str(exc))
    schedule = result.schedule
    return (
        result.value.hex(),
        {jid: (a.machine, a.start.hex()) for jid, a in schedule.assignments.items()},
        schedule.rejected,
        result.explored_states,
    )


def _assert_matches_reference(instance):
    assert _outcome(bitmask_reference.exact_optimum, instance) == _outcome(
        exact_reference.exact_optimum, instance
    )


class _IdOrdered(frozenset):
    """A frozenset that iterates in ascending job id."""

    def __iter__(self):
        return iter(sorted(frozenset.__iter__(self)))

    def __sub__(self, other):
        return _IdOrdered(frozenset.__sub__(self, other))


def _assert_matches_reference_in_job_id_order(instance):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_reference, "frozenset", _IdOrdered, raising=False)
        reference = _outcome(exact_reference.exact_optimum, instance)
    assert _outcome(bitmask_reference.exact_optimum, instance) == reference


def _distinct_instances(n, scale):
    """Unsorted releases, exactly tight windows, nano-scale or far-off times.

    Processing times are pairwise distinct, so the tie rule never decides
    a branch order.
    """

    @st.composite
    def build(draw):
        size = draw(n)
        machines = draw(st.integers(1, 4))
        kind = draw(scale)
        if kind == "nano":
            sizes, spread, base = st.floats(1e-9, 3e-9), 1e-8, 0.0
        else:
            sizes, spread = st.floats(0.05, 4.0), 6.0
            base = 1e6 if kind == "far" else 0.0
        processing = draw(st.lists(sizes, min_size=size, max_size=size, unique=True))
        jobs = []
        for p in processing:
            release = base + draw(st.floats(0.0, spread))
            slack = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
            jobs.append(Job(release, p, release + p * (1.0 + slack)))
        return Instance(jobs, machines=machines, epsilon=1.0, validate=False)

    return build()


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=150, **_SETTINGS)
@given(
    st.one_of(
        _distinct_instances(st.integers(0, 8), st.sampled_from(["unit", "nano", "far"])),
        _distinct_instances(st.integers(9, 10), st.sampled_from(["unit", "far"])),
    )
)
def test_matches_reference_on_distinct_processing_times(instance):
    _assert_matches_reference(instance)


@st.composite
def _tied_instances(draw, n):
    n = draw(n)
    machines = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
    jobs = []
    for p in sizes:
        release = float(draw(st.integers(0, 6)))
        jobs.append(Job(release, p, release + p * draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))))
    return Instance(jobs, machines=machines, epsilon=1.0, validate=False)


@settings(max_examples=150, **_SETTINGS)
@given(_tied_instances(st.integers(2, 8)))
def test_matches_reference_on_tied_processing_times(instance):
    _assert_matches_reference(instance)


@settings(max_examples=60, **_SETTINGS)
@given(
    st.one_of(
        _distinct_instances(st.integers(9, 10), st.just("nano")),
        _tied_instances(st.integers(9, 12)),
    )
)
def test_matches_reference_in_job_id_order_from_nine_jobs(instance):
    _assert_matches_reference_in_job_id_order(instance)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
def test_matches_reference_on_benchmark_cells(n, eps):
    for seed in range(4):
        _assert_matches_reference(random_instance(n, 2, eps, seed=seed))


def test_budget_error_matches_reference(monkeypatch):
    instance = random_instance(12, 2, 0.1, seed=3)
    monkeypatch.setattr(bitmask_reference, "MAX_EXPLORED_STATES", 50)
    monkeypatch.setattr(exact_reference, "MAX_EXPLORED_STATES", 50)
    outcome = _outcome(bitmask_reference.exact_optimum, instance)
    assert outcome[:2] == ("raised", ExactSolverBudgetExceeded)
    assert "exceeded 50 memoised states" in outcome[2]
    assert outcome == _outcome(exact_reference.exact_optimum, instance)


def test_ties_branch_in_job_id_order():
    # Every processing time is 1 or 2, so ties decide the branch order.
    # The earlier solver met {7, 8} in frozenset order (8 first) and
    # started job 8 at 6.0 and job 7 at 8.0 after 13 states; job id order
    # starts job 7 first.  The optimum is the same.
    jobs = [
        Job(0, 1, 2), Job(0, 1, 3), Job(2, 2, 6), Job(2, 1, 4), Job(2, 2, 6),
        Job(3, 1, 6), Job(4, 2, 6), Job(5, 2, 11), Job(6, 2, 12),
    ]
    instance = Instance(jobs, machines=1, epsilon=1.0, validate=False)
    result = exact_optimum(instance)
    starts = {jid: a.start for jid, a in result.schedule.assignments.items()}
    assert result.value == 10.0
    assert (starts[7], starts[8], result.explored_states) == (6.0, 8.0, 14)
    reference = exact_reference.exact_optimum(instance)
    old_starts = {jid: a.start for jid, a in reference.schedule.assignments.items()}
    assert reference.value == 10.0
    assert (old_starts[7], old_starts[8], reference.explored_states) == (8.0, 6.0, 13)


def test_nano_load_sum_order_can_move_the_value():
    # Processing times of one to three TIME_EPS, one machine.  The
    # earlier solver summed some remaining set in frozenset order (job 8
    # before the lower ids); the last bit of that sum flipped an early
    # exit, so it returned a value TIME_EPS lower after one state fewer.
    # The schedule is the same, and the reference in job id order agrees
    # with the bitmask solver.
    jobs = [
        Job(0.0, 2.594625806958867e-09, 2.594625806958867e-09),
        Job(3.1083534524842254e-09, 1.0000000000000003e-09, 4.108353452484226e-09),
        Job(0.0, 2.9517750802225417e-09, 2.9517750802225417e-09),
        Job(0.0, 2.1865254431118636e-09, 2.1865254431118636e-09),
        Job(0.0, 2.227283373092987e-09, 2.227283373092987e-09),
        Job(0.0, 1.3868647458372514e-09, 1.3868647458372514e-09),
        Job(0.0, 1e-09, 1e-09),
        Job(7.810356125028981e-09, 1.3539997564102496e-09, 9.164355881439231e-09),
        Job(8.185186334531067e-09, 1.798325268114944e-09, 9.98351160264601e-09),
    ]
    instance = Instance(jobs, machines=1, epsilon=1.0, validate=False)
    new = _outcome(bitmask_reference.exact_optimum, instance)
    old = _outcome(exact_reference.exact_optimum, instance)
    assert (new[0], new[3]) == ((8.490964850584988e-09).hex(), 9)
    assert (old[0], old[3]) == ((7.490964850584987e-09).hex(), 8)
    assert new[1:3] == old[1:3]
    _assert_matches_reference_in_job_id_order(instance)
