"""Conformance suite: every registered algorithm on every workload family.

A policy implementation is *conformant* when, on any valid instance, it
(1) terminates, (2) decides every job exactly once, (3) never misses a
deadline or overlaps executions, and (4) never revises a decision — all
checked by the engine audits.  This suite sweeps the full algorithm
registry across the workload families and a (machines, slack) grid; it is
the regression net that lets new policies or engine changes land safely.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import ALGORITHMS, run_algorithm
from repro.engine.audit import audit_run
from repro.model.schedule import Schedule
from repro.workloads import (
    adversarial_like_instance,
    alternating_instance,
    burst_instance,
    cloud_instance,
    overload_instance,
    random_instance,
    staircase_instance,
    tight_slack_instance,
)

GRID = [(1, 0.1), (2, 0.25), (3, 0.6)]


def _families(m: int, eps: float):
    from repro.workloads.arrivals import batch_arrival_instance, mmpp_instance

    yield mmpp_instance(25, m, eps, seed=6)
    yield batch_arrival_instance(4, m, eps, seed=7)
    yield random_instance(25, m, eps, seed=1)
    yield tight_slack_instance(20, m, eps, seed=2, distribution="lognormal")
    yield burst_instance(2, 2 * m, machines=m, epsilon=eps, seed=3)
    yield cloud_instance(25, m, eps, seed=4)
    yield overload_instance(20, m, eps, seed=5)
    yield staircase_instance(machines=m, epsilon=eps)
    yield alternating_instance(2, machines=m, epsilon=eps)
    yield adversarial_like_instance(machines=m, epsilon=eps)


def _algorithms_for(m: int):
    for name, spec in ALGORITHMS.items():
        if spec.single_machine_only and m != 1:
            continue
        yield name


@pytest.mark.parametrize("m,eps", GRID)
def test_all_algorithms_conformant_on_all_families(m, eps):
    for inst in _families(m, eps):
        for name in _algorithms_for(m):
            result = run_algorithm(name, inst)
            detail = result.detail
            if isinstance(detail, Schedule):
                if "trace" in detail.meta:
                    audit_run(detail)  # immediate commitment: full audit
                else:
                    detail.audit()  # admission model: no decision trace
            else:
                detail.audit()
            assert 0.0 <= result.accepted_load <= inst.total_load + 1e-9, (
                name,
                inst.name,
            )


@pytest.mark.parametrize("m,eps", GRID)
def test_empty_instance_conformance(m, eps):
    from repro.model.instance import Instance

    empty = Instance([], machines=m, epsilon=eps)
    for name in _algorithms_for(m):
        result = run_algorithm(name, empty)
        assert result.accepted_load == 0.0


def test_single_job_instance_all_algorithms():
    from repro.model.instance import Instance
    from repro.model.job import Job

    inst = Instance([Job(0.0, 1.0, 5.0)], machines=1, epsilon=0.5)
    for name in _algorithms_for(1):
        result = run_algorithm(name, inst)
        # Everything except coin-flip policies must take the free job.
        if name not in ("random-admission", "classify-select"):
            assert result.accepted_count == 1, name


def test_extreme_slack_values_stable():
    """Tiny and huge slack must not break the parameter pipeline."""
    from repro.core.params import threshold_parameters

    for eps in (1e-10, 1e-6, 0.999999, 1.0):
        for m in (1, 2, 8, 64):
            params = threshold_parameters(min(eps, 1.0), m)
            params.verify()


def test_large_machine_count_simulation():
    inst = random_instance(120, 32, 0.2, seed=9)
    result = run_algorithm("threshold", inst)
    audit_run(result.detail)
    assert result.accepted_load > 0


@pytest.mark.parametrize("m,eps", GRID)
def test_delayed_engine_conformant_on_all_families(m, eps):
    from repro.engine.delayed import DelayedGreedyPolicy, simulate_delayed

    for inst in _families(m, eps):
        for delta in (0.0, eps / 2, eps):
            schedule = simulate_delayed(DelayedGreedyPolicy(), inst, delta)
            schedule.audit()
            assert len(schedule.assignments) + len(schedule.rejected) == len(inst)


@pytest.mark.parametrize("m,eps", GRID)
def test_admission_engine_conformant_on_all_families(m, eps):
    from repro.engine.admission import (
        AdmissionGreedyPolicy,
        AdmissionLazyPolicy,
        simulate_admission,
    )

    for inst in _families(m, eps):
        for policy in (AdmissionGreedyPolicy(), AdmissionLazyPolicy()):
            schedule = simulate_admission(policy, inst)
            schedule.audit()
            assert len(schedule.assignments) + len(schedule.rejected) == len(inst)


@pytest.mark.parametrize("m,eps", GRID)
def test_penalty_engine_conformant_on_all_families(m, eps):
    from repro.engine.penalties import RevocableGreedyPolicy, simulate_with_penalties

    for inst in _families(m, eps):
        for phi in (0.0, 1.0):
            out = simulate_with_penalties(RevocableGreedyPolicy(), inst, phi)
            out.audit()
            assert out.net_value <= inst.total_load + 1e-9
