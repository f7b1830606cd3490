"""Cross-backend equivalence suite for the kernel-backend seam.

The batch backend's contract (:mod:`repro.engine.backend`) is
**bit-identity** with the scalar golden path — not approximate agreement.
These tests assert it three ways:

* exhaustive scalar-vs-batch comparison of schedules, rejected sets and
  ``RunStats`` counters over a grid of workload families, shapes and
  algorithms;
* hypothesis property tests over adversarially generated instances;
* golden-trace replay: the batch kernels must reproduce the same
  pre-kernel snapshots in ``tests/golden/golden_traces.json`` that pin
  the scalar engines.

The delayed, commitment-on-admission and penalties models have no batch
kernel; their scalar engines are held to the same standard against
reference oracles on the same grid, properties and edge cases.  The
delayed and admission loops are checked against
:mod:`tests.engine.commitment_reference`, the earlier policy-protocol
engines, on schedules, ``RunStats`` counters and event streams, and
replay the golden traces through the batch backend's scalar fallback.
Penalties is checked against :mod:`tests.engine.penalties_reference`,
the earlier full-scan policy and overlap check, on schedules, counters and
event streams, plus a corpus of jobs near and below ``TIME_EPS`` that the
loop completes wherever the reference refuses a plan.

Plus the seam's dispatch semantics: the quiet scalar path for requests
the batch kernels do not serve, the ``auto`` grouping heuristic, near-tie threshold
decisions pinned identical across backends, ``MAX_KERNEL_STEPS``
enforcement with the same :class:`~repro.engine.kernel.SimulationError`
shape as ``run_model``, and RNG seeds inside randomized grouping keys (so
mixed-seed requests can never share a lane row).
"""

import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.registry import run_algorithm
from repro.core.params import clamp_epsilon, threshold_parameters
from repro.engine.backend import (
    _AUTO_MIN_GROUP,
    BACKEND_CHOICES,
    BatchBackend,
    SimulationRequest,
    run_simulation,
    run_simulations,
)
from repro.engine.batch import (
    IMMEDIATE_RULES,
    run_classify_select_batch,
    run_immediate_batch,
    run_random_admission_batch,
)
from repro.engine.admission import AdmissionCommitmentModel, AdmissionGreedyPolicy
from repro.engine.delayed import DelayedCommitmentModel, DelayedGreedyPolicy
from repro.engine.kernel import SimulationError, run_model
from repro.engine.policy import SequenceSource
from repro.engine.simulator import ImmediateCommitmentModel
from repro.core.threshold import ThresholdPolicy
from repro.model.instance import Instance
from repro.model.job import Job
from repro.workloads import cloud_instance, random_instance
from tests.engine.commitment_reference import reference_run as commitment_reference_run
from tests.engine.penalties_reference import first_refusal, reference_run

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / "golden_traces.json"

IMMEDIATE_ALGORITHMS = sorted(IMMEDIATE_RULES)


def _tied_instance(n, m, eps, seed):
    """Integer sizes and few distinct release gaps, so sizes and releases
    tie, and equal-size jobs compete for one slot."""
    rng = random.Random(seed)
    jobs = []
    release = 0.0
    for _ in range(n):
        release += rng.choice((0.0, 0.05, 1.0))
        p = float(rng.choice((1, 2, 3)))
        extra = rng.choice((0.0, 0.5, 1.0))
        jobs.append(Job(release, p, release + (1.0 + eps + extra) * p))
    return Instance(jobs, machines=m, epsilon=eps)


#: Workload families of the delayed and admission grids.
COMMITMENT_FAMILIES = {
    "random": random_instance,
    "cloud": cloud_instance,
    "ties": _tied_instance,
}


def _machine_grid(algorithm):
    """m values a rule can legally run on (single-machine rules: just 1)."""
    return (1,) if IMMEDIATE_RULES[algorithm].single_machine else (1, 2, 4)


def _stats_key(stats):
    """Deterministic RunStats counters (timings excluded)."""
    return (
        stats.model,
        stats.algorithm,
        stats.jobs,
        stats.decisions,
        stats.accepted,
        stats.rejected,
        stats.revoked,
        stats.steps,
        stats.events,
        stats.accepted_load,
    )


def _schedule_key(schedule):
    return (
        {j: (a.machine, a.start) for j, a in schedule.assignments.items()},
        schedule.rejected,
        schedule.accepted_load,
    )


def _assert_immediate_equal(scalar, batch):
    assert _schedule_key(scalar.detail) == _schedule_key(batch.detail)
    assert scalar.accepted_load == batch.accepted_load
    assert scalar.accepted_count == batch.accepted_count
    assert _stats_key(scalar.stats) == _stats_key(batch.stats)


def _event_key(events):
    return [(e.seq, e.time, e.kind, e.job_id, e.data) for e in events]


def _assert_commitment_equal(algorithm, inst, **kwargs):
    """The one delayed/admission loop matches the reference engine, with
    and without event recording."""
    for record_events in (False, True):
        result = run_algorithm(algorithm, inst, record_events=record_events, **kwargs)
        reference = commitment_reference_run(
            algorithm, inst, record_events=record_events, **kwargs
        )
        s, r = result.detail, reference.detail
        assert _schedule_key(s) == _schedule_key(r)
        assert list(s.assignments) == list(r.assignments)  # same insertion order
        assert s.algorithm == r.algorithm
        assert {k: v for k, v in s.meta.items() if k not in ("stats", "events")} == {
            k: v for k, v in r.meta.items() if k not in ("stats", "events")
        }
        assert result.accepted_load == reference.accepted_load
        assert result.accepted_count == reference.accepted_count
        assert _stats_key(result.stats) == _stats_key(reference.stats)
        if record_events:
            assert _event_key(result.events) == _event_key(reference.events)


def _assert_penalties_equal(result, reference):
    s, b = result.detail, reference.detail
    assert list(s.completed) == list(b.completed)  # same insertion order
    assert {j: (p.machine, p.start) for j, p in s.completed.items()} == {
        j: (p.machine, p.start) for j, p in b.completed.items()
    }
    assert s.revoked == b.revoked
    assert s.rejected == b.rejected
    assert s.completed_load == b.completed_load
    assert s.penalty_paid == b.penalty_paid
    assert _stats_key(result.stats) == _stats_key(reference.stats)
    if "events" in b.meta:
        assert _event_key(result.events) == _event_key(reference.events)


def _assert_penalties_match(inst, phi):
    """The loop matches the reference, with and without event recording."""
    for record_events in (False, True):
        _assert_penalties_equal(
            run_algorithm("revocable-greedy", inst, phi=phi, record_events=record_events),
            reference_run(inst, phi, record_events=record_events),
        )


# ---------------------------------------------------------------------------
# exhaustive grid equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("algorithm", IMMEDIATE_ALGORITHMS)
@pytest.mark.parametrize("family", ["random", "cloud"])
def test_immediate_grid_bit_identical(algorithm, family):
    factory = random_instance if family == "random" else cloud_instance
    for m in _machine_grid(algorithm):
        for seed in (0, 1, 2):
            inst = factory(40, m, 0.25, seed=seed)
            scalar = run_algorithm(algorithm, inst)
            (batch,) = BatchBackend().run_many(
                [SimulationRequest(algorithm, inst)]
            )
            assert batch.detail.meta["backend"] == "batch"
            _assert_immediate_equal(scalar, batch)


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("family", ["random", "cloud"])
def test_random_admission_grid_bit_identical(q, family):
    factory = random_instance if family == "random" else cloud_instance
    for m in (1, 2, 4):
        for seed in (0, 7):
            inst = factory(40, m, 0.25, seed=seed)
            kwargs = {"q": q, "rng": seed}
            scalar = run_algorithm("random-admission", inst, **kwargs)
            (batch,) = BatchBackend().run_many(
                [SimulationRequest("random-admission", inst, kwargs=kwargs)]
            )
            assert batch.detail.meta["backend"] == "batch"
            _assert_immediate_equal(scalar, batch)


@pytest.mark.parametrize(
    "kwargs",
    [
        {},
        {"rng": 5},
        {"virtual_machines": 4, "rng": 11},
        {"virtual_machines": 3, "selected": 1},
        {"virtual_machines": 1},
    ],
)
def test_classify_select_grid_bit_identical(kwargs):
    for family in (random_instance, cloud_instance):
        for seed in (0, 1, 2):
            inst = family(40, 1, 0.25, seed=seed)
            scalar = run_algorithm("classify-select", inst, **kwargs)
            (batch,) = BatchBackend().run_many(
                [SimulationRequest("classify-select", inst, kwargs=kwargs)]
            )
            assert batch.detail.meta["backend"] == "batch"
            _assert_immediate_equal(scalar, batch)
            # The virtual-selection provenance must replay too.
            assert scalar.detail.meta["stats"].algorithm == "classify-select"


@pytest.mark.parametrize("delta", [None, 0.0, 0.1, 10.0])
@pytest.mark.parametrize("family", sorted(COMMITMENT_FAMILIES))
def test_delayed_grid_bit_identical(delta, family):
    factory = COMMITMENT_FAMILIES[family]
    kwargs = {} if delta is None else {"delta": delta}
    for m in (1, 2, 4):
        for seed in (0, 1):
            inst = factory(40, m, 0.25, seed=seed)
            _assert_commitment_equal("delayed-greedy", inst, **kwargs)


@pytest.mark.parametrize("algorithm", ["admission-greedy", "admission-lazy"])
@pytest.mark.parametrize("family", sorted(COMMITMENT_FAMILIES))
def test_admission_grid_bit_identical(algorithm, family):
    factory = COMMITMENT_FAMILIES[family]
    for m in (1, 2, 4):
        for seed in (0, 1):
            inst = factory(40, m, 0.25, seed=seed)
            _assert_commitment_equal(algorithm, inst)


@pytest.mark.parametrize("phi", [0.0, 0.5, 1.0, 3.0])
def test_penalties_grid_bit_identical(phi):
    for m in (1, 2, 4):
        for seed in (0, 1):
            _assert_penalties_match(random_instance(50, m, 0.2, seed=seed), phi)


def _tiny_job_instance(seed):
    """Jobs of 1-3 ``TIME_EPS`` at clock offsets 0, 1e6 and 1e8."""
    rng = random.Random(seed)
    release = (0.0, 1e6, 1e8)[seed % 3]
    jobs = []
    for _ in range(rng.randint(30, 60)):
        release += rng.uniform(0.0, 1e-9)
        p = rng.uniform(1e-9, 3e-9)
        jobs.append(Job(release, p, release + (2.0 + rng.uniform(0.0, 0.5)) * p))
    return Instance(jobs, machines=rng.choice((1, 2)), epsilon=1.0)


def _sub_eps_job_instance(seed):
    """Jobs of 0.1-4 ``TIME_EPS``, released 0-2 ``TIME_EPS`` apart, with
    deadlines 0-2 ``TIME_EPS`` past ``r + 2p``, at offsets 0, 1e3, 1e6."""
    rng = random.Random(seed)
    release = (0.0, 1e3, 1e6)[seed % 3]
    jobs = []
    for _ in range(rng.randint(6, 14)):
        release += rng.choice((0.0, rng.uniform(0.0, 2e-9)))
        p = rng.choice((rng.uniform(1e-10, 1e-9), rng.uniform(1e-9, 4e-9)))
        jobs.append(Job(release, p, release + 2.0 * p + rng.choice((0.0, 1e-9, 2e-9))))
    return Instance(jobs, machines=rng.choice((1, 2)), epsilon=1.0)


#: (instance family, seeds, penalty factors) of the tiny-job corpus.
TINY_JOB_CORPUS = [
    (_tiny_job_instance, range(200), (0.0, 0.5, 3.0)),
    (_sub_eps_job_instance, range(200), (0.0, 0.5)),
]


def test_penalties_tiny_jobs_complete_and_match_reference():
    """Every tiny-job run completes and passes the audit; each run the
    reference completes too is bit-identical to it.

    At processing times near ``TIME_EPS`` the reference's policy proposes
    plans its own engine refuses (``SimulationError``), or, below
    ``TIME_EPS``, plans that only the audit refuses (``AssertionError``).
    Where the reference first refuses job ``k``, the loop's event stream
    up to job ``k``'s submission equals the reference's.
    """
    refused = audit_refused = 0
    for family, seeds, phis in TINY_JOB_CORPUS:
        for seed in seeds:
            inst = family(seed)
            for phi in phis:
                result = run_algorithm(
                    "revocable-greedy", inst, phi=phi, record_events=True
                )
                result.detail.audit()
                try:
                    expected = reference_run(inst, phi, record_events=True)
                except (SimulationError, AssertionError) as err:
                    refused += 1
                    audit_refused += isinstance(err, AssertionError)
                    k, before = first_refusal(inst, phi)
                    events = _event_key(result.events)
                    cut = next(
                        i for i, e in enumerate(events) if e[2:4] == ("submission", k)
                    )
                    assert events[:cut] == _event_key(before)
                    continue
                _assert_penalties_equal(result, expected)
    # The corpus must exercise both kinds of refusal.
    assert refused >= 100
    assert audit_refused >= 1


def test_batched_group_equals_independent_runs():
    """One batched call over many instances == per-instance scalar runs."""
    instances = [random_instance(30, 3, 0.2, seed=s) for s in range(8)]
    requests = [SimulationRequest("threshold", inst) for inst in instances]
    batch = BatchBackend().run_many(requests)
    for inst, result in zip(instances, batch):
        _assert_immediate_equal(run_algorithm("threshold", inst), result)


def test_empty_and_single_job_instances():
    for algorithm in IMMEDIATE_ALGORITHMS:
        m = 1 if IMMEDIATE_RULES[algorithm].single_machine else 2
        empty = Instance([], machines=m, epsilon=0.3)
        one = Instance([Job(0.0, 1.0, 10.0)], machines=m, epsilon=0.3)
        for inst in (empty, one):
            scalar = run_algorithm(algorithm, inst)
            (batch,) = BatchBackend().run_many([SimulationRequest(algorithm, inst)])
            _assert_immediate_equal(scalar, batch)
    for inst in (
        Instance([], machines=2, epsilon=0.3),
        Instance([Job(0.0, 1.0, 10.0)], machines=2, epsilon=0.3),
    ):
        scalar = run_algorithm("revocable-greedy", inst)
        _assert_penalties_equal(scalar, reference_run(inst, 0.5))
        scalar = run_algorithm("random-admission", inst)
        (batch,) = BatchBackend().run_many([SimulationRequest("random-admission", inst)])
        _assert_immediate_equal(scalar, batch)
        for algorithm in ("delayed-greedy", "admission-greedy", "admission-lazy"):
            _assert_commitment_equal(algorithm, inst)


# ---------------------------------------------------------------------------
# hypothesis property: equivalence over generated instances
# ---------------------------------------------------------------------------


@st.composite
def instances(draw):
    eps = draw(st.floats(min_value=0.05, max_value=1.0))
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=25))
    jobs = []
    t = 0.0
    for _ in range(n):
        t += draw(st.floats(min_value=0.0, max_value=2.0))
        p = draw(st.floats(min_value=0.05, max_value=4.0))
        extra = draw(st.floats(min_value=0.0, max_value=3.0))
        jobs.append(Job(t, p, t + (1.0 + eps + extra) * p))
    return Instance(jobs, machines=m, epsilon=eps)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=instances(), algorithm=st.sampled_from(IMMEDIATE_ALGORITHMS))
def test_property_immediate_equivalence(inst, algorithm):
    if IMMEDIATE_RULES[algorithm].single_machine and inst.machines != 1:
        inst = Instance(list(inst), machines=1, epsilon=inst.epsilon)
    scalar = run_algorithm(algorithm, inst)
    (batch,) = BatchBackend().run_many([SimulationRequest(algorithm, inst)])
    _assert_immediate_equal(scalar, batch)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    inst=instances(),
    q=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_random_admission_equivalence(inst, q, seed):
    scalar = run_algorithm("random-admission", inst, q=q, rng=seed)
    (batch,) = BatchBackend().run_many(
        [SimulationRequest("random-admission", inst, kwargs={"q": q, "rng": seed})]
    )
    _assert_immediate_equal(scalar, batch)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    inst=instances(),
    virtual_m=st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_classify_select_equivalence(inst, virtual_m, seed):
    if inst.machines != 1:
        inst = Instance(list(inst), machines=1, epsilon=inst.epsilon)
    kwargs = {"virtual_machines": virtual_m, "rng": seed}
    scalar = run_algorithm("classify-select", inst, **kwargs)
    (batch,) = BatchBackend().run_many(
        [SimulationRequest("classify-select", inst, kwargs=kwargs)]
    )
    _assert_immediate_equal(scalar, batch)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=instances(), delta_frac=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_property_delayed_equivalence(inst, delta_frac):
    kwargs = {} if delta_frac is None else {"delta": delta_frac * inst.epsilon}
    _assert_commitment_equal("delayed-greedy", inst, **kwargs)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    inst=instances(),
    algorithm=st.sampled_from(["admission-greedy", "admission-lazy"]),
)
def test_property_admission_equivalence(inst, algorithm):
    _assert_commitment_equal(algorithm, inst)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(inst=instances(), phi=st.floats(min_value=0.0, max_value=4.0))
def test_property_penalties_equivalence(inst, phi):
    _assert_penalties_match(inst, phi)


# ---------------------------------------------------------------------------
# golden-trace replay through the batch kernels
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden_instance(golden):
    spec = golden["instance"]
    return random_instance(spec["n"], spec["m"], spec["eps"], seed=spec["seed"])


@pytest.mark.parametrize(
    "case, algorithm",
    [("immediate[threshold]", "threshold"), ("immediate[greedy]", "greedy")],
)
def test_batch_replays_golden_schedules(case, algorithm, golden, golden_instance):
    (schedule,) = run_immediate_batch(IMMEDIATE_RULES[algorithm], [golden_instance])
    snapshot = {
        "assignments": [
            {"job": a.job_id, "machine": a.machine, "start": a.start}
            for a in sorted(schedule.assignments.values(), key=lambda a: a.job_id)
        ],
        "rejected": sorted(schedule.rejected),
        "accepted_load": schedule.accepted_load,
    }
    assert snapshot == golden["models"][case]


def _golden_schedule_snapshot(schedule):
    return {
        "assignments": [
            {"job": a.job_id, "machine": a.machine, "start": a.start}
            for a in sorted(schedule.assignments.values(), key=lambda a: a.job_id)
        ],
        "rejected": sorted(schedule.rejected),
        "accepted_load": schedule.accepted_load,
    }


def _fallback_schedule(algorithm, inst, **kwargs):
    """Run a group through ``run_simulations``, which serves the model by
    its scalar loop, quietly."""
    request = SimulationRequest(algorithm, inst, kwargs=kwargs)
    assert not BatchBackend().supports(request)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, _ = run_simulations([request] * 2)
    assert "backend" not in result.detail.meta
    return result.detail


def test_batch_replays_golden_delayed(golden, golden_instance):
    eps = golden_instance.epsilon
    schedule = _fallback_schedule("delayed-greedy", golden_instance, delta=eps / 2)
    assert (
        _golden_schedule_snapshot(schedule)
        == golden["models"]["delayed[delayed-greedy,delta=0.125]"]
    )
    _assert_commitment_equal("delayed-greedy", golden_instance, delta=eps / 2)


@pytest.mark.parametrize("algorithm", ["admission-greedy", "admission-lazy"])
def test_batch_replays_golden_admission(algorithm, golden, golden_instance):
    schedule = _fallback_schedule(algorithm, golden_instance)
    assert (
        _golden_schedule_snapshot(schedule)
        == golden["models"][f"admission[{algorithm}]"]
    )
    _assert_commitment_equal(algorithm, golden_instance)


# ---------------------------------------------------------------------------
# near-tie threshold decisions (satellite: tolerance discipline)
# ---------------------------------------------------------------------------


def test_near_tie_threshold_decisions_pinned_across_backends():
    """Deadlines within one TIME_EPS of d_lim decide identically.

    The admission test is ``fge(d, d_lim)`` in both backends; probing
    deadlines straddling the tolerance boundary pins that neither backend
    drifts to a raw ``>=`` (or a different epsilon) without the suite
    noticing.
    """
    m, eps = 2, 0.1
    policy = ThresholdPolicy()
    policy.params = threshold_parameters(clamp_epsilon(eps), m)
    # The base job occupies machine 0 on [0, 4); the probe arrives at t=1
    # seeing loads [3.0, 0.0], so its admission threshold is exactly
    # threshold_at(1.0, [3.0, 0.0]) — well above the feasibility floor.
    base = Job(0.0, 4.0, 40.0)
    d_lim = policy.threshold_at(1.0, [3.0, 0.0])
    assert d_lim > 1.0 + 1.0 + 1e-6  # probe stays a valid job at d_lim - 2e-9
    decisions = {}
    for delta in (-2e-9, -5e-10, 0.0, 5e-10, 2e-9):
        probe = Job(1.0, 1.0, d_lim + delta)
        inst = Instance([base, probe], machines=m, epsilon=eps)
        scalar = run_algorithm("threshold", inst)
        (batch,) = BatchBackend().run_many([SimulationRequest("threshold", inst)])
        _assert_immediate_equal(scalar, batch)
        decisions[delta] = 1 in scalar.detail.assignments
    # The tolerance must actually bite: accepts at and just below d_lim
    # (within TIME_EPS), rejects beyond the tolerance.
    assert decisions[0.0] and decisions[5e-10] and decisions[-5e-10]
    assert not decisions[-2e-9]


# ---------------------------------------------------------------------------
# MAX_KERNEL_STEPS enforcement (satellite: kernel guard parity)
# ---------------------------------------------------------------------------


def _tiny_instance(n):
    jobs = [Job(float(i), 1.0, float(i) + 10.0) for i in range(n)]
    return Instance(jobs, machines=2, epsilon=0.5)


def test_batch_max_steps_matches_scalar_error_shape():
    inst = _tiny_instance(6)
    with pytest.raises(SimulationError) as scalar_err:
        run_model(
            ImmediateCommitmentModel(ThresholdPolicy(), SequenceSource(inst)),
            max_steps=5,
        )
    with pytest.raises(SimulationError) as batch_err:
        run_immediate_batch(IMMEDIATE_RULES["threshold"], [inst], max_steps=5)
    assert batch_err.value.model == "immediate"
    assert str(batch_err.value).startswith(str(scalar_err.value).split(" [")[0])
    assert "max_steps=5" in str(batch_err.value)
    assert isinstance(batch_err.value, ValueError)  # same dual inheritance


def test_batch_within_max_steps_is_fine():
    inst = _tiny_instance(6)
    (schedule,) = run_immediate_batch(
        IMMEDIATE_RULES["threshold"], [inst], max_steps=7
    )
    assert schedule.accepted_count == 6


@pytest.mark.parametrize(
    "runner, model",
    [
        (
            lambda inst: run_model(
                DelayedCommitmentModel(DelayedGreedyPolicy(), inst, 0.5), max_steps=3
            ),
            "delayed",
        ),
        (
            lambda inst: run_model(
                AdmissionCommitmentModel(AdmissionGreedyPolicy(), inst), max_steps=3
            ),
            "commitment-on-admission",
        ),
        (
            lambda inst: run_random_admission_batch([inst], max_steps=3),
            "immediate",
        ),
        (
            lambda inst: run_classify_select_batch(
                [Instance(list(inst), machines=1, epsilon=inst.epsilon)],
                max_steps=3,
            ),
            "immediate",
        ),
    ],
)
def test_new_kernels_enforce_max_steps(runner, model):
    inst = _tiny_instance(8)
    with pytest.raises(SimulationError) as err:
        runner(inst)
    assert err.value.model == model
    assert "max_steps=3" in str(err.value)
    assert isinstance(err.value, ValueError)  # same dual inheritance


# ---------------------------------------------------------------------------
# dispatch semantics: fallback, auto heuristic, validation
# ---------------------------------------------------------------------------


def test_unsupported_requests_run_scalar_inside_a_batched_call():
    inst = random_instance(10, 2, 0.3, seed=0)
    requests = [
        SimulationRequest("threshold", inst),
        SimulationRequest("dasgupta-palis", inst),  # preemptive: unsupported
        SimulationRequest("revocable-greedy", inst),  # penalties: scalar-only
    ] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = run_simulations(requests)
    assert results[0].detail.meta["backend"] == "batch"
    assert results[1].accepted_load == run_algorithm("dasgupta-palis", inst).accepted_load
    _assert_penalties_equal(results[2], run_algorithm("revocable-greedy", inst))


def test_record_events_falls_back_to_scalar():
    inst = random_instance(10, 2, 0.3, seed=0)
    request = SimulationRequest("threshold", inst, record_events=True)
    assert not BatchBackend().supports(request)
    results = run_simulations([request] * _AUTO_MIN_GROUP)
    assert all(r.events is not None for r in results)
    assert all(r.detail.meta.get("backend") != "batch" for r in results)


def test_auto_batches_groups_and_not_singletons():
    inst = random_instance(12, 2, 0.3, seed=1)
    single = run_simulations([SimulationRequest("threshold", inst)], backend="auto")
    assert single[0].detail.meta.get("backend") != "batch"
    group = run_simulations(
        [SimulationRequest("threshold", inst)] * _AUTO_MIN_GROUP, backend="auto"
    )
    assert all(r.detail.meta["backend"] == "batch" for r in group)
    # Penalties has no batch kernel: it runs on the scalar path.
    pen = run_simulations(
        [SimulationRequest("revocable-greedy", inst)], backend="auto"
    )
    assert pen[0].detail.meta.get("backend") != "batch"


def test_unknown_backend_rejected():
    assert BACKEND_CHOICES == ("auto", "scalar")
    inst = random_instance(4, 1, 0.3, seed=0)
    for backend in ("vector", "batch"):
        with pytest.raises(ValueError, match="unknown backend"):
            run_simulations([SimulationRequest("threshold", inst)], backend=backend)
        with pytest.raises(ValueError, match="unknown backend"):
            run_simulation(SimulationRequest("threshold", inst), backend=backend)


def test_batch_backend_run_many_rejects_unsupported_directly():
    inst = random_instance(4, 2, 0.3, seed=0)
    with pytest.raises(ValueError, match="not supported by the batch backend"):
        BatchBackend().run_many([SimulationRequest("migration-greedy", inst)])


def test_batch_requires_uniform_shape():
    a = random_instance(10, 2, 0.3, seed=0)
    b = random_instance(12, 2, 0.3, seed=0)
    with pytest.raises(ValueError, match="uniform shape"):
        run_immediate_batch(IMMEDIATE_RULES["greedy"], [a, b])


def test_registry_revocable_greedy_entry():
    inst = random_instance(20, 2, 0.3, seed=3)
    default = run_algorithm("revocable-greedy", inst)
    explicit = run_algorithm("revocable-greedy", inst, phi=0.5)
    assert default.accepted_load == explicit.accepted_load
    assert default.detail.phi == 0.5
    other = run_algorithm("revocable-greedy", inst, phi=2.0)
    assert other.detail.phi == 2.0
    assert default.stats is not None


# ---------------------------------------------------------------------------
# grouping keys: RNG seeds, single-machine guards, scalar-only Generators
# ---------------------------------------------------------------------------


def test_mixed_seed_requests_never_share_a_group():
    """Regression: the grouping key must carry the RNG seed stream.

    Two random-admission requests with different seeds sharing a lane row
    would silently replay the wrong stream — their keys must differ, and
    a mixed-seed batch must still match per-seed scalar runs exactly.
    """
    backend = BatchBackend()
    inst = random_instance(30, 2, 0.3, seed=0)
    keys = {
        seed: backend.group_key(
            SimulationRequest("random-admission", inst, kwargs={"rng": seed})
        )
        for seed in (0, 1, 2)
    }
    assert len(set(keys.values())) == 3 and None not in keys.values()
    inst1 = random_instance(30, 1, 0.3, seed=0)
    ckeys = {
        seed: backend.group_key(
            SimulationRequest("classify-select", inst1, kwargs={"rng": seed})
        )
        for seed in (0, 1, 2)
    }
    assert len(set(ckeys.values())) == 3 and None not in ckeys.values()
    # End-to-end: a mixed-seed batch equals per-seed scalar runs.
    requests = [
        SimulationRequest("random-admission", inst, kwargs={"q": 0.5, "rng": seed})
        for seed in (3, 3, 9, 9, 27)
    ]
    for scalar, batch in zip(
        run_simulations(requests, backend="scalar"),
        BatchBackend().run_many(requests),
    ):
        _assert_immediate_equal(scalar, batch)


def test_rng_none_and_absent_are_distinct_seed_streams():
    """``rng=None`` means the library default seed, absent means the
    policy default (0) — they are different streams and different keys."""
    backend = BatchBackend()
    inst = random_instance(20, 2, 0.3, seed=0)
    k_none = backend.group_key(
        SimulationRequest("random-admission", inst, kwargs={"rng": None})
    )
    k_absent = backend.group_key(SimulationRequest("random-admission", inst))
    assert k_none is not None and k_absent is not None and k_none != k_absent
    for kwargs in ({"rng": None}, {}):
        scalar = run_algorithm("random-admission", inst, **kwargs)
        (batch,) = BatchBackend().run_many(
            [SimulationRequest("random-admission", inst, kwargs=kwargs)]
        )
        _assert_immediate_equal(scalar, batch)


def test_live_generator_rng_is_scalar_only():
    backend = BatchBackend()
    inst = random_instance(10, 2, 0.3, seed=0)
    inst1 = random_instance(10, 1, 0.3, seed=0)
    gen_req = SimulationRequest(
        "random-admission", inst, kwargs={"rng": np.random.default_rng(0)}
    )
    assert backend.group_key(gen_req) is None
    assert (
        backend.group_key(
            SimulationRequest(
                "classify-select", inst1, kwargs={"rng": np.random.default_rng(0)}
            )
        )
        is None
    )
    results = run_simulations([gen_req] * _AUTO_MIN_GROUP)
    assert all(r.detail.meta.get("backend") != "batch" for r in results)


def test_single_machine_rules_unsupported_on_multi_machine_instances():
    backend = BatchBackend()
    inst = random_instance(10, 3, 0.3, seed=0)
    assert backend.group_key(SimulationRequest("goldwasser-kerbikov", inst)) is None
    assert backend.group_key(SimulationRequest("classify-select", inst)) is None
    # The scalar path then raises the canonical registry error.
    with pytest.raises(ValueError, match="single-machine"):
        run_simulations([SimulationRequest("goldwasser-kerbikov", inst)] * _AUTO_MIN_GROUP)


# ---------------------------------------------------------------------------
# auto heuristics on the newly supported algorithms
# ---------------------------------------------------------------------------


def test_auto_heuristics_for_new_immediate_variants():
    inst = random_instance(12, 2, 0.3, seed=1)
    inst1 = random_instance(12, 1, 0.3, seed=1)
    for algorithm, target in (
        ("lee-style", inst),
        ("goldwasser-kerbikov", inst1),
        ("random-admission", inst),
        ("classify-select", inst1),
    ):
        single = run_simulations([SimulationRequest(algorithm, target)], backend="auto")
        assert single[0].detail.meta.get("backend") != "batch", algorithm
        group = run_simulations(
            [SimulationRequest(algorithm, target)] * _AUTO_MIN_GROUP, backend="auto"
        )
        assert all(r.detail.meta["backend"] == "batch" for r in group), algorithm


def test_delayed_and_admission_run_their_one_loop_on_every_backend():
    """No batch kernel: ``auto`` runs them scalar, quietly, even in groups,
    and gives the scalar result."""
    inst = random_instance(12, 2, 0.3, seed=1)
    algorithms = ("delayed-greedy", "admission-greedy", "admission-lazy")
    requests = [SimulationRequest(a, inst) for a in algorithms for _ in range(3)]
    assert not any(BatchBackend().supports(r) for r in requests)
    scalar = run_simulations(requests, backend="scalar")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        auto = run_simulations(requests, backend="auto")
    for results in zip(scalar, auto):
        for result in results:
            assert "backend" not in result.detail.meta
            assert _schedule_key(result.detail) == _schedule_key(results[0].detail)
            assert _stats_key(result.stats) == _stats_key(results[0].stats)


def test_auto_never_mixes_seed_groups():
    inst = random_instance(12, 2, 0.3, seed=1)
    requests = [
        SimulationRequest("random-admission", inst, kwargs={"rng": 1}),
        SimulationRequest("random-admission", inst, kwargs={"rng": 1}),
        SimulationRequest("random-admission", inst, kwargs={"rng": 2}),
    ]
    results = run_simulations(requests, backend="auto")
    # The pair batches, the odd seed demotes to scalar under auto.
    assert results[0].detail.meta["backend"] == "batch"
    assert results[1].detail.meta["backend"] == "batch"
    assert results[2].detail.meta.get("backend") != "batch"
    for request, result in zip(requests, results):
        _assert_immediate_equal(
            run_algorithm("random-admission", inst, **dict(request.kwargs)), result
        )
