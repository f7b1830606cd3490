"""The incremental controller's bit-identity and snapshot contracts.

The headline guarantee of :mod:`repro.engine.controller`: replaying any
request log through an :class:`AdmissionController` session produces
*byte-identical* schedules, stats counters and journal rows to feeding
the same jobs through the batch :func:`repro.engine.simulator.simulate`
path, because both drive the same kernel strategy.  Snapshots are
construction recipes plus the request log; restore replays and verifies.
"""

import json

import pytest

from repro.baselines.registry import ALGORITHMS, make_algorithm
from repro.engine import AdmissionController, SnapshotMismatchError, open_session
from repro.engine.controller import (
    decision_to_payload,
    job_from_payload,
    job_to_payload,
)
from repro.engine.kernel import SimulationError
from repro.engine.simulator import simulate
from repro.model.job import Job
from repro.serve.protocol import job_from_message
from repro.workloads.arrivals import mmpp_instance
from repro.workloads.random_instances import random_instance

IMMEDIATE = sorted(
    name for name, spec in ALGORITHMS.items() if spec.model == "nonpreemptive"
)


def _machines_for(name: str) -> int:
    return 1 if ALGORITHMS[name].single_machine_only else 3


class TestBitIdentityWithSimulate:
    """session.offer(...) over a request log == simulate(...) on it."""

    @pytest.mark.parametrize("algorithm", IMMEDIATE)
    def test_schedule_json_is_byte_identical(self, algorithm):
        m = _machines_for(algorithm)
        inst = mmpp_instance(80, machines=m, epsilon=0.5, seed=13)
        kwargs = {"rng": 5} if ALGORITHMS[algorithm].randomized else {}
        session = open_session(
            algorithm, machines=m, epsilon=0.5, name=inst.name, **kwargs
        )
        for job in inst.jobs:
            session.offer(job)
        live = session.close()
        batch = simulate(make_algorithm(algorithm, **kwargs), inst)
        assert live.to_json() == batch.to_json()
        assert live.accepted_load == batch.accepted_load

    def test_decision_trace_matches_batch_trace(self):
        inst = random_instance(50, 2, 0.3, seed=4)
        session = open_session("threshold", machines=2, epsilon=0.3)
        live = [decision_to_payload(session.offer(job)) for job in inst.jobs]
        batch = simulate(make_algorithm("threshold"), inst)
        offline = [
            decision_to_payload(r.decision) for r in batch.meta["trace"]
        ]
        assert live == offline

    def test_stats_counters_match_batch(self):
        inst = random_instance(40, 2, 0.3, seed=9)
        session = open_session("threshold", machines=2, epsilon=0.3)
        session.offer_many(inst.jobs)
        live = session.schedule().meta["stats"]
        batch = simulate(make_algorithm("threshold"), inst).meta["stats"]
        for field in ("jobs", "decisions", "accepted", "rejected", "steps",
                      "accepted_load", "model", "algorithm"):
            assert getattr(live, field) == getattr(batch, field), field

    def test_incremental_state_is_live(self):
        session = open_session("greedy", machines=2, epsilon=1.0)
        d1 = session.offer(Job(0.0, 1.0, 3.0))
        assert d1.accepted and session.accepted_load == 1.0
        assert session.now == 0.0
        d2 = session.offer(Job(1.0, 1.0, 4.0))
        assert d2.accepted
        assert session.now == 1.0
        assert len(session.jobs) == 2
        assert sum(session.loads()) > 0.0

    def test_job_count_and_job_index_the_history(self):
        session = open_session("threshold", machines=2, epsilon=0.5)
        assert session.job_count == 0
        for i, job in enumerate(random_instance(20, 2, 0.5, seed=4)):
            session.offer(job)
            assert session.job_count == i + 1
            assert session.job(i) == session.jobs[i] and session.job(i).job_id == i

    def test_a_job_is_kept_when_its_id_is_its_seq_and_relabelled_otherwise(self):
        session = open_session("threshold", machines=2, epsilon=0.5)
        mine = job_from_message(
            {"processing": 1.0}, clock=0.0, epsilon=0.5, job_id=session.job_count
        )
        session.offer(mine)
        assert session.job(0) is mine
        other = Job(0.0, 1.0, 5.0, job_id=7)
        session.offer(other)
        assert session.job(1) == other.with_id(1)


class TestSessionContract:
    def test_offer_time_must_match_release(self):
        session = open_session("threshold", machines=1, epsilon=0.5)
        with pytest.raises(SimulationError, match="disagrees with job release"):
            session.offer(Job(2.0, 1.0, 4.0), t=1.0)
        # matching t is fine
        session.offer(Job(2.0, 1.0, 4.0), t=2.0)

    def test_monotone_releases_enforced(self):
        session = open_session("threshold", machines=1, epsilon=0.5)
        session.offer(Job(5.0, 1.0, 7.0))
        with pytest.raises(SimulationError):
            session.offer(Job(1.0, 1.0, 3.0))

    def test_closed_session_rejects_offers(self):
        session = open_session("threshold", machines=1, epsilon=0.5)
        session.offer(Job(0.0, 1.0, 2.0))
        session.close()
        with pytest.raises(SimulationError, match="closed"):
            session.offer(Job(1.0, 1.0, 3.0))

    def test_unknown_algorithm_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown algorithm"):
            open_session("nope", machines=1, epsilon=0.5)

    def test_non_immediate_model_rejected(self):
        delayed = next(
            n for n, s in ALGORITHMS.items() if s.model != "nonpreemptive"
        )
        with pytest.raises(ValueError, match="cannot answer a live offer"):
            open_session(delayed, machines=1, epsilon=0.5)

    def test_single_machine_constraint_enforced(self):
        single = next(
            n for n, s in ALGORITHMS.items()
            if s.model == "nonpreemptive" and s.single_machine_only
        )
        with pytest.raises(ValueError, match="single-machine"):
            open_session(single, machines=2, epsilon=0.5)

    def test_policy_object_passthrough_forfeits_snapshot(self):
        session = open_session(
            make_algorithm("threshold"), machines=2, epsilon=0.5
        )
        session.offer(Job(0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="registry algorithm name"):
            session.snapshot()

    def test_policy_object_rejects_kwargs(self):
        with pytest.raises(ValueError, match="registry algorithm names"):
            open_session(
                make_algorithm("threshold"), machines=2, epsilon=0.5, seed=1
            )


class TestSnapshotRestore:
    def test_round_trip_is_json_safe_and_verified(self):
        inst = random_instance(30, 2, 0.4, seed=3)
        session = open_session("threshold", machines=2, epsilon=0.4,
                               name=inst.name)
        session.offer_many(inst.jobs)
        snap = json.loads(json.dumps(session.snapshot()))
        restored = AdmissionController.restore(snap)
        assert restored.machines == session.machines
        assert restored.epsilon == session.epsilon
        assert [decision_to_payload(d) for d in restored.decisions] == [
            decision_to_payload(d) for d in session.decisions
        ]
        # the restored session keeps serving identically
        probe = Job(session.now + 1.0, 1.0, session.now + 2.4)
        assert (
            decision_to_payload(restored.offer(probe))
            == decision_to_payload(session.offer(probe))
        )

    def test_seeded_randomized_policy_replays_exactly(self):
        inst = random_instance(40, 1, 0.4, seed=8)
        session = open_session("random-admission", machines=1, epsilon=0.4,
                               rng=21)
        session.offer_many(inst.jobs)
        restored = AdmissionController.restore(session.snapshot())
        assert [decision_to_payload(d) for d in restored.decisions] == [
            decision_to_payload(d) for d in session.decisions
        ]

    def test_tampered_snapshot_raises_mismatch(self):
        inst = random_instance(20, 2, 0.4, seed=6)
        session = open_session("threshold", machines=2, epsilon=0.4)
        session.offer_many(inst.jobs)
        snap = session.snapshot()
        flipped = [not snap["decisions"][0][0], None, None]
        snap["decisions"][0] = flipped
        with pytest.raises(SnapshotMismatchError, match="replay diverged"):
            AdmissionController.restore(snap)
        # ... but verify=False restores on trust
        AdmissionController.restore(snap, verify=False)

    def test_version_gate(self):
        session = open_session("threshold", machines=1, epsilon=0.5)
        snap = session.snapshot()
        snap["version"] = 99
        with pytest.raises(ValueError, match="snapshot version"):
            AdmissionController.restore(snap)


class TestPayloadHelpers:
    def test_job_payload_round_trip_is_exact(self):
        job = Job(0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0 + 0.30000000000000004,
                  weight=0.7)
        again = job_from_payload(json.loads(json.dumps(job_to_payload(job))))
        assert (again.release, again.processing, again.deadline, again.weight) \
            == (job.release, job.processing, job.deadline, job.weight)

    def test_weightless_payload_has_three_fields(self):
        assert job_from_payload([0.0, 1.0, 2.0]).weight is None
        with pytest.raises(ValueError, match="3 or 4 fields"):
            job_from_payload([0.0, 1.0])
