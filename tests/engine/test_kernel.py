"""Unit tests for the shared simulation kernel (events, stats, errors)."""

import pytest

from repro.engine.kernel import (
    EventStream,
    JobFeed,
    SimulationError,
    replay_events,
)
from repro.engine.admission import AdmissionGreedyPolicy, simulate_admission
from repro.engine.delayed import DelayedGreedyPolicy, simulate_delayed
from repro.engine.penalties import RevocableGreedyPolicy, simulate_with_penalties
from repro.engine.preemptive import simulate_preemptive
from repro.engine.simulator import simulate
from repro.baselines.dasgupta_palis import DasGuptaPalisPolicy
from repro.baselines.greedy import GreedyPolicy
from repro.core.threshold import ThresholdPolicy
from repro.model.instance import Instance
from repro.model.job import Job
from repro.workloads import random_instance


class TestErrorTaxonomy:
    def test_simulation_error_is_both_runtime_and_value_error(self):
        # Backward compatibility: the immediate engine historically raised
        # RuntimeError subclasses, the other engines bare ValueError.
        err = SimulationError("boom", model="immediate", job_id=3, time=1.5)
        assert isinstance(err, RuntimeError)
        assert isinstance(err, ValueError)
        assert err.model == "immediate"
        assert err.job_id == 3
        assert err.time == 1.5

    def test_penalties_policy_bug_raises_simulation_error(self):
        from repro.engine.penalties import PenaltyPolicy

        class Confused(PenaltyPolicy):
            name = "confused"

            def on_submission(self, job, t, plans):
                return None, [12345]

        inst = random_instance(3, 1, 0.2, seed=0)
        with pytest.raises(SimulationError, match="unknown plan"):
            simulate_with_penalties(Confused(), inst, 0.0)

    def test_preemptive_policy_bug_raises_simulation_error(self):
        from repro.engine.preemptive import PreemptivePolicy

        class OutOfRange(PreemptivePolicy):
            name = "oor"

            def on_submission(self, job, t, machines):
                return 99

        inst = random_instance(3, 1, 0.5, seed=2)
        with pytest.raises(SimulationError, match="out of range"):
            simulate_preemptive(OutOfRange(), inst)

    def test_argument_errors_stay_plain_value_errors(self):
        # Caller bugs (bad delta / phi) are not policy bugs and keep the
        # plain ValueError contract.
        inst = random_instance(3, 1, 0.2, seed=0)
        with pytest.raises(ValueError, match="delta"):
            simulate_delayed(DelayedGreedyPolicy(), inst, 5.0)
        with pytest.raises(ValueError, match="non-negative"):
            simulate_with_penalties(RevocableGreedyPolicy(), inst, -1.0)


class TestStats:
    def test_every_model_attaches_stats(self):
        inst = random_instance(30, 2, 0.3, seed=4)
        outcomes = [
            simulate(GreedyPolicy(), inst),
            simulate_delayed(DelayedGreedyPolicy(), inst, 0.1),
            simulate_admission(AdmissionGreedyPolicy(), inst),
            simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.5),
            simulate_preemptive(DasGuptaPalisPolicy(), inst),
        ]
        for outcome in outcomes:
            stats = outcome.meta["stats"]
            assert stats.model == outcome.meta["model"]
            assert stats.decisions == len(inst)
            assert stats.accepted + stats.rejected == stats.decisions
            assert stats.sim_seconds >= 0.0
            assert stats.audit_seconds >= 0.0
            d = stats.as_dict()
            assert d["accepted_load"] == pytest.approx(stats.accepted_load)
            assert d["decisions_per_second"] > 0

    def test_stats_accepted_load_matches_schedule(self):
        inst = random_instance(40, 3, 0.25, seed=5)
        s = simulate(ThresholdPolicy(), inst)
        assert s.meta["stats"].accepted_load == pytest.approx(s.accepted_load)

    def test_penalties_stats_count_revocations(self):
        inst = random_instance(80, 2, 0.2, seed=6)
        out = simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.0)
        assert out.meta["stats"].revoked == len(out.revoked)


class TestEvents:
    def test_events_are_opt_in(self):
        inst = random_instance(10, 2, 0.3, seed=7)
        assert "events" not in simulate(GreedyPolicy(), inst).meta
        s = simulate(GreedyPolicy(), inst, record_events=True)
        assert len(s.meta["events"]) > 0

    def test_decision_events_cover_every_job(self):
        inst = random_instance(25, 2, 0.3, seed=8)
        s = simulate_delayed(DelayedGreedyPolicy(), inst, 0.15, record_events=True)
        decided = {e.job_id for e in s.meta["events"].of_kind("decision")}
        assert decided == {j.job_id for j in inst}

    def test_event_stream_renders(self):
        inst = random_instance(5, 1, 0.3, seed=9)
        s = simulate(GreedyPolicy(), inst, record_events=True)
        text = s.meta["events"].render()
        assert "decision" in text and "t=" in text


class TestReplay:
    @pytest.mark.parametrize(
        "run",
        [
            lambda inst: simulate(GreedyPolicy(), inst, record_events=True),
            lambda inst: simulate(ThresholdPolicy(), inst, record_events=True),
            lambda inst: simulate_delayed(
                DelayedGreedyPolicy(), inst, 0.2, record_events=True
            ),
            lambda inst: simulate_admission(
                AdmissionGreedyPolicy(), inst, record_events=True
            ),
        ],
    )
    def test_replay_reconstructs_schedule(self, run):
        inst = random_instance(40, 3, 0.25, seed=10)
        s = run(inst)
        replayed = replay_events(inst, s.meta["events"])
        assert replayed.assignments == s.assignments
        assert replayed.rejected == s.rejected


class TestHelpers:
    def test_job_feed_peek_pop(self):
        jobs = [Job(0, 1, 10, job_id=0), Job(2, 1, 10, job_id=1)]
        feed = JobFeed(jobs)
        assert feed.peek().job_id == 0
        assert feed.pop().job_id == 0
        assert not feed.exhausted
        assert feed.take_released(5.0) == [jobs[1]]
        assert feed.exhausted and feed.pop() is None

    def test_job_feed_take_released_respects_time(self):
        jobs = [Job(0, 1, 10, job_id=0), Job(5, 1, 10, job_id=1)]
        feed = JobFeed(jobs)
        assert [j.job_id for j in feed.take_released(1.0)] == [0]
        assert feed.peek().job_id == 1

    def test_event_stream_of_kind(self):
        stream = EventStream()
        stream.emit("decision", 0.0, job_id=1, accepted=True)
        stream.emit("revoke", 1.0, job_id=1)
        assert len(stream.of_kind("decision")) == 1
        assert len(stream.of_kind("revoke")) == 1


class TestModelTags:
    def test_meta_model_is_set_for_all_engines(self):
        inst = Instance([Job(0, 1, 10)], machines=1, epsilon=1.0)
        assert simulate(GreedyPolicy(), inst).meta["model"] == "immediate"
        assert (
            simulate_admission(AdmissionGreedyPolicy(), inst).meta["model"]
            == "commitment-on-admission"
        )
        assert (
            simulate_with_penalties(RevocableGreedyPolicy(), inst, 0.0).meta["model"]
            == "commitment-with-penalties"
        )
        assert (
            simulate_preemptive(DasGuptaPalisPolicy(), inst).meta["model"]
            == "preemptive"
        )
        assert (
            simulate_delayed(DelayedGreedyPolicy(), inst, 0.0).meta["model"]
            == "delayed"
        )
