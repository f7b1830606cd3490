"""Unit tests for the non-preemptive simulation loop."""

from typing import Sequence

import pytest

from repro.engine.policy import Decision, JobSource, OnlinePolicy
from repro.engine.simulator import SimulationError, simulate, simulate_many, simulate_source
from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.machine import MachineState


class AcceptAll(OnlinePolicy):
    """Accept every job on machine 0 at the earliest feasible time."""

    name = "accept-all"

    def on_submission(self, job, t, machines):
        return Decision.accept(machine=0, start=machines[0].append_start(job, t))


class RejectAll(OnlinePolicy):
    name = "reject-all"

    def on_submission(self, job, t, machines):
        return Decision.reject()


class BrokenPolicy(OnlinePolicy):
    """Commits infeasible allocations (for error-path tests)."""

    name = "broken"

    def __init__(self, machine=0, start=0.0):
        self._machine = machine
        self._start = start

    def on_submission(self, job, t, machines):
        return Decision.accept(machine=self._machine, start=self._start)


def _inst(jobs, m=2, eps=1.0):
    return Instance(jobs, machines=m, epsilon=eps)


class TestBasicRuns:
    def test_accept_all_feasible_stream(self):
        inst = _inst([Job(0, 1, 10), Job(0, 1, 10), Job(1, 1, 10)])
        s = simulate(AcceptAll(), inst)
        assert s.accepted_count == 3
        assert s.machine_loads() == [3.0, 0.0]

    def test_reject_all(self):
        inst = _inst([Job(0, 1, 10)])
        s = simulate(RejectAll(), inst)
        assert s.accepted_count == 0 and s.rejected == {0}

    def test_returns_audited_schedule_with_trace(self):
        inst = _inst([Job(0, 1, 10)])
        s = simulate(AcceptAll(), inst)
        assert "trace" in s.meta and len(s.meta["trace"]) == 1

    def test_simulate_keeps_instance_object(self):
        inst = _inst([Job(0, 1, 10)])
        s = simulate(AcceptAll(), inst)
        assert s.instance is inst

    def test_simulate_keeps_the_instance_job_objects(self):
        inst = _inst([Job(0, 1, 10), Job(0, 2, 10), Job(1, 1, 10)])
        s = simulate(AcceptAll(), inst)
        assert all(
            record.job is job for record, job in zip(s.meta["trace"], inst.jobs)
        )

    def test_simulate_many(self):
        insts = [_inst([Job(0, 1, 10)]), _inst([Job(0, 2, 10)])]
        scheds = simulate_many(AcceptAll(), insts)
        assert [s.accepted_load for s in scheds] == [1.0, 2.0]

    def test_empty_instance(self):
        s = simulate(AcceptAll(), _inst([]))
        assert s.accepted_count == 0 and len(s.instance) == 0


class TestErrorPaths:
    def test_machine_out_of_range(self):
        inst = _inst([Job(0, 1, 10)])
        with pytest.raises(SimulationError, match="out of range"):
            simulate(BrokenPolicy(machine=7), inst)

    def test_start_before_decision_time(self):
        inst = _inst([Job(1.0, 1, 10)])
        with pytest.raises(SimulationError):
            simulate(BrokenPolicy(start=0.5), inst)

    def test_overlapping_commitments_rejected(self):
        inst = _inst([Job(0, 5, 10), Job(0, 5, 10)])
        with pytest.raises(SimulationError, match="overlap"):
            simulate(BrokenPolicy(), inst)

    def test_deadline_violation_rejected(self):
        class LatePolicy(OnlinePolicy):
            name = "late"

            def on_submission(self, job, t, machines):
                return Decision.accept(machine=0, start=job.deadline - job.processing + 1)

        inst = _inst([Job(0, 1, 5)])
        with pytest.raises(SimulationError):
            simulate(LatePolicy(), inst)


class TestAdaptiveSource:
    class TwoJobSource(JobSource):
        """Second job's size depends on the first decision."""

        def __init__(self):
            self.sent = 0
            self.first_accepted = None

        machines = property(lambda self: 1)
        epsilon = property(lambda self: 1.0)

        def next_job(self) -> Job | None:
            if self.sent == 0:
                self.sent += 1
                return Job(0.0, 1.0, 10.0)
            if self.sent == 1:
                self.sent += 1
                p = 2.0 if self.first_accepted else 5.0
                return Job(1.0, p, 50.0)
            return None

        def observe(self, job: Job, decision: Decision) -> None:
            if job.job_id == 0:
                self.first_accepted = decision.accepted

    def test_source_sees_decisions(self):
        src = self.TwoJobSource()
        s = simulate_source(AcceptAll(), src)
        assert s.instance[1].processing == 2.0

        src2 = self.TwoJobSource()
        s2 = simulate_source(RejectAll(), src2)
        assert s2.instance[1].processing == 5.0

    def test_max_jobs_guard(self):
        class Infinite(JobSource):
            machines = property(lambda self: 1)
            epsilon = property(lambda self: 1.0)

            def next_job(self):
                return Job(0.0, 1.0, 10.0)

            def observe(self, job, decision):
                pass

        with pytest.raises(SimulationError, match="max_jobs"):
            simulate_source(RejectAll(), Infinite(), max_jobs=50)

    def test_time_travel_rejected(self):
        class BackwardsSource(JobSource):
            def __init__(self):
                self.sent = 0

            machines = property(lambda self: 1)
            epsilon = property(lambda self: 1.0)

            def next_job(self):
                self.sent += 1
                if self.sent == 1:
                    return Job(5.0, 1.0, 10.0)
                if self.sent == 2:
                    return Job(1.0, 1.0, 10.0)
                return None

            def observe(self, job, decision):
                pass

        with pytest.raises(SimulationError, match="before current time"):
            simulate_source(RejectAll(), BackwardsSource())


class TestLoadsSnapshot:
    def test_trace_records_loads_before_decision(self):
        inst = _inst([Job(0, 2, 10), Job(0, 1, 10)])
        s = simulate(AcceptAll(), inst)
        trace = s.meta["trace"]
        assert trace.records[0].loads_before == (0.0, 0.0)
        assert trace.records[1].loads_before == (2.0, 0.0)
