"""Elastic pull-based execution: leases, heartbeats, speculation, recovery.

The acceptance bar (ISSUE 7): an elastic chaos run with one 10x-slow
worker and one worker that dies mid-sweep completes *without
quarantining a single cell* and merges bit-identical to a serial scalar
run.  On top of that, :class:`~repro.workloads.elastic.CellQueue` is a
pure state machine, so its lease semantics are unit-tested directly —
no processes, no clocks.
"""

import json
import os
import time
from functools import lru_cache, partial

import pytest

from repro.testing.chaos import WorkerChaosPlan
from repro.workloads.elastic import (
    DEFAULT_HEARTBEAT_INTERVAL,
    LEASE_TIMEOUT_BEATS,
    CellQueue,
    SpeculationMismatch,
)
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.journal import load_journal
from repro.workloads.random_instances import random_instance
from repro.workloads.resilient import SweepInterrupted, run_cell
from repro.workloads.sweep import SweepSpec


def _spec(base_seed: int = 17, **overrides) -> SweepSpec:
    defaults = dict(
        epsilons=[0.2, 0.4],
        machine_counts=[1, 2],
        algorithms=["threshold", "greedy"],
        workload=partial(random_instance, 8),
        repetitions=3,
        base_seed=base_seed,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def _rows_key(rows):
    return [r.as_dict() for r in rows]


@lru_cache(maxsize=None)
def _serial_rows(base_seed: int) -> tuple:
    return tuple(execute_sweep(_spec(base_seed)).rows)


def _elastic(spec, **kwargs) -> "ExecutionPolicy":
    defaults = dict(
        workers=3,
        retries=2,
        heartbeat_interval=0.05,
    )
    defaults.update(kwargs)
    return execute_sweep(spec, ExecutionPolicy(**defaults))


def _queue_cells(spec):
    return [
        (eps, m, rep, spec.cell_seed(eps, m, rep)) for eps, m, rep in spec.cells()
    ]


class TestCellQueueUnit:
    """Lease state machine, no processes: grant/beat/expire/release/steal."""

    def test_grant_pops_pending_and_enforces_one_lease_per_worker(self):
        queue = CellQueue(_queue_cells(_spec()), lease_timeout=1.0)
        lease = queue.next_lease(0, now=0.0)
        assert lease.worker == 0 and lease.attempt == 1 and not lease.speculative
        assert queue.granted == 1
        with pytest.raises(RuntimeError, match="already holds a lease"):
            queue.next_lease(0, now=0.1)

    def test_heartbeat_extends_soft_deadline_not_hard(self):
        queue = CellQueue(_queue_cells(_spec()), lease_timeout=1.0, timeout=5.0)
        lease = queue.next_lease(0, now=0.0)
        assert lease.deadline == 1.0 and lease.hard_deadline == 5.0
        assert queue.heartbeat(0, now=0.9)
        assert lease.deadline == pytest.approx(1.9)
        assert lease.hard_deadline == 5.0  # immovable: slow != unbounded
        assert lease.heartbeats == 1
        assert not queue.heartbeat(7, now=0.9)  # no lease held

    def test_expired_vs_overdue_partition(self):
        queue = CellQueue(_queue_cells(_spec()), lease_timeout=1.0, timeout=3.0)
        queue.next_lease(0, now=0.0)
        queue.next_lease(1, now=0.0)
        queue.heartbeat(1, now=2.5)  # kept alive past its soft deadline
        assert {l.worker for l in queue.expired(2.0)} == {0}
        assert {l.worker for l in queue.overdue(2.0)} == set()
        assert {l.worker for l in queue.overdue(3.5)} == {0, 1}

    def test_expiry_release_requeues_without_charging_the_cell(self):
        queue = CellQueue(_queue_cells(_spec()), retries=0, lease_timeout=1.0)
        lease = queue.next_lease(0, now=0.0)
        queue.release(0, "expired: missed heartbeats", charge_cell=False)
        # Even with a zero retry budget the cell survives a worker fault.
        assert not queue.failures
        requeued = queue.pending[-1]
        assert requeued.seed == lease.seed and requeued.attempt == 1
        assert "expired: missed heartbeats" in requeued.history

    def test_cell_fault_spends_retry_budget_then_quarantines(self):
        queue = CellQueue(_queue_cells(_spec()), retries=1, lease_timeout=1.0)
        seed = queue.pending[0].seed
        for expected_attempt in (1, 2):
            lease = queue.next_lease(0, now=0.0)
            # The queue serves FIFO, so the re-queued cell comes back last;
            # drain to it deterministically by releasing others uncharged.
            while lease.seed != seed:
                queue.release(0, "expired: detour", charge_cell=False)
                lease = queue.next_lease(0, now=0.0)
            assert lease.attempt == expected_attempt
            queue.release(0, "error: injected", charge_cell=True)
        assert [f.seed for f in queue.failures] == [seed]
        assert queue.failures[0].kind == "error"
        assert queue.failures[0].attempts == 2
        assert seed not in queue.remaining

    def test_speculation_duplicates_longest_outstanding_cell(self):
        cells = _queue_cells(_spec())[:2]
        queue = CellQueue(cells, lease_timeout=1.0, speculate=True, max_copies=2)
        first = queue.next_lease(0, now=0.0)
        second = queue.next_lease(1, now=1.0)
        spec_lease = queue.next_lease(2, now=2.0)  # pending empty -> steal
        assert spec_lease.speculative
        assert spec_lease.seed == first.seed  # oldest grant wins the copy
        assert queue.speculated == 1
        # max_copies caps further duplication of the same cell ...
        third = queue.next_lease(3, now=3.0)
        assert third is not None and third.seed == second.seed
        # ... and once every remaining cell is saturated there is nothing.
        assert queue.next_lease(4, now=4.0) is None

    def test_each_attempt_is_copied_once(self):
        # Copies of a hanging cell must not keep each other alive: once
        # both time out the cell is charged and its next attempt may be
        # copied again.
        queue = CellQueue(
            _queue_cells(_spec())[:1], retries=1, lease_timeout=1.0, timeout=2.0
        )
        queue.next_lease(0, now=0.0)
        assert queue.next_lease(1, now=0.5).speculative
        queue.release(0, "timeout: hung", charge_cell=True)
        assert queue.next_lease(2, now=2.1) is None  # attempt 1 was copied
        queue.release(1, "timeout: hung", charge_cell=True)
        retry = queue.next_lease(2, now=2.6)
        assert retry.attempt == 2 and not retry.speculative
        assert queue.next_lease(3, now=2.7).speculative

    def test_deaths_quarantine_the_cell_apart_from_its_retry_budget(self):
        queue = CellQueue(_queue_cells(_spec())[:1], retries=2, lease_timeout=1.0)
        seed = queue.pending[0].seed
        queue.next_lease(0, now=0.0)
        queue.release(0, "error: injected", charge_cell=True)
        for attempt in (2, 3, 4):  # each death is a new attempt ...
            lease = queue.next_lease(0, now=0.0)
            assert lease.attempt == attempt and lease.deaths == attempt - 2
            queue.release(0, "crash: worker process died", died=True)
        # ... and the third death quarantines the cell, whatever is left
        # of its retry budget.
        [failure] = queue.failures
        assert failure.kind == "crash" and failure.attempts == 4
        assert len(failure.history) == 4
        assert seed not in queue.remaining and not queue.pending

    def test_speculation_disabled_grants_nothing_in_endgame(self):
        queue = CellQueue(_queue_cells(_spec())[:1], lease_timeout=1.0, speculate=False)
        queue.next_lease(0, now=0.0)
        assert queue.next_lease(1, now=1.0) is None

    def test_losing_copy_completion_is_stale_and_checked(self):
        spec = _spec()
        cells = _queue_cells(spec)[:1]
        queue = CellQueue(cells, lease_timeout=1.0)
        eps, m, rep, seed = cells[0]
        rows = run_cell(spec, eps, m, rep, {})
        queue.next_lease(0, now=0.0)
        queue.next_lease(1, now=0.5)  # speculative copy
        assert queue.complete(0, seed, rows)[0] == "win"
        assert queue.done
        outcome, lease = queue.complete(1, seed, list(rows))
        assert outcome == "duplicate" and lease.speculative
        # A diverging late copy is a loud nondeterminism failure.
        queue.leases[2] = type(lease)(**{**lease.__dict__, "worker": 2})
        with pytest.raises(SpeculationMismatch):
            queue.complete(2, seed, [])


class TestElasticExecution:
    def test_clean_run_bit_identical_to_serial(self, tmp_path):
        spec = _spec()
        path = tmp_path / "elastic.jsonl"
        result = _elastic(spec, journal=str(path))
        assert _rows_key(result.rows) == _rows_key(_serial_rows(17))
        assert result.manifest.cells_completed == result.manifest.cells_total
        assert not result.manifest.failures
        assert not result.manifest.worker_failures

    def test_journal_provenance_and_elastic_stats_trailer(self, tmp_path):
        spec = _spec()
        path = tmp_path / "elastic.jsonl"
        _elastic(spec, journal=str(path), workers=2)
        state = load_journal(path)
        assert set(state.provenance) == set(state.completed)
        for prov in state.provenance.values():
            assert prov["worker"] in (0, 1)
            assert prov["attempt"] >= 1
            assert prov["heartbeats"] >= 0
            assert prov["lease_ms"] >= 0.0
            assert prov["speculative"] in (True, False)
        stats = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "stats"
        ][-1]
        assert stats["scheduler"] == "lease"
        assert stats["workers"] == 2
        assert len(stats["worker_wall_seconds"]) == 2
        assert sum(stats["worker_cells"]) == len(state.completed)
        assert stats["leases"] >= len(state.completed)
        assert stats["heartbeats"] >= 0
        assert stats["speculated"] >= 0

    def test_acceptance_slow_plus_dead_worker_no_cell_quarantined(self, tmp_path):
        """ISSUE 7 acceptance: 10x slow + mid-sweep death, zero cell loss."""
        spec = _spec()
        path = tmp_path / "chaos.jsonl"
        plan = WorkerChaosPlan(
            slow_worker=((0, 0.5),),  # ~10x a normal cell
            dead_worker=((1, 3),),  # dies picking up its 3rd cell, every gen
        )
        result = _elastic(
            spec,
            journal=str(path),
            workers=3,
            worker_chaos=plan,
            worker_max_failures=2,
        )
        assert _rows_key(result.rows) == _rows_key(_serial_rows(17))
        assert not result.manifest.failures  # no *cell* quarantined
        assert result.manifest.quarantined == 0
        assert result.manifest.cells_completed == result.manifest.cells_total
        state = load_journal(path)
        assert set(state.completed) == {spec.cell_seed(*c) for c in spec.cells()}

    def test_lost_heartbeats_expire_lease_and_quarantine_worker(self):
        """A hung-alike slot is drained of its lease, then quarantined.

        Slot 0 never heartbeats and sleeps past the lease deadline, so
        every one of its leases expires.  Slot 1 is slow-but-heartbeating,
        which keeps it busy long enough that the respawned slot 0 is
        granted (and loses) a second lease — over its budget of 1 — while
        speculation is off so expiry is the only recovery channel.
        """
        spec = _spec(repetitions=1)
        plan = WorkerChaosPlan(
            lost_heartbeat=(0,),
            slow_worker=((0, 0.6), (1, 0.3)),
        )
        result = _elastic(
            spec,
            workers=2,
            worker_chaos=plan,
            heartbeat_interval=0.02,
            lease_timeout=0.1,
            worker_max_failures=1,
            speculate=False,
        )
        assert _rows_key(result.rows) == _rows_key(execute_sweep(spec).rows)
        assert not result.manifest.failures
        quarantined = result.manifest.worker_failures
        assert [w.slot for w in quarantined] == [0]
        assert quarantined[0].failures == 2  # budget of 1, then one more
        assert "expired" in quarantined[0].detail
        assert result.manifest.workers_quarantined == 1
        assert "worker(s) quarantined" in result.manifest.summary()

    def test_duplicate_result_fault_accepted_once(self):
        spec = _spec(repetitions=2)
        plan = WorkerChaosPlan(duplicate_result=(0, 1))
        result = _elastic(spec, workers=2, worker_chaos=plan)
        assert _rows_key(result.rows) == _rows_key(execute_sweep(spec).rows)
        assert result.manifest.cells_completed == result.manifest.cells_total

    def test_speculation_rescues_straggler_wall_clock(self):
        """One 10x-slow worker must not stretch the sweep ~10x."""
        spec = _spec(repetitions=2)
        plan = WorkerChaosPlan(slow_worker=((0, 0.6),))
        start = time.monotonic()
        result = _elastic(spec, workers=3, worker_chaos=plan, speculate=True)
        wall = time.monotonic() - start
        assert _rows_key(result.rows) == _rows_key(execute_sweep(spec).rows)
        # 8 cells / 3 workers with one worker sleeping 0.6s per cell: a
        # static assignment would serialise >= 1.2s of injected sleep into
        # the makespan; speculation re-runs the slow slot's cells elsewhere.
        assert wall < 1.2, f"speculation failed to contain the straggler: {wall:.2f}s"
        assert result.manifest.speculated >= 1
        assert "speculated" in result.manifest.summary()

    def test_interrupt_and_resume_bit_identical(self, tmp_path):
        spec = _spec()
        path = tmp_path / "resume.jsonl"
        with pytest.raises(SweepInterrupted) as excinfo:
            _elastic(spec, journal=str(path), interrupt_after=3, workers=2)
        partial = excinfo.value.result
        assert partial.manifest.cells_completed >= 3
        state = load_journal(path)
        assert len(state.completed) == partial.manifest.cells_completed
        resumed = _elastic(spec, journal=str(path), resume=True, workers=2)
        assert _rows_key(resumed.rows) == _rows_key(_serial_rows(17))
        assert resumed.manifest.cells_replayed == partial.manifest.cells_completed

    def test_hard_timeout_charges_the_cell(self):
        """A cell over its hard budget quarantines like the static path."""

        spec = _spec(
            repetitions=1,
            epsilons=[0.2],
            machine_counts=[1],
            algorithms=["greedy"],
            workload=_sleepy_workload,
        )
        result = _elastic(
            spec,
            workers=1,
            timeout=0.3,
            retries=0,
            heartbeat_interval=0.02,
        )
        assert result.manifest.quarantined == 1
        assert result.manifest.failures[0].kind == "timeout"
        assert not result.manifest.worker_failures  # slot survives, cell pays


def _sleepy_workload(m: int, eps: float, seed: int):
    time.sleep(5.0)
    return random_instance(6, m, eps, seed=seed)


def _exit_on_two_machines(m: int, eps: float, seed: int):
    """Kills whatever worker evaluates an m=2 cell (a native crash)."""
    if m == 2:
        os._exit(70)
    return random_instance(6, m, eps, seed=seed)


class TestCrashingCell:
    """A cell that kills its worker is quarantined, not re-run forever."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_local_link_quarantines_the_cell_as_crash(self, workers):
        spec = _spec(
            epsilons=[0.3],
            machine_counts=[1, 2],
            algorithms=["greedy"],
            workload=_exit_on_two_machines,
            repetitions=1,
        )
        start = time.monotonic()
        result = execute_sweep(spec, ExecutionPolicy(workers=workers, retries=2))
        assert time.monotonic() - start < 20.0
        [failure] = result.manifest.failures
        assert (failure.machines, failure.kind, failure.attempts) == (2, "crash", 3)
        assert "exit code 70" in failure.detail
        assert [row.machines for row in result.rows] == [1]


class TestAdaptiveReps:
    def test_loose_tolerance_skips_trailing_reps(self):
        spec = _spec(repetitions=6)
        result = _elastic(
            spec,
            workers=2,
            adaptive_reps=True,
            adaptive_min_reps=2,
            adaptive_rel_tol=10.0,  # any CI counts as tight
        )
        assert result.manifest.cells_skipped > 0
        assert (
            result.manifest.cells_completed + result.manifest.cells_skipped
            == result.manifest.cells_total
        )
        assert "skipped by adaptive repetitions" in result.manifest.summary()
        # Executed reps are a bit-identical *prefix* of the exhaustive run:
        # reps are skipped only from the tail of each config.
        serial = {
            (r.epsilon, r.machines, r.repetition, r.algorithm): r.as_dict()
            for r in execute_sweep(spec).rows
        }
        for row in result.rows:
            key = (row.epsilon, row.machines, row.repetition, row.algorithm)
            assert row.as_dict() == serial[key]
        done_reps = {}
        for row in result.rows:
            done_reps.setdefault((row.epsilon, row.machines), set()).add(row.repetition)
        for reps in done_reps.values():
            assert reps == set(range(len(reps)))  # contiguous prefix from 0

    def test_tight_tolerance_runs_everything(self):
        spec = _spec(repetitions=3)
        result = _elastic(
            spec,
            workers=2,
            adaptive_reps=True,
            adaptive_rel_tol=1e-12,  # never tight for noisy loads
        )
        assert result.manifest.cells_skipped == 0
        assert result.manifest.cells_completed == result.manifest.cells_total
        assert _rows_key(result.rows) == _rows_key(_serial_rows(17))


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(heartbeat_interval=0.0),
            dict(heartbeat_interval=0.5, lease_timeout=0.5),
            dict(worker_max_failures=0),
            dict(adaptive_reps=True, adaptive_min_reps=1),
            dict(adaptive_reps=True, adaptive_rel_tol=0.0),
            dict(adaptive_reps=True),  # requires worker processes
            dict(worker_chaos=WorkerChaosPlan()),  # requires worker processes
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_worker_chaos_plan_validates_fields(self):
        with pytest.raises(ValueError, match="delay"):
            WorkerChaosPlan(slow_worker=((0, -1.0),))
        with pytest.raises(ValueError, match="1-based"):
            WorkerChaosPlan(dead_worker=((0, 0),))
