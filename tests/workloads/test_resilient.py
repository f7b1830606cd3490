"""Chaos-driven validation of the fault-tolerant sweep runner.

The acceptance bar (ISSUE 2): with injected crash + hang + transient
error + corrupt faults on >= 20% of cells, the resilient runner must
finish the sweep, quarantine *only* the truly-poisoned (persistent)
cells, report them in the ``FailureManifest``, and a resume after a
simulated hard kill must yield rows bit-identical to a clean serial
:func:`run_sweep`.

ISSUE 7 adds: bounded SIGTERM->SIGKILL teardown (no zombie children
survive a SIGINT mid-group-lease) and a hypothesis property over the
elastic :class:`~repro.workloads.elastic.CellQueue` — any interleaving
of lease expiry / re-dispatch / duplicate completion yields the same
final journal rows.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import time
from functools import lru_cache, partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.testing.chaos import ChaosPlan
from repro.workloads.elastic import CellQueue, SpeculationMismatch
from repro.workloads.journal import SweepJournal, load_journal
from repro.workloads.random_instances import random_instance
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.resilient import (
    SweepExecutionError,
    SweepInterrupted,
    _terminate,
    _terminate_all,
    run_cell,
    validate_cell_rows,
)
from repro.workloads.sweep import SweepSpec


def run_sweep(spec):
    """Serial reference rows via the unified entrypoint."""
    return execute_sweep(spec).rows


def run_sweep_resilient(spec, **kwargs):
    """The multiprocess lease loop under its execute_sweep surface.

    Keeps the historical keyword names these tests were written with
    (max_workers/max_retries/journal_path); two workers unless told
    otherwise, so every call takes the process path.
    """
    policy = ExecutionPolicy(
        workers=kwargs.pop("max_workers", None) or 2,
        retries=kwargs.pop("max_retries", 2),
        journal=kwargs.pop("journal_path", None),
        **kwargs,
    )
    return execute_sweep(spec, policy)


def _chaos_spec() -> SweepSpec:
    return SweepSpec(
        epsilons=[0.2, 0.5],
        machine_counts=[1, 2],
        algorithms=["threshold", "greedy"],
        workload=partial(random_instance, 8),
        repetitions=3,
        base_seed=13,
    )


#: Deterministic plan: on the grid above it faults 5/12 cells (>= 20%)
#: covering all four kinds; persistent = {corrupt, corrupt, error},
#: transient = {crash, hang} (the hang is transient, so the slow timeout
#: path runs exactly once).
CHAOS_PLAN = ChaosPlan(
    crash_rate=0.12,
    hang_rate=0.1,
    error_rate=0.12,
    corrupt_rate=0.12,
    persistent_rate=0.45,
    hang_seconds=30.0,
    seed=32,
)


def _small_spec(base_seed: int = 5) -> SweepSpec:
    return SweepSpec(
        epsilons=[0.25, 0.5],
        machine_counts=[1],
        algorithms=["greedy"],
        workload=partial(random_instance, 6),
        repetitions=2,
        base_seed=base_seed,
    )


@lru_cache(maxsize=None)
def _serial_rows(base_seed: int) -> tuple:
    return tuple(run_sweep(_small_spec(base_seed)))


def _hanging_workload(m: int, eps: float, seed: int):
    """Module-level (picklable) workload that hangs on two machines."""
    if m == 2:
        time.sleep(30.0)
    return random_instance(5, m, eps, seed=seed)


def _broken_workload(m: int, eps: float, seed: int):
    """Module-level workload that always raises (a poison cell)."""
    raise ValueError("this workload is permanently broken")


class TestCleanRuns:
    def test_matches_serial_without_faults(self):
        spec = _chaos_spec()
        result = run_sweep_resilient(spec, max_workers=4)
        assert result.complete
        assert result.rows == run_sweep(spec)
        assert result.manifest.cells_completed == result.manifest.cells_total

    def test_journal_written_and_replayed(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "sweep.jsonl"
        first = run_sweep_resilient(spec, journal_path=path, max_workers=2)
        assert first.complete and first.journal_path == str(path)
        # A full resume re-executes nothing: every cell replays from disk.
        again = run_sweep_resilient(spec, journal_path=path, resume=True)
        assert again.rows == first.rows == list(_serial_rows(5))
        assert again.manifest.cells_replayed == again.manifest.cells_total
        assert again.manifest.cells_completed == 0

    def test_resume_without_journal_path_rejected(self):
        with pytest.raises(ValueError, match="journal"):
            run_sweep_resilient(_small_spec(), resume=True)


class TestChaosAcceptance:
    """The headline chaos scenario from the issue's acceptance criteria."""

    def test_quarantines_only_poisoned_cells(self):
        spec = _chaos_spec()
        cells = list(spec.cells())
        seeds = [spec.cell_seed(*c) for c in cells]
        faults = CHAOS_PLAN.faulted_cells(seeds)

        # Premise: >= 20% of cells faulted, all injectable kinds present.
        assert len(faults) / len(cells) >= 0.20
        kinds = {kind for kind, _ in faults.values()}
        assert {"crash", "hang", "error", "corrupt"} <= kinds
        poisoned = {seed for seed, (_, persistent) in faults.items() if persistent}
        transient = set(faults) - poisoned
        assert poisoned and transient

        result = run_sweep_resilient(
            spec,
            chaos=CHAOS_PLAN,
            timeout=1.0,
            max_retries=1,
            max_workers=4,
        )
        manifest = result.manifest
        if os.environ.get("REPRO_CHAOS_MANIFEST"):
            with open(os.environ["REPRO_CHAOS_MANIFEST"], "w") as fh:
                json.dump(manifest.as_dict(), fh, indent=2)

        # Quarantine exactly the persistent cells, nothing else.
        assert {f.seed for f in manifest.failures} == poisoned
        assert manifest.recovered == len(transient)
        assert manifest.cells_completed == len(cells) - len(poisoned)

        # Failures are fully attributed: kind, attempts, per-attempt history.
        by_seed = {f.seed: f for f in manifest.failures}
        for seed, (kind, _) in faults.items():
            if seed in poisoned:
                failure = by_seed[seed]
                expected = "timeout" if kind == "hang" else kind
                assert failure.kind == expected
                assert failure.attempts == 2
                assert len(failure.history) == 2

        # Graceful degradation: every surviving row is bit-identical to
        # the serial run's row for that cell.
        serial = run_sweep(spec)
        surviving = [
            row
            for cell, chunk in zip(
                cells, [serial[i : i + 2] for i in range(0, len(serial), 2)]
            )
            if spec.cell_seed(*cell) not in poisoned
            for row in chunk
        ]
        assert result.rows == surviving

    def test_resume_after_hard_kill_bit_identical_to_serial(self, tmp_path):
        spec = _chaos_spec()
        path = tmp_path / "killed.jsonl"
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep_resilient(
                spec, journal_path=path, interrupt_after=4, max_workers=2
            )
        partial_result = excinfo.value.result
        assert 0 < len(partial_result.rows) < len(run_sweep(spec))

        resumed = run_sweep_resilient(spec, journal_path=path, resume=True, max_workers=2)
        assert resumed.complete
        assert resumed.rows == run_sweep(spec)
        assert resumed.manifest.cells_replayed >= 4

    def test_resume_tolerates_truncated_tail(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "sweep.jsonl"
        with pytest.raises(SweepInterrupted):
            run_sweep_resilient(spec, journal_path=path, interrupt_after=2, max_workers=1)
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "seed": 1, "rows": [[0.25, 1')  # hard kill mid-write
        resumed = run_sweep_resilient(spec, journal_path=path, resume=True)
        assert resumed.rows == list(_serial_rows(5))

    def test_double_hard_kill_and_resume(self, tmp_path):
        # kill -> resume -> kill -> resume: each kill leaves a partial
        # trailing line, and each resume must still converge on a journal
        # that loads cleanly and rows bit-identical to the serial run.
        spec = _chaos_spec()  # 12 cells
        path = tmp_path / "killed-twice.jsonl"
        with pytest.raises(SweepInterrupted):
            run_sweep_resilient(spec, journal_path=path, interrupt_after=3, max_workers=1)
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "seed": 7, "rows": [[0.2')
        with pytest.raises(SweepInterrupted):
            run_sweep_resilient(
                spec, journal_path=path, resume=True, interrupt_after=3, max_workers=1
            )
        with open(path, "a") as fh:
            fh.write('{"kind": "ce')
        resumed = run_sweep_resilient(spec, journal_path=path, resume=True, max_workers=2)
        assert resumed.complete
        assert resumed.rows == run_sweep(spec)
        assert resumed.manifest.cells_replayed >= 6
        state = load_journal(path)
        assert not state.truncated_tail
        assert len(state.completed) == 12

    def test_journal_with_quarantined_cells_stays_loadable(self, tmp_path):
        # Quarantine writes a failure record; the journal must still load
        # (and resume) afterwards, reporting the failure for observability.
        spec = SweepSpec(
            epsilons=[0.3],
            machine_counts=[1],
            algorithms=["greedy"],
            workload=_broken_workload,
            repetitions=1,
        )
        path = tmp_path / "poison.jsonl"
        result = run_sweep_resilient(
            spec, journal_path=path, max_retries=0, max_workers=1
        )
        assert result.manifest.quarantined == 1
        state = load_journal(path)
        assert len(state.failures) == 1
        assert state.failures[0]["kind"] == "error"
        resumed = run_sweep_resilient(
            spec, journal_path=path, resume=True, max_retries=0, max_workers=1
        )
        assert resumed.manifest.quarantined == 1


class TestFailureModes:
    def test_hung_cells_time_out_and_quarantine(self):
        spec = SweepSpec(
            epsilons=[0.3],
            machine_counts=[1, 2],
            algorithms=["greedy"],
            workload=_hanging_workload,
            repetitions=1,
            base_seed=2,
        )
        start = time.monotonic()
        result = run_sweep_resilient(spec, timeout=0.5, max_retries=0, max_workers=2)
        assert time.monotonic() - start < 15.0  # terminated, not waited on
        assert [f.kind for f in result.manifest.failures] == ["timeout"]
        assert result.manifest.failures[0].machines == 2
        # The healthy machine count still produced its row.
        assert [r.machines for r in result.rows] == [1]

    def test_poison_cell_exhausts_retries(self):
        spec = SweepSpec(
            epsilons=[0.3],
            machine_counts=[1],
            algorithms=["greedy"],
            workload=_broken_workload,
            repetitions=1,
        )
        result = run_sweep_resilient(spec, max_retries=2)
        assert result.rows == []
        (failure,) = result.manifest.failures
        assert failure.kind == "error"
        assert failure.attempts == 3
        assert "permanently broken" in failure.detail
        assert result.manifest.retries == 2

    def test_corrupt_rows_detected_by_validator(self):
        spec = _small_spec()
        eps, m, rep = next(iter(spec.cells()))
        rows = run_sweep(spec)[:1]
        assert validate_cell_rows(spec, eps, m, rep, rows) is None
        mangled = ChaosPlan().corrupt_rows(rows)
        problem = validate_cell_rows(spec, eps, m, rep, mangled)
        assert problem is not None and "accepted_load" in problem
        assert validate_cell_rows(spec, eps, m, rep, "rows") is not None
        assert validate_cell_rows(spec, eps, m, rep, []) is not None

    def test_parallel_wrapper_raises_on_failure(self):
        # The strict all-or-nothing policy the old parallel wrapper used.
        spec = SweepSpec(
            epsilons=[0.3],
            machine_counts=[1],
            algorithms=["greedy"],
            workload=_broken_workload,
            repetitions=1,
        )
        policy = ExecutionPolicy(workers=1, retries=0, strict=True)
        with pytest.raises(SweepExecutionError, match="permanently broken") as excinfo:
            execute_sweep(spec, policy)
        assert excinfo.value.manifest.quarantined == 1


def _stubborn_child() -> None:
    """Module-level (picklable) child that ignores SIGTERM and lingers."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(60.0)


class TestTerminationEscalation:
    """Bounded SIGTERM -> SIGKILL teardown; nothing outlives the scheduler."""

    def test_sigterm_ignoring_child_is_killed(self):
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        child = ctx.Process(target=_stubborn_child, daemon=True)
        child.start()
        time.sleep(0.2)  # let the child install its SIGTERM handler
        start = time.monotonic()
        _terminate(child, grace=0.3)
        assert time.monotonic() - start < 5.0  # bounded, not a 60s wait
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGKILL  # escalation actually fired

    def test_terminate_all_shares_one_grace_period(self):
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        children = [ctx.Process(target=_stubborn_child, daemon=True) for _ in range(3)]
        for child in children:
            child.start()
        time.sleep(0.3)
        start = time.monotonic()
        _terminate_all(children, grace=0.3)
        # Serial escalation would take >= 3 * grace just for the SIGTERM
        # waits; the shared deadline keeps teardown near one grace period.
        assert time.monotonic() - start < 5.0
        for child in children:
            assert not child.is_alive()
            assert child.exitcode == -signal.SIGKILL

    def test_terminate_already_dead_child_is_reaped(self):
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else "spawn")
        child = ctx.Process(target=time.sleep, args=(0.0,), daemon=True)
        child.start()
        child.join()
        _terminate(child)  # must not raise, must leave it reaped
        assert child.exitcode == 0

    def test_no_zombies_survive_sigint_mid_group_lease(self, tmp_path):
        """Real SIGINT during batch group leases: every worker PID dies.

        The sweep subprocess records each worker's PID (with SIGTERM
        ignored, so only the SIGKILL escalation can reap it), takes a
        SIGINT mid-lease, and then proves from inside the interrupted
        process that no recorded worker survived — ``os.kill(pid, 0)``
        must fail for all of them (a zombie would still accept signal 0).
        """
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        script = textwrap.dedent(
            """
            import os, signal, sys, time
            from repro.workloads.execute import ExecutionPolicy, execute_sweep
            from repro.workloads.resilient import SweepInterrupted
            from repro.workloads.sweep import SweepSpec
            from repro.workloads.random_instances import random_instance

            PID_DIR = os.environ["PID_DIR"]

            def workload(m, eps, seed):
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                pid = os.getpid()
                with open(os.path.join(PID_DIR, str(pid)), "w") as fh:
                    fh.write(str(pid))
                time.sleep(0.5)  # keep the group lease mid-flight
                return random_instance(6, m, eps, seed=seed)

            spec = SweepSpec(
                epsilons=[0.2, 0.4],
                machine_counts=[1, 2],
                algorithms=["greedy"],
                workload=workload,
                repetitions=4,
            )
            policy = ExecutionPolicy(workers=2, backend="batch")
            try:
                execute_sweep(spec, policy)
            except SweepInterrupted:
                survivors = []
                for name in os.listdir(PID_DIR):
                    try:
                        os.kill(int(name), 0)
                        survivors.append(name)
                    except ProcessLookupError:
                        pass
                if survivors:
                    print(f"ZOMBIES: {survivors}", file=sys.stderr)
                    sys.exit(70)
                sys.exit(42)
            sys.exit(1)  # finished before the SIGINT landed — retune sleeps
            """
        )
        env = dict(os.environ)
        env["PID_DIR"] = str(pid_dir)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), os.path.abspath("src")) if p
        )
        # The workload is a local closure on purpose: it only has to be
        # picklable *inside* the subprocess, where it is module-level.
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stderr=subprocess.PIPE,
            start_new_session=True,  # isolate our SIGINT from the test run
        )
        try:
            deadline = time.monotonic() + 30.0
            while not any(pid_dir.iterdir()):
                assert time.monotonic() < deadline, "no worker ever started"
                assert proc.poll() is None, "sweep exited before any worker ran"
                time.sleep(0.02)
            time.sleep(0.1)  # ensure the lease is genuinely mid-flight
            proc.send_signal(signal.SIGINT)
            _, stderr = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 42, stderr.decode()


def _interleaved_queue_run(
    spec, journal_path, cells, rows_by_seed, decisions, n_workers
) -> dict:
    """Drive a :class:`CellQueue` through one adversarial interleaving.

    ``decisions`` is an infinite-ish iterator of small ints from
    hypothesis; each step picks a worker and an action (grant /
    heartbeat / expire-and-redispatch / fail-release / complete /
    duplicate-complete).  Wins are journaled exactly as the elastic
    scheduler would.  Returns the journal's completed map.
    """
    queue = CellQueue(
        cells, retries=3, lease_timeout=1.0, timeout=None, speculate=True
    )
    journal = SweepJournal.create(journal_path, spec)
    clock = 0.0
    idle = set(range(n_workers))
    steps = iter(decisions)

    def pick(options):
        return options[next(steps) % len(options)]

    try:
        for _ in range(500):
            if queue.done:
                break
            clock += 0.1
            busy = [w for w in queue.leases]
            action = next(steps) % 6
            if action in (0, 1) or not busy:  # grant (weighted: most common)
                if not idle:
                    continue
                worker = pick(sorted(idle))
                lease = queue.next_lease(worker, clock)
                if lease is not None:
                    idle.discard(worker)
            elif action == 2:  # heartbeat
                queue.heartbeat(pick(busy), clock)
            elif action == 3:  # lease expiry -> re-dispatch (worker charged)
                worker = pick(busy)
                queue.release(worker, "expired: missed heartbeats", charge_cell=False)
                idle.add(worker)
            elif action == 4:  # transient cell failure -> retry budget
                worker = pick(busy)
                # Stay within the retry budget: the property under test is
                # that *recoverable* interleavings converge, so an injected
                # failure that would quarantine the cell degrades to a
                # charge-free expiry instead.
                charge = queue.leases[worker].attempt <= queue.retries
                detail = "error: injected" if charge else "expired: injected"
                queue.release(worker, detail, charge_cell=charge)
                idle.add(worker)
            else:  # complete (possibly as a duplicate of a finished cell)
                worker = pick(busy)
                seed = queue.leases[worker].seed
                outcome, lease = queue.complete(worker, seed, rows_by_seed[seed])
                idle.add(worker)
                if outcome == "win":
                    journal.record_cell(
                        seed,
                        lease.eps,
                        lease.m,
                        lease.rep,
                        rows_by_seed[seed],
                        provenance={"worker": worker, "attempt": lease.attempt},
                    )
        else:
            pytest.fail("interleaving did not converge in 500 steps")
        journal.record_seal()
    finally:
        journal.close()
    return load_journal(journal_path).completed


class TestLeaseInterleavingProperty:
    """Any interleaving of expiry/re-dispatch/duplicates -> same journal."""

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(decisions=st.lists(st.integers(0, 5), min_size=60, max_size=400))
    def test_interleavings_converge_to_identical_journal_rows(
        self, tmp_path, decisions
    ):
        spec = _small_spec(9)
        cells = [
            (eps, m, rep, spec.cell_seed(eps, m, rep)) for eps, m, rep in spec.cells()
        ]
        rows_by_seed = {
            seed: run_cell(spec, eps, m, rep, {}) for eps, m, rep, seed in cells
        }
        path = tmp_path / f"interleave-{time.monotonic_ns()}.jsonl"
        # Pad with a "complete" drain tail so every prefix hypothesis chooses
        # is extended to a finished sweep: with leases outstanding the tail
        # completes one per step, otherwise it grants — never a stall.
        completed = _interleaved_queue_run(
            spec, path, cells, rows_by_seed, decisions + [5] * 3000, n_workers=3
        )
        # However the leases bounced around, the journal holds exactly the
        # canonical rows for every cell — bit-identical to a serial run.
        assert completed == rows_by_seed

    def test_duplicate_completion_must_be_bit_identical(self):
        spec = _small_spec(9)
        cells = [
            (eps, m, rep, spec.cell_seed(eps, m, rep)) for eps, m, rep in spec.cells()
        ]
        queue = CellQueue(cells, lease_timeout=1.0)
        first = queue.next_lease(0, 0.0)
        rows = run_cell(spec, first.eps, first.m, first.rep, {})
        assert queue.complete(0, first.seed, rows)[0] == "win"
        # A second (stale/speculative) copy with identical rows is benign …
        queue.pending.clear()
        queue.leases[1] = type(first)(
            **{**first.__dict__, "worker": 1}
        )
        assert queue.complete(1, first.seed, list(rows))[0] == "duplicate"
        # … but a diverging copy is a hard nondeterminism error.
        queue.leases[2] = type(first)(**{**first.__dict__, "worker": 2})
        mangled = ChaosPlan().corrupt_rows(rows)
        with pytest.raises(SpeculationMismatch):
            queue.complete(2, first.seed, mangled)


class TestInterruptedResumeProperty:
    """Hypothesis: interrupt anywhere, resume, get the serial rows exactly."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(base_seed=st.sampled_from([5, 6, 7]), kill_after=st.integers(1, 3))
    def test_interrupt_resume_bit_identical(self, tmp_path, base_seed, kill_after):
        spec = _small_spec(base_seed)
        path = tmp_path / f"journal-{base_seed}-{kill_after}-{time.monotonic_ns()}.jsonl"
        with pytest.raises(SweepInterrupted) as excinfo:
            run_sweep_resilient(
                spec, journal_path=path, interrupt_after=kill_after, max_workers=1
            )
        # The journal holds exactly what the interrupt flushed.
        state = load_journal(path)
        assert len(state.completed) == kill_after
        assert len(excinfo.value.result.rows) == kill_after

        resumed = run_sweep_resilient(spec, journal_path=path, resume=True)
        assert resumed.complete
        assert resumed.rows == list(_serial_rows(base_seed))
        assert resumed.manifest.cells_replayed == kill_after
