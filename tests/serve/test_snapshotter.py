"""The sealed decision log: durability, tamper detection, offline replay."""

import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.controller import open_session
from repro.serve.snapshotter import (
    DecisionJournal,
    DecisionJournalError,
    _decision_line,
    decision_crc,
    load_decision_journal,
    replay_decision_log,
    service_fingerprint,
    verify_decision_log,
)
from repro.testing.chaos import truncate_tail
from repro.utils.sealed_log import LogWriter
from repro.workloads.arrivals import mmpp_instance
from repro.workloads.random_instances import random_instance


def _serve_instance(path, inst, algorithm="threshold", **kwargs):
    """Drive *inst* through a live session, journaling every decision."""
    service = service_fingerprint(
        algorithm, inst.machines, inst.epsilon, kwargs, inst.name
    )
    session = open_session(
        algorithm, machines=inst.machines, epsilon=inst.epsilon,
        name=inst.name, **kwargs,
    )
    journal = DecisionJournal.create(path, service)
    for i, job in enumerate(inst.jobs):
        decision = session.offer(job)
        journal.record_decision(i, session.jobs[i], decision)
    return session, journal, service


class TestJournalLifecycle:
    def test_create_serve_seal_load(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(25, 2, 0.4, seed=1)
        _, journal, _ = _serve_instance(path, inst)
        journal.seal()
        journal.close()
        state = load_decision_journal(path)
        assert state.sealed
        assert len(state.jobs) == len(state.decisions) == 25
        assert state.instance().to_json() == inst.to_json()

    def test_unsealed_log_loads_but_reports_it(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(10, 2, 0.4, seed=2)
        _, journal, _ = _serve_instance(path, inst)
        journal.close()  # hard stop: no seal
        state = load_decision_journal(path)
        assert not state.sealed and len(state.decisions) == 10

    def test_create_refuses_to_clobber(self, tmp_path):
        path = tmp_path / "log.jsonl"
        service = service_fingerprint("threshold", 2, 0.4)
        DecisionJournal.create(path, service).close()
        with pytest.raises(DecisionJournalError, match="already exists"):
            DecisionJournal.create(path, service)

    def test_empty_and_headerless_logs_fail(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(DecisionJournalError, match="empty"):
            load_decision_journal(empty)
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text('{"kind": "decision", "seq": 0}\n' * 2)
        with pytest.raises(DecisionJournalError, match="before header"):
            load_decision_journal(headerless)


_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRecordBytes:
    @given(
        seq=st.integers(0, 10**12),
        job=st.tuples(_finite, _finite, _finite, st.none() | _finite).map(list),
        dec=st.tuples(
            st.booleans(), st.none() | st.integers(0, 4096), st.none() | _finite
        ).map(list),
    )
    def test_decision_line_is_json_dumps_of_the_record(self, seq, job, dec):
        record = {"kind": "decision", "seq": seq, "job": job, "dec": dec,
                  "crc": decision_crc(seq, job, dec)}
        expected = json.dumps(record, allow_nan=False) + "\n"
        assert _decision_line(seq, job, dec) == expected

    def test_non_finite_payloads_are_refused(self):
        with pytest.raises(ValueError):
            _decision_line(0, [0.0, float("nan"), 1.0, None], [False, None, None])

    @given(
        seq=st.integers(0, 10**12),
        job=st.tuples(_finite, _finite, _finite, st.none() | _finite),
        dec=st.tuples(
            st.booleans(), st.none() | st.integers(0, 4096), st.none() | _finite
        ),
        as_numpy=st.booleans(),
    )
    @settings(deadline=None)  # each example creates and fsyncs a log
    def test_record_decision_writes_json_dumps_of_the_record(
        self, seq, job, dec, as_numpy
    ):
        if as_numpy:  # float subclasses whose repr() is not their JSON
            job = tuple(None if v is None else np.float64(v) for v in job)
            dec = (*dec[:2], None if dec[2] is None else np.float64(dec[2]))
        release, processing, deadline, weight = job
        record = {"kind": "decision", "seq": seq, "job": list(job),
                  "dec": list(dec), "crc": decision_crc(seq, list(job), list(dec))}
        expected = json.dumps(record, allow_nan=False) + "\n"
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl")
            journal = DecisionJournal.create(
                path, service_fingerprint("threshold", 2, 0.4)
            )
            journal.record_decision(
                seq,
                SimpleNamespace(release=release, processing=processing,
                                deadline=deadline, weight=weight),
                SimpleNamespace(accepted=dec[0], machine=dec[1], start=dec[2]),
            )
            journal.close()
            with open(path, encoding="utf-8") as fh:
                assert fh.readlines()[-1] == expected

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
    def test_record_decision_refuses_non_finite_numbers(self, tmp_path, bad):
        path = tmp_path / "log.jsonl"
        journal = DecisionJournal.create(path, service_fingerprint("threshold", 2, 0.4))
        header = path.read_bytes()
        job = SimpleNamespace(release=0.0, processing=bad, deadline=3.0, weight=None)
        accepted = SimpleNamespace(accepted=True, machine=0, start=0.0)
        with pytest.raises(ValueError):
            journal.record_decision(0, job, accepted)
        job = SimpleNamespace(release=0.0, processing=1.0, deadline=3.0, weight=None)
        with pytest.raises(ValueError):
            journal.record_decision(0, job, SimpleNamespace(
                accepted=True, machine=0, start=np.float64(bad)))
        journal.close()
        assert path.read_bytes() == header


class TestFailStop:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_disk_fails_the_commit_and_every_later_write(self):
        service = service_fingerprint("threshold", 2, 0.4)
        log = LogWriter(
            "/dev/full", open("/dev/full", "wb"), DecisionJournalError, "decision log"
        )
        journal = DecisionJournal(log, service)
        with pytest.raises(DecisionJournalError, match="commit failed.*No space"):
            journal.seal()
        with pytest.raises(DecisionJournalError, match="failed earlier"):
            journal.seal()
        journal.close()  # re-flushing the failed bytes fails again, quietly


class TestCrashRecovery:
    def test_truncated_tail_is_chopped_on_resume(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(12, 2, 0.4, seed=3)
        _, journal, service = _serve_instance(path, inst)
        journal.close()
        # hard kill mid-append: the last line is half-written
        data = path.read_bytes()
        path.write_bytes(data[:-17])
        resumed, state = DecisionJournal.resume(path, service)
        assert state.truncated_tail
        assert len(state.decisions) == 11  # the torn decision is re-served
        # the file itself was repaired: a fresh load sees no truncation
        resumed.close()
        assert not load_decision_journal(path).truncated_tail

    def test_a_seal_that_lost_its_newline_is_not_sealed(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(6, 2, 0.4, seed=7)
        _, journal, service = _serve_instance(path, inst)
        journal.seal()
        journal.close()
        truncate_tail(path)  # only the final newline goes
        state = load_decision_journal(path)
        assert not state.truncated_tail and not state.sealed
        assert len(state.decisions) == 6
        # A resume writes the missing newline and seals again.
        resumed, _ = DecisionJournal.resume(path, service)
        resumed.seal()
        resumed.close()
        assert load_decision_journal(path).sealed

    def test_resume_restores_identical_session(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = mmpp_instance(40, machines=2, epsilon=0.5, seed=4)
        session, journal, service = _serve_instance(path, inst)
        journal.close()
        _, state = DecisionJournal.resume(path, service)
        restored = state.restore_session(verify=True)
        assert restored.now == session.now
        assert restored.loads() == session.loads()
        assert [d.accepted for d in restored.decisions] == [
            d.accepted for d in session.decisions
        ]

    def test_resume_rejects_mismatched_service(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(5, 2, 0.4, seed=5)
        _, journal, _ = _serve_instance(path, inst)
        journal.close()
        other = service_fingerprint("greedy", 2, 0.4, name=inst.name)
        with pytest.raises(DecisionJournalError, match="different service"):
            DecisionJournal.resume(path, other)

    def test_resumed_journal_extends_the_same_stream(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(8, 2, 0.4, seed=6)
        session, journal, service = _serve_instance(path, inst)
        journal.close()
        resumed, state = DecisionJournal.resume(path, service)
        live = state.restore_session()
        job = live.jobs[-1]
        from repro.model.job import Job

        extra = Job(job.release + 1.0, 1.0, job.release + 3.0)
        decision = live.offer(extra)
        resumed.record_decision(len(state.decisions), live.jobs[-1], decision)
        resumed.seal()
        resumed.close()
        final = load_decision_journal(path)
        assert final.sealed and len(final.decisions) == 9


class TestTamperDetection:
    def _tamper(self, path, predicate, mutate):
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if predicate(record):
                lines[i] = json.dumps(mutate(record))
                break
        path.write_text("\n".join(lines) + "\n")

    def test_mid_file_bit_flip_is_detected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(10, 2, 0.4, seed=7)
        _, journal, _ = _serve_instance(path, inst)
        journal.seal()
        journal.close()

        def flip(record):
            record["dec"][0] = not record["dec"][0]
            return record

        self._tamper(path, lambda r: r.get("seq") == 3, flip)
        with pytest.raises(DecisionJournalError, match="CRC mismatch"):
            load_decision_journal(path)

    def test_reordered_decisions_break_the_sequence(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(6, 2, 0.4, seed=8)
        _, journal, _ = _serve_instance(path, inst)
        journal.close()
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DecisionJournalError, match="sequence broken"):
            load_decision_journal(path)

    def test_seal_detects_stream_tampering(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(6, 2, 0.4, seed=9)
        _, journal, _ = _serve_instance(path, inst)
        journal.seal()
        journal.close()
        # Rewrite a record *consistently* (payload + CRC) — only the
        # seal's stream hash can catch this class of tampering.
        from repro.serve.snapshotter import decision_crc

        def rewrite(record):
            record["job"][1] = record["job"][1] * 2.0
            record["crc"] = decision_crc(
                record["seq"], record["job"], record["dec"]
            )
            return record

        self._tamper(path, lambda r: r.get("seq") == 0, rewrite)
        with pytest.raises(DecisionJournalError, match="stream hash mismatch"):
            load_decision_journal(path)


class TestOfflineReplay:
    @pytest.mark.parametrize("algorithm, kwargs", [
        ("threshold", {}),
        ("greedy", {}),
        ("random-admission", {"rng": 17}),
    ])
    def test_served_log_replays_bit_identical(self, tmp_path, algorithm, kwargs):
        path = tmp_path / "log.jsonl"
        inst = mmpp_instance(60, machines=2, epsilon=0.5, seed=10)
        _, journal, _ = _serve_instance(path, inst, algorithm, **kwargs)
        journal.seal()
        journal.close()
        ok, detail = verify_decision_log(path)
        assert ok, detail
        assert "bit-identical" in detail

    def test_replay_returns_the_batch_schedule(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(20, 2, 0.4, seed=11)
        session, journal, _ = _serve_instance(path, inst)
        journal.close()
        schedule = replay_decision_log(path)
        assert schedule.to_json() == session.close().to_json()

    def test_divergent_log_fails_verification(self, tmp_path):
        path = tmp_path / "log.jsonl"
        inst = random_instance(10, 2, 0.4, seed=12)
        session = open_session(
            "threshold", machines=2, epsilon=0.4, name=inst.name
        )
        service = service_fingerprint(
            "threshold", 2, 0.4, name=inst.name
        )
        journal = DecisionJournal.create(path, service)
        for i, job in enumerate(inst.jobs):
            decision = session.offer(job)
            if i == 4:  # journal a lie: flip one decision
                from repro.engine.policy import Decision

                decision = (
                    Decision.reject() if decision.accepted
                    else Decision.accept(machine=0, start=job.release)
                )
            journal.record_decision(i, session.jobs[i], decision)
        journal.close()
        ok, detail = verify_decision_log(path)
        assert not ok and "diverged" in detail
