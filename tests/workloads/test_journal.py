"""Tests for the append-only sweep checkpoint journal."""

import errno
import json
import os
import shutil
from functools import partial
from pathlib import Path

import pytest

from repro.testing import bitflip, truncate_tail
from repro.utils.sealed_log import LogWriter
from repro.workloads.journal import (
    JournalError,
    JournalMismatchError,
    SweepJournal,
    load_journal,
    row_crc,
    row_from_payload,
    row_to_payload,
    salvage_journal,
    spec_fingerprint,
    verify_journal,
)
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.sweep import SweepSpec


def _spec(**overrides) -> SweepSpec:
    defaults = dict(
        epsilons=[0.3],
        machine_counts=[1],
        algorithms=["greedy"],
        workload=partial(random_instance, 6),
        repetitions=2,
        base_seed=5,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestRowSerialization:
    def test_bit_identical_roundtrip(self):
        rows = execute_sweep(_spec()).rows
        for row in rows:
            assert row_from_payload(row_to_payload(row)) == row

    def test_json_roundtrip_preserves_floats(self, tmp_path):
        import json

        rows = execute_sweep(_spec()).rows
        payloads = json.loads(json.dumps([row_to_payload(r) for r in rows]))
        assert [row_from_payload(p) for p in payloads] == rows

    def test_wrong_width_rejected(self):
        with pytest.raises(JournalError, match="fields"):
            row_from_payload([1, 2, 3])

    def test_decoded_rows_are_slotted_hashable_and_pickle(self):
        import json
        import pickle

        rows = execute_sweep(_spec(algorithms=["greedy", "threshold"])).rows
        decoded = [
            row_from_payload(p)
            for p in json.loads(json.dumps([row_to_payload(r) for r in rows]))
        ]
        assert not hasattr(decoded[0], "__dict__")
        assert decoded == rows and {hash(r) for r in decoded} == {hash(r) for r in rows}
        assert pickle.loads(pickle.dumps(decoded)) == rows
        # one string object per algorithm name, however many rows decode it
        assert len({id(r.algorithm) for r in decoded}) == 2


class TestJournalLifecycle:
    def test_create_record_load(self, tmp_path):
        spec = _spec()
        rows = execute_sweep(spec).rows
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.create(path, spec) as journal:
            for i, (eps, m, rep) in enumerate(spec.cells()):
                journal.record_cell(spec.cell_seed(eps, m, rep), eps, m, rep, [rows[i]])
        state = load_journal(path)
        assert state.fingerprint == spec_fingerprint(spec)
        assert not state.truncated_tail
        replayed = [r for cell in state.completed.values() for r in cell]
        assert sorted(replayed, key=lambda r: r.repetition) == rows

    def test_resume_validates_fingerprint(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        SweepJournal.create(path, spec).close()
        with pytest.raises(JournalMismatchError, match="base_seed"):
            SweepJournal.resume(path, _spec(base_seed=6))

    def test_resume_rejects_different_workload(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        SweepJournal.create(path, spec).close()
        other = _spec(workload=partial(random_instance, 7))
        with pytest.raises(JournalMismatchError, match="workload"):
            SweepJournal.resume(path, other)

    def test_truncated_tail_tolerated(self, tmp_path):
        spec = _spec()
        rows = execute_sweep(spec).rows
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.create(path, spec) as journal:
            cell = next(iter(spec.cells()))
            journal.record_cell(spec.cell_seed(*cell), *cell, [rows[0]])
        # Simulate a hard kill mid-append: a partial trailing record.
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "seed": 99, "rows": [[0.3')
        state = load_journal(path)
        assert state.truncated_tail
        assert len(state.completed) == 1

    def test_corrupt_middle_record_rejected(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        SweepJournal.create(path, spec).close()
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write('{"kind": "failure", "failure": {"seed": 1}}\n')
        with pytest.raises(JournalError, match="corrupt"):
            load_journal(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"kind": "failure", "failure": {"seed": 1}}\n')
        with pytest.raises(JournalError, match="no header"):
            load_journal(path)

    def test_unknown_kind_rejected(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        SweepJournal.create(path, spec).close()
        with open(path, "a") as fh:
            fh.write('{"kind": "mystery"}\n')
            fh.write('{"kind": "failure", "failure": {"seed": 1}}\n')
        with pytest.raises(JournalError, match="unknown journal record"):
            load_journal(path)

    def test_failure_record_roundtrip(self, tmp_path):
        # A failure's own "kind" (crash/timeout/...) must not shadow the
        # record kind — a journal with quarantined cells has to stay loadable.
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        failure = {
            "epsilon": 0.3,
            "machines": 1,
            "repetition": 0,
            "seed": 42,
            "attempts": 3,
            "kind": "crash",
            "detail": "worker process died with exit code -9",
            "history": ["crash: ...", "crash: ...", "crash: ..."],
        }
        with SweepJournal.create(path, spec) as journal:
            journal.record_failure(failure)
        state = load_journal(path)
        assert state.failures == [failure]
        assert not state.truncated_tail

    def test_create_refuses_existing_journal(self, tmp_path):
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        SweepJournal.create(path, spec).close()
        with pytest.raises(JournalError, match="already exists"):
            SweepJournal.create(path, spec)
        # The refusal must not have clobbered the original journal.
        assert load_journal(path).fingerprint == spec_fingerprint(spec)

    def test_create_accepts_empty_placeholder_file(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        path.touch()
        SweepJournal.create(path, _spec()).close()
        assert load_journal(path).fingerprint == spec_fingerprint(_spec())

    def test_resume_truncates_partial_tail_before_appending(self, tmp_path):
        # Appending onto a partial trailing line would glue the new record
        # to the fragment: the record silently vanishes and, once another
        # record follows, the merged line corrupts every later load.
        spec = _spec()
        rows = execute_sweep(spec).rows
        cells = list(spec.cells())
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.create(path, spec) as journal:
            journal.record_cell(spec.cell_seed(*cells[0]), *cells[0], [rows[0]])
        for _ in range(2):  # kill -> resume -> kill -> resume
            with open(path, "a") as fh:
                fh.write('{"kind": "cell", "seed": 99, "rows": [[0.3')
            journal, state = SweepJournal.resume(path, spec)
            assert state.truncated_tail
            with journal:
                journal.record_cell(spec.cell_seed(*cells[1]), *cells[1], [rows[1]])
            state = load_journal(path)
            assert not state.truncated_tail
            assert set(state.completed) == {spec.cell_seed(*c) for c in cells[:2]}

    def test_resume_drops_corrupt_final_line_with_newline(self, tmp_path):
        # A corrupt *complete* last line (kill after the newline of a partial
        # buffer flush) must also be chopped, or it ends up mid-file.
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        SweepJournal.create(path, spec).close()
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "seed": 99, "rows": [[0.3\n')
        journal, state = SweepJournal.resume(path, spec)
        assert state.truncated_tail
        journal.close()
        assert not load_journal(path).truncated_tail

    def test_fingerprint_is_address_free(self):
        # partial() reprs embed function addresses; the fingerprint must not.
        a = spec_fingerprint(_spec())
        b = spec_fingerprint(_spec())
        assert a == b
        assert "0x" not in str(a)


def _sealed_journal(tmp_path, name="sweep.jsonl"):
    """A sealed two-cell journal on disk, plus its spec and rows."""
    spec = _spec()
    rows = execute_sweep(spec).rows
    path = tmp_path / name
    cells = list(spec.cells())
    with SweepJournal.create(path, spec) as journal:
        for i, cell in enumerate(cells):
            journal.record_cell(spec.cell_seed(*cell), *cell, [rows[i]])
        journal.record_seal()
    return spec, rows, path


def _flip_rows_payload(path, line_index=1, seed=0):
    """Bit-flip inside the ``rows`` payload of one cell line; its seed.

    The range ends at the ``"crc"`` key: a flip in the key, the checksum
    or the ``prov`` after it can leave the cell intact.
    """
    lines = path.read_bytes().split(b"\n")
    offset = sum(len(l) + 1 for l in lines[:line_index])
    target = lines[line_index]
    rows_at = target.find(b'"rows"') + len(b'"rows"')
    crc_at = target.find(b'"crc"')
    bitflip(path, seed=seed, count=1, lo=offset + rows_at, hi=offset + crc_at)
    return json.loads(target)["seed"]


class TestIntegrity:
    def test_a_seal_that_lost_its_newline_does_not_verify(self, tmp_path):
        from repro.cli import main
        from repro.workloads.sharding import merge_journals

        spec, _, path = _sealed_journal(tmp_path)
        truncate_tail(path)  # only the final newline goes
        state = load_journal(path)
        assert not state.truncated_tail and not state.sealed
        assert set(state.completed) == {spec.cell_seed(*c) for c in spec.cells()}
        assert verify_journal(path).status == "unsealed"
        assert main(["verify", str(path)]) == 3
        with pytest.raises(JournalError, match="no final seal"):
            merge_journals([path], require_verified=True)
        # A resume writes the missing newline and seals again.
        journal, _ = SweepJournal.resume(path, spec)
        journal.record_seal()
        journal.close()
        assert verify_journal(path).ok

    def test_clean_sealed_journal_verifies(self, tmp_path):
        _, _, path = _sealed_journal(tmp_path)
        state = load_journal(path)
        assert state.sealed
        assert state.integrity == "verified"
        assert set(state.integrity_by_seed.values()) == {"verified"}
        verification = verify_journal(path)
        assert verification.ok and verification.status == "verified"

    def test_row_crc_stable_under_reformatting(self, tmp_path):
        # The CRC covers (seed, rows) canonically, so a journal that is
        # parsed and re-serialised differently still verifies.
        _, _, path = _sealed_journal(tmp_path)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        for record in records:
            if record["kind"] == "cell":
                roundtripped = json.loads(json.dumps(record, indent=2))
                assert record["crc"] == row_crc(
                    roundtripped["seed"], roundtripped["rows"]
                )

    def test_bitflip_detected_strict_and_quarantined_in_salvage(self, tmp_path):
        spec, _, path = _sealed_journal(tmp_path)
        damaged_seed = _flip_rows_payload(path)
        with pytest.raises(JournalError):  # crc-mismatch or unparsable
            load_journal(path)
        state = load_journal(path, salvage=True)
        assert state.integrity == "salvaged"
        assert state.corruption and len(state.corruption.events) >= 1
        # Only the damaged cell is lost; the other survives intact.
        intact = {spec.cell_seed(*c) for c in spec.cells()} - {damaged_seed}
        assert intact <= set(state.completed)
        assert damaged_seed not in state.completed
        assert verify_journal(path).status == "corrupt"

    def test_corrupt_midfile_line_recoverable_in_salvage_mode(self, tmp_path):
        # Satellite: mid-file garbage no longer makes the journal
        # unloadable — strict keeps today's fail-fast behaviour.
        _, _, path = _sealed_journal(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(2, "not json\n")
        path.write_text("".join(lines))
        with pytest.raises(JournalError, match="corrupt"):
            load_journal(path)
        state = load_journal(path, salvage=True)
        assert len(state.completed) == 2  # every real cell survives
        kinds = [e.kind for e in state.corruption.events]
        assert "unparsable" in kinds

    def test_salvage_journal_rewrites_clean_and_reseals(self, tmp_path):
        spec, _, path = _sealed_journal(tmp_path)
        damaged_seed = _flip_rows_payload(path)
        state, report = salvage_journal(path)
        assert report.quarantined_seeds <= {damaged_seed} or report.events
        # The rewritten journal is strict-loadable, sealed and verified.
        clean = load_journal(path)
        assert clean.sealed
        assert clean.seal["salvaged"] is True
        verification = verify_journal(path)
        assert verification.ok
        assert "salvaged" in verification.detail

    def test_pre_checksum_journal_loads_with_unknown_integrity(self, tmp_path):
        # Backward compatibility: journals written before the CRC/seal
        # existed load unchanged, just with integrity "unknown".
        _, rows, path = _sealed_journal(tmp_path)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        stripped = []
        for record in records:
            if record["kind"] == "seal":
                continue
            record.pop("crc", None)
            stripped.append(json.dumps(record) + "\n")
        path.write_text("".join(stripped))
        state = load_journal(path)
        assert not state.sealed
        assert state.integrity == "unknown"
        assert set(state.integrity_by_seed.values()) == {"unknown"}
        assert len(state.completed) == 2
        assert verify_journal(path).status == "unsealed"

    def test_append_after_seal_unseals_until_resealed(self, tmp_path):
        spec, _, path = _sealed_journal(tmp_path)
        journal, state = SweepJournal.resume(path, spec)
        assert state.sealed
        with journal:
            journal.record_stats({"wall_seconds": 0.0, "interrupted": False})
            assert not load_journal(path).sealed
            journal.record_seal()
        resealed = load_journal(path)
        assert resealed.sealed
        assert resealed.integrity == "verified"

    def test_resume_salvage_repairs_and_refills(self, tmp_path):
        # The end-to-end contract: a bit-flipped journal, resumed with
        # salvage, re-runs exactly the damaged cells and converges on the
        # same rows as an undamaged run.
        spec = _spec()
        path = tmp_path / "sweep.jsonl"
        reference = execute_sweep(
            spec, ExecutionPolicy(journal=path)
        ).rows
        _flip_rows_payload(path)
        # Depending on which byte the flip hits, strict resume fails as a
        # checksum mismatch (JournalIntegrityError) or an unparsable
        # record (JournalError) — either way it must not load silently.
        with pytest.raises(JournalError):
            execute_sweep(spec, ExecutionPolicy(journal=path, resume=True))
        result = execute_sweep(
            spec, ExecutionPolicy(journal=path, resume=True, salvage=True)
        )
        assert result.complete
        assert result.rows == reference
        assert result.manifest.cells_completed == 1  # only the damaged cell re-ran
        assert verify_journal(path).ok

    def test_salvage_policy_requires_resume(self):
        with pytest.raises(ValueError, match="salvage"):
            ExecutionPolicy(journal="x.jsonl", salvage=True)


class TestFailStop:
    """A failed commit raises, writes nothing more and leaves the journal
    unsealed and resumable."""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_disk_fails_the_commit_and_every_later_write(self):
        log = LogWriter("/dev/full", open("/dev/full", "wb"), JournalError, "journal")
        journal = SweepJournal(log, spec_fingerprint(_spec()))
        with pytest.raises(JournalError, match="journal commit failed.*No space"):
            journal.record_stats({"wall_seconds": 0.0})
        with pytest.raises(JournalError, match="failed earlier"):
            journal.record_seal()
        journal.close()  # re-flushing the failed bytes fails again, quietly

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_repro_sweep_on_a_full_disk_is_a_journal_error(self, capsys):
        from repro.cli import main

        argv = ["sweep", "--epsilons", "0.3", "--machines", "1", "--algorithms",
                "greedy", "--n", "6", "--repetitions", "2", "--no-cache",
                "--journal", "/dev/full"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /dev/full: journal commit failed: ")
        assert "No space" in err and "Traceback" not in err

    def test_a_failed_fsync_stops_the_lease_loop_and_resume_completes_it(
        self, tmp_path, monkeypatch
    ):
        # Enough cells that the sweep is not done after three commits: a
        # pass commits at most one 8-cell group lease of the one worker.
        spec = _spec(algorithms=["greedy", "threshold"], repetitions=32)
        path = tmp_path / "sweep.jsonl"
        fsyncs = []
        real_fsync = os.fsync

        def fsync(fd):  # the header and two passes reach the disk
            fsyncs.append(fd)
            if len(fsyncs) > 3:
                raise OSError(errno.EIO, "Input/output error")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with pytest.raises(JournalError, match="journal commit failed"):
            execute_sweep(spec, ExecutionPolicy(workers=1, journal=path))
        monkeypatch.setattr(os, "fsync", real_fsync)
        assert len(fsyncs) == 4  # nothing is written after the failed commit
        # Each pass commits at least one cell, and the failed commit's
        # lines were written before its fsync failed.
        verdict = verify_journal(path)
        assert verdict.status == "unsealed" and 3 <= verdict.cells <= 24
        assert verdict.state.stats == []  # no trailer after the failure
        resumed = execute_sweep(
            spec, ExecutionPolicy(workers=1, journal=path, resume=True)
        )
        assert resumed.manifest.cells_replayed == verdict.cells
        assert resumed.manifest.cells_completed == 32 - verdict.cells
        assert resumed.rows == execute_sweep(spec).rows
        assert verify_journal(path).ok


#: Interrupted journals written by the two schedulers the lease loop
#: replaced, from one spec (:func:`_golden_spec`) after 3 of its 8 cells.
GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def _golden_spec() -> SweepSpec:
    return SweepSpec(
        epsilons=[0.25, 0.5],
        machine_counts=[1, 2],
        algorithms=["threshold", "greedy"],
        workload=partial(random_instance, 6),
        repetitions=2,
        base_seed=41,
    )


class TestOlderSchedulerJournals:
    """Journals stay interchangeable across the scheduler change."""

    @pytest.mark.parametrize("scheduler", ["static", "elastic"])
    def test_lease_loop_resumes_to_serial_rows(self, tmp_path, scheduler):
        from repro.workloads.remote import SCHEDULER

        path = tmp_path / "journal.jsonl"
        shutil.copy(GOLDEN / f"journal_{scheduler}_interrupted.jsonl", path)
        spec = _golden_spec()
        resumed = execute_sweep(
            spec, ExecutionPolicy(workers=2, journal=path, resume=True)
        )
        assert resumed.rows == execute_sweep(spec).rows
        assert resumed.manifest.cells_replayed == 3
        state = load_journal(path)
        assert state.sealed and len(state.completed) == 8
        assert [s["scheduler"] for s in state.stats] == [scheduler, SCHEDULER]

    def test_merge_reads_each_scheduler_stamp(self, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads.sharding import merge_journals

        paths = []
        for scheduler in ("static", "elastic"):
            paths.append(tmp_path / f"{scheduler}.jsonl")
            shutil.copy(GOLDEN / f"journal_{scheduler}_interrupted.jsonl", paths[-1])
        merged = merge_journals(paths)
        assert [info.scheduler for info in merged.shards] == ["static", "elastic"]
        assert [info.workers for info in merged.shards] == [2, 2]
        assert merged.manifest.cells_completed == 3  # the same 3 cells twice
        assert main(["merge", *map(str, paths), "--no-table"]) == 4  # incomplete
        out = capsys.readouterr().out
        assert "static x2 workers" in out and "elastic x2 workers" in out
