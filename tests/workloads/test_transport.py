"""Verified journal transport: backends, retries, salvage, quarantine.

The acceptance bar (ISSUE 5): journals pulled through a flaky transport
must arrive bit-identical or be loudly salvaged — a corrupt shard
degrades coverage by exactly its damaged rows, the damaged cells refill
on resume, and the final merged dataset is byte-identical to an
unsharded run.  Chaos faults (``bitflip``, ``drop_transfer``) drive
every failure path deterministically.
"""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.testing import ChaosTransport, bitflip, drop_transfer
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.journal import SweepJournal, load_journal, verify_journal
from repro.workloads.random_instances import random_instance
from repro.workloads.sweep import SweepSpec
from repro.workloads.transport import (
    CommandTransport,
    LocalDirTransport,
    TransferPolicy,
    TransferTimeout,
    TransportError,
    collect_journals,
    decorrelated_delay,
    fetch_resumable,
    transfer_salt,
)


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


def _sealed_journal(tmp_path, name="shard.jsonl"):
    """A sealed journal written by a real (journaled) sweep run."""
    path = tmp_path / name
    execute_sweep(_spec(), ExecutionPolicy(journal=path))
    assert verify_journal(path).ok
    return path


def _flip_rows_payload(path):
    """Bit-flip inside the ``rows`` payload of the first cell line.

    The range ends at the ``"crc"`` key: a flip in the key, the checksum
    or the ``prov`` after it can leave the cell intact.
    """
    lines = Path(path).read_bytes().split(b"\n")
    offset = len(lines[0]) + 1
    rows_at = lines[1].find(b'"rows"') + len(b'"rows"')
    crc_at = lines[1].find(b'"crc"')
    bitflip(path, seed=0, count=1, lo=offset + rows_at, hi=offset + crc_at)
    return json.loads(lines[1])["seed"]


class TestTransferPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            TransferPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            TransferPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="timeout"):
            TransferPolicy(timeout=0.0)

    def test_backoff_doubles(self):
        policy = TransferPolicy(backoff=0.1, jitter=False)
        assert [policy.delay(a) for a in (1, 2, 3)] == [0.1, 0.2, 0.4]


class TestDecorrelatedJitter:
    """Seed-derived jitter: deterministic, spread, exponential-bounded."""

    def test_deterministic_under_fixed_seed(self):
        a = [decorrelated_delay(0.1, n, seed=7, salt=3) for n in (1, 2, 3)]
        b = [decorrelated_delay(0.1, n, seed=7, salt=3) for n in (1, 2, 3)]
        assert a == b

    def test_bounded_by_exponential_envelope(self):
        for attempt in (1, 2, 3, 4):
            full = 0.1 * 2 ** (attempt - 1)
            for salt in range(20):
                d = decorrelated_delay(0.1, attempt, seed=1, salt=salt)
                assert full / 2 <= d <= full

    def test_salts_decorrelate_concurrent_retriers(self):
        # N workers hammering the same flaky host must not synchronize
        # into a retry storm: distinct salts spread the delays.
        delays = {decorrelated_delay(1.0, 1, seed=42, salt=s) for s in range(16)}
        assert len(delays) == 16

    def test_zero_base_stays_zero(self):
        assert decorrelated_delay(0.0, 3, seed=1, salt=2) == 0.0

    def test_policy_delay_jitters_by_default(self):
        policy = TransferPolicy(backoff=0.1, jitter_seed=5)
        jittered = [policy.delay(a, salt=9) for a in (1, 2, 3)]
        assert jittered == [
            decorrelated_delay(0.1, a, seed=5, salt=9) for a in (1, 2, 3)
        ]
        assert jittered != [0.1, 0.2, 0.4]

    def test_transfer_salt_is_stable(self):
        assert transfer_salt("a", "b") == transfer_salt("a", "b")
        assert transfer_salt("a", "b") != transfer_salt("a", "c")


class TestLocalDirTransport:
    def test_fetch_copies_bit_identical(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_bytes(b"payload " * 1000)
        dest = tmp_path / "dest.jsonl"
        total = LocalDirTransport(chunk_size=64).fetch(str(src), dest)
        assert total == src.stat().st_size
        assert dest.read_bytes() == src.read_bytes()

    def test_fetch_resumes_from_offset(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_bytes(b"0123456789" * 100)
        dest = tmp_path / "dest.jsonl"
        dest.write_bytes(src.read_bytes()[:337])  # partial earlier pull
        LocalDirTransport().fetch(str(src), dest, offset=337)
        assert dest.read_bytes() == src.read_bytes()

    def test_missing_source_raises(self, tmp_path):
        with pytest.raises(TransportError, match="cannot open"):
            LocalDirTransport().fetch(str(tmp_path / "nope"), tmp_path / "d")


class TestCommandTransport:
    def test_template_must_have_placeholders(self):
        with pytest.raises(ValueError, match="placeholder"):
            CommandTransport("scp host:journal.jsonl inbox/")

    def test_fetch_via_command(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_bytes(b"hello journal\n")
        dest = tmp_path / "dest.jsonl"
        CommandTransport("cp {source} {dest}").fetch(str(src), dest)
        assert dest.read_bytes() == src.read_bytes()

    def test_failing_command_raises(self, tmp_path):
        transport = CommandTransport("cp {source}.does-not-exist {dest}")
        with pytest.raises(TransportError, match="exited"):
            transport.fetch(str(tmp_path / "src"), tmp_path / "dest")

    def test_command_timeout(self, tmp_path):
        transport = CommandTransport("sh -c 'sleep 2' {source} {dest}")
        with pytest.raises(TransferTimeout):
            transport.fetch(str(tmp_path / "src"), tmp_path / "dest", timeout=0.1)

    def test_stale_partial_never_survives(self, tmp_path):
        # A command owns the whole file: an old partial must not be able
        # to masquerade as the result of the new pull.
        src = tmp_path / "src.jsonl"
        src.write_bytes(b"fresh\n")
        dest = tmp_path / "dest.jsonl"
        dest.write_bytes(b"stale partial bytes")
        CommandTransport("cp {source} {dest}").fetch(str(src), dest)
        assert dest.read_bytes() == b"fresh\n"


class TestFetchResumable:
    def test_dropped_transfers_resume_from_offset(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_bytes(b"x" * 4096 + b"end\n")
        dest = tmp_path / "dest.jsonl"
        flaky = ChaosTransport(LocalDirTransport(), faults=["drop", "drop"])
        delays = []
        attempts = fetch_resumable(
            flaky, str(src), dest, TransferPolicy(retries=2), sleep=delays.append
        )
        assert attempts == 3
        assert dest.read_bytes() == src.read_bytes()
        # Jittered but deterministic: the exact delays replay from the
        # policy seed and the (source, dest) salt, inside the
        # exponential envelope.
        salt = transfer_salt(str(src), dest)
        policy = TransferPolicy(retries=2)
        assert delays == [policy.delay(1, salt), policy.delay(2, salt)]
        assert 0.125 <= delays[0] <= 0.25
        assert 0.25 <= delays[1] <= 0.5

    def test_exhausted_retries_raise_last_error(self, tmp_path):
        src = tmp_path / "src.jsonl"
        src.write_bytes(b"data\n")
        dead = ChaosTransport(LocalDirTransport(), faults=["fail"] * 5)
        with pytest.raises(TransportError, match="injected"):
            fetch_resumable(
                dead, str(src), tmp_path / "d", TransferPolicy(retries=2),
                sleep=lambda _: None,
            )


class TestCollectJournals:
    def test_clean_collection_verifies_and_lands_atomically(self, tmp_path):
        src = _sealed_journal(tmp_path)
        inbox = tmp_path / "inbox"
        result = collect_journals([str(src)], inbox)
        assert result.ok and not result.degraded
        (record,) = result.records
        assert record.status == "verified"
        assert Path(record.dest).read_bytes() == src.read_bytes()
        assert not list((inbox / ".staging").glob("*"))  # nothing left behind
        assert "1 verified" in result.summary()

    def test_transient_corruption_repulled_clean(self, tmp_path):
        # First pull delivers flipped bits; the re-pull succeeds, so the
        # inbox copy is verified and bit-identical — no salvage needed.
        src = _sealed_journal(tmp_path)
        inbox = tmp_path / "inbox"
        flaky = ChaosTransport(LocalDirTransport(), faults=["bitflip"])
        result = collect_journals(
            [str(src)], inbox, transport=flaky, sleep=lambda _: None
        )
        (record,) = result.records
        assert record.status == "verified"
        assert Path(record.dest).read_bytes() == src.read_bytes()

    def test_persistent_corruption_salvaged_and_quarantined(self, tmp_path):
        # The source itself is damaged: every re-pull arrives corrupt, so
        # the intact rows are salvaged and the original quarantined.
        src = _sealed_journal(tmp_path)
        damaged_seed = _flip_rows_payload(src)
        inbox = tmp_path / "inbox"
        result = collect_journals([str(src)], inbox, sleep=lambda _: None)
        (record,) = result.records
        assert record.status == "salvaged"
        assert record.corruption is not None
        # The damaged original is preserved for forensics ...
        quarantined = inbox / "quarantine" / src.name
        assert quarantined.read_bytes() == src.read_bytes()
        # ... the salvaged inbox copy verifies and misses only that cell
        landed = verify_journal(record.dest)
        assert landed.ok
        state = load_journal(record.dest)
        assert damaged_seed not in state.completed
        # ... and the structured sidecar names every quarantined row.
        sidecar = json.loads(Path(str(record.dest) + ".corruption.json").read_text())
        assert sidecar["source"] == str(src)
        assert sidecar["events"]

    def test_persistent_corruption_without_salvage_fails(self, tmp_path):
        src = _sealed_journal(tmp_path)
        _flip_rows_payload(src)
        inbox = tmp_path / "inbox"
        result = collect_journals(
            [str(src)], inbox, salvage=False, sleep=lambda _: None
        )
        (record,) = result.records
        assert record.status == "failed"
        assert "persistently corrupt" in record.detail
        assert not (inbox / src.name).exists()

    def test_non_journal_is_quarantined_whole(self, tmp_path):
        src = tmp_path / "garbage.jsonl"
        src.write_text("this was never a journal\n")
        inbox = tmp_path / "inbox"
        result = collect_journals([str(src)], inbox, sleep=lambda _: None)
        (record,) = result.records
        assert record.status == "quarantined"
        assert (inbox / "quarantine" / "garbage.jsonl").exists()
        assert not (inbox / "garbage.jsonl").exists()

    def test_unreachable_source_reports_failed(self, tmp_path):
        result = collect_journals(
            [str(tmp_path / "missing.jsonl")], tmp_path / "inbox",
            policy=TransferPolicy(retries=1), sleep=lambda _: None,
        )
        (record,) = result.records
        assert record.status == "failed" and not record.ok

    def test_verify_off_is_pull_only(self, tmp_path):
        src = tmp_path / "raw.jsonl"
        src.write_text("anything at all\n")
        result = collect_journals([str(src)], tmp_path / "inbox", verify=False)
        (record,) = result.records
        assert record.status == "unsealed"
        assert Path(record.dest).read_bytes() == src.read_bytes()


class TestChaosFaults:
    def test_bitflip_is_deterministic_and_bounded(self, tmp_path):
        path = tmp_path / "f.bin"
        original = bytes(range(256)) * 4
        path.write_bytes(original)
        offsets = bitflip(path, seed=7, count=3, lo=100, hi=200)
        assert len(offsets) == 3 and all(100 <= o < 200 for o in offsets)
        flipped = path.read_bytes()
        assert len(flipped) == len(original)
        assert {i for i in range(len(original)) if flipped[i] != original[i]} == set(
            offsets
        )
        # Same seed on the same bytes flips the same offsets.
        path.write_bytes(original)
        assert bitflip(path, seed=7, count=3, lo=100, hi=200) == offsets

    def test_drop_transfer_truncates_midstream(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"z" * 1000)
        new_size = drop_transfer(path, seed=3)
        assert 0 < new_size < 1000
        assert path.stat().st_size == new_size


class TestEndToEndDemo:
    """ISSUE 5 acceptance: bitflip one shard of three, collect, salvage,
    resume, and the final merged CSV is byte-identical to the unsharded
    run; ``repro verify`` exits non-zero on the tampered journal and zero
    after repair."""

    def test_full_pipeline_byte_identical(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        base = [
            "sweep", "--epsilons", "0.25,0.5", "--machines", "1,2",
            "--algorithms", "greedy", "--n", "6", "--repetitions", "1",
            "--seed", "7", "--no-cache",
        ]
        shards = [f"shard{i}.jsonl" for i in range(3)]
        for i, shard in enumerate(shards):
            assert main(base + ["--shards", "3", "--shard-index", str(i),
                                "--journal", shard]) == 0
        assert main(["verify", *shards]) == 0

        damaged_seed = _flip_rows_payload(tmp_path / shards[1])
        assert main(["verify", shards[1]]) == 1  # non-zero on tampering

        assert main(["collect", *sum((["--from", s] for s in shards), []),
                     "--inbox", "inbox", "--backoff", "0"]) == 4  # degraded
        assert main(["verify", "inbox/" + shards[1]]) == 0  # zero after repair
        state = load_journal(tmp_path / "inbox" / shards[1])
        assert damaged_seed not in state.completed  # exactly the damaged rows

        inbox_shards = ["inbox/" + s for s in shards]
        assert main(["merge", *inbox_shards, "--out", "merged.jsonl",
                     "--no-table"]) == 4  # coverage hole reported
        assert main(base + ["--resume", "merged.jsonl", "--csv",
                            "merged.csv"]) == 0  # refilled
        assert main(base + ["--csv", "reference.csv"]) == 0
        assert (tmp_path / "merged.csv").read_bytes() == (
            tmp_path / "reference.csv"
        ).read_bytes()
        # The refilled merged journal now verifies end to end, and the
        # salvaged inbox (sealed, checksummed) passes the --verify gate —
        # its coverage hole is reported as degraded, not hidden.
        assert main(["verify", "merged.jsonl"]) == 0
        assert main(["merge", *inbox_shards, "--verify"]) == 4
