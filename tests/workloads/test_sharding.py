"""Sharded sweep execution: deterministic partition + journal merge.

The acceptance bar (ISSUE 4): a grid split into shards, executed
independently (each with its own stamped journal), then merged, must be
row-for-row bit-identical to the single-host resilient run; every cell
lands in exactly one shard; merge detects missing coverage, tolerates a
truncated trailing line, deduplicates overlapping journals, and refuses
fingerprint or shard-stamp mismatches loudly.
"""

import json
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.offline.cache import BracketCache
from repro.testing.chaos import truncate_tail
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.journal import (
    ROW_FIELDS,
    JournalError,
    JournalIntegrityError,
    JournalMismatchError,
    load_journal,
    row_crc,
    spec_fingerprint,
    verify_journal,
)
from repro.workloads.random_instances import random_instance
from repro.workloads.sharding import (
    ShardPlan,
    cell_cost,
    fingerprint_cell_seed,
    fingerprint_cells,
    merge_journals,
    shard_journal_paths,
)
from repro.workloads.sweep import SweepSpec


def _spec(base_seed: int = 5, **overrides) -> SweepSpec:
    defaults = dict(
        epsilons=[0.2, 0.5],
        machine_counts=[1, 2],
        algorithms=["greedy"],
        workload=partial(random_instance, 6),
        repetitions=2,
        base_seed=base_seed,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def _run_shard(spec, n, i, path, **policy_kwargs):
    return execute_sweep(
        spec,
        ExecutionPolicy(shards=n, shard_index=i, journal=path, **policy_kwargs),
    )


class TestShardPlan:
    @given(
        n_shards=st.integers(1, 8),
        n_eps=st.integers(1, 3),
        machines=st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
        reps=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_cell_lands_in_exactly_one_shard(
        self, n_shards, n_eps, machines, reps
    ):
        spec = _spec(
            epsilons=[round(0.1 * (i + 1), 3) for i in range(n_eps)],
            machine_counts=sorted(machines),
            repetitions=reps,
        )
        plan = ShardPlan.build(spec, n_shards)
        assert plan.n_shards == n_shards
        flattened = [cell for shard in plan.shards for cell in shard]
        assert sorted(flattened) == sorted(spec.cells())
        assert len(flattened) == len(set(flattened))

    def test_deterministic_and_fingerprint_bound(self):
        spec = _spec()
        assert ShardPlan.build(spec, 3) == ShardPlan.build(spec, 3)
        assert ShardPlan.build(spec, 3).fingerprint == spec_fingerprint(spec)
        # A structurally different spec partitions independently.
        other = ShardPlan.build(_spec(base_seed=6), 3)
        assert other.fingerprint != spec_fingerprint(spec)

    def test_shard_cells_keep_canonical_order(self):
        spec = _spec(machine_counts=[1, 2, 3], repetitions=3)
        plan = ShardPlan.build(spec, 4)
        canonical = {cell: i for i, cell in enumerate(spec.cells())}
        for k in range(plan.n_shards):
            indices = [canonical[c] for c in plan.cells_for(k)]
            assert indices == sorted(indices)

    def test_cost_balance(self):
        # Heterogeneous machine counts: LPT keeps max/mean cost low.
        spec = _spec(machine_counts=[1, 2, 4, 8], repetitions=3)
        plan = ShardPlan.build(spec, 4)
        assert plan.balance_ratio <= 4 / 3 + 1e-9
        assert sum(plan.costs()) == sum(cell_cost(*c) for c in spec.cells())

    def test_bad_arguments_rejected(self):
        spec = _spec()
        with pytest.raises(ValueError, match="n_shards"):
            ShardPlan.build(spec, 0)
        plan = ShardPlan.build(spec, 2)
        with pytest.raises(ValueError, match="out of range"):
            plan.cells_for(2)

    def test_fingerprint_cells_cover_the_grid(self):
        spec = _spec()
        fp = spec_fingerprint(spec)
        assert fingerprint_cells(fp) == list(spec.cells())
        for cell in spec.cells():
            assert fingerprint_cell_seed(fp, cell) == spec.cell_seed(*cell)


class TestShardedExecution:
    def test_four_shard_merge_bit_identical_to_single_host(self, tmp_path):
        spec = _spec()
        single = execute_sweep(spec, ExecutionPolicy(workers=2))
        paths = shard_journal_paths(tmp_path / "sweep.jsonl", 4)
        for i, path in enumerate(paths):
            result = _run_shard(spec, 4, i, path)
            assert result.complete
        merged = merge_journals(paths, out=tmp_path / "merged.jsonl")
        assert merged.complete
        assert merged.rows == single.rows
        assert merged.manifest.cells_completed == merged.manifest.cells_total
        assert merged.duplicates == 0 and merged.missing == []
        # Per-shard stats trailers surface as timing + straggler ratio.
        assert all(info.wall_seconds is not None for info in merged.shards)
        assert merged.straggler_ratio is not None
        # The merged journal loads, re-merges and equals the same rows —
        # and is itself sealed and checksummed like any shard journal.
        again = merge_journals([tmp_path / "merged.jsonl"])
        assert again.rows == single.rows
        assert verify_journal(tmp_path / "merged.jsonl").ok

    def test_shard_journals_carry_the_stamp(self, tmp_path):
        spec = _spec()
        path = tmp_path / "shard1.jsonl"
        _run_shard(spec, 3, 1, path)
        state = load_journal(path)
        assert state.shard == (1, 3)
        assert len(state.completed) == len(ShardPlan.build(spec, 3).cells_for(1))

    def test_merged_cache_stats_summed(self, tmp_path):
        spec = _spec()
        paths = shard_journal_paths(tmp_path / "sweep.jsonl", 2)
        for i, path in enumerate(paths):
            # One execution per cell: a speculative copy would count twice.
            _run_shard(
                spec, 2, i, path, cache=BracketCache(tmp_path / "cache"), speculate=False
            )
        merged = merge_journals(paths)
        assert merged.cache_stats is not None
        stats = merged.cache_stats
        assert stats["hits"] + stats["misses"] == merged.manifest.cells_total


class TestMergeCoverage:
    def test_missing_shard_reported(self, tmp_path):
        spec = _spec()
        paths = shard_journal_paths(tmp_path / "sweep.jsonl", 3)
        for i in (0, 2):
            _run_shard(spec, 3, i, paths[i])
        merged = merge_journals([paths[0], paths[2]])
        assert not merged.complete
        plan = ShardPlan.build(spec, 3)
        assert sorted(merged.missing) == sorted(plan.cells_for(1))
        assert "missing" in merged.coverage_report()

    def test_merged_journal_is_resumable_and_fills_holes(self, tmp_path):
        spec = _spec()
        paths = shard_journal_paths(tmp_path / "sweep.jsonl", 3)
        for i in (0, 2):
            _run_shard(spec, 3, i, paths[i])
        out = tmp_path / "merged.jsonl"
        merged = merge_journals([paths[0], paths[2]], out=out)
        assert not merged.complete
        resumed = execute_sweep(spec, ExecutionPolicy(journal=out, resume=True))
        assert resumed.complete
        assert resumed.rows == execute_sweep(spec).rows
        assert resumed.manifest.cells_replayed == merged.manifest.cells_completed

    def test_truncated_tail_counts_cell_as_missing(self, tmp_path):
        spec = _spec()
        paths = shard_journal_paths(tmp_path / "sweep.jsonl", 2)
        for i, path in enumerate(paths):
            _run_shard(spec, 2, i, path)
        # Chop the seal, the stats trailer and part of the final cell
        # record: the loader must tolerate the partial line and drop only
        # that cell.
        damaged = Path(paths[1])
        lines = damaged.read_bytes().rstrip(b"\n").split(b"\n")
        truncate_tail(damaged, len(lines[-1]) + len(lines[-2]) + 12)
        merged = merge_journals(paths)
        assert merged.shards[1].truncated_tail
        assert not merged.complete
        assert len(merged.missing) == 1
        assert "truncated tail" in merged.coverage_report()

    def test_overlapping_journals_deduplicated(self, tmp_path):
        spec = _spec()
        full = tmp_path / "full.jsonl"
        execute_sweep(spec, ExecutionPolicy(journal=full))
        shard0 = tmp_path / "shard0.jsonl"
        _run_shard(spec, 3, 0, shard0)
        merged = merge_journals([full, shard0])
        assert merged.complete
        assert merged.duplicates == len(ShardPlan.build(spec, 3).cells_for(0))
        assert merged.rows == execute_sweep(spec).rows

    def test_duplicate_shard_uploads_deduplicated(self, tmp_path):
        spec = _spec()
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _run_shard(spec, 2, 0, a)
        b.write_bytes(a.read_bytes())
        merged = merge_journals([a, b])
        assert merged.duplicates == len(ShardPlan.build(spec, 2).cells_for(0))
        assert not merged.complete  # shard 1 never ran


class TestMergeValidation:
    def test_fingerprint_mismatch_rejected(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        execute_sweep(_spec(base_seed=5), ExecutionPolicy(journal=a))
        execute_sweep(_spec(base_seed=6), ExecutionPolicy(journal=b))
        with pytest.raises(JournalMismatchError, match="base_seed"):
            merge_journals([a, b])
        with pytest.raises(JournalMismatchError, match="spec"):
            merge_journals([a], spec=_spec(base_seed=6))

    def test_conflicting_rows_rejected(self, tmp_path):
        # Both copies carry *valid* checksums yet different rows: genuinely
        # diverging runs, which no integrity level can arbitrate.
        spec = _spec()
        a = tmp_path / "a.jsonl"
        execute_sweep(spec, ExecutionPolicy(journal=a))
        records = [json.loads(line) for line in a.read_text().splitlines()]
        load_index = ROW_FIELDS.index("accepted_load")
        for record in records:
            if record["kind"] == "cell":
                record["rows"][0][load_index] += 1.0
                record["crc"] = row_crc(record["seed"], record["rows"])
                break
        b = tmp_path / "b.jsonl"
        b.write_text(
            "".join(json.dumps(r) + "\n" for r in records if r["kind"] != "seal")
        )
        with pytest.raises(JournalError, match="conflicting rows"):
            merge_journals([a, b])

    def test_merge_refuses_to_clobber_output(self, tmp_path):
        spec = _spec()
        a = tmp_path / "a.jsonl"
        execute_sweep(spec, ExecutionPolicy(journal=a))
        out = tmp_path / "merged.jsonl"
        out.write_text("not empty\n")
        with pytest.raises(JournalError, match="already exists"):
            merge_journals([a], out=out)

    def test_merge_needs_at_least_one_path(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_journals([])


class TestMergeIntegrity:
    """Overlapping shards disagreeing because one copy is corrupt.

    The checksummed copy must win, and the event must be reported — in
    ``MergeResult.corruption`` when the damage is CRC-detectable, in
    ``MergeResult.conflicts`` when the damaged copy predates checksums —
    never silently deduplicated.
    """

    @staticmethod
    def _tampered_copy(src, dest, *, strip_crcs):
        """Copy *src* with one cell's rows mutated (and no seal).

        With ``strip_crcs`` the copy looks like a pre-checksum journal
        whose damage is undetectable by CRC; without it the mutated
        record keeps its now-stale CRC, making the damage detectable.
        Returns the tampered cell's seed.
        """
        records = [json.loads(line) for line in src.read_text().splitlines()]
        load_index = ROW_FIELDS.index("accepted_load")
        tampered = None
        for record in records:
            if record["kind"] != "cell":
                continue
            if strip_crcs:
                del record["crc"]
            if tampered is None:
                record["rows"][0][load_index] += 1.0
                tampered = record["seed"]
                if not strip_crcs:
                    break
        dest.write_text(
            "".join(json.dumps(r) + "\n" for r in records if r["kind"] != "seal")
        )
        return tampered

    def test_crc_detectable_corruption_quarantined_and_reported(self, tmp_path):
        spec = _spec()
        a = tmp_path / "a.jsonl"
        execute_sweep(spec, ExecutionPolicy(journal=a))
        b = tmp_path / "b.jsonl"
        seed = self._tampered_copy(a, b, strip_crcs=False)
        reference = execute_sweep(spec).rows
        for order in ([a, b], [b, a]):
            merged = merge_journals(order)
            # The intact copy wins regardless of merge order ...
            assert merged.complete
            assert merged.rows == reference
            # ... and the quarantine is reported, not silently deduped.
            assert len(merged.corruption) == 1
            assert merged.corruption[0].quarantined_seeds == {seed}
            assert "corrupt record(s) quarantined" in merged.coverage_report()
        # Strict mode refuses the damaged input outright.
        with pytest.raises(JournalIntegrityError, match="checksum mismatch"):
            merge_journals([a, b], salvage=False)

    def test_verified_copy_beats_unchecksummed_divergent_copy(self, tmp_path):
        spec = _spec()
        a = tmp_path / "a.jsonl"
        execute_sweep(spec, ExecutionPolicy(journal=a))
        b = tmp_path / "b.jsonl"
        seed = self._tampered_copy(a, b, strip_crcs=True)
        reference = execute_sweep(spec).rows
        for order in ([a, b], [b, a]):
            merged = merge_journals(order)
            assert merged.complete
            assert merged.rows == reference
            assert [c.seed for c in merged.conflicts] == [seed]
            conflict = merged.conflicts[0]
            assert conflict.winner == str(a)
            assert conflict.winner_integrity == "verified"
            assert conflict.loser_integrity == "unknown"
            assert "conflict on cell" in merged.coverage_report()

    def test_merge_verify_requires_sealed_checksummed_inputs(self, tmp_path):
        spec = _spec()
        a = tmp_path / "a.jsonl"
        execute_sweep(spec, ExecutionPolicy(journal=a))
        merged = merge_journals([a], require_verified=True)
        assert merged.complete and merged.shards[0].sealed
        # An unsealed copy of the same journal is refused under --verify.
        unsealed = tmp_path / "unsealed.jsonl"
        unsealed.write_text(
            "".join(
                line + "\n"
                for line in a.read_text().splitlines()
                if json.loads(line)["kind"] != "seal"
            )
        )
        with pytest.raises(JournalIntegrityError, match="no final seal"):
            merge_journals([unsealed], require_verified=True)


class TestShardStampResume:
    def test_resume_with_wrong_shard_flags_fails_fast(self, tmp_path):
        spec = _spec()
        path = tmp_path / "shard.jsonl"
        _run_shard(spec, 3, 0, path)
        with pytest.raises(JournalError) as err:
            execute_sweep(
                spec,
                ExecutionPolicy(shards=4, shard_index=0, journal=path, resume=True),
            )
        message = str(err.value)
        assert "n_shards=3" in message and "n_shards=4" in message
        # Resuming it as an unsharded journal is equally wrong.
        with pytest.raises(JournalError, match="shard_index"):
            execute_sweep(spec, ExecutionPolicy(journal=path, resume=True))

    def test_resume_with_matching_flags_replays(self, tmp_path):
        spec = _spec()
        path = tmp_path / "shard.jsonl"
        first = _run_shard(spec, 3, 0, path)
        again = _run_shard(spec, 3, 0, path, resume=True)
        assert again.rows == first.rows
        assert again.manifest.cells_replayed == again.manifest.cells_total
        assert again.manifest.cells_completed == 0
