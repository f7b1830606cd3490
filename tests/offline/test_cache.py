"""Tests for the content-addressed offline bracket cache."""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import tempfile
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.offline.cache as cache_mod
from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.bracket import OptBracket, opt_bracket
from repro.offline.cache import (
    BracketCache,
    BracketCacheWarning,
    MEMORY_ONLY,
    bracket_key,
    cached_opt_bracket,
    instance_fingerprint,
)
from repro.testing.chaos import corrupt_file
from repro.workloads import random_instance


def _instance(seed=3, n=8, m=2, eps=0.2):
    return random_instance(n, m, eps, seed=seed)


# ----------------------------------------------------------------------
# Fingerprint / key semantics
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_job_order_is_irrelevant(self):
        # valid instances keep releases non-decreasing, so permutations
        # arise among simultaneous releases (submission-order ties)
        jobs = [Job(0.0, 1.0, 3.0), Job(0.0, 2.0, 5.0), Job(0.0, 3.0, 7.0)]
        inst = Instance(jobs, machines=2, epsilon=0.5)
        permuted = Instance(list(reversed(jobs)), machines=2, epsilon=0.5)
        assert instance_fingerprint(inst) == instance_fingerprint(permuted)

    def test_name_meta_epsilon_are_irrelevant(self):
        inst = _instance()
        relabeled = Instance(
            inst.jobs,
            machines=inst.machines,
            epsilon=min(1.0, inst.epsilon / 2),
            name="other",
            meta={"origin": "elsewhere"},
        )
        assert instance_fingerprint(inst) == instance_fingerprint(relabeled)

    def test_content_changes_the_fingerprint(self):
        inst = _instance()
        more_machines = Instance(
            inst.jobs, machines=inst.machines + 1, epsilon=inst.epsilon
        )
        assert instance_fingerprint(inst) != instance_fingerprint(more_machines)
        jobs = list(inst.jobs)
        jobs[0] = Job(jobs[0].release, jobs[0].processing * 2, jobs[0].deadline * 2)
        perturbed = Instance(jobs, machines=inst.machines, epsilon=inst.epsilon)
        assert instance_fingerprint(inst) != instance_fingerprint(perturbed)

    def test_key_depends_on_solver_inputs(self):
        inst = _instance()
        base = bracket_key(inst)
        assert bracket_key(inst, exact_limit=5) != base
        assert bracket_key(inst, force_bounds=True) != base

    def test_key_depends_on_cache_version(self, monkeypatch):
        inst = _instance()
        base = bracket_key(inst)
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", cache_mod.CACHE_VERSION + 1)
        assert bracket_key(inst) != base


# ----------------------------------------------------------------------
# Basic two-tier behaviour
# ----------------------------------------------------------------------


class TestBracketCache:
    def test_miss_then_memory_hit(self, tmp_path):
        cache = BracketCache(tmp_path)
        inst = _instance()
        first = cache.bracket(inst)
        second = cache.bracket(inst)
        assert first == second == opt_bracket(inst)
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.writes == 1

    def test_disk_hit_across_cache_objects(self, tmp_path):
        inst = _instance()
        BracketCache(tmp_path).bracket(inst)
        fresh = BracketCache(tmp_path)
        assert fresh.bracket(inst) == opt_bracket(inst)
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.misses == 0

    def test_one_log_layout(self, tmp_path):
        cache = BracketCache(tmp_path)
        instances = [_instance(seed=s) for s in range(3)]
        brackets = [cache.bracket(inst) for inst in instances]
        assert cache.log_path == tmp_path / f"brackets-v{cache_mod.CACHE_VERSION}.jsonl"
        assert [p.name for p in tmp_path.iterdir()] == [cache.log_path.name]
        records = [json.loads(line) for line in cache.log_path.read_text().splitlines()]
        assert [sorted(r) for r in records] == [["crc", "exact", "key", "lower", "upper"]] * 3
        assert [r["key"] for r in records] == [bracket_key(inst) for inst in instances]
        assert [(r["lower"], r["upper"], r["exact"]) for r in records] == [
            (b.lower, b.upper, b.exact) for b in brackets
        ]

    def test_permuted_instance_hits(self, tmp_path):
        cache = BracketCache(tmp_path)
        jobs = [Job(0.0, 1.0, 3.0), Job(0.0, 2.0, 5.0), Job(1.0, 1.5, 5.0)]
        inst = Instance(jobs, machines=2, epsilon=0.5)
        cache.bracket(inst)
        permuted = Instance(
            [jobs[1], jobs[0], jobs[2]], machines=2, epsilon=0.5, name="permuted"
        )
        assert cache.bracket(permuted) == opt_bracket(inst)
        assert cache.stats.hits == 1

    def test_memory_only_mode(self):
        cache = BracketCache(MEMORY_ONLY)
        inst = _instance()
        cache.bracket(inst)
        cache.bracket(inst)
        assert cache.memory_only and cache.cache_dir is None
        assert cache.stats.memory_hits == 1 and cache.stats.writes == 0
        with pytest.raises(ValueError):
            cache.log_path
        with cache.batch():
            cache.bracket(_instance(seed=4))
        assert cache.stats.writes == 0

    def test_clear_and_scan(self, tmp_path):
        cache = BracketCache(tmp_path)
        for seed in range(3):
            cache.bracket(_instance(seed=seed))
        cache.put(_instance(seed=0), cache.bracket(_instance(seed=0)))  # a duplicate line
        report = cache.scan()
        assert (report.entries, report.corrupt, report.old_entries) == (3, 0, 0)
        assert report.total_bytes == cache.log_path.stat().st_size > 0
        assert cache.clear() == 3
        assert cache.scan().entries == 0
        assert not cache.log_path.exists()
        # cleared means recompute, not a stale hit
        cache.bracket(_instance(seed=0))
        assert cache.stats.misses >= 4

    def test_lru_eviction(self):
        cache = BracketCache(MEMORY_ONLY, max_memory_entries=2)
        instances = [_instance(seed=s, n=4) for s in range(3)]
        for inst in instances:
            cache.bracket(inst)
        assert cache.stats.evictions == 1
        # the evicted (oldest) entry is gone from the memory tier
        assert cache.get(instances[0]) is None
        assert cache.get(instances[2]) is not None

    def test_evicted_entry_survives_on_disk(self, tmp_path):
        cache = BracketCache(tmp_path, max_memory_entries=1)
        a, b = _instance(seed=1, n=4), _instance(seed=2, n=4)
        cache.bracket(a)
        cache.bracket(b)  # evicts a from memory, not from disk
        assert cache.stats.evictions == 1
        assert cache.bracket(a) == opt_bracket(a)
        assert cache.stats.disk_hits == 1

    def test_pickle_ships_configuration_only(self, tmp_path):
        cache = BracketCache(tmp_path, max_memory_entries=7)
        inst = _instance()
        cache.bracket(inst)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.cache_dir == cache.cache_dir
        assert clone.max_memory_entries == 7
        assert clone.stats.lookups == 0  # fresh stats
        clone.bracket(inst)  # shared disk tier
        assert clone.stats.disk_hits == 1

    def test_cached_opt_bracket_passthrough(self):
        inst = _instance()
        assert cached_opt_bracket(inst) == opt_bracket(inst)
        assert cached_opt_bracket(inst, force_bounds=True) == opt_bracket(
            inst, force_bounds=True
        )


# ----------------------------------------------------------------------
# Property: a cached bracket is bit-identical to a fresh solve
# ----------------------------------------------------------------------


@st.composite
def small_instances(draw):
    eps = draw(st.floats(min_value=0.05, max_value=1.0))
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=8))
    jobs = []
    t = 0.0
    for _ in range(n):
        # frequent zero-increments create simultaneous releases, whose
        # submission order is the only freedom valid instances have
        t += draw(st.sampled_from((0.0, 0.0, 0.5, 1.25)))
        p = draw(st.floats(min_value=0.05, max_value=4.0))
        extra = draw(st.floats(min_value=0.0, max_value=3.0))
        jobs.append(Job(t, p, t + (1.0 + eps + extra) * p))
    return Instance(jobs, machines=m, epsilon=eps)


@settings(max_examples=25, deadline=None)
@given(inst=small_instances(), perm_seed=st.integers(min_value=0, max_value=2**31))
def test_cached_bracket_bit_identical(inst, perm_seed):
    """Disk round-trip + tie permutation never changes a single bit."""
    import random

    fresh = opt_bracket(inst)
    with tempfile.TemporaryDirectory() as tmp:
        BracketCache(tmp).bracket(inst)
        jobs = list(inst.jobs)
        random.Random(perm_seed).shuffle(jobs)
        jobs.sort(key=lambda j: j.release)  # stable: ties keep shuffled order
        permuted = Instance(
            jobs, machines=inst.machines, epsilon=inst.epsilon, name="permuted"
        )
        reader = BracketCache(tmp)
        cached = reader.bracket(permuted)
        assert reader.stats.disk_hits == 1 and reader.stats.misses == 0
    assert cached.lower == fresh.lower
    assert cached.upper == fresh.upper
    assert cached.exact == fresh.exact


# ----------------------------------------------------------------------
# Robustness: corruption, version bumps, unusable directories
# ----------------------------------------------------------------------


def _log_lines(cache: BracketCache) -> list[bytes]:
    return cache.log_path.read_bytes().splitlines(keepends=True)


class TestRobustness:
    @pytest.mark.parametrize("damage_seed", [0, 1, 2, 3, 4, 5])
    def test_corrupt_entry_is_a_counted_miss(self, tmp_path, damage_seed):
        cache = BracketCache(tmp_path)
        inst = _instance()
        expected = cache.bracket(inst)
        corrupt_file(cache.log_path, seed=damage_seed)
        reader = BracketCache(tmp_path)
        with pytest.warns(BracketCacheWarning):
            recovered = reader.bracket(inst)
        assert recovered == expected
        assert reader.stats.corrupt == 1
        assert reader.stats.misses == 1
        assert reader.stats.writes == 1  # appended again after the recompute
        # the appended entry is healthy; the damaged line stays skipped
        healthy = BracketCache(tmp_path)
        with pytest.warns(BracketCacheWarning):
            assert healthy.bracket(inst) == expected
        assert healthy.stats.disk_hits == 1 and healthy.stats.corrupt == 1

    def test_one_changed_digit_fails_the_crc(self, tmp_path):
        cache = BracketCache(tmp_path)
        inst = _instance()
        expected = cache.bracket(inst)
        text = cache.log_path.read_text()
        digit = repr(json.loads(text)["lower"])[0]
        other = "1" if digit != "1" else "2"
        cache.log_path.write_text(text.replace(f'"lower": {digit}', f'"lower": {other}', 1))
        assert json.loads(cache.log_path.read_text())["lower"] != expected.lower
        reader = BracketCache(tmp_path)
        with pytest.warns(BracketCacheWarning):
            assert reader.bracket(inst) == expected
        assert (reader.stats.corrupt, reader.stats.misses, reader.stats.hits) == (1, 1, 0)

    @pytest.mark.parametrize("damage", ["torn-tail", "garbage", "wrong-shape", "huge-int"])
    def test_each_bad_line_is_one_counted_miss(self, tmp_path, damage):
        cache = BracketCache(tmp_path)
        instances = [_instance(seed=s, n=6) for s in range(3)]
        expected = [cache.bracket(inst) for inst in instances]
        lines = _log_lines(cache)
        victim = 2 if damage == "torn-tail" else 1
        if damage == "torn-tail":
            lines[victim] = lines[victim][: len(lines[victim]) // 2]
        elif damage == "garbage":
            lines[victim] = b"\x93\xff{not json at all\n"
        elif damage == "wrong-shape":
            lines[victim] = b'{"not": "a bracket"}\n'
        else:  # too large for a float: must not raise OverflowError
            record = json.loads(lines[victim])
            record["lower"] = record["upper"] = 10**400
            lines[victim] = (json.dumps(record) + "\n").encode()
        cache.log_path.write_bytes(b"".join(lines))

        reader = BracketCache(tmp_path)
        with pytest.warns(BracketCacheWarning):
            assert [reader.bracket(inst) for inst in instances] == expected
        assert reader.stats.corrupt == 1
        assert (reader.stats.disk_hits, reader.stats.misses, reader.stats.writes) == (2, 1, 1)
        # a torn tail is completed with a newline before the append
        assert all(line.endswith(b"\n") for line in _log_lines(cache))

        later = BracketCache(tmp_path)
        with pytest.warns(BracketCacheWarning):
            assert [later.bracket(inst) for inst in instances] == expected
        assert (later.stats.disk_hits, later.stats.misses, later.stats.corrupt) == (3, 0, 1)

    def test_all_damage_modes_covered(self):
        # the seeds used above exercise every corrupt_file damage mode
        with tempfile.TemporaryDirectory() as tmp:
            seen = set()
            for seed in range(6):
                path = f"{tmp}/victim.json"
                with open(path, "w") as fh:
                    fh.write('{"version": 1}')
                seen.add(corrupt_file(path, seed=seed))
        assert seen == {"truncate", "garbage", "wrong-shape"}

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = BracketCache(tmp_path)
        inst = _instance()
        cache.bracket(inst)
        monkeypatch.setattr(cache_mod, "CACHE_VERSION", cache_mod.CACHE_VERSION + 1)
        bumped = BracketCache(tmp_path)
        assert bumped.bracket(inst) == opt_bracket(inst)
        # the old entry is simply unaddressed: a clean miss, no warning
        assert bumped.stats.misses == 1
        assert bumped.stats.corrupt == 0

    def test_non_finite_entry_rejected(self, tmp_path):
        cache = BracketCache(tmp_path)
        inst = _instance()
        expected = cache.bracket(inst)
        record = json.loads(cache.log_path.read_text())
        record["upper"] = float("inf")
        cache.log_path.write_text(json.dumps(record) + "\n")  # an Infinity literal
        reader = BracketCache(tmp_path)
        with pytest.warns(BracketCacheWarning):
            assert reader.bracket(inst) == expected
        assert reader.stats.corrupt == 1

    def test_old_layout_is_ignored_counted_and_cleared(self, tmp_path):
        inst = _instance()
        key = bracket_key(inst)
        bracket = opt_bracket(inst)
        old = tmp_path / key[:2] / f"{key[2:]}.json"
        old.parent.mkdir()
        old.write_text(json.dumps({
            "version": 3, "key": key, "lower": bracket.lower,
            "upper": bracket.upper, "exact": bracket.exact,
        }))
        cache = BracketCache(tmp_path)
        assert cache.get(inst) is None
        assert (cache.stats.misses, cache.stats.corrupt) == (1, 0)
        report = cache.scan()
        assert (report.entries, report.old_entries) == (0, 1)
        assert cache.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_unusable_directory_degrades_to_passthrough(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        cache = BracketCache(blocker / "cache")
        inst = _instance()
        assert cache.bracket(inst) == opt_bracket(inst)
        assert cache.stats.io_errors >= 1
        assert cache.stats.misses == 1


# ----------------------------------------------------------------------
# Concurrency: racing writers on a shared directory
# ----------------------------------------------------------------------


def _race_worker(cache_dir: str) -> dict:
    cache = BracketCache(cache_dir)
    brackets = [cache.bracket(_instance(seed=s, n=6)) for s in range(4)]
    return {
        "brackets": [(b.lower, b.upper, b.exact) for b in brackets],
        "stats": cache.stats.as_dict(),
    }


class TestConcurrentWriters:
    def test_racing_writers_agree(self, tmp_path):
        with multiprocessing.Pool(4) as pool:
            results = pool.map(_race_worker, [str(tmp_path)] * 4)
        assert len({tuple(r["brackets"]) for r in results}) == 1
        expected = [
            (b.lower, b.upper, b.exact)
            for b in (opt_bracket(_instance(seed=s, n=6)) for s in range(4))
        ]
        assert results[0]["brackets"] == expected
        # no worker ever saw corruption or an IO failure
        assert all(r["stats"]["corrupt"] == 0 for r in results)
        assert all(r["stats"]["io_errors"] == 0 for r in results)
        # the surviving entries are healthy, and no line interleaved
        verifier = BracketCache(tmp_path)
        for s in range(4):
            verifier.bracket(_instance(seed=s, n=6))
        assert verifier.stats.disk_hits == 4
        assert (verifier.scan().entries, verifier.scan().corrupt) == (4, 0)


def _synthetic(i: int) -> tuple[Instance, OptBracket]:
    """A distinct instance per *i* and an arbitrary bracket to store."""
    inst = Instance([Job(0.0, 1.0, 2.0 + i)], machines=1, epsilon=1.0)
    return inst, OptBracket(lower=i / 7, upper=i / 7 + 1.0, exact=i % 2 == 0)


def _append_worker(cache_dir: str, worker: int, start) -> None:
    cache = BracketCache(cache_dir)
    start.wait(30)
    i = worker * 1000
    for size in [1, 3, 120, 2, 1, 7, 60, 5, 1] * 2:  # up to ~20 KB per append
        with cache.batch():
            for _ in range(size):
                cache.put(*_synthetic(i))
                i += 1


def _fd_targets() -> set[str]:
    fds = "/proc/self/fd"
    targets = set()
    for fd in os.listdir(fds):
        try:
            targets.add(os.readlink(os.path.join(fds, fd)))
        except OSError:
            pass  # the listing's own descriptor
    return targets


class TestSharedLog:
    def test_concurrent_appends_never_interleave(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        start = ctx.Event()
        workers = [
            ctx.Process(target=_append_worker, args=(str(tmp_path), w, start))
            for w in range(4)
        ]
        for process in workers:
            process.start()
        start.set()
        for process in workers:
            process.join(60)
        assert [p.exitcode for p in workers] == [0] * 4
        per_worker = 2 * (1 + 3 + 120 + 2 + 1 + 7 + 60 + 5 + 1)
        report = BracketCache(tmp_path).scan()
        assert (report.entries, report.corrupt) == (4 * per_worker, 0)
        reader = BracketCache(tmp_path)
        for w in range(4):
            for i in range(w * 1000, w * 1000 + per_worker):
                inst, bracket = _synthetic(i)
                assert reader.get(inst) == bracket

    def test_forked_child_appends_through_its_own_descriptor(self, tmp_path):
        cache = BracketCache(tmp_path)
        cache.put(*_synthetic(0))
        assert str(cache.log_path) not in _fd_targets()  # nothing to inherit
        child = multiprocessing.get_context("fork").Process(
            target=cache.put, args=_synthetic(1)
        )
        child.start()
        child.join(30)
        assert child.exitcode == 0
        cache.put(*_synthetic(2))
        reader = BracketCache(tmp_path)
        assert [reader.get(_synthetic(i)[0]) for i in range(3)] == [
            _synthetic(i)[1] for i in range(3)
        ]
        assert reader.stats.corrupt == 0 and len(_log_lines(cache)) == 3

    def test_run_cells_appends_once(self, tmp_path, monkeypatch):
        import fcntl

        from repro.workloads.resilient import run_cells
        from repro.workloads.sweep import SweepSpec

        locks = []
        real_flock = fcntl.flock
        monkeypatch.setattr(
            fcntl, "flock", lambda fd, op: (locks.append(op), real_flock(fd, op))
        )
        spec = SweepSpec(
            epsilons=[0.2, 0.4], machine_counts=[2], algorithms=["greedy"],
            workload=partial(random_instance, 6), repetitions=4, base_seed=5,
        )
        cache = BracketCache(tmp_path)
        rows = run_cells(spec, list(spec.cells()), {}, cache)
        assert len(rows) == 8 and locks == [fcntl.LOCK_EX]
        assert cache.stats.writes == 8 and len(_log_lines(cache)) == 8
        assert rows == run_cells(spec, list(spec.cells()), {}, None)


# ----------------------------------------------------------------------
# End-to-end: the resilient runner aggregates worker cache stats
# ----------------------------------------------------------------------


def test_resilient_runner_reports_cache_stats(tmp_path):
    from repro.workloads.execute import ExecutionPolicy, execute_sweep
    from repro.workloads.sweep import SweepSpec

    spec = SweepSpec(
        epsilons=[0.2],
        machine_counts=[2],
        algorithms=["greedy"],
        workload=partial(random_instance, 6),
        repetitions=2,
        base_seed=5,
        label="cache-stats",
    )
    # One execution per cell: a speculative copy would look its bracket up
    # again (tests/workloads/test_elastic.py bounds the counts under it).
    cold = execute_sweep(
        spec, ExecutionPolicy(workers=2, cache=BracketCache(tmp_path), speculate=False)
    )
    assert cold.complete
    assert cold.cache_stats is not None
    assert cold.cache_stats["misses"] == 2
    assert cold.cache_stats["writes"] == 2

    warm = execute_sweep(
        spec, ExecutionPolicy(workers=2, cache=BracketCache(tmp_path), speculate=False)
    )
    assert warm.complete and warm.rows == cold.rows
    assert warm.cache_stats["hits"] == 2
    assert warm.cache_stats["misses"] == 0
    assert warm.cache_stats["hit_rate"] == 1.0

    uncached = execute_sweep(spec, ExecutionPolicy(workers=2))
    assert uncached.cache_stats is None
    assert uncached.rows == cold.rows
