"""Tests of the harness's statistics, span arithmetic and metric catalogue."""

from __future__ import annotations

import json
import multiprocessing as mp
import pathlib
import statistics
import types

import pytest

import stats
from spans import Tracer, layer_totals, load_spans, self_times, span_dicts

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- nearest-rank percentiles and the guard ------------------------------


def test_nearest_rank_picks_an_observed_sample():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.nearest_rank(samples, 50) == 50
    assert stats.nearest_rank(samples, 99) == 99
    assert stats.nearest_rank(samples, 100) == 100
    assert stats.nearest_rank([5.0, 1.0, 3.0], 50) == 3.0
    assert stats.nearest_rank([7.0], 1) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        stats.nearest_rank([1.0], 101)


def test_guard_needs_ten_samples_beyond_the_percentile():
    assert stats.beyond(1000, 99) == 10
    assert stats.guarded_percentile(list(range(1000)), 99) == 989
    assert stats.beyond(999, 99) == 9
    assert stats.guarded_percentile(list(range(999)), 99) is None
    assert stats.guarded_percentile(list(range(20)), 50) == 9
    assert stats.guarded_percentile(list(range(19)), 50) is None
    assert stats.guarded_percentile([], 50) is None


def test_median_and_iqr_share_match_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 30.0, 9.0, 10.5, 11.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.median(values) == 11.0
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / 11.0)
    assert stats.iqr_share([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert stats.iqr_share([4.0]) == 0.0


# -- span self-time arithmetic -------------------------------------------


def spans(pid, *records):
    return span_dicts(pid, records)


def test_self_time_subtracts_direct_children_only():
    merged = spans(
        1,
        (0, None, "root", 0, 100_000_000, None),
        (1, 0, "child", 10_000_000, 30_000_000, None),
        (2, 1, "grandchild", 15_000_000, 25_000_000, None),
        (3, 0, "child", 40_000_000, 60_000_000, None),
    )
    assert self_times(merged) == pytest.approx([0.06, 0.01, 0.01, 0.02])
    totals = layer_totals(merged)
    assert totals["child"] == (2, pytest.approx(0.03))
    # Self times partition the root's interval.
    assert sum(own for _, own in totals.values()) == pytest.approx(0.1)


def test_self_time_counts_overlapping_children_once():
    merged = spans(
        1,
        (0, None, "root", 0, 100, None),
        (1, 0, "a", 10, 30, None),
        (2, 0, "b", 20, 40, None),
        (3, 0, "c", 90, 120, None),  # clipped to the parent's interval
    )
    assert self_times(merged)[0] == pytest.approx((100 - 30 - 10) / 1e9)


def test_merged_processes_never_adopt_each_others_spans():
    # Same span ids in two processes: children match by (pid, parent).
    merged = spans(1, (0, None, "root", 0, 100, None), (1, 0, "x", 0, 50, None)) + spans(
        2, (0, None, "worker", 0, 100, None), (1, 0, "y", 0, 20, None)
    )
    assert self_times(merged) == pytest.approx([50e-9, 50e-9, 80e-9, 20e-9])


# -- the tracer ------------------------------------------------------------


class Widget:
    def work(self, n):
        return helpers.inner(n) + 1


helpers = types.SimpleNamespace(inner=lambda n: n * 2)


def test_patch_records_nested_spans_and_restores(tmp_path):
    original = Widget.__dict__["work"]
    tracer = Tracer(tmp_path)
    tracer.patch(Widget, "work", "outer")
    tracer.patch(helpers, "inner", "inner", unit=lambda args, kwargs: args[0])
    with tracer.span("root"):
        assert Widget().work(3) == 7
    tracer.restore()
    assert Widget.__dict__["work"] is original
    names = {name: (sid, parent, unit) for sid, parent, name, _, _, unit in tracer.spans}
    assert names["inner"][1] == names["outer"][0]
    assert names["outer"][1] == names["root"][0]
    assert names["inner"][2] == 3
    tracer.flush()
    merged, _ = load_spans(tmp_path)
    root = next(s for s in merged if s["name"] == "root")
    assert sum(self_times(merged)) == pytest.approx((root["end"] - root["start"]) / 1e9)


def _traced_child(fn):
    fn(5)


def test_forked_workers_write_their_own_spans(tmp_path):
    tracer = Tracer(tmp_path)
    traced = tracer.wrap(lambda n: n, "work")
    tracer.count("jobs", 2)
    ctx = mp.get_context("fork")
    with tracer.span("parent"):
        workers = [ctx.Process(target=_traced_child, args=(traced,)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    assert all(not w.is_alive() and w.exitcode == 0 for w in workers)
    tracer.flush()
    merged, counters = load_spans(tmp_path)
    assert len(list(tmp_path.glob("spans-*.json"))) == 3
    work = [s for s in merged if s["name"] == "work"]
    assert len(work) == 2 and len({s["pid"] for s in work}) == 2
    # A worker's spans start fresh: none is parented on the parent's span.
    assert all(s["parent"] is None for s in work)
    assert [s["name"] for s in merged].count("parent") == 1
    assert counters == {"jobs": 2}


def test_a_restored_tracer_costs_later_forks_nothing(tmp_path):
    # A wrapper outliving its round keeps the tracer registered for forks.
    tracer = Tracer(tmp_path)
    traced = tracer.wrap(lambda n: n, "work")
    tracer.restore()
    worker = mp.get_context("fork").Process(target=_traced_child, args=(traced,))
    worker.start()
    worker.join(timeout=30)
    assert worker.exitcode == 0
    assert not list(tmp_path.glob("spans-*.json"))


# -- rounds ------------------------------------------------------------------


def test_sweep_rounds_cycle_through_a_fixed_set_of_draws():
    import inputs

    seeds = [inputs.round_seed(7, i) for i in range(2 * inputs.SWEEP_DRAWS + 1)]
    assert seeds[0] == 7000  # the warm-up's own draw
    assert seeds[1:] == [7000 + d for d in range(1, inputs.SWEEP_DRAWS + 1)] * 2


def test_timed_rounds_runs_the_least_count_with_a_probe_around_each():
    import run

    ctx = types.SimpleNamespace(seconds=0.0)
    rounds, probes = run.timed_rounds(ctx, 3, lambda i: i)
    assert rounds == [1, 2, 3]
    assert len(probes) == 4 and all(ms > 0 for ms in probes)


# -- the metric catalogue --------------------------------------------------


def test_benchmark_json_names_every_metric_the_harness_prints():
    import run

    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in bench["workloads"]:
        assert workload["name"] in WORKLOADS
    assert run.per_layer_units() == per_layer
