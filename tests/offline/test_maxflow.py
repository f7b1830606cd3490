"""The exact Horn-network solver against networkx, in floats and in Fractions.

``tests/offline/flow_reference.py`` keeps the networkx flow bound the
solver replaced.  The new bound must equal the exact maximum flow, rounded
up to a float, that networkx computes on :class:`~fractions.Fraction`
capacities, and stay within a few ulps of the old float value.
"""

from __future__ import annotations

import math
import random

import networkx as nx
import pytest

from repro.adversary.base import duel
from repro.baselines.greedy import GreedyPolicy
from repro.core.threshold import ThresholdPolicy
from repro.model.instance import Instance
from repro.model.job import Job
from repro.offline.bounds import flow_upper_bound
from repro.offline.maxflow import horn_flow, max_flow, round_up
from repro.utils.tolerances import TIME_EPS, fge
from repro.workloads import random_instance
from repro.workloads.cloud import cloud_instance
from tests.offline import flow_reference


def _scaled(jobs, unit, base=0.0):
    """Random windows with times in multiples of *unit* from *base*."""

    def build(seed, n, machines):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            release = base + rng.uniform(0.0, 6.0) * unit
            p = rng.uniform(1.0, 3.0) * unit
            out.append(Job(release, p, release + p * (1.0 + rng.choice([0.0, 0.5, 2.0]))))
        return Instance(out, machines=machines, epsilon=1.0, validate=False)

    return [build(seed, n, m) for seed, n, m in jobs]


def _corpus():
    """Sweep-cold flow cells, random, adversary, nano-scale and far-off times."""
    cells = [cloud_instance(60, 4, eps, seed=s) for eps in (0.05, 0.1, 0.2, 0.4) for s in (0, 1)]
    randoms = [
        random_instance(n, m, eps, seed=s)
        for n, m, eps, s in [
            (5, 1, 0.1, 0), (10, 2, 0.2, 1), (20, 3, 0.5, 2), (40, 4, 0.05, 3),
            (60, 1, 0.3, 4), (80, 2, 0.1, 5), (80, 4, 0.2, 6), (30, 3, 1.0, 7),
        ]
    ]
    duels = [
        duel(policy(), m=m, epsilon=eps).schedule.instance
        for m, eps in [(1, 0.1), (2, 0.3), (3, 0.2), (4, 0.05)]
        for policy in (ThresholdPolicy, GreedyPolicy)
    ]
    nano = _scaled([(s, 2 + s, 1 + s % 4) for s in range(8)], unit=TIME_EPS)
    far = _scaled([(s, 12, 1 + s % 4) for s in range(4)], unit=1.0, base=1e6)
    return cells + randoms + duels + nano + far


CORPUS = _corpus()


@pytest.mark.parametrize("instance", CORPUS)
def test_bound_is_exact_flow_rounded_up(instance):
    exact = flow_reference.exact_flow_value(instance)
    assert flow_upper_bound(instance) == flow_reference.round_up_exact(exact)


@pytest.mark.parametrize("instance", CORPUS)
def test_bound_within_four_ulps_of_networkx(instance):
    new = flow_upper_bound(instance)
    try:
        old = flow_reference.flow_upper_bound(instance)
    except nx.NetworkXError:
        # Every interval is at most TIME_EPS wide: the old network had
        # no sink node.
        assert new == 0.0
        return
    assert abs(new - old) <= 4 * math.ulp(max(new, old))


def test_no_interval_wider_than_time_eps_bounds_zero():
    instance = Instance([Job(0.0, 0.5e-9, 1e-9)], machines=1, epsilon=1.0, validate=False)
    with pytest.raises(nx.NetworkXError):
        flow_reference.flow_upper_bound(instance)
    assert flow_upper_bound(instance) == 0.0


def test_bound_does_not_depend_on_job_order():
    instance = cloud_instance(60, 4, 0.1, seed=3)
    jobs = list(instance.jobs)
    random.Random(0).shuffle(jobs)
    shuffled = Instance(
        [Job(j.release, j.processing, j.deadline) for j in jobs],
        machines=instance.machines,
        epsilon=instance.epsilon,
        validate=False,
    )
    assert flow_upper_bound(shuffled) == flow_upper_bound(instance)


class TestMaxFlow:
    def test_no_path(self):
        assert max_flow(3, [(0, 1, 5)], 0, 2) == (0, [0])

    def test_needs_a_reverse_edge(self):
        # The greedy path 0-1-2-3 blocks 0-2; Dinic must cancel 1->2.
        arcs = [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)]
        value, flow = max_flow(4, arcs, 0, 3)
        assert value == 2
        assert flow[3] == flow[4] == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_networkx_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        arcs = [
            (u, v, rng.choice([0, 1, 3, 10**20 + rng.randint(0, 9)]))
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.4
        ]
        value, flow = max_flow(n, arcs, 0, n - 1)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for u, v, c in arcs:
            graph.add_edge(u, v, capacity=c)
        assert value == nx.maximum_flow_value(graph, 0, n - 1)
        net = [0] * n
        for (u, v, c), f in zip(arcs, flow):
            assert 0 <= f <= c
            net[u] -= f
            net[v] += f
        assert net[n - 1] == value
        assert all(net[v] == 0 for v in range(1, n - 1))


class TestRoundUp:
    def test_exact_quotient_is_kept(self):
        assert round_up(3, 4) == 0.75
        assert round_up(0, 8) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_smallest_float_at_or_above(self, seed):
        rng = random.Random(seed)
        numerator, denominator = rng.randint(1, 10**30), 2 ** rng.randint(0, 120)
        value = round_up(numerator, denominator)
        top, bottom = value.as_integer_ratio()
        assert top * denominator >= numerator * bottom
        below = math.nextafter(value, 0.0).as_integer_ratio()
        assert below[0] * denominator < numerator * below[1]


class TestHornFlow:
    def test_plan_respects_both_caps_and_the_value(self):
        jobs = [(float(j.release), j.processing, float(j.deadline)) for j in CORPUS[0]]
        flow = horn_flow(jobs, 4)
        plan = flow.plan()
        for (lo, hi), amounts in zip(flow.intervals, plan):
            assert all(0.0 <= w <= hi - lo for w in amounts)
            assert sum(amounts) <= 4 * (hi - lo) * (1 + 1e-12)
        for j, (_, work, _) in enumerate(jobs):
            assert sum(row[j] for row in plan) <= work * (1 + 1e-12)
        assert sum(flow.arc_flow) / flow.scale <= flow.value

    @staticmethod
    def _assert_spans_are_the_fge_tests(jobs, machines):
        flow = horn_flow(jobs, machines)
        for (release, _, deadline), (first, stop) in zip(jobs, flow.spans):
            admissible = [
                idx
                for idx, (lo, hi) in enumerate(flow.intervals)
                if fge(lo, release) and fge(deadline, hi)
            ]
            assert admissible == list(range(first, stop))
        return flow

    @pytest.mark.parametrize("instance", CORPUS[::3])
    def test_admissible_ranges_are_the_fge_tests(self, instance):
        jobs = [(float(j.release), j.processing, float(j.deadline)) for j in instance]
        self._assert_spans_are_the_fge_tests(jobs, instance.machines)

    def test_ties_at_time_eps_are_admissible(self):
        # lo == release - TIME_EPS and deadline == hi - TIME_EPS exactly,
        # with both intervals just wider than TIME_EPS: fge admits both.
        release, deadline = 3.0009422302246094, 10.000473975135254
        lo, hi = release - TIME_EPS, deadline + TIME_EPS
        assert release - TIME_EPS == lo and deadline == hi - TIME_EPS
        jobs = [(lo, 1.0, lo + 2.0), (release, 1.0, deadline), (release, 1.0, hi)]
        flow = self._assert_spans_are_the_fge_tests(jobs, 1)
        assert flow.intervals[0][0] == lo and flow.intervals[-1][1] == hi
        assert flow.spans[1] == (0, len(flow.intervals))
