"""Exact maximum flow through Horn's interval network.

Horn's network for jobs given as ``(release, work, deadline)`` triples:

* event times = all releases and deadlines; consecutive events further
  apart than ``TIME_EPS`` bound the intervals :math:`I_\\ell`;
* ``source -> job_j`` with capacity :math:`w_j`;
* ``job_j -> I_ell`` with capacity :math:`|I_\\ell|` whenever ``fge(lo,
  release)`` and ``fge(deadline, hi)`` (a job never runs in parallel with
  itself);
* ``I_ell -> sink`` with capacity :math:`m \\cdot |I_\\ell|`.

The intervals are sorted, so each job's admissible intervals form one
contiguous index range, found by bisection on the very float expressions
the ``fge`` tests evaluate.

Every capacity is a float, hence a dyadic rational.  Scaling all of them
by one power of two, the largest ``float.as_integer_ratio`` denominator,
makes the network integral, and :func:`max_flow` (Dinic's algorithm) runs
on Python ints.  The flow value is therefore exact: the same for every
edge order, algorithm and hash seed.  :attr:`HornFlow.value` rounds it
*up* to the nearest float, so a bound built on it stays certified.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from repro.utils.tolerances import TIME_EPS


def max_flow(
    n_nodes: int, arcs: Sequence[tuple[int, int, int]], source: int, sink: int
) -> tuple[int, list[int]]:
    """Maximum flow by Dinic's algorithm on non-negative integer capacities.

    *arcs* are ``(tail, head, capacity)`` triples over nodes
    ``0 .. n_nodes - 1``.  Returns ``(value, flow)`` with ``flow[i]`` the
    flow on ``arcs[i]``.  Arc ``i`` is residual edge ``2 i`` and its
    reverse is ``2 i + 1``, so the reverse residual is the arc's flow.
    Blocking flows are found one augmenting path at a time by an iterative
    depth-first search with per-node current-arc pointers.
    """
    head: list[int] = []
    residual: list[int] = []
    out: list[list[int]] = [[] for _ in range(n_nodes)]
    for tail, tip, capacity in arcs:
        out[tail].append(len(head))
        head.append(tip)
        residual.append(capacity)
        out[tip].append(len(head))
        head.append(tail)
        residual.append(0)

    value = 0
    while True:
        level = [-1] * n_nodes
        level[source] = 0
        queue = [source]
        for node in queue:
            below = level[node] + 1
            for edge in out[node]:
                if residual[edge] and level[head[edge]] < 0:
                    level[head[edge]] = below
                    queue.append(head[edge])
        if level[sink] < 0:
            break

        cursor = [0] * n_nodes
        path: list[int] = []
        node = source
        while True:
            if node == sink:
                pushed = min([residual[edge] for edge in path])
                cut = -1
                for idx, edge in enumerate(path):
                    left = residual[edge] - pushed
                    residual[edge] = left
                    residual[edge ^ 1] += pushed
                    if not left and cut < 0:
                        cut = idx
                value += pushed
                # Resume from the tail of the first saturated edge.
                del path[cut:]
                node = head[path[-1]] if path else source
                continue
            edges = out[node]
            n_edges = len(edges)
            below = level[node] + 1
            idx = cursor[node]
            while idx < n_edges:
                edge = edges[idx]
                if residual[edge] and level[head[edge]] == below:
                    break
                idx += 1
            cursor[node] = idx
            if idx < n_edges:
                path.append(edge)
                node = head[edge]
            elif node == source:
                break
            else:
                # Dead end: drop the node from this phase and back up.
                level[node] = -1
                node = head[path.pop() ^ 1]
                cursor[node] += 1
    return value, [residual[2 * i + 1] for i in range(len(arcs))]


def round_up(numerator: int, denominator: int) -> float:
    """Smallest float ``>= numerator / denominator`` (both non-negative)."""
    value = numerator / denominator
    top, bottom = value.as_integer_ratio()
    if top * denominator < numerator * bottom:
        value = math.nextafter(value, math.inf)
    return value


@dataclass(frozen=True)
class HornFlow:
    """A maximum flow through Horn's network, exact in scaled integers."""

    #: Smallest float ``>=`` the exact maximum-flow value.
    value: float
    #: The network's intervals ``(lo, hi)``, in time order.
    intervals: list[tuple[float, float]]
    #: ``spans[j] = (first, stop)``: job *j* may use intervals
    #: ``first .. stop - 1``.
    spans: list[tuple[int, int]]
    #: Scaled integer flow on each admissible ``(job, interval)`` arc,
    #: job by job, interval by interval.
    arc_flow: list[int]
    #: The power of two every capacity was multiplied by.
    scale: int

    def plan(self) -> list[list[float]]:
        """``plan[l][j]``: work of job *j* in interval *l*.

        Each amount is the arc's exact flow rounded to the nearest float,
        so it never exceeds the interval's length.
        """
        plan = [[0.0] * len(self.spans) for _ in self.intervals]
        flows = iter(self.arc_flow)
        for job, (first, stop) in enumerate(self.spans):
            for idx in range(first, stop):
                plan[idx][job] = next(flows) / self.scale
        return plan


def horn_flow(jobs: Sequence[tuple[float, float, float]], machines: int) -> HornFlow:
    """Maximum flow through Horn's network of *jobs* on *machines*.

    *jobs* are ``(release, work, deadline)`` triples; work is the
    capacity of the job's source arc.
    """
    events = sorted({r for r, _, _ in jobs} | {d for _, _, d in jobs})
    intervals = [(lo, hi) for lo, hi in zip(events, events[1:]) if hi - lo > TIME_EPS]
    los = [lo for lo, _ in intervals]
    his = [hi - TIME_EPS for _, hi in intervals]
    spans = [(bisect_left(los, r - TIME_EPS), bisect_right(his, d)) for r, _, d in jobs]

    widths = [hi - lo for lo, hi in intervals]
    ratios = [
        float(c).as_integer_ratio()
        for c in [w for _, w, _ in jobs] + widths + [machines * w for w in widths]
    ]
    scale = max((den for _, den in ratios), default=1)
    caps = [num * (scale // den) for num, den in ratios]

    # Nodes: source 0, jobs 1..n, intervals n+1..n+L, sink n+L+1.
    n, n_int = len(jobs), len(intervals)
    sink = n + n_int + 1
    # Sink arcs first, so that an interval tries its sink arc before its
    # reverse arcs.
    arcs = [(1 + n + idx, sink, caps[n + n_int + idx]) for idx in range(n_int)]
    arcs.extend((0, 1 + j, caps[j]) for j in range(n))
    first_arc = len(arcs)
    for j, (first, stop) in enumerate(spans):
        arcs.extend((1 + j, 1 + n + idx, caps[n + idx]) for idx in range(first, stop))
    value, flow = max_flow(sink + 1, arcs, 0, sink)
    return HornFlow(
        value=round_up(value, scale),
        intervals=intervals,
        spans=spans,
        arc_flow=flow[first_arc:],
        scale=scale,
    )
