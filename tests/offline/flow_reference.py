"""Reference oracles for Horn's network: networkx, in floats and in Fractions.

:func:`flow_upper_bound`, :func:`migration_feasible` and
:func:`flow_schedule` are the flow bound and the migration baseline's two
flow functions as they were when networkx solved the network, kept
verbatim.  Their values are networkx's float max flows, so they agree
with the exact solver to a few ulps.  :func:`exact_flow_value` runs
``flow_upper_bound``'s network on :class:`fractions.Fraction` capacities,
where networkx's arithmetic is exact, and :func:`round_up_exact` gives
the float the exact solver must return for it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx

from repro.model.instance import Instance
from repro.utils.tolerances import TIME_EPS, fge, snap

#: Flow amounts below this are treated as zero when comparing to demand.
_FLOW_TOL = 1e-7


def flow_upper_bound(instance: Instance) -> float:
    """Horn-relaxation upper bound on the offline optimal load."""
    if len(instance) == 0:
        return 0.0
    events = sorted(
        {float(j.release) for j in instance} | {float(j.deadline) for j in instance}
    )
    intervals = [
        (lo, hi) for lo, hi in zip(events, events[1:]) if hi - lo > TIME_EPS
    ]
    # Integer node labels, not strings: networkx's flow algorithms iterate
    # internal *sets* of nodes, and string hashing is randomised per process
    # (PYTHONHASHSEED), which perturbs the float summation order and thus
    # the last ulp of the flow value.  Small-int hashing is deterministic,
    # so the bound is bit-identical across processes and hosts.
    src, sink = 0, 1
    interval_node = [2 + idx for idx in range(len(intervals))]
    job_node_base = 2 + len(intervals)
    graph = nx.DiGraph()
    for idx, (lo, hi) in enumerate(intervals):
        graph.add_edge(interval_node[idx], sink, capacity=instance.machines * (hi - lo))
    for job in instance:
        graph.add_edge(src, job_node_base + job.job_id, capacity=job.processing)
        for idx, (lo, hi) in enumerate(intervals):
            if fge(lo, job.release) and fge(job.deadline, hi):
                graph.add_edge(
                    job_node_base + job.job_id, interval_node[idx], capacity=hi - lo
                )
    value, _ = nx.maximum_flow(graph, src, sink)
    return float(value)


def migration_feasible(
    now: float,
    remainders: list[tuple[float, float]],
    machines: int,
) -> bool:
    """Exact feasibility test for released preemptive-migratory work.

    Parameters
    ----------
    now:
        Current time; all work is available from *now*.
    remainders:
        ``(remaining_work, deadline)`` pairs, all with ``deadline >= now``.
    machines:
        Number of identical machines.

    Returns whether a preemptive schedule with migration completes every
    remainder by its deadline.  Horn-style max-flow: feasible iff the
    maximum flow equals the total remaining work.
    """
    work = [(snap(r), d) for r, d in remainders if r > TIME_EPS]
    if not work:
        return True
    if any(d < now - TIME_EPS for _, d in work):
        return False
    total = sum(r for r, _ in work)
    events = sorted({now} | {d for _, d in work})
    intervals = [
        (lo, hi) for lo, hi in zip(events, events[1:]) if hi - lo > TIME_EPS
    ]
    if not intervals:
        return total <= TIME_EPS

    graph = nx.DiGraph()
    for idx, (lo, hi) in enumerate(intervals):
        graph.add_edge(f"I{idx}", "sink", capacity=machines * (hi - lo))
    for jdx, (remaining, deadline) in enumerate(work):
        graph.add_edge("src", f"J{jdx}", capacity=remaining)
        for idx, (lo, hi) in enumerate(intervals):
            if fge(deadline, hi):
                graph.add_edge(f"J{jdx}", f"I{idx}", capacity=hi - lo)
    value, _ = nx.maximum_flow(graph, "src", "sink")
    return value >= total - _FLOW_TOL


def flow_schedule(
    now: float,
    remainders: list[tuple[float, float]],
    machines: int,
) -> tuple[float, list[tuple[float, float, list[float]]]]:
    """Max-flow work plan for released preemptive-migratory jobs.

    Returns ``(flow_value, plan)`` where ``plan`` is a list of
    ``(interval_start, interval_end, per_job_work)`` entries (job order
    matches *remainders*).  Each per-job amount is at most the interval
    length, and each interval's total is at most ``machines`` times its
    length, so the plan is realisable by McNaughton wrap-around within each
    interval — including any time-prefix of an interval at proportional
    rates.
    """
    work = [(max(r, 0.0), d) for r, d in remainders]
    positive = [i for i, (r, _) in enumerate(work) if r > TIME_EPS]
    if not positive:
        return 0.0, []
    events = sorted({now} | {d for i, (_, d) in enumerate(work) if i in positive})
    intervals = [(lo, hi) for lo, hi in zip(events, events[1:]) if hi - lo > TIME_EPS]
    graph = nx.DiGraph()
    for idx, (lo, hi) in enumerate(intervals):
        graph.add_edge(f"I{idx}", "sink", capacity=machines * (hi - lo))
    for j in positive:
        remaining, deadline = work[j]
        graph.add_edge("src", f"J{j}", capacity=remaining)
        for idx, (lo, hi) in enumerate(intervals):
            if fge(deadline, hi):
                graph.add_edge(f"J{j}", f"I{idx}", capacity=hi - lo)
    value, flow = nx.maximum_flow(graph, "src", "sink")
    plan = []
    for idx, (lo, hi) in enumerate(intervals):
        per_job = [0.0] * len(work)
        for j in positive:
            per_job[j] = flow.get(f"J{j}", {}).get(f"I{idx}", 0.0)
        plan.append((lo, hi, per_job))
    return float(value), plan


def exact_flow_value(instance: Instance) -> Fraction:
    """The Horn network of ``flow_upper_bound`` on exact rational capacities.

    Every capacity is the float the network above uses, converted to
    :class:`~fractions.Fraction` without rounding, so networkx's flow
    arithmetic is exact and the value is the network's true maximum flow.
    """
    if len(instance) == 0:
        return Fraction(0)
    events = sorted(
        {float(j.release) for j in instance} | {float(j.deadline) for j in instance}
    )
    intervals = [
        (lo, hi) for lo, hi in zip(events, events[1:]) if hi - lo > TIME_EPS
    ]
    if not intervals:
        return Fraction(0)
    src, sink = 0, 1
    job_node_base = 2 + len(intervals)
    graph = nx.DiGraph()
    for idx, (lo, hi) in enumerate(intervals):
        graph.add_edge(2 + idx, sink, capacity=Fraction(instance.machines * (hi - lo)))
    for job in instance:
        graph.add_edge(src, job_node_base + job.job_id, capacity=Fraction(job.processing))
        for idx, (lo, hi) in enumerate(intervals):
            if fge(lo, job.release) and fge(job.deadline, hi):
                graph.add_edge(job_node_base + job.job_id, 2 + idx, capacity=Fraction(hi - lo))
    value, _ = nx.maximum_flow(graph, src, sink)
    return Fraction(value)


def round_up_exact(value: Fraction) -> float:
    """Smallest float ``>= value``."""
    nearest = float(value)
    if Fraction(nearest) < value:
        nearest = math.nextafter(nearest, math.inf)
    return nearest
