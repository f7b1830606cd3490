"""Certified upper bounds on the offline optimum.

The key bound is the *preemption + migration + fractional acceptance*
relaxation: any non-preemptive schedule of accepted jobs induces a flow in
Horn's interval network, so the maximum flow is an upper bound on the
achievable load.  The network (built by :func:`repro.offline.maxflow.horn_flow`):

* event times = all releases and deadlines; consecutive events bound the
  intervals :math:`I_\\ell`;
* ``source -> job_j`` with capacity :math:`p_j` (fractional acceptance);
* ``job_j -> I_ell`` with capacity :math:`|I_\\ell|` whenever
  :math:`I_\\ell \\subseteq [r_j, d_j]` (no self-parallelism);
* ``I_ell -> sink`` with capacity :math:`m \\cdot |I_\\ell|`.

The value is exact for the preemptive-migration machine model (it equals
that model's optimum when acceptance is all-or-nothing relaxed), which the
migration baseline's tests exploit.  It is computed exactly: every
capacity is a float, so one power-of-two scale makes the network integral,
the maximum flow is found in Python ints, and the bound is the smallest
float at or above the exact value.  It is therefore certified and the
same on every platform, process and hash seed.
"""

from __future__ import annotations

import numpy as np

from repro.model.instance import Instance
from repro.offline.maxflow import horn_flow


def flow_upper_bound(instance: Instance) -> float:
    """Horn-relaxation upper bound on the offline optimal load.

    The exact maximum flow of Horn's network, rounded up to a float.
    """
    jobs = [(float(j.release), float(j.processing), float(j.deadline)) for j in instance]
    return horn_flow(jobs, instance.machines).value


def machine_window_upper_bound(instance: Instance) -> float:
    """A cheap coarse bound: ``m * (max deadline - min release)``.

    Useful as a quick sanity cap and in tests of the flow bound itself.
    """
    if len(instance) == 0:
        return 0.0
    releases = instance.releases()
    deadlines = instance.deadlines()
    return float(instance.machines * (deadlines.max() - releases.min()))


def opt_upper_bound(instance: Instance) -> float:
    """Best certified upper bound: min of flow, total load, and window."""
    return float(
        np.min(
            [
                flow_upper_bound(instance),
                instance.total_load,
                machine_window_upper_bound(instance),
            ]
        )
    )
