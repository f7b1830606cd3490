"""repro — reproduction of *Commitment and Slack for Online Load Maximization*.

Jamalabadi, Schwiegelshohn & Schwiegelshohn, SPAA 2020
(DOI 10.1145/3350755.3400271).

The package implements the paper's Threshold admission algorithm
(Algorithm 1), the tight bound function :math:`c(\\varepsilon, m)` with
its phase structure, the three-phase lower-bound adversary, the randomized
single-machine algorithm, five related-work baselines, offline optimum
solvers, workload generators and the full benchmark harness reproducing
Figs. 1–3 and Eq. (1).

Public API re-exports below, each imported on first use (PEP 562), so
``import repro`` loads no subpackage; see README.md for a guided tour
and DESIGN.md for the full system inventory.
"""

import importlib

#: Public name -> the module it is re-exported from.
_EXPORTS = {
    **dict.fromkeys(
        (
            "BoundFunction",
            "ThresholdParameters",
            "ThresholdPolicy",
            "AllocationRule",
            "ClassifyAndSelect",
            "c_bound",
            "corner_values",
            "phase_index",
            "threshold_parameters",
            "theorem2_bound",
        ),
        "repro.core",
    ),
    **dict.fromkeys(
        (
            "AdmissionController",
            "SimulationRequest",
            "audit_run",
            "open_session",
            "run_simulations",
            "simulate",
            "simulate_source",
        ),
        "repro.engine",
    ),
    **dict.fromkeys(("Instance", "Job", "Schedule"), "repro.model"),
    **dict.fromkeys(("ALGORITHMS", "make_algorithm", "run_algorithm"), "repro.baselines"),
    **dict.fromkeys(("ThreePhaseAdversary", "duel"), "repro.adversary"),
    **dict.fromkeys(("compare_algorithms", "fig1_series"), "repro.analysis"),
    "opt_bracket": "repro.offline",
    **dict.fromkeys(("ExecutionPolicy", "execute_sweep"), "repro.workloads.execute"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__version__ = "2.0.0"

__all__ = [
    "BoundFunction",
    "ThresholdParameters",
    "ThresholdPolicy",
    "AllocationRule",
    "ClassifyAndSelect",
    "c_bound",
    "corner_values",
    "phase_index",
    "threshold_parameters",
    "theorem2_bound",
    "simulate",
    "simulate_source",
    "audit_run",
    "AdmissionController",
    "open_session",
    "SimulationRequest",
    "run_simulations",
    "ExecutionPolicy",
    "execute_sweep",
    "Instance",
    "Job",
    "Schedule",
    "ALGORITHMS",
    "make_algorithm",
    "run_algorithm",
    "ThreePhaseAdversary",
    "duel",
    "compare_algorithms",
    "fig1_series",
    "opt_bracket",
    "__version__",
]
