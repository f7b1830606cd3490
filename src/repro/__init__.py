"""repro — reproduction of *Commitment and Slack for Online Load Maximization*.

Jamalabadi, Schwiegelshohn & Schwiegelshohn, SPAA 2020
(DOI 10.1145/3350755.3400271).

The package implements the paper's Threshold admission algorithm
(Algorithm 1), the tight bound function :math:`c(\\varepsilon, m)` with
its phase structure, the three-phase lower-bound adversary, the randomized
single-machine algorithm, five related-work baselines, offline optimum
solvers, workload generators and the full benchmark harness reproducing
Figs. 1–3 and Eq. (1).

Public API re-exports below; see README.md for a guided tour and DESIGN.md
for the full system inventory.
"""

from repro.core import (
    BoundFunction,
    ThresholdParameters,
    ThresholdPolicy,
    AllocationRule,
    ClassifyAndSelect,
    c_bound,
    corner_values,
    phase_index,
    threshold_parameters,
    theorem2_bound,
)
from repro.engine import (
    AdmissionController,
    SimulationRequest,
    audit_run,
    open_session,
    run_simulations,
    simulate,
    simulate_source,
)
from repro.model import Instance, Job, Schedule
from repro.baselines import ALGORITHMS, make_algorithm, run_algorithm
from repro.adversary import ThreePhaseAdversary, duel
from repro.analysis import compare_algorithms, fig1_series
from repro.offline import opt_bracket
from repro.workloads.execute import ExecutionPolicy, execute_sweep

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
