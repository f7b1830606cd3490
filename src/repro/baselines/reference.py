"""Reference policies: the clairvoyant oracle and random admission.

Neither is an online algorithm in the paper's sense; both exist to anchor
benchmark plots:

* :class:`OraclePolicy` replays a precomputed *offline* schedule through
  the online engine — the hindsight upper line.  Its accepted load equals
  the offline schedule's by construction, so plotting it next to the
  online algorithms shows how much of the gap to OPT is *information*
  (closable only by clairvoyance) versus *algorithmic*.
* :class:`RandomAdmissionPolicy` accepts each feasible job independently
  with probability ``q`` — the did-you-even-need-an-algorithm floor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.engine.policy import Decision, OnlinePolicy
from repro.model.instance import Instance
from repro.model.job import Job
from repro.model.machine import MachineState
from repro.model.schedule import Schedule
from repro.offline.exact import EXACT_JOB_LIMIT, ExactSolverBudgetExceeded, exact_optimum
from repro.offline.heuristics import best_offline_schedule
from repro.utils.rng import rng_from_any


class OraclePolicy(OnlinePolicy):
    """Replays an offline schedule online (hindsight reference).

    The plan is built at :meth:`prime` time (exact optimum when the
    instance is small enough and its search stays within the state
    budget, the heuristic packer otherwise) and the online run simply
    commits each planned job at its planned slot.  The
    engine still audits everything, so the oracle is also a self-check of
    the offline solvers' feasibility.
    """

    name = "oracle"
    immediate_commitment = True  # decisions are final; knowledge is not

    def __init__(self, plan: Schedule | None = None) -> None:
        self._plan = plan

    def prime(self, instance: Instance) -> "OraclePolicy":
        """Compute the offline plan for *instance*; returns ``self``."""
        if len(instance) <= EXACT_JOB_LIMIT:
            try:
                self._plan = exact_optimum(instance).schedule
            except ExactSolverBudgetExceeded:
                pass
            else:
                return self
        self._plan = best_offline_schedule(instance)
        return self

    def reset(self, machines: int, epsilon: float) -> None:
        if self._plan is None:
            raise RuntimeError(
                "OraclePolicy needs prime(instance) (or an explicit plan) "
                "before simulation"
            )

    def on_submission(
        self, job: Job, t: float, machines: Sequence[MachineState]
    ) -> Decision:
        assignment = self._plan.assignments.get(job.job_id)
        if assignment is None:
            return Decision.reject(oracle=True)
        return Decision.accept(
            machine=assignment.machine, start=assignment.start, oracle=True
        )


class RandomAdmissionPolicy(OnlinePolicy):
    """Accept each feasible job with probability ``q`` (coin-flip floor)."""

    def __init__(self, q: float = 0.5, rng: int | np.random.Generator | None = 0) -> None:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"acceptance probability must lie in [0, 1], got {q}")
        self.q = q
        self._rng = rng_from_any(rng)
        self.name = f"random-admission[q={q:g}]"

    def on_submission(
        self, job: Job, t: float, machines: Sequence[MachineState]
    ) -> Decision:
        candidates = [ms for ms in machines if ms.fits(job, t)]
        if not candidates or self._rng.random() >= self.q:
            return Decision.reject()
        chosen = min(candidates, key=lambda ms: (ms.outstanding(t), ms.index))
        return Decision.accept(machine=chosen.index, start=chosen.append_start(job, t))


def run_oracle(instance: Instance) -> Schedule:
    """Convenience: prime and simulate the oracle on *instance*."""
    from repro.engine.simulator import simulate

    return simulate(OraclePolicy().prime(instance), instance)
