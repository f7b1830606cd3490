"""The surfaces that replaced the removed 1.x shims run warning-free.

``run_sweep``, ``run_sweep_parallel``, ``run_sweep_resilient`` and the
``OptBracket.relative_gap()`` call form were removed in 2.0.  CI runs the
suite under ``-W error::DeprecationWarning``, so these tests pin that
their replacements — ``execute_sweep`` and the ``relative_gap`` property —
emit no deprecation noise of their own.
"""

import warnings
from functools import partial

from repro.offline.bracket import opt_bracket
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.random_instances import random_instance
from repro.workloads.sweep import SweepSpec


def _spec() -> SweepSpec:
    return SweepSpec(
        epsilons=[0.5],
        machine_counts=[1],
        algorithms=["greedy"],
        workload=partial(random_instance, 4),
        repetitions=1,
        base_seed=11,
    )


class TestReplacementsAreQuiet:
    """The documented replacements run clean under -W error."""

    def test_execute_sweep_emits_no_deprecations(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = execute_sweep(_spec(), ExecutionPolicy())
        assert result.complete

    def test_relative_gap_property_emits_no_deprecations(self, tiny_instance):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            gap = float(opt_bracket(tiny_instance).relative_gap)
        assert gap >= 0.0
