"""Unit tests for the optimum bracket."""

from functools import partial

import pytest

from repro.offline import exact
from repro.offline.bracket import opt_bracket
from repro.offline.cache import BracketCache, cached_opt_bracket
from repro.offline.exact import exact_optimum
from repro.workloads import random_instance
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.sweep import SweepSpec


class TestBracket:
    def test_small_instance_is_exact(self):
        inst = random_instance(8, 2, 0.2, seed=3)
        b = opt_bracket(inst)
        assert b.exact
        assert b.lower == b.upper == pytest.approx(exact_optimum(inst).value)
        assert b.gap == 0.0
        assert b.relative_gap == 0.0

    def test_large_instance_uses_bounds(self):
        inst = random_instance(60, 2, 0.2, seed=3)
        b = opt_bracket(inst)
        assert not b.exact
        assert b.lower <= b.upper

    def test_force_bounds(self):
        inst = random_instance(8, 2, 0.2, seed=3)
        b = opt_bracket(inst, force_bounds=True)
        assert not b.exact
        exact = exact_optimum(inst).value
        assert b.lower - 1e-7 <= exact <= b.upper + 1e-7

    def test_midpoint_between_ends(self):
        inst = random_instance(40, 2, 0.2, seed=5)
        b = opt_bracket(inst)
        assert b.lower - 1e-12 <= b.midpoint <= b.upper + 1e-12

    def test_custom_exact_limit(self):
        inst = random_instance(10, 2, 0.2, seed=3)
        b = opt_bracket(inst, exact_limit=5)
        assert not b.exact

    def test_relative_gap_is_a_property(self):
        inst = random_instance(40, 2, 0.2, seed=5)
        b = opt_bracket(inst)
        gap = b.relative_gap
        assert isinstance(gap, float)
        assert gap == pytest.approx(b.gap / b.upper)



class TestBudgetFallback:
    """An exact search that outgrows its state budget gets the bounds."""

    @pytest.fixture(autouse=True)
    def _small_budget(self, monkeypatch):
        monkeypatch.setattr(exact, "MAX_EXPLORED_STATES", 10)

    def test_opt_bracket(self):
        inst = random_instance(12, 2, 0.1, seed=3)
        with pytest.raises(exact.ExactSolverBudgetExceeded):
            exact_optimum(inst)
        b = opt_bracket(inst)
        assert not b.exact
        assert b == opt_bracket(inst, force_bounds=True)

    def test_cached_opt_bracket(self, tmp_path):
        inst = random_instance(12, 2, 0.1, seed=3)
        cache = BracketCache(tmp_path)
        b = cached_opt_bracket(inst, cache=cache)
        assert b == opt_bracket(inst, force_bounds=True)
        assert cached_opt_bracket(inst, cache=BracketCache(tmp_path)) == b

    @pytest.mark.parametrize("workers", [None, 2])
    def test_sweep_rows_are_bounded(self, workers):
        # Serial, and in forked workers, which inherit the patched budget.
        spec = SweepSpec(
            epsilons=[0.1, 0.3],
            machine_counts=[2],
            algorithms=["threshold", "greedy"],
            workload=partial(random_instance, 12),
            repetitions=2,
            base_seed=3,
        )
        result = execute_sweep(spec, ExecutionPolicy(workers=workers))
        assert result.complete and len(result.rows) == 8
        for row in result.rows:
            assert not row.opt_exact
            assert row.opt_lower <= row.opt_upper
