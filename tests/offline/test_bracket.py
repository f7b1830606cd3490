"""Unit tests for the optimum bracket."""

import pytest

from repro.offline.bracket import opt_bracket
from repro.offline.exact import exact_optimum
from repro.workloads import random_instance


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

