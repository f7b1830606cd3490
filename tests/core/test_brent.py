"""The Brent port of :mod:`repro.core.params` against ``scipy.optimize.brentq``.

scipy is a test-only dependency, so every test imports it itself.  Roots
are compared bit for bit (``float.hex``), errors by type.
"""

import math
import random

import numpy as np
import pytest

from repro.core import params
from repro.core.params import BoundFunction, _brentq

XTOL, RTOL = 1e-12, 1e-15


def _outcome(solve, f, xa, xb, xtol=XTOL, rtol=RTOL, maxiter=100):
    try:
        return ("root", float(solve(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter)).hex())
    except (ValueError, RuntimeError) as exc:
        return (type(exc).__name__,)


def _both(f, xa, xb, **kwargs):
    from scipy.optimize import brentq

    return _outcome(_brentq, f, xa, xb, **kwargs), _outcome(brentq, f, xa, xb, **kwargs)


def test_every_parameters_call_matches_scipy(monkeypatch):
    """Each root the bound function asks for, over m = 1..8 and 1,000 slacks."""
    from scipy.optimize import brentq

    calls = []

    def recording(f, xa, xb, xtol, rtol, maxiter=100):
        root = _brentq(f, xa, xb, xtol, rtol, maxiter)
        calls.append((f, xa, xb, xtol, rtol, root))
        return root

    monkeypatch.setattr(params, "_brentq", recording)
    grid = np.concatenate([np.linspace(1e-6, 1.0, 700), np.geomspace(1e-6, 1.0, 300)])
    for m in range(1, 9):
        bound = BoundFunction(m)
        for eps in grid:
            bound.parameters(float(eps))
    # Slacks at a phase corner take c without a root search; all others call.
    assert len(calls) > 0.99 * 8 * len(grid)
    mismatches = [
        (xa, xb, root)
        for f, xa, xb, xtol, rtol, root in calls
        if root.hex() != float(brentq(f, xa, xb, xtol=xtol, rtol=rtol)).hex()
    ]
    assert mismatches == []


class TestScipyContract:
    def test_root_at_either_endpoint(self):
        left, right = _both(lambda x: x - 1.0, 1.0, 3.0), _both(lambda x: x - 3.0, 1.0, 3.0)
        assert left == (("root", (1.0).hex()),) * 2
        assert right == (("root", (3.0).hex()),) * 2

    def test_endpoint_root_is_returned_before_the_sign_check(self):
        ours, theirs = _both(lambda x: x * (x - 1.0), 0.0, 0.5)
        assert ours == theirs == ("root", (0.0).hex())

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, XTOL, RTOL)
        assert _both(lambda x: x * x + 1.0, -1.0, 1.0) == (("ValueError",),) * 2

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: math.nan if x > 2.5 else x - 1.0,  # at an endpoint
            lambda x: x - 1.0 if x in (0.0, 3.0) else math.nan,  # mid-search
        ],
        ids=["endpoint", "mid-search"],
    )
    def test_nan_residual_raises(self, f):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 3.0, XTOL, RTOL)
        assert _both(f, 0.0, 3.0) == (("ValueError",),) * 2

    @pytest.mark.parametrize("maxiter", [0, 1, 3])
    def test_exhausted_maxiter_raises(self, maxiter):
        f = lambda x: x**3 - 2.0  # noqa: E731
        with pytest.raises(RuntimeError, match=f"after {maxiter} iterations"):
            _brentq(f, 0.0, 2.0, XTOL, RTOL, maxiter=maxiter)
        assert _both(f, 0.0, 2.0, maxiter=maxiter) == (("RuntimeError",),) * 2

    def test_underflowing_extrapolation_bisects_like_c(self):
        """Subnormal residuals underflow the extrapolation's denominator;
        C divides to inf or NaN and bisects, the port must do the same."""
        for scale in (1e-300, 1e-310, 1e-320):
            f = lambda x, s=scale: s * ((x - 0.3) ** 3 + 0.1 * (x - 0.3))  # noqa: E731
            ours, theirs = _both(f, -5.0, 5.0)
            assert ours == theirs and ours[0] == "root"

    @pytest.mark.parametrize("seed", range(4))
    def test_random_functions_and_tolerances(self, seed):
        rng = random.Random(seed)
        families = [
            lambda x, r: x**3 - r,
            lambda x, r: math.tanh(x - r),
            lambda x, r: math.exp(x) - math.exp(r),
            lambda x, r: (x - r) ** 5 + 1e-3 * (x - r),
            lambda x, r: math.floor(4.0 * (x - r)) + 0.5,  # a jump, no root
        ]
        for _ in range(100):
            family, r = rng.choice(families), rng.uniform(-3.0, 3.0)
            kwargs = {
                "xtol": 10.0 ** rng.uniform(-300, -2),
                "rtol": 10.0 ** rng.uniform(-15.05, -3),
                "maxiter": rng.choice([5, 100]),
            }
            a, b = -4.0 - rng.random(), 4.0 + rng.random()
            ours, theirs = _both(lambda x: family(x, r), a, b, **kwargs)
            assert ours == theirs
