"""The bound function :math:`c(\\varepsilon, m)` and its parameter recursion.

Section 2 of the paper defines, for slack :math:`\\varepsilon \\in (0, 1]`
and :math:`m` machines, parameters :math:`f_q(\\varepsilon, m)` for
:math:`q \\in \\{k, \\dots, m\\}` through

.. math::

    f_m(\\varepsilon, m) = \\frac{1 + \\varepsilon}{\\varepsilon}
    \\qquad\\text{(anchor, Eq. (4))}

.. math::

    c(\\varepsilon, m)
      = \\frac{1 + m \\cdot f_q(\\varepsilon, m)}
             {k + \\sum_{h=k}^{q-1} (f_h(\\varepsilon, m) - 1)}
    \\quad \\text{independent of } q \\in \\{k, \\dots, m\\}
    \\qquad\\text{(Eq. (5))}

subject to the technical constraint :math:`f_q \\ge 2` (Eq. (6)).  The
*phase index* :math:`k \\in \\{1, \\dots, m\\}` is the unique value keeping
(6) valid; its corner values :math:`\\varepsilon_{k,m}` — defined by
:math:`f_k(\\varepsilon_{k,m}, m) = 2` (Eq. (7)) — partition the slack
interval :math:`(0, 1]` into :math:`m` phases.

Numerical strategy
------------------

Eq. (5) with :math:`q = k` gives :math:`f_k = (c k - 1)/m`, and equality of
the ratio for consecutive :math:`q` gives the *forward chain*

.. math::

    D_k = k, \\qquad D_{q+1} = D_q + f_q - 1, \\qquad
    f_{q+1} = \\frac{c \\cdot D_{q+1} - 1}{m},

so that :math:`f_m` is a strictly increasing polynomial of :math:`c` of
degree :math:`m - k + 1`.  We therefore obtain :math:`c(\\varepsilon, m)`
by Brent root-finding of :math:`f_m(c) = (1+\\varepsilon)/\\varepsilon`
(default), or, for small systems, by solving the explicit polynomial.  The
root-finder is :func:`_brentq`, a port of scipy's ``brentq`` that returns
the same float on every call (the test-suite checks it against
:func:`scipy.optimize.brentq`), so importing the package needs numpy alone.

Corner values come for free: at :math:`\\varepsilon_{k,m}` we have
:math:`f_k = 2`, hence :math:`c = (2m+1)/k`; running the forward chain
yields :math:`f_m` and :math:`\\varepsilon_{k,m} = 1/(f_m - 1)`.

The closed forms reported in the paper (e.g. Eq. (1) for ``m = 2``) are
implemented independently and cross-validated against the numeric solver in
the test-suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "ThresholdParameters",
    "BoundFunction",
    "corner_values",
    "corner_values_exact",
    "corner_closed_form",
    "phase_index",
    "c_bound",
    "threshold_parameters",
    "forward_f_chain",
    "forward_polynomial",
    "asymptotic_bound",
    "closed_form_last_phase",
    "closed_form_second_last_phase",
    "closed_form_third_last_phase",
    "closed_form_m2",
    "clamp_epsilon",
]

#: Paper analyses slack in ``(0, 1]``; larger slack is clamped to 1 by the
#: algorithm layer (thresholds stay valid — they only become conservative).
EPSILON_MAX = 1.0

#: Root-finding tolerance on ``c``.
_C_XTOL = 1e-13


def clamp_epsilon(epsilon: float) -> float:
    """Clamp a declared slack into the analysed range ``(0, 1]``.

    The slack condition for ``epsilon > 1`` implies the condition for
    ``epsilon = 1``, so running the algorithm with the clamped value keeps
    every guarantee (footnote 2 of the paper notes constant-competitive
    greedy alternatives for ``epsilon > 1``).
    """
    if not epsilon > 0:  # refuses NaN too
        raise ValueError(f"slack must be positive, got {epsilon}")
    return min(epsilon, EPSILON_MAX)


def forward_f_chain(c: float, m: int, k: int) -> np.ndarray:
    """Evaluate the forward chain: parameters ``f_k .. f_m`` for ratio *c*.

    Returns an array of length ``m - k + 1`` whose entry ``i`` is
    :math:`f_{k+i}`.  Monotonicity :math:`f_q < f_{q+1}` holds whenever the
    produced values satisfy :math:`f_q > 1` (the analysed regime).
    """
    if not 1 <= k <= m:
        raise ValueError(f"phase index k={k} out of range [1, {m}]")
    f = np.empty(m - k + 1, dtype=float)
    f[0] = (c * k - 1.0) / m
    depth = float(k)
    for i in range(1, m - k + 1):
        depth += f[i - 1] - 1.0
        f[i] = (c * depth - 1.0) / m
    return f


def forward_polynomial(m: int, k: int) -> np.polynomial.Polynomial:
    """The map ``c -> f_m`` of the forward chain as an explicit polynomial.

    Degree is ``m - k + 1``.  Used for the closed-form solvers (the paper's
    analytic expressions for phases ``k ∈ {m-2, m-1, m}`` are exactly the
    low-degree cases) and for cross-validating the iterative chain.
    """
    Poly = np.polynomial.Polynomial
    f = Poly([-1.0 / m, k / m])  # f_k = (c k - 1) / m
    depth = Poly([float(k)])
    for _ in range(k, m):
        depth = depth + f - 1.0
        # f_{q+1} = (c * D_{q+1} - 1) / m ; multiplying by c shifts coeffs.
        shifted = Poly(np.concatenate(([0.0], depth.coef)))
        f = (shifted - 1.0) / m
    return f


def corner_closed_form(k: int, m: int) -> float:
    """Closed form for the corner values (derived in this reproduction):

    .. math::

        \\varepsilon_{k,m} \\;=\\;
        \\Bigl(\\frac{km}{km + 2m + 1}\\Bigr)^{m-k}
        \\qquad k \\in \\{1, \\dots, m\\}.

    *Proof sketch.*  At the corner, :math:`c = (2m+1)/k` and the forward
    chain's depth recursion :math:`D_{q+1} = D_q (1 + c/m) - (m+1)/m` is
    affine with ratio :math:`\\rho = (km+2m+1)/(km)` and fixed point
    :math:`D^* = (m+1)/c`; starting from :math:`D_k = k` one gets
    :math:`D_q - D^* = \\frac{km}{2m+1}\\rho^{\\,q-k}`, hence
    :math:`f_m - 1 = c (D_m - D^*)/m = \\rho^{\\,m-k}` and
    :math:`\\varepsilon_{k,m} = 1/(f_m - 1) = \\rho^{-(m-k)}`.

    The paper computes corners numerically; this expression reproduces
    Eq. (7)'s values exactly (e.g. :math:`\\varepsilon_{1,2} = 2/7`,
    :math:`\\varepsilon_{1,3} = 9/100`, :math:`\\varepsilon_{2,3} = 6/13`)
    and is cross-validated against the rational-arithmetic chain in the
    test-suite for all :math:`m \\le 12`.
    """
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    return (k * m / (k * m + 2.0 * m + 1.0)) ** (m - k)


@lru_cache(maxsize=64)
def corner_values_exact(m: int) -> tuple:
    """Corner values as exact rationals (:class:`fractions.Fraction`).

    At a corner, :math:`c = (2m+1)/k` and :math:`f_k = 2` are rational, and
    the forward chain preserves rationality, so every
    :math:`\\varepsilon_{k,m} = 1/(f_m - 1)` is an exact rational number —
    e.g. :math:`\\varepsilon_{1,2} = 2/7`, :math:`\\varepsilon_{1,3} =
    9/100`, :math:`\\varepsilon_{2,3} = 6/13`.  Used to cross-validate the
    float pipeline to full precision.
    """
    from fractions import Fraction

    if m < 1:
        raise ValueError(f"machine count must be >= 1, got {m}")
    corners: list = [Fraction(0)]
    for k in range(1, m):
        c = Fraction(2 * m + 1, k)
        f = Fraction(c * k - 1, m)
        depth = Fraction(k)
        for _ in range(k, m):
            depth += f - 1
            f = (c * depth - 1) / m
        corners.append(1 / (f - 1))
    corners.append(Fraction(1))
    return tuple(corners)


@lru_cache(maxsize=256)
def corner_values(m: int) -> tuple[float, ...]:
    """Corner values ``(eps_{0,m}, eps_{1,m}, ..., eps_{m,m})``.

    ``eps_{0,m} = 0`` and ``eps_{m,m} = 1`` by definition; for
    ``k ∈ {1, ..., m-1}`` the value solves :math:`f_k(\\varepsilon) = 2`
    (Eq. (7)).  Uses the closed form derived in this reproduction
    (:func:`corner_closed_form`, proven equal to running the forward chain
    at :math:`c = (2m+1)/k` and cross-validated against exact rational
    arithmetic in the test-suite), making the whole tuple ``O(m)`` — the
    chain evaluation would be ``O(m^2)``, which matters for the capacity
    planner's fleet scans.  The sequence is strictly increasing.
    """
    if m < 1:
        raise ValueError(f"machine count must be >= 1, got {m}")
    corners = [0.0]
    corners.extend(corner_closed_form(k, m) for k in range(1, m))
    corners.append(1.0)
    return tuple(corners)


def phase_index(epsilon: float, m: int) -> int:
    """The phase ``k`` with ``epsilon ∈ (eps_{k-1,m}, eps_{k,m}]``."""
    epsilon = clamp_epsilon(epsilon)
    corners = corner_values(m)
    for k in range(1, m + 1):
        if epsilon <= corners[k] + 1e-15:
            return k
    return m  # pragma: no cover - unreachable because corners[m] = 1


@dataclass(frozen=True)
class ThresholdParameters:
    """The full parameter set Algorithm 1 needs for a given ``(eps, m)``.

    Attributes
    ----------
    m:
        Number of machines.
    epsilon:
        (Clamped) slack value the parameters were derived for.
    k:
        Phase index; the threshold uses the ``m - k + 1`` least loaded
        machines.
    c:
        The bound value :math:`c(\\varepsilon, m) = (m f_k + 1)/k`.
    f:
        Array of length ``m - k + 1``; ``f[i]`` is :math:`f_{k+i}` — the
        multiplier of the machine with the ``(k+i)``-th largest load
        (1-based machine ranks ``k .. m``).
    """

    m: int
    epsilon: float
    k: int
    c: float
    f: np.ndarray

    def factor_for_rank(self, rank: int) -> float:
        """The multiplier :math:`f_{rank}` for 1-based load rank ``rank``.

        Ranks below ``k`` do not take part in the threshold and raise.
        """
        if not self.k <= rank <= self.m:
            raise ValueError(f"rank {rank} outside threshold range [{self.k}, {self.m}]")
        return float(self.f[rank - self.k])

    def verify(self, atol: float = 1e-8) -> None:
        """Self-check the defining identities (anchor, Eq. (5), Eq. (6))."""
        anchor = (1.0 + self.epsilon) / self.epsilon
        if not math.isclose(self.f[-1], anchor, rel_tol=1e-9, abs_tol=atol):
            raise AssertionError(
                f"anchor violated: f_m={self.f[-1]} != (1+eps)/eps={anchor}"
            )
        depth = float(self.k)
        for i, fq in enumerate(self.f):
            ratio = (1.0 + self.m * fq) / depth
            if not math.isclose(ratio, self.c, rel_tol=1e-8, abs_tol=atol):
                raise AssertionError(
                    f"Eq.(5) violated at q={self.k + i}: ratio {ratio} != c {self.c}"
                )
            depth += fq - 1.0
        if np.any(self.f < 2.0 - 1e-9):
            raise AssertionError(f"Eq.(6) violated: min f = {self.f.min()} < 2")
        if np.any(np.diff(self.f) <= -1e-12):
            raise AssertionError("monotonicity f_q < f_{q+1} violated")


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """A root of *f* in ``[xa, xb]`` by Brent's method.

    A port of scipy's ``brentq.c`` (Brent 1973, ch. 4): the same float
    operations in the same order, the same stopping rule
    ``|xblk - xcur| / 2 < (xtol + rtol |xcur|) / 2`` and the same early
    return when an endpoint is a root, so it returns the float
    :func:`scipy.optimize.brentq` returns.  Like scipy it raises
    :class:`ValueError` for a bracket whose ends have the same sign or a
    NaN residual, and :class:`RuntimeError` once *maxiter* iterations
    pass without convergence.

    At the top of each iteration the root lies between ``xcur`` (the
    best estimate) and ``xblk``, and ``xpre`` is the previous estimate;
    the step is an inverse quadratic (or secant) one when it is short
    enough, a bisection otherwise.
    """

    def residual(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = residual(xpre)
    fcur = residual(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    # C divides an underflowed denominator to inf or NaN,
                    # which fails the short-step test below: bisect.
                    stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = residual(xcur)
    raise RuntimeError(
        f"Failed to converge after {maxiter} iterations, value is {xcur:.6g}"
    )


class BoundFunction:
    """The tight bound :math:`c(\\cdot, m)` for a fixed machine count.

    Construction precomputes the corner values; :meth:`value` and
    :meth:`parameters` solve the recursion for individual slack values, and
    :meth:`series` evaluates a whole grid (the Fig. 1 reproduction).
    """

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError(f"machine count must be >= 1, got {m}")
        self.m = m
        self.corners = np.array(corner_values(m))

    # ------------------------------------------------------------------
    def phase(self, epsilon: float) -> int:
        """Phase index ``k`` for slack *epsilon*."""
        return phase_index(epsilon, self.m)

    def value(self, epsilon: float) -> float:
        """The bound :math:`c(\\varepsilon, m)`."""
        return self.parameters(epsilon).c

    def parameters(self, epsilon: float) -> ThresholdParameters:
        """Solve the recursion: phase, ratio and multipliers for *epsilon*."""
        epsilon = clamp_epsilon(epsilon)
        m = self.m
        k = self.phase(epsilon)
        target = (1.0 + epsilon) / epsilon
        if target == math.inf:
            raise ValueError(f"slack {epsilon!r} is too small: (1+eps)/eps overflows")

        def residual(c: float) -> float:
            return forward_f_chain(c, m, k)[-1] - target

        c_lo = (2.0 * m + 1.0) / k  # corner of the phase: f_k = 2 exactly
        r_lo = residual(c_lo)
        if abs(r_lo) <= 1e-12:
            c_star = c_lo
        else:
            if r_lo > 0:
                # Numerical guard: epsilon is (up to float noise) at the
                # right corner where c_lo is already exact.
                c_star = c_lo
            else:
                # Double c_hi until it brackets the root.  For slacks near
                # 1/DBL_MAX the chain overflows first: refuse the slack
                # rather than let NumPy warn and solve on infinities.
                c_hi = max(2.0 * c_lo, 4.0)
                try:
                    with np.errstate(over="raise"):
                        while residual(c_hi) < 0.0:
                            c_hi *= 2.0
                            if c_hi == math.inf:
                                raise FloatingPointError
                except FloatingPointError:
                    raise ValueError(
                        f"slack {epsilon!r} is too small: c(eps, {m}) overflows"
                    ) from None
                c_star = _brentq(residual, c_lo, c_hi, xtol=_C_XTOL, rtol=1e-15)
        f = forward_f_chain(c_star, m, k)
        return ThresholdParameters(m=m, epsilon=epsilon, k=k, c=c_star, f=f)

    def series(self, eps_grid: Sequence[float]) -> np.ndarray:
        """Vectorized convenience: ``c(eps, m)`` for every eps in the grid."""
        return np.array([self.value(float(e)) for e in np.asarray(eps_grid, dtype=float)])

    def transition_points(self) -> list[tuple[float, float]]:
        """The Fig. 1 'circles': ``(eps_{k,m}, c(eps_{k,m}, m))`` pairs.

        Only interior corners ``k ∈ {1, ..., m-1}`` are transitions (the
        endpoints 0 and 1 delimit the domain).
        """
        return [
            (float(self.corners[k]), (2.0 * self.m + 1.0) / k)
            for k in range(1, self.m)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundFunction(m={self.m})"


@lru_cache(maxsize=64)
def _bound_function(m: int) -> BoundFunction:
    return BoundFunction(m)


def c_bound(epsilon: float, m: int) -> float:
    """Module-level cached evaluation of :math:`c(\\varepsilon, m)`."""
    return _bound_function(m).value(epsilon)


def threshold_parameters(epsilon: float, m: int) -> ThresholdParameters:
    """Module-level cached access to the Algorithm-1 parameter set."""
    return _bound_function(m).parameters(epsilon)


# ----------------------------------------------------------------------
# Closed forms (cross-validation targets; Eq. (1) and the analytic phases)
# ----------------------------------------------------------------------

def closed_form_last_phase(epsilon: float, m: int) -> float:
    """Phase ``k = m`` closed form: :math:`c = 1 + 1/m + 1/\\varepsilon`.

    Valid for ``epsilon ∈ (eps_{m-1,m}, 1]``; follows directly from
    ``c = (m f_m + 1)/m`` with the anchor ``f_m = (1+eps)/eps``.
    """
    return 1.0 + 1.0 / m + 1.0 / epsilon


def closed_form_second_last_phase(epsilon: float, m: int) -> float:
    """Phase ``k = m - 1`` closed form (positive quadratic root).

    Derived from the two-step chain
    ``f_{m-1} = (c (m-1) - 1)/m`` and ``c (m - 2 + f_{m-1}) = m F + 1``
    with ``F = (1+eps)/eps``, i.e.

    .. math:: (m-1) c^2 + (m^2 - 2m - 1) c - (m^2 F + m) = 0.

    For ``m = 2`` this reduces to Eq. (1)'s first branch.
    """
    if m < 2:
        raise ValueError("second-to-last phase needs m >= 2")
    big_f = (1.0 + epsilon) / epsilon
    a = m - 1.0
    b = m * m - 2.0 * m - 1.0
    const = -(m * m * big_f + m)
    disc = b * b - 4.0 * a * const
    return (-b + math.sqrt(disc)) / (2.0 * a)


def closed_form_third_last_phase(epsilon: float, m: int) -> float:
    """Phase ``k = m - 2`` closed form via the explicit cubic.

    The forward map is a cubic polynomial in ``c``; we return its unique
    root above the phase's corner ratio ``(2m+1)/(m-2)``.
    """
    if m < 3:
        raise ValueError("third-to-last phase needs m >= 3")
    big_f = (1.0 + epsilon) / epsilon
    poly = forward_polynomial(m, m - 2) - big_f
    roots = poly.roots()
    real = roots[np.abs(roots.imag) < 1e-9].real
    c_min = (2.0 * m + 1.0) / (m - 2.0)
    valid = real[real >= c_min - 1e-9]
    if len(valid) == 0:
        raise ValueError(
            f"no root >= {c_min}: epsilon={epsilon} is outside phase k={m - 2}"
        )
    return float(valid.min())


def closed_form_m2(epsilon: float) -> float:
    """Eq. (1) verbatim: the tight ratio for two machines.

    .. math::

        c(\\varepsilon, 2) = \\begin{cases}
            2 \\sqrt{25/16 + 1/\\varepsilon} + 1/2 & 0 < \\varepsilon < 2/7 \\\\
            3/2 + 1/\\varepsilon                  & 2/7 \\le \\varepsilon \\le 1
        \\end{cases}
    """
    if epsilon <= 0 or epsilon > 1:
        raise ValueError(f"Eq. (1) covers epsilon in (0, 1], got {epsilon}")
    if epsilon < 2.0 / 7.0:
        return 2.0 * math.sqrt(25.0 / 16.0 + 1.0 / epsilon) + 0.5
    return 1.5 + 1.0 / epsilon


def asymptotic_bound(epsilon: float) -> float:
    """Proposition 1's joint limit value :math:`\\ln(1/\\varepsilon)`."""
    if epsilon <= 0:
        raise ValueError(f"slack must be positive, got {epsilon}")
    return math.log(1.0 / epsilon)
