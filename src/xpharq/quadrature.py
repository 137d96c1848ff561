"""Reference quadratures for the tests.

A self-contained adaptive Gauss-Kronrod integrator, phi by direct
quadrature on it, and one nested Gauss-Legendre rule behind the exact XP
outage probability and the high-SNR coefficients hbar.  No production path
calls them; the package imports this module only to export them.  They
import nothing from the package but ``.core``, so they share no node,
panel, cut-off or interpolant with the recursion in ``bounds``.

The nested integrals run over y_k = ln x_k, where

    x_k = prod_{l<=k} (1 + gamma_l),   x_0 = 1.

The XP outage event is y_{k-1} < y_k < ln 2^{R_k^sum} for every k, and the
step d = y_k - y_{k-1} = ln(1 + gamma_k) of round k has the density
e^{d - (e^d - 1)/gbar_k} / gbar_k, independently of the other rounds.
That d is ``bounds._level``'s v = ln(x_k/x_{k-1}), so the rule shares the
recursion's integrand.  The innermost level is in closed form, which
reduces the numerical dimension by one.
"""

from __future__ import annotations

import heapq
import math
from functools import cache
from typing import Callable

import numpy as np

from .core import (
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    _check_rounds,
    clamp_probability,
)

__all__ = [
    "integrate_adaptive",
    "xp_outage_quadrature",
    "hbar_quadrature",
    "phi_quadrature",
]


# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (positive half;
# the last node is the center).  Exactness on polynomials is checked in the
# test suite rather than trusted blindly.
_XGK_HALF = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WGK_HALF = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG7 = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_LN2 = math.log(2.0)
# the nested rule's largest pass: m nodes a level (leggauss solves an m x m
# eigenproblem, once per m), and m^D in all (16 MB an array)
_MAX_M, _MAX_NODES = 128, 2 ** 21
_leggauss = cache(np.polynomial.legendre.leggauss)


def _gk15(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel: (kronrod value, |kronrod - gauss|)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ys = np.asarray(f(center + half * _NODES), dtype=float)
    if not np.isfinite(ys).all():
        raise ValueError(f"integrand not finite on [{lo}, {hi}]")
    k15 = half * float(np.dot(_WGK, ys))
    g7 = half * float(np.dot(_WG7, ys[1::2]))
    return k15, abs(k15 - g7)


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    tol: float,
    rel_tol: float = 0.0,
    limit: int = 512,
) -> Estimate:
    """Adaptive bisection quadrature of f over [a, b], as a ``gauss-kronrod`` Estimate.

    The worst panel (by embedded Kronrod-vs-Gauss error estimate) is split
    until the summed estimate, the uncertainty, drops below max(tol,
    rel_tol * |integral|).  The integrand maps an array of abscissae to
    an array of values.

    Raises ConvergenceError carrying the best Estimate when the panel limit
    is reached first.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")
    if a == b:
        return Estimate(0.0, "gauss-kronrod", 0.0)

    val, err = _gk15(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    total_val, total_err = val, err
    counter = 1
    while total_err > max(tol, rel_tol * abs(total_val)):
        if len(heap) >= limit:
            raise ConvergenceError(
                f"quadrature did not reach tol={tol} within {limit} panels "
                f"(best estimate {total_val} +- {total_err})",
                Estimate(total_val, "gauss-kronrod", total_err))
        _, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
        # Re-sum occasionally to shed accumulated cancellation in the
        # running totals.
        if counter % 128 == 0:
            total_val = sum(item[4] for item in heap)
            total_err = sum(item[5] for item in heap)
    return Estimate(total_val, "gauss-kronrod", total_err)


def _nested_rule(log_limits, y0, last, weight, tol, rel_tol, what) -> Estimate:
    """The nested integral over y_0 < y_1 < ... < y_D, y_j up to log_limits[j - 1].

    Level j integrates weight(j - 1, y_j - y_{j-1}) times the levels inside
    it, and ``last(y_D)`` closes the nest (``last(y0)`` where D = 0).  An
    m-point Gauss-Legendre rule runs on every level's interval, each level's
    nodes a broadcast of the outer level's, so a pass is m^D evaluations.
    m doubles from 16 until two passes differ by at most max(tol, rel_tol *
    |value|).  The uncertainty is that gap plus tol, plus 1e-14 of the
    value for rounding, and ``what`` is the method tag.  Where the next
    pass would exceed _MAX_M nodes a level or _MAX_NODES in all,
    ConvergenceError carries the last.
    """
    prev, gap, m = math.inf, math.inf, 16
    while m <= _MAX_M and m ** len(log_limits) <= _MAX_NODES:
        t, w = _leggauss(m)
        y, mass = np.float64(y0), np.float64(1.0)
        for j, top in enumerate(log_limits):
            half = 0.5 * (top - y)[..., None]
            step = half * (t + 1.0)
            mass = mass[..., None] * (half * w) * weight(j, step)
            y = y[..., None] + step
        value = float((mass * last(y)).sum())
        gap = abs(value - prev)
        if gap <= max(tol, rel_tol * abs(value)):
            return Estimate(value, what, gap + tol + 1e-14 * abs(value))
        prev, m = value, 2 * m
    raise ConvergenceError(
        f"{what}: passes differ by {gap:.3e}, and {m} nodes a level would "
        f"exceed the largest pass", Estimate(prev, what, gap + tol))


def xp_outage_quadrature(
    rates: RateSchedule,
    powers: PowerProfile,
    tol: float = 0.0,
    rel_tol: float = 1e-9,
) -> Estimate:
    """Exact XP outage probability by the nested Gauss-Legendre rule (K <= 4).

    Integrates the density of y_k = ln x_k over the outage region
    y_{k-1} < y_k < ln 2^{R_k^sum}, k < K; round K's outage given
    y_{K-1} is in closed form.  By default two passes must agree to
    ``rel_tol`` of the value, with no absolute floor: an absolute ``tol``
    accepts two passes that both miss a narrow feature of the density, as
    at R = (8, 8), -40 dB, where the 16- and 32-node passes read 2.3e-127
    and 1.7e-31 and the outage is 1.
    """
    _check_rounds(rates, powers)
    K = rates.K
    if K > 4:
        raise ValueError("nested quadrature supports K <= 4; use Monte Carlo beyond")
    logs = [c * _LN2 for c in rates.cumulative()]
    gbars = powers.snr_bars

    def weight(j: int, d: np.ndarray) -> np.ndarray:
        # gamma_j = e^d - 1 has density e^{-gamma/gbar}/gbar, and d gamma = e^d dd
        return np.exp(d - np.expm1(d) / gbars[j]) / gbars[j]

    def last(y: np.ndarray) -> np.ndarray:
        return -np.expm1(-np.expm1(logs[-1] - y) / gbars[-1])

    est = _nested_rule(logs[:-1], 0.0, last, weight, tol, rel_tol, "xp-quadrature")
    p = clamp_probability(est.value, max(100.0 * tol, 1e-9), "xp outage (quadrature)")
    return Estimate(p, est.method, est.uncertainty)


def hbar_quadrature(
    rates: RateSchedule,
    k: int = 1,
    x: float = 1.0,
    rel_tol: float = 1e-10,
) -> float:
    """Nested-integral evaluation of the high-SNR coefficient hbar_{K,k}(x).

    Defined by hbar_{K,K}(x) = 2^{R_K^sum} - x and

        hbar_{K,k}(x) = integral_x^{2^{R_k^sum}} t^{-1} hbar_{K,k+1}(t) dt,

    which in y = ln t has weight 1.  Independent of the recursive
    coefficient-table construction; used to validate it.  Level K - 1 is
    in closed form, so the rule nests K - k - 1 deep, and its node cap
    stops it past K - k = 5.
    """
    K = rates.K
    if not 1 <= k <= K:
        raise ValueError(f"level {k} outside 1..{K}")
    if not x > 0.0:
        raise ValueError("x must be positive")
    thresholds = [2.0 ** c for c in rates.cumulative()]
    if x > thresholds[k - 1]:
        raise ValueError(f"x={x} above the level-{k} threshold {thresholds[k - 1]}")
    if k == K:
        return thresholds[-1] - x
    logs = [c * _LN2 for c in rates.cumulative()]

    def last(y: np.ndarray) -> np.ndarray:
        # hbar_{K,K-1}(e^y) = integral_y^{ln U_{K-1}} (U_K - e^s) ds
        return thresholds[-1] * (logs[-2] - y) - np.exp(y) * np.expm1(logs[-2] - y)

    return _nested_rule(logs[k - 1:-2], math.log(x), last, lambda j, d: 1.0,
                        0.0, rel_tol, "hbar-quadrature").value


def phi_quadrature(
    r1: float,
    r2: float,
    snr_bar1: float,
    snr_bar2: float,
    tol: float = 1e-12,
) -> Estimate:
    """The phi integral of the two-round closed form, by direct quadrature.

    Absolute error at most ``tol``.  The prefactor exponentials are folded
    into the integrand, whose combined exponent (1 - Z/z)/g1 + (1 - z)/g2
    is nonpositive over the whole interval, so no overflow is possible.
    """
    if not all(x > 0.0 for x in (r1, r2, snr_bar1, snr_bar2)):
        raise ValueError("rates and average SNRs must be positive")
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    big_z = 2.0 ** (r1 + r2)
    lo = 2.0 ** r2

    def integrand(z: np.ndarray) -> np.ndarray:
        expo = (1.0 - big_z / z) / snr_bar1 + (1.0 - z) / snr_bar2
        return np.exp(expo) / snr_bar2

    return integrate_adaptive(integrand, lo, big_z, tol)
