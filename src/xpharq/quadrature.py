"""Ground-truth numerical machinery.

This module holds the reference oracles for the analytical formulas
elsewhere in the package: a self-contained adaptive Gauss-Kronrod
integrator, the nested quadrature of the exact XP outage probability over
the joint density below, the nested integral behind the high-SNR
coefficients, and phi by direct quadrature.  No production path calls
them, and no other module of the package imports this one.

The change of variables behind the nested integrals is

    x_k = prod_{l<=k} (1 + gamma_l),   x_0 = 1,

under which the XP outage event becomes the simplex-like region
x_{k-1} < x_k < 2^{R_k^sum} for every k, and the joint density of
(x_1, ..., x_K) factorizes as

    prod_{i=1}^{K-1} x_i^{-1} * prod_k (1/gbar_k) exp(-(x_k/x_{k-1} - 1)/gbar_k).

The innermost integral (over x_K) is an exponential in x_K/x_{K-1} and is
done analytically, reducing the numerical dimension by one.
"""

from __future__ import annotations

import heapq
import math
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


def _vector_call(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Call f on an array of abscissae, falling back to a scalar loop."""
    try:
        out = np.asarray(f(xs), dtype=float)
        if out.shape == xs.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(x))) for x in xs])


def _gk15(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7/15 panel: (kronrod value, |kronrod - gauss|)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ys = _vector_call(f, center + half * _NODES)
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
    rel_tol * |integral|).  The integrand may be vectorized over numpy
    arrays; scalar-only callables are handled transparently.

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


def xp_outage_quadrature(
    rates: RateSchedule,
    powers: PowerProfile,
    tol: float = 1e-10,
    rel_tol: float = 1e-9,
) -> Estimate:
    """Exact XP outage probability by nested adaptive quadrature (K <= 4).

    Integrates the transformed joint density over the outage region
    x_{k-1} < x_k < 2^{R_k^sum}.  Each level maps its cell onto [0, 1] and
    tightens the tolerance tenfold so inner errors stay inside the outer
    budget; the innermost level is analytic.
    """
    _check_rounds(rates, powers)
    K = rates.K
    if K > 4:
        raise ValueError("nested quadrature supports K <= 4; use Monte Carlo beyond")
    thresholds = [2.0 ** c for c in rates.cumulative()]
    gbars = powers.snr_bars

    if K == 1:
        p = -math.expm1(-(thresholds[0] - 1.0) / gbars[0])
        return Estimate(p, "xp-quadrature", 1e-16)

    def innermost(x: np.ndarray) -> np.ndarray:
        # integral over x_K of its conditional density, times x_{K-1}
        # (which cancels the x_{K-1}^{-1} density factor)
        return x * (-np.expm1(-(thresholds[-1] / x - 1.0) / gbars[-1]))

    def level(k: int, lower: float, tol_k: float, rel_k: float) -> float:
        """Integral over x_k from `lower` to its threshold, inner levels nested."""
        hi = thresholds[k - 1]
        width = hi - lower
        gbar = gbars[k - 1]

        if k == K - 1:
            def integrand(u: np.ndarray) -> np.ndarray:
                xk = lower + width * u
                w = np.exp(-(xk / lower - 1.0) / gbar) / gbar
                return width * w / xk * innermost(xk)
        else:
            def integrand(u: np.ndarray) -> np.ndarray:
                us = np.atleast_1d(np.asarray(u, dtype=float))
                out = np.empty_like(us)
                for i, ui in enumerate(us):
                    xk = lower + width * float(ui)
                    w = math.exp(-(xk / lower - 1.0) / gbar) / gbar
                    out[i] = width * w / xk * level(k + 1, xk, tol_k * 0.1, rel_k * 0.1)
                return out if np.ndim(u) else out[0]

        return integrate_adaptive(integrand, 0.0, 1.0, tol_k, rel_tol=rel_k).value

    top = level(1, 1.0, tol, rel_tol)
    # Inner levels contribute at most ~tol/9 on top of the outer estimate.
    uncertainty = tol + rel_tol * abs(top)
    p = clamp_probability(top, max(100.0 * tol, 1e-9), "xp outage (quadrature)")
    return Estimate(p, "xp-quadrature", uncertainty)


def hbar_quadrature(
    rates: RateSchedule,
    k: int = 1,
    x: float = 1.0,
    rel_tol: float = 1e-10,
) -> float:
    """Nested-integral evaluation of the high-SNR coefficient hbar_{K,k}(x).

    Defined by hbar_{K,K}(x) = 2^{R_K^sum} - x and

        hbar_{K,k}(x) = integral_x^{2^{R_k^sum}} t^{-1} hbar_{K,k+1}(t) dt.

    Independent of the recursive coefficient-table construction; used to
    validate it.  The innermost integral is analytic, so the numerical
    depth is K - k - 1.  Cost grows geometrically with depth.
    """
    K = rates.K
    if not 1 <= k <= K:
        raise ValueError(f"level {k} outside 1..{K}")
    if x <= 0.0:
        raise ValueError("x must be positive")
    thresholds = [2.0 ** c for c in rates.cumulative()]
    if x > thresholds[k - 1]:
        raise ValueError(f"x={x} above the level-{k} threshold {thresholds[k - 1]}")

    if k == K:
        return thresholds[-1] - x

    def penultimate(lo: np.ndarray) -> np.ndarray:
        # integral_lo^{T_{K-1}} t^{-1} (T_K - t) dt, closed form
        return thresholds[-1] * np.log(thresholds[-2] / lo) - (thresholds[-2] - lo)

    if k == K - 1:
        return float(penultimate(np.asarray(x)))

    def level(j: int, lower: float, tol_rel: float) -> float:
        hi = thresholds[j - 1]
        width = hi - lower

        if j == K - 2:
            def integrand(u: np.ndarray) -> np.ndarray:
                t = lower + width * u
                return width / t * penultimate(t)
        else:
            def integrand(u: np.ndarray) -> np.ndarray:
                us = np.atleast_1d(np.asarray(u, dtype=float))
                out = np.empty_like(us)
                for i, ui in enumerate(us):
                    t = lower + width * float(ui)
                    out[i] = width / t * level(j + 1, t, tol_rel * 0.1)
                return out if np.ndim(u) else out[0]

        return integrate_adaptive(
            integrand, 0.0, 1.0, tol=1e-300, rel_tol=tol_rel
        ).value

    return level(k, x, rel_tol)


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
