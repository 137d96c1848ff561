"""Reference quadratures for the tests.

One nested Gauss-Legendre rule behind the exact XP outage probability and
the high-SNR coefficients hbar.  No production path calls it; the package
imports this module only to export it.  It imports nothing from the
package but ``.core``, whose Gauss-Legendre table (numpy's ``leggauss``
on [0, 1]) every quadrature of the package reads; it shares no panel,
cut-off or interpolant with the recursion in ``bounds``.

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

import math

import numpy as np

from .core import (
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    _check_rounds,
    _unit_gauss,
    clamp_probability,
)

__all__ = ["xp_outage_quadrature", "hbar_quadrature"]


_LN2 = math.log(2.0)
# the nested rule's largest pass: m nodes a level, and m^D in all (16 MB an
# array).  Each m's rule is one m x m eigenproblem, solved once: at m = 256
# about 0.01 s with OpenBLAS on one thread, as xpharq loads numpy, but about
# 0.5 s where numpy was loaded first with OpenBLAS's default threads
_MAX_M, _MAX_NODES = 128, 2 ** 21


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
    ConvergenceError carries the last pass with an infinite uncertainty:
    passes that all miss the same narrow feature bound nothing.
    """
    prev, gap, m = math.inf, math.inf, 16
    while m <= _MAX_M and m ** len(log_limits) <= _MAX_NODES:
        t, w = _unit_gauss(m)
        y, mass = np.float64(y0), np.float64(1.0)
        for j, top in enumerate(log_limits):
            span = (top - y)[..., None]
            step = span * t
            mass = mass[..., None] * (span * w) * weight(j, step)
            y = y[..., None] + step
        value = float((mass * last(y)).sum())
        gap = abs(value - prev)
        if gap <= max(tol, rel_tol * abs(value)):
            return Estimate(value, what, gap + tol + 1e-14 * abs(value))
        prev, m = value, 2 * m
    raise ConvergenceError(
        f"{what}: passes differ by {gap:.3e}, and {m} nodes a level would "
        f"exceed the largest pass", Estimate(prev, what, math.inf))


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

