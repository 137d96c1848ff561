"""Outage probabilities and analytical throughput of both schemes by one
backward payoff recursion, and the closed-form lower bound.

With x_0 = 1 and x_k = prod_{l<=k} (1 + gamma_l), round k decodes once x_k
reaches U_k: 2^{R_k^sum} for XP, 2^{R_K^sum} for the HARQ-IR outage that
bounds XP's, 2^{R_1} for the HARQ-IR protocol.  Round k pays r_k if it
decodes and c_k if it fails.  With gamma_k = gbar_k u, a_k(x) =
(U_k/x - 1)/gbar_k and V_{K+1} = 0, the payoff expected from round k on,
given x_{k-1} = x, is

    V_k(x) = r_k e^{-a_k(x)} + c_k (1 - e^{-a_k(x)})
             + int_0^{a_k(x)} e^{-u} V_{k+1}(x (1 + gbar_k u)) du,

and a cycle's is V_1(1).  Outage pays c = (0, ..., 0, 1).  Throughput is
E[R] / E[T] (renewal reward): E[R] pays r_k = R_k^sum (XP) or R_1 (IR),
E[T] pays r = c = 1, and both ride one recursion on a leading payoff
axis.  No term is negative.  The last level is in closed form; each
other V_{k+1} is a Chebyshev interpolant in ln x on [0, ln U_k]
(Trefethen, *Approximation Theory and Approximation Practice*), its
transform built once per node count.  The u-integral runs over the
panels [0, 1], [1, 2], ..., [32, 64] clipped at a_k(x), Gauss-Legendre
in v = ln(1 + gbar_k u); past u = 64, e^{-u} leaves under 1e-27 of the
largest payoff.  Passes double (Chebyshev nodes, Gauss nodes per panel)
from (32, 8) until two agree; the gap plus 1e-14 (of the value for
outage, of the largest payoff for throughput) is the uncertainty.

The lower bound is prod_k (1 - e^{-(2^{R_k}-1)/gbar_k}).
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import Sequence

import numpy as np
from numpy.polynomial import polyutils
from numpy.polynomial.chebyshev import Chebyshev, chebpts1, chebval, chebvander

from .core import (
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    clamp_probability,
)

__all__ = [
    "outage_lower",
    "outage_upper_ir",
    "sum_info_cdf",
    "ir_outage_chain",
    "xp_outage",
    "throughput_recursion",
]

_LN2 = math.log(2.0)

_PANEL_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
# (Chebyshev nodes, Gauss nodes per panel) for successive passes
_PASSES = ((32, 8), (64, 16), (128, 32), (256, 64))
# rounding error of a converged pass, relative to its scale, added to the gap
_ROUNDOFF = 1e-14
# e^{-u} is 0 in double beyond this u
_U_TAIL = 745.0


def _unit_gauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    return (nodes + 1.0) / 2.0, weights / 2.0


_GAUSS = {m: _unit_gauss(m) for _, m in _PASSES}


def _check_rounds(rates: RateSchedule, powers: PowerProfile) -> None:
    if rates.K != powers.K:
        raise ValueError(f"schedule has {rates.K} rounds but profile has {powers.K}")


def outage_lower(rates: RateSchedule, powers: PowerProfile) -> float:
    """Product of per-round outage probabilities (independent fading)."""
    _check_rounds(rates, powers)
    p = 1.0
    for r, g in zip(rates.rates, powers.snr_bars):
        p *= -math.expm1(-math.expm1(r * _LN2) / g)
    return p


def _failed(t: np.ndarray) -> np.ndarray:  # 1 - e^t: round k fails, at t = -a_k(x)
    return -np.expm1(t)


def _level(s: np.ndarray, limit: float, gbar: float, inner=None, m=None,
           paid=None) -> np.ndarray:
    """V_k at ln x = s: what round k pays, plus e^{-u} inner(ln x + v) over the panels.

    ``paid(t)`` is r_k e^t + c_k (1 - e^t) at t = -a_k(x), or None if round
    k pays nothing; with a leading payoff axis its columns broadcast over
    three trailing axes.  With no ``inner`` (the last level) V_k is that
    payoff, in closed form.
    Panels at or past the largest gbar * a_k(x) have zero width at every
    node and are left out, but at least one panel stays.
    """
    if inner is None:
        return paid(np.minimum((1.0 - limit * np.exp(-s)) / gbar, 0.0))
    excess = np.maximum(limit * np.exp(-s) - 1.0, 0.0)  # gbar * a_k(x)
    edges = gbar * _PANEL_EDGES
    edges = edges[:max(edges.searchsorted(excess.max()) + 1, 2)]
    v_edges = np.log1p(np.minimum(edges, excess[..., None]))
    width = v_edges[..., 1:] - v_edges[..., :-1]
    t, w = _GAUSS[m]
    v = v_edges[..., :-1, None] + width[..., None] * t
    # u = (e^v - 1) / gbar and du = e^v / gbar dv
    f = np.exp(v - np.expm1(v) / gbar) * inner(s[..., None, None] + v)
    value = ((f @ w) * width).sum(axis=-1) / gbar
    return value if paid is None else value + paid((excess / -gbar)[:, None, None])[..., 0, 0]


@cache
def _cheb_transform(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points of the first kind on [-1, 1], and the matrix
    taking values there to unscaled coefficients of the degree n-1 interpolant."""
    x = chebpts1(n)
    vt = chebvander(x, n - 1).T
    x.flags.writeable = vt.flags.writeable = False
    return x, vt


def _interpolate(f, n: int, lo: float, hi: float):
    """The degree n-1 Chebyshev interpolant on [lo, hi] of each payoff row of f:
    row by row, the arithmetic of ``Chebyshev.interpolate(f, n - 1, domain=[lo,
    hi])`` and of its evaluation, with the transform of each n built once."""
    x, vt = _cheb_transform(n)
    c = (vt @ f(polyutils.mapdomain(x, Chebyshev.window, [lo, hi]))[..., None])[..., 0].T
    c[0] /= n
    c[1:] /= 0.5 * n
    off, scl = polyutils.mapparms([lo, hi], Chebyshev.window)
    return lambda s: chebval(off + scl * s, c)


def _outage(k_rounds: int):
    """Outage as a payoff: costs c = (0, ..., 0, 1) and what each round pays."""
    return [0.0] * (k_rounds - 1) + [1.0], [None] * (k_rounds - 1) + [_failed]


def _nested(limits: Sequence[float], gbars: Sequence[float], costs, paid,
            n: int, m: int) -> list[float]:
    """V_1(1) of each payoff at n Chebyshev nodes and m Gauss nodes per panel.

    ``paid[k]`` is what 0-based round k pays (see ``_level``), ``costs[k]``
    its c.  V_{k+1} is interpolated only on [max(0, lo_k), ln U_k] with
    lo_k = ln U_{k+1} - sum_{l>k} ln(1 + 745 gbar_l).  Below lo_k every
    later round fails as long as each gamma_l stays under 745 gbar_l, so
    V_{k+1} is sum_{j>k} c_j but for K e^{-745}, 0 in double.  At large
    rates and low SNR its step is then no narrow feature of a wide
    interval.  The interpolant misses that sum by about 1e-12 at lo_k, so
    below lo_k the sum is used rather than read from it.
    """
    inner = lambda s, k=len(limits) - 1: _level(s, limits[k], gbars[k], paid=paid[k])
    for k in range(len(limits) - 2, 0, -1):
        hi = math.log(limits[k - 1])
        lo = math.log(limits[k]) - sum(math.log1p(_U_TAIL * g) for g in gbars[k:])
        failed = sum(costs[k:])
        if lo >= hi:
            inner = lambda s, v=failed: v
            continue
        lo = max(lo, 0.0)
        level = lambda s, k=k, f=inner: _level(s, limits[k], gbars[k], f, m, paid[k])
        cheb = _interpolate(level, n, lo, hi)
        inner = lambda s, c=cheb, lo=lo, v=failed: np.where(s < lo, v, c(np.maximum(s, lo)))
    s = np.zeros(1)
    top = inner(s) if len(limits) == 1 else _level(s, limits[0], gbars[0], inner, m, paid[0])
    return top.ravel().tolist()


def _refine(evaluate, converged, what: str) -> tuple[list[float], list[float]]:
    """Values from ``evaluate(n, m)`` over ``_PASSES``, and their gaps to the
    pass before, at the first pass where ``converged(values, gaps)`` holds."""
    previous = None
    for n, m in _PASSES:
        values = evaluate(n, m)
        if previous is not None:
            gaps = [abs(v - p) for v, p in zip(values, previous)]
            if converged(values, gaps):
                return values, gaps
        previous = values
    raise ConvergenceError(
        f"{what}: passes at {_PASSES[-2]} and {_PASSES[-1]} (Chebyshev, Gauss) nodes "
        f"differ by {max(gaps):.3e}", best_estimate=values, error_estimate=gaps)


def _probability(evaluate, tol: float, rel_tol: float, what: str) -> tuple[float, float]:
    """One probability by ``_refine``, clamped to [0, 1], and its uncertainty.

    Every outage recursion and the two-round closed form stop once two
    passes differ by at most max(tol, rel_tol * value), and report that gap
    plus 1e-14 of the value.
    """
    converged = lambda v, g: g[0] <= max(tol, rel_tol * abs(v[0]))
    try:
        (value,), (gap,) = _refine(evaluate, converged, what)
    except ConvergenceError as exc:
        raise ConvergenceError(str(exc), exc.best_estimate[0], exc.error_estimate[0]) from None
    return clamp_probability(value, 1e-9, what), gap + _ROUNDOFF * abs(value)


def sum_info_cdf(
    r: float,
    powers: PowerProfile,
    rel_tol: float = 1e-9,
) -> tuple[float, float]:
    """Pr(sum_{k<=K} I_k < r) and an error estimate."""
    if r <= 0.0:
        return 0.0, 0.0
    limits = [2.0 ** r] * powers.K
    evaluate = partial(_nested, limits, powers.snr_bars, *_outage(powers.K))
    return _probability(evaluate, 0.0, rel_tol, "IR outage")


def outage_upper_ir(
    rates: RateSchedule,
    powers: PowerProfile,
    budget: float | None = None,
) -> Estimate:
    """HARQ-IR outage at the total rate R_K^sum: the XP upper bound.

    ``budget`` is the relative tolerance (default 1e-9).
    """
    _check_rounds(rates, powers)
    rel = 1e-9 if budget is None else float(budget)
    value, err = sum_info_cdf(rates.cumulative(rates.K), powers, rel_tol=rel)
    return Estimate(value, "ir-quadrature", err)


def ir_outage_chain(
    rates: RateSchedule,
    powers: PowerProfile,
    rel_tol: float = 1e-9,
) -> list[float]:
    """Per-round HARQ-IR outage chain at the protocol's fixed rate R_1.

    Entry k is Pr(sum_{l<=k} I_l < R_1): the probability the first message
    is still undecodable after k rounds.
    """
    _check_rounds(rates, powers)
    return [
        sum_info_cdf(rates.rates[0], powers.prefix(k), rel_tol)[0]
        for k in range(1, rates.K + 1)
    ]


def xp_outage(
    rates: RateSchedule,
    powers: PowerProfile,
    tol: float = 1e-10,
    rel_tol: float = 1e-9,
) -> Estimate:
    """Exact XP outage probability for any K.

    Converges until two passes differ by at most max(tol, rel_tol * value);
    that difference, plus a rounding floor of 1e-14 relative, is the
    reported uncertainty.
    """
    _check_rounds(rates, powers)
    limits = [2.0 ** c for c in rates.cumulative()]
    evaluate = partial(_nested, limits, powers.snr_bars, *_outage(rates.K))
    value, err = _probability(evaluate, tol, rel_tol, "XP outage")
    return Estimate(value, "xp-recursion", err)


def _ratio(values, gaps) -> tuple[float, float]:
    """eta = E[R] / E[T] and (dE[R] + eta dE[T]) / E[T]; E[R] below 0 by rounding reads 0."""
    (rate, slots), (d_rate, d_slots) = values, gaps
    eta = max(rate, 0.0) / slots
    return eta, (d_rate + eta * d_slots) / slots


def throughput_recursion(
    rates: RateSchedule,
    powers: PowerProfile,
    scheme: str = "xp",
) -> Estimate:
    """Long-term throughput E[R] / E[T] of XP or HARQ-IR for any K, by one recursion.

    E[R] pays r_k = R_k^sum (XP) or R_1 (IR, every limit 2^{R_1}) when round
    k decodes, E[T] 1 per round entered.  Scaled by max r_k and by K, each
    pays at most 1, as outage does.  The passes stop once their gaps move
    eta = E[R] / E[T] by at most max(1e-10, 1e-9 * eta).  The uncertainty is
    (dE[R] + eta dE[T]) / E[T], each d the pass gap plus 1e-14 of that
    scale, which covers the interpolation and truncation errors of a rarely
    decoded E[R].
    """
    _check_rounds(rates, powers)
    if scheme not in ("xp", "inr"):
        raise ValueError(f"scheme must be 'xp' or 'inr', got {scheme!r}")
    reward = rates.cumulative() if scheme == "xp" else (rates.rates[0],) * rates.K
    top, slot = max(reward), 1.0 / rates.K
    column = lambda *p: np.array(p)[:, None, None, None]  # E[R], E[T] on the payoff axis
    cost = column(0.0, slot)
    paid = [lambda t, p=column(r / top, 0.0): p * np.exp(t) + cost for r in reward]
    limits = [2.0 ** r for r in reward]
    evaluate = partial(_nested, limits, powers.snr_bars, [cost] * rates.K, paid)

    def converged(values, gaps):
        eta, gap = _ratio(values, gaps)
        return gap <= max(1e-10, 1e-9 * eta)

    values, gaps = _refine(evaluate, converged, f"{scheme} throughput")
    eta, err = _ratio(values, [g + _ROUNDOFF for g in gaps])
    return Estimate(eta * top * slot, f"analytical-{scheme}", err * top * slot)
