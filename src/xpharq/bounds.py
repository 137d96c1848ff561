"""Outage probabilities of both schemes by one backward recursion, and the
closed-form lower bound.

With x_0 = 1 and x_k = prod_{l<=k} (1 + gamma_l), every outage event here
is a set of nested upper limits on the same chain, Pr(x_k < U_k for every
k), for a nondecreasing threshold vector U:

* XP outage: U_k = 2^{R_k^sum}.
* HARQ-IR outage at the total rate, the XP upper bound: U_k = 2^{R_K^sum}.
* HARQ-IR fixed-rate chain, entry k: U = 2^{R_1} over the first k rounds.

Writing gamma_k = gbar_k u and a_k(x) = (U_k/x - 1)/gbar_k, the
probability of meeting the limits from round k on, given x_{k-1} = x, is

    G_K(x) = 1 - e^{-a_K(x)},
    G_k(x) = int_0^{a_k(x)} e^{-u} G_{k+1}(x (1 + gbar_k u)) du,

and the outage probability is G_1(1).  Every integrand is nonnegative, so
relative accuracy survives at any SNR.  The last level stays in closed
form; each intermediate G_{k+1} is held as a Chebyshev interpolant in
ln x on [0, ln U_k] (Trefethen, *Approximation Theory and Approximation
Practice*), cut from below where G_{k+1} is 1 in double (``_nested``).
The transform from values at the Chebyshev points to coefficients is
built once per process for each node count and reused.  The u-integral
runs over the fixed dyadic panels [0, 1], [1, 2], ..., [32, 64], clipped
at a_k(x), with Gauss-Legendre nodes in v = ln(1 + gbar_k u) inside each
panel; panels past the largest a_k(x) over the nodes are skipped, and
beyond u = 64 the weight e^{-u} leaves less than 1e-27 of the value.
The recursion runs at (Chebyshev nodes, Gauss nodes per panel) = (32, 8)
and doubles both until two successive results agree; their difference,
plus a rounding floor of 1e-14 relative, is the reported uncertainty.

The lower bound is the closed-form product of single-round outages,

    P_lower = prod_k (1 - e^{-(2^{R_k}-1)/gbar_k}).
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import Sequence

import numpy as np
from numpy.polynomial import polyutils
from numpy.polynomial.chebyshev import Chebyshev, chebpts1, chebvander

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
    "xp_outage_chain",
]

_LN2 = math.log(2.0)

_PANEL_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
# (Chebyshev nodes, Gauss nodes per panel) for successive passes
_PASSES = ((32, 8), (64, 16), (128, 32), (256, 64))
# relative rounding error of a converged pass, added to the reported gap
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


def _level(s: np.ndarray, limit: float, gbar: float, inner, m: int) -> np.ndarray:
    """G_k at ln x = s, integrating e^{-u} inner(ln x + v) over the panels.

    Panels that start at or beyond the largest gbar * a_k(x) have zero
    width at every node and are left out; at least one panel stays.
    """
    excess = np.maximum(limit * np.exp(-s) - 1.0, 0.0)  # gbar * a_k(x)
    edges = gbar * _PANEL_EDGES
    edges = edges[:max(np.searchsorted(edges, excess.max()) + 1, 2)]
    v_edges = np.log1p(np.minimum(edges, excess[..., None]))
    width = v_edges[..., 1:] - v_edges[..., :-1]
    t, w = _GAUSS[m]
    v = v_edges[..., :-1, None] + width[..., None] * t
    # u = (e^v - 1) / gbar and du = e^v / gbar dv
    f = np.exp(v - np.expm1(v) / gbar) * inner(s[..., None, None] + v)
    return ((f @ w) * width).sum(axis=-1) / gbar


def _closed_level(limit: float, gbar: float):
    """The last level in closed form: s = ln x -> 1 - e^{-max(limit/x - 1, 0)/gbar}."""
    return lambda s: -np.expm1(np.minimum((1.0 - limit * np.exp(-s)) / gbar, 0.0))


@cache
def _cheb_transform(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points of the first kind on [-1, 1], and the matrix
    taking values there to unscaled coefficients of the degree n-1 interpolant."""
    x = chebpts1(n)
    vt = chebvander(x, n - 1).T
    x.flags.writeable = vt.flags.writeable = False
    return x, vt


def _interpolate(f, n: int, lo: float, hi: float) -> Chebyshev:
    """The degree n-1 Chebyshev interpolant of f on [lo, hi].

    The arithmetic of ``Chebyshev.interpolate(f, n - 1, domain=[lo, hi])``,
    with the transform of each n built once per process.
    """
    x, vt = _cheb_transform(n)
    c = vt @ f(polyutils.mapdomain(x, Chebyshev.window, [lo, hi]))
    c[0] /= n
    c[1:] /= 0.5 * n
    return Chebyshev(c, domain=[lo, hi])


def _nested(limits: Sequence[float], gbars: Sequence[float], n: int, m: int) -> float:
    """G_1(1) at n Chebyshev nodes and m Gauss nodes per panel.

    G_{k+1} is interpolated only on [max(0, lo_k), ln U_k] with
    lo_k = ln U_{k+1} - sum_{l>k} ln(1 + 745 gbar_l), and is 1 below lo_k:
    there x_j < U_j for every j > k as long as each gamma_l stays under
    745 gbar_l, so 1 - G_{k+1} <= K e^{-745}, which is 0 in double.  At
    large rates and low SNR the step of G_{k+1} from 1 to 0 is then no
    longer a narrow feature of a wide interval.  The interpolant's own
    value at lo_k misses 1 by its interpolation error, about 1e-12 there,
    so values below lo_k are set to 1 rather than read from it.
    """

    inner = _closed_level(limits[-1], gbars[-1])
    for k in range(len(limits) - 2, 0, -1):
        hi = math.log(limits[k - 1])
        lo = math.log(limits[k]) - sum(math.log1p(_U_TAIL * g) for g in gbars[k:])
        if lo >= hi:
            inner = np.ones_like
            continue
        lo = max(lo, 0.0)
        cheb = _interpolate(lambda s: _level(s, limits[k], gbars[k], inner, m), n, lo, hi)
        inner = lambda s, c=cheb, lo=lo: np.where(s < lo, 1.0, c(np.maximum(s, lo)))
    if len(limits) == 1:
        return float(inner(0.0))
    return float(_level(np.zeros(1), limits[0], gbars[0], inner, m)[0])


def _refine(evaluate, tol: float, rel_tol: float, what: str) -> tuple[float, float]:
    """A probability from ``evaluate(n, m)`` over ``_PASSES``, and its uncertainty.

    Every recursion and the two-round closed form share this rule: stop
    once two passes differ by at most max(tol, rel_tol * value), and report
    that gap plus the rounding floor as the uncertainty.
    """
    previous = None
    for n, m in _PASSES:
        value = evaluate(n, m)
        if previous is not None:
            gap = abs(value - previous)
            if gap <= max(tol, rel_tol * abs(value)):
                return clamp_probability(value, 1e-9, what), gap + _ROUNDOFF * abs(value)
        previous = value
    raise ConvergenceError(
        f"{what}: passes at {_PASSES[-2]} and {_PASSES[-1]} (Chebyshev, Gauss) nodes "
        f"differ by {gap:.3e}",
        best_estimate=value,
        error_estimate=gap,
    )


def sum_info_cdf(
    r: float,
    powers: PowerProfile,
    rel_tol: float = 1e-9,
) -> tuple[float, float]:
    """Pr(sum_{k<=K} I_k < r) and an error estimate."""
    if r <= 0.0:
        return 0.0, 0.0
    limits = [2.0 ** r] * powers.K
    return _refine(partial(_nested, limits, powers.snr_bars), 0.0, rel_tol, "IR outage")


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
    is still undecodable after k rounds.  Drives the IR throughput formula.
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
    value, err = _refine(partial(_nested, limits, powers.snr_bars), tol, rel_tol, "XP outage")
    return Estimate(value, "xp-recursion", err)


def xp_outage_chain(
    rates: RateSchedule,
    powers: PowerProfile,
    tol: float = 1e-10,
) -> list[float]:
    """XP outage probabilities of every truncated schedule, k = 1..K."""
    _check_rounds(rates, powers)
    return [
        xp_outage(rates.prefix(k), powers.prefix(k), tol).value
        for k in range(1, rates.K + 1)
    ]
