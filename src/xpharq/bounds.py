"""Outage probabilities and analytical throughput of both schemes by one
backward payoff recursion, and the closed-form lower bound.

With x_0 = 1 and x_k = prod_{l<=k} (1 + gamma_l), round k decodes once x_k
reaches U_k = 2^{L_k}, with L_k its limit in ``core.decoding_limits``.
Round k pays r_k if it decodes and c_k if it fails.  With gamma_k =
gbar_k u, a_k(x) = (U_k/x - 1)/gbar_k and V_{K+1} = 0, the payoff
expected from round k on, given x_{k-1} = x, is

    V_k(x) = r_k e^{-a_k(x)} + c_k (1 - e^{-a_k(x)})
             + int_0^{a_k(x)} e^{-u} V_{k+1}(x (1 + gbar_k u)) du,

and a cycle's is V_1(1).  Outage pays c = (0, ..., 0, 1).  Throughput is
E[R] / E[T] (renewal reward): E[R] pays r_k = L_k, E[T] pays r = c = 1,
and both ride one recursion on a leading payoff axis.  No term is
negative.  The last level is in closed form.  Each other V_{k+1} is read
at the ln x its caller's panels reach: at most n of them (the pass's
Chebyshev node count) are evaluated directly; more are read from a degree
n-1 Chebyshev interpolant in ln x on [0, ln U_k] (Trefethen,
*Approximation Theory and Approximation Practice*), its transform built
once per node count, read by numpy's ``chebval``.  The top level reads V_2
at m Gauss nodes per panel, so wherever it has at most n/m panels K = 3
needs no interpolant and K = 4 one, of V_3.

The u-integral runs over the panels [0, 1], [1, 2], ..., [32, 64]
clipped at a_k(x), Gauss-Legendre in v = ln(1 + gbar_k u); past u = 64,
e^{-u} leaves under 1e-27 of the largest payoff.  Where v passes 8, the
edges v = 8, 16, ... join them, so no panel is wider than 8 in v.

Every pass estimates its own error from numbers it already has: each
panel's Legendre coefficient tail, each interpolant's Chebyshev
coefficient tail, and the mass past the last panel, carried up the
levels (see ``_level``).  The first pass, (32, 16) (Chebyshev nodes, Gauss
nodes per panel), stops where that estimate meets the tolerance, an
outage's 1e-9 of its value: at high SNR outages of 1e-300 are normal,
and only relative accuracy means anything.  Elsewhere the passes (64,
16), (128, 32) and (256, 64) follow until one is within the tolerance of
the pass before; the second also adds its own estimate, since it takes
the first one's Gauss nodes and its gap cannot see their common error.
The estimate or gap that stopped the ladder, plus 1e-14 (of the value
for outage, of the largest payoff for throughput), is the uncertainty.

Where U_k is below 2, gbar_k a_k(x) is taken as expm1(ln U_k - ln x),
so rates near 0 keep their digits; elsewhere U_k/x - 1 keeps them at
any rate.

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
    _check_rounds,
    _unit_gauss,
    clamp_probability,
    decoding_limits,
)

__all__ = [
    "outage_lower",
    "outage_upper_ir",
    "ir_outage_chain",
    "xp_outage",
    "throughput_recursion",
]

_LN2 = math.log(2.0)

_PANEL_EDGES = np.array([0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
# widest v-panel, and the gbar * a_k(x) past which a dyadic panel can be wider
_V_WIDTH = 8.0
_WIDE = math.expm1(_V_WIDTH)
# (Chebyshev nodes, Gauss nodes per panel) for successive passes
_PASSES = ((32, 16), (64, 16), (128, 32), (256, 64))
# rounding error of a converged pass, relative to its scale, added to its error
_ROUNDOFF = 1e-14
# e^{-u} is 0 in double beyond this u
_U_TAIL = 745.0
_TINY = np.finfo(float).tiny


@cache
def _legendre_tail(m: int) -> np.ndarray:
    """The m x 2 matrix taking m samples at the Gauss nodes on [0, 1] to the
    Legendre coefficients m-2 and m-1 of their interpolant.

    The rule is exact to degree 2m - 1, so (2j + 1) sum_i w_i f_i P_j(2 t_i - 1)
    is the interpolant's coefficient of P_j for every j < m.
    """
    t, w = _unit_gauss(m)
    tail = np.polynomial.legendre.legvander(2.0 * t - 1.0, m - 1)[:, m - 2:]
    tail *= w[:, None] * (2 * np.arange(m - 2, m) + 1)
    tail.flags.writeable = False
    return tail


def outage_lower(rates: RateSchedule, powers: PowerProfile) -> Estimate:
    """Product of per-round outage probabilities (independent fading).

    The uncertainty bounds its rounding: (8 + 2 R_k) 2^-53 of the value per
    round, as 2^{R_k} - 1 magnifies the rounding of R_k ln 2.
    """
    _check_rounds(rates, powers)
    p = 1.0
    for r, g in zip(rates.rates, powers.snr_bars):
        p *= -math.expm1(-math.expm1(r * _LN2) / g)
    return Estimate(p, "lower-bound", (8 * rates.K + 2 * sum(rates.rates)) * 2.0 ** -53 * p)


def _failed(t: np.ndarray) -> np.ndarray:  # 1 - e^t: round k fails, at t = -a_k(x)
    return -np.expm1(t)


def _excess(s: np.ndarray, bits: float) -> np.ndarray:
    """U_k/x - 1 at ln x = s, U_k = 2^bits: gbar a_k(x) before clipping at 0.

    Taken as expm1(bits ln 2 - ln x) below one bit, where the subtraction
    would cancel, and as U_k e^{-ln x} - 1 from one bit on, where the
    rounding of bits ln 2 would cost up to bits ulps.
    """
    return np.expm1(bits * _LN2 - s) if bits < 1.0 else 2.0 ** bits * np.exp(-s) - 1.0


def _last(s: np.ndarray, bits: float, gbar: float, paid) -> np.ndarray:
    """V_K at ln x = s in closed form: ``paid`` at t = -a_K(x) (see ``_level``)."""
    return paid(np.minimum(-_excess(s, bits) / gbar, 0.0))


def _level(s: np.ndarray, bits: float, gbar: float, inner, m: int, paid=None):
    """V_k at ln x = s: what round k pays, plus e^{-u} V_{k+1}(ln x + v) over
    the panels; and an estimate of its error.

    U_k is 2^bits, and gbar * a_k(x) = U_k/x - 1 (``_excess``).
    ``paid(t)`` is r_k e^t + c_k (1 - e^t) at t = -a_k(x), or None if round
    k pays nothing; with a leading payoff axis its columns broadcast over
    three trailing axes.  Where the largest gbar * a_k(x) passes e^8 - 1,
    the v-edges 8, 16, ... below it join the dyadic ones, so no panel is
    wider than 8 in v; the guard spares the common path the merge.  Panels
    at or past the largest gbar * a_k(x) have zero width at every node and
    are left out, but at least one panel stays.

    ``inner(s)`` returns V_{k+1} at s and its error estimate, and so does
    this level: per payoff row a triple (a, r, b), the error at any s read
    being at most a + r |V(s)| and at most b.  Every payoff is nonnegative
    and at most 1, so an error e in V_{k+1} moves V_k by at most e (1 -
    e^{-a_k(x)}), and an error r V_{k+1} moves it by at most r V_k.  The
    rule's own error on a panel comes from the magnitudes t of the Legendre
    coefficients m-2 and m-1 of its m samples.  Falling geometrically from
    the panel mean M at degree 0 to t, the coefficients would reach t (t /
    M)^{(m+1)/(m-2)} at degree 2m, past which the rule is exact; the
    estimate takes min(t^2 / M, t), never less.  It joins r relative to V_k,
    and b as it is; the mass past the last panel, at most e^{-u} there,
    joins a and b.
    """
    excess = np.maximum(_excess(s, bits), 0.0)  # gbar * a_k(x)
    top = excess.max()
    edges = gbar * _PANEL_EDGES
    if top > _WIDE:
        edges = np.union1d(edges, np.expm1(np.arange(_V_WIDTH, math.log1p(top), _V_WIDTH)))
    edges = edges[:max(edges.searchsorted(top) + 1, 2)]
    v_edges = np.log1p(np.minimum(edges, excess[..., None]))
    width = v_edges[..., 1:] - v_edges[..., :-1]
    t, w = _unit_gauss(m)
    v = v_edges[..., :-1, None] + width[..., None] * t
    value, (floor, rate, uniform) = inner(s[..., None, None] + v)
    # u = (e^v - 1) / gbar and du = e^v / gbar dv
    f = np.exp(v - np.expm1(v) / gbar) * value
    # stacks of m-point dot products, each far below OpenBLAS's threading
    # threshold, so ``@`` wakes no helper thread here (unlike the contour's)
    mean = f @ w
    value = (mean * width).sum(axis=-1) / gbar
    tail = np.abs(f @ _legendre_tail(m))
    tail = tail[..., 0] + tail[..., 1]
    rule = (np.minimum(tail * tail / np.maximum(np.abs(mean), _TINY), tail)
            * width).sum(axis=-1) / gbar
    if paid is not None:
        value = value + paid((excess / -gbar)[:, None, None])[..., 0, 0]
    reach = top / gbar  # the largest a_k(x)
    contraction = -math.expm1(-reach)
    lost = max(math.exp(-edges[-1] / gbar) - math.exp(-reach), 0.0)
    return value, (floor * contraction + lost,
                   rate + (rule / np.maximum(np.abs(value), _TINY)).max(axis=-1),
                   uniform * contraction + lost + rule.max(axis=-1))


@cache
def _cheb_transform(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points of the first kind on [-1, 1], and the matrix
    taking values there to unscaled coefficients of the degree n-1 interpolant."""
    x = chebpts1(n)
    vt = chebvander(x, n - 1).T
    x.flags.writeable = vt.flags.writeable = False
    return x, vt


def _interpolate(f, n: int, lo: float, hi: float):
    """The degree n-1 Chebyshev interpolant on [lo, hi] of each payoff row of
    the values f returns, per row the sum of its last two coefficients'
    magnitudes (an estimate of its error), and what f returns beside the
    values.  Row by row, the arithmetic of ``Chebyshev.interpolate(f, n - 1,
    domain=[lo, hi])`` and of its evaluation, with the transform of each n
    built once."""
    x, vt = _cheb_transform(n)
    values, rest = f(polyutils.mapdomain(x, Chebyshev.window, [lo, hi]))
    # at most 256 x 256 by one or two columns: under OpenBLAS's threading
    # threshold, so ``@`` wakes no helper thread (unlike the contour's)
    c = (vt @ values[..., None])[..., 0].T
    c[0] /= n
    c[1:] /= 0.5 * n
    off, scl = polyutils.mapparms([lo, hi], Chebyshev.window)
    return (lambda s: chebval(off + scl * s, c)), np.abs(c[-2:]).sum(axis=0), rest


def _sampled(level, n: int, lo: float, hi: float, failed):
    """V_{k+1} = ``level`` at any array of ln x, and its error estimate (see
    ``_level``).  At most n points are evaluated directly, flattened, with
    the payoff axis restored in front; more are read from the n-node
    interpolant on [lo, hi], built per call, and below lo V_{k+1} is
    ``failed``.  The interpolant's coefficient tail joins the absolute parts
    of its nodes' estimate, which it carries as it stands: the nodes' errors
    vary smoothly with s."""
    def at(s):
        if s.size <= n:
            value, bound = level(s.ravel())
            return value.reshape(value.shape[:-1] + s.shape), bound
        cheb, tail, (floor, rate, uniform) = _interpolate(level, n, lo, hi)
        return (np.where(s < lo, failed, cheb(np.maximum(s, lo))),
                (floor + tail, rate, uniform + tail))
    return at


def _nested(bits: Sequence[float], gbars: Sequence[float], paid,
            n: int, m: int) -> tuple[list[float], list[float]]:
    """V_1(1) of each payoff at n Chebyshev nodes and m Gauss nodes per
    panel, and its error estimate: the smaller of a + r V_1(1) and b (see
    ``_level``).

    ``bits[k]`` is log2 U of 0-based round k, ``paid[k]`` what the round pays
    (see ``_level``); paid[k](-inf) is its c, and None pays 0.  V_{k+1} is
    interpolated only on [max(0, lo_k), ln U_k] with lo_k = ln U_{k+1} -
    sum_{l>k} ln(1 + 745 gbar_l).  Below lo_k every later round fails as long
    as each gamma_l stays under 745 gbar_l, so V_{k+1} is sum_{j>k} c_j but for
    K e^{-745}, 0 in double.  At large rates and low SNR its step is then no
    narrow feature of a wide interval.  The interpolant misses that sum by
    about 1e-12 at lo_k, so below lo_k the sum itself is used.
    """
    exact = (np.zeros(np.shape(paid[-1](0.0))[:-3]),) * 3  # no error, per payoff row
    inner = lambda s, k=len(bits) - 1: (_last(s, bits[k], gbars[k], paid[k]), exact)
    for k in range(len(bits) - 2, 0, -1):
        hi = bits[k - 1] * _LN2
        lo = bits[k] * _LN2 - sum(math.log1p(_U_TAIL * g) for g in gbars[k:])
        failed = sum(p(-math.inf) for p in paid[k:] if p is not None)
        if lo >= hi:
            inner = lambda s, v=failed: (v, exact)
            continue
        level = lambda s, k=k, f=inner: _level(s, bits[k], gbars[k], f, m, paid[k])
        inner = _sampled(level, n, max(lo, 0.0), hi, failed)
    s = np.zeros(1)
    if len(bits) == 1:
        value = inner(s)[0].ravel()
        return value.tolist(), [0.0] * value.size
    value, (floor, rate, uniform) = _level(s, bits[0], gbars[0], inner, m, paid[0])
    error = np.minimum(floor + rate * np.abs(value[..., 0]), uniform)
    return value.ravel().tolist(), np.ravel(error).tolist()


@np.errstate(over="ignore")
def _refine(evaluate, converged, estimate, what: str, stop_below_zero: bool = False) -> Estimate:
    """``estimate(values, errors, work)`` at the first pass over ``_PASSES``
    where ``converged(values, errors)`` holds, the values and their error
    estimates from ``evaluate(n, m)``, and ``work`` the record ``{"passes":
    count, "stop": what stopped the ladder}``.

    The first pass is measured by its own estimate (stop "estimate").
    Every later one is measured by its gap to the pass before (stop "gap"),
    and where both take the same m, by that gap plus its own estimate: the
    gap cannot see the error of the Gauss nodes they share.  A ladder that
    gives up raises ``ConvergenceError`` carrying the estimate of its last
    pass by that gap, with stop "raised".

    With ``stop_below_zero`` the first value is one that the tolerance
    measures relative to itself.  It sums nonnegative terms, so a pass
    that reads it below 0 has an error larger than the value, and no later
    pass can meet that tolerance: the ladder raises at that pass.

    Where gbar_k is tiny against U_k, a_k(x) overflows to inf, and the e^{-inf}
    = 0 that follows is exact, so overflow raises no warning here.
    """
    previous = None
    for count, (n, m) in enumerate(_PASSES, 1):
        values, errors = evaluate(n, m)
        if previous is None:
            gaps, stop = errors, "estimate"
        else:
            gaps, stop = [abs(v - p) for v, p in zip(values, previous)], "gap"
            if m == _PASSES[count - 2][1]:
                gaps = [g + e for g, e in zip(gaps, errors)]
        if stop_below_zero and values[0] < 0.0:
            raise ConvergenceError(
                f"{what}: the pass at {(n, m)} (Chebyshev, Gauss) nodes reads {values[0]:.3e}, "
                "below 0, so its error exceeds the value and no pass can meet the relative "
                "tolerance", estimate(values, [max(abs(v), g) for v, g in zip(values, gaps)],
                                      {"passes": count, "stop": "raised"}))
        if converged(values, gaps):
            return estimate(values, gaps, {"passes": count, "stop": stop})
        previous = values
    raise ConvergenceError(
        f"{what}: passes at {_PASSES[-2]} and {_PASSES[-1]} (Chebyshev, Gauss) nodes "
        f"differ by {max(gaps):.3e}", estimate(values, gaps, {"passes": count, "stop": "raised"}))


def _outage(limits: Sequence[float], powers: PowerProfile, rel_tol: float, what: str,
            method: str) -> Estimate:
    """The outage probability at ``limits`` (L_k of each round) by ``_refine``,
    clamped to [0, 1].  Outage pays c = (0, ..., 0, 1).

    The ladder stops once a pass's error estimate, or its gap (see
    ``_refine``), is at most rel_tol * value; that plus 1e-14 of the value is
    the uncertainty.  A pass that reads below 0 raises ``ConvergenceError``
    at once.  Only a converged value is clamped.
    """
    paid = [None] * (len(limits) - 1) + [_failed]
    evaluate = partial(_nested, limits, powers.snr_bars, paid)
    converged = lambda v, g: g[0] <= rel_tol * abs(v[0])
    estimate = lambda v, g, work: Estimate(v[0], method, g[0] + _ROUNDOFF * abs(v[0]), work)
    est = _refine(evaluate, converged, estimate, what, stop_below_zero=True)
    return Estimate(clamp_probability(est.value, 1e-9, what), method, est.uncertainty, est.work)


def outage_upper_ir(
    rates: RateSchedule,
    powers: PowerProfile,
    budget: float | None = None,
) -> Estimate:
    """HARQ-IR outage at the total rate R_K^sum: the XP upper bound.

    ``budget`` is the relative tolerance (default 1e-9).
    """
    _check_rounds(rates, powers)
    return _outage(decoding_limits(rates, "inr", "outage"), powers,
                   1e-9 if budget is None else float(budget), "IR outage", "ir-recursion")


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
    r1 = decoding_limits(rates, "inr", "throughput")[0]
    return [_outage((r1,) * k, powers.prefix(k), rel_tol, "IR outage", "ir-recursion").value
            for k in range(1, rates.K + 1)]


def xp_outage(
    rates: RateSchedule,
    powers: PowerProfile,
    *,
    rel_tol: float = 1e-9,
) -> Estimate:
    """Exact XP outage probability for any K.

    The first pass stops where its own error estimate is at most rel_tol *
    value, later ones where their gap is (see ``_refine``); that, plus a
    rounding floor of 1e-14 relative, is the reported uncertainty.
    """
    _check_rounds(rates, powers)
    return _outage(decoding_limits(rates, "xp", "outage"), powers, rel_tol, "XP outage",
                   "xp-recursion")


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

    E[R] pays r_k = L_k (``core.decoding_limits``) when round k decodes,
    E[T] 1 per round entered.  Scaled by max r_k and by K, each
    pays at most 1, as outage does.  The ladder stops once a pass's error
    estimates, or its gaps (see ``_refine``), move eta = E[R] / E[T] by at
    most max(1e-10, 1e-9 * eta) in those scaled units, which is max(1e-10 *
    max r_k / K, 1e-9 * eta) in the bits per channel use returned.  The
    uncertainty is (dE[R] + eta dE[T]) / E[T], each d that estimate or gap
    plus 1e-14 of that scale, which covers the interpolation and truncation
    errors of a rarely decoded E[R].
    """
    _check_rounds(rates, powers)
    reward = decoding_limits(rates, scheme, "throughput")
    top, slot = max(reward), 1.0 / rates.K
    column = lambda *p: np.array(p)[:, None, None, None]  # E[R], E[T] on the payoff axis
    cost = column(0.0, slot)
    paid = [lambda t, p=column(r / top, 0.0): p * np.exp(t) + cost for r in reward]
    evaluate = partial(_nested, reward, powers.snr_bars, paid)

    def converged(values, gaps):
        eta, gap = _ratio(values, gaps)
        return gap <= max(1e-10, 1e-9 * eta)

    def estimate(values, gaps, work):
        eta, err = _ratio(values, [g + _ROUNDOFF for g in gaps])
        return Estimate(eta * top * slot, f"analytical-{scheme}", err * top * slot, work)

    return _refine(evaluate, converged, estimate, f"{scheme} throughput")
