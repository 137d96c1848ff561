"""The paper's two-round XP outage probability by its Mellin-Barnes route.

With g_k the per-round average SNRs, Z = 2^{R1+R2} and a_k =
(2^{R_k}-1)/g_k, the paper writes it as

    P = t1 + t23 - phi,   t1 = (1 - e^{-a1}) (1 - e^{-a2}),
    t23 = e^{-a2} - e^{-(Z-1)/g2},
    phi = (1/g2) e^{1/g1 + 1/g2} integral_{2^{R2}}^{Z} exp(-Z/(z g1) - z/g2) dz.

At high SNR t23 and phi cancel to O(1/(g1 g2)) and the subtraction loses
every digit.  The production value is ``bounds.xp_outage``, whose
backward recursion has no subtraction; this module is the independent
route that ``selftest`` checks it against.

phi survives in the paper's Mellin-Barnes representation

    phi = e^{1/g1+1/g2} (1/2 pi i) integral_{c-i inf}^{c+i inf}
          Gamma(s) [Gamma(s+1, b1) - Gamma(s+1, b2)] z^{-s} ds,

    z = 2^{R1+R2}/(g1 g2),  b1 = 2^{R2}/g2,  b2 = 2^{R1+R2}/g2,

i.e. a difference of two upper-incomplete variants of the H^{1,1}_{1,1}
function.  The kernel difference is the finite integral
int_{b1}^{b2} t^s e^{-t} dt (``incomplete_gamma_difference``), taken by
Gauss-Legendre panels in ln t for every contour node in one call; the
contour is a trapezoid along Re(s) = 1/2.  With b = 0 the kernel is the
complete Gamma(s+1) (``foxh_h11_incomplete``).  ``outage_k2_via_foxh``
assembles t1 + t23 - phi from it; it keeps the cancellation, and its
uncertainty grows with it.

Gamma(s) comes from ``_log_gamma``, Stirling's series in numpy, so the
module needs nothing beyond numpy.  Both quadratures take one pass, sized
in advance by a closed-form error bound, and report that bound:

* the kernel's Gauss-Legendre panel count is the first whose
  Bernstein-ellipse bound is 2e-12 of the kernel's L1 scale
  (``_kernel``);
* the contour's node at tau = 0 sizes the rest (``_mellin_contour``).  On
  the line |Gamma(1/2 + i tau)| = sqrt(pi / cosh(pi tau)) <= sqrt(2 pi)
  e^{-pi tau / 2}, so a closed-form bound on the integrand's rest beyond
  |Im s| = T follows from that node, and the line is cut where it falls
  below 2^-10 of the rounding floor 4e-16 |value| that the assembly
  already reports.  The step is where the Trefethen-Weideman bound 2M /
  (e^{2 pi a / h} - 1) of the trapezoid rule on a strip of half-width a <
  1/2 meets that floor, with M from Gamma's product formula and the kernel
  at two real orders.

The contour's uncertainty is the strip bound, the tail bound, each node's
kernel and log-gamma error and the node sum's rounding; where it exceeds
1e-8 of a bound on the value, the contour raises.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    _unit_gauss,
    clamp_probability,
)

__all__ = [
    "outage_k2_via_foxh",
    "incomplete_gamma_difference",
    "foxh_h11_incomplete",
    "phi_foxh",
]

_LN2 = math.log(2.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# Stirling's series for ln Gamma (DLMF 5.11.1): B_{2k} / (2k (2k-1)) for
# k = 1..8, summed at s shifted up by _STIRLING_SHIFT
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)
_STIRLING_SHIFT = 8

# Mellin-Barnes contour: the line Re(s) = _CONTOUR_C, the step of the grid
# its cut T is chosen on, and the farthest cut, |Im s| = 60
_CONTOUR_C = 0.5
_CONTOUR_STEP = 60.0 / 256
_CONTOUR_MAX_STEPS = 256
# the most nodes one pass takes, and the half-width a < 1/2 of the strip
# about the line, clear of Gamma's pole at s = 0, that the step is sized on:
# across the test grids the step it gives is within 1 % of the best a's
_CONTOUR_MAX_NODES = 4096
_STRIP_WIDTH = 0.495
# the assembly's rounding floor per unit of |t1| + t23 + |phi|, the share of
# it the rest of the line beyond the cut may take, and a trapezoid sum's
# rounding per unit of the sum of its |terms|
_ROUNDING = 4e-16
_CUT_SHARE = 2.0 ** -10
_EPS = 2.0 ** -52
_SUM_ROUNDING = 4.0 * _EPS

# Kernel panels: a 32-point Gauss-Legendre rule on [0, 1]; the panel count
# starts from the oscillation count, 64 radians of the phase of t^{i Im s}
# per panel, and doubles at most _KERNEL_DOUBLINGS times until the error
# bound meets _KERNEL_TOL of the L1 scale
_PANEL_PHASE = 64.0
_KERNEL_DOUBLINGS = 6
_KERNEL_TOL = 2e-12
# each panel's bound is the least over Bernstein ellipses rho = cap^j, j in
# _RHO_POWERS, with cap the widest ellipse that stays in |Im u| <= pi/2; and
# ln of the 32-point rule's constant (64/15) / 2 on a panel of unit width
_RHO_POWERS = np.arange(1, 33) / 32
_LOG_GAUSS_CONST = math.log(32.0 / 15.0)
# e^{-t} underflows to zero beyond this t
_T_UNDERFLOW = -math.log(math.ulp(0.0))
# e^x overflows a double beyond this x
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
# the contour assembly's excursions outside [0, 1] clamped as rounding
_CLAMP_TOL = 1e-9
# ``_log_gamma``'s error in ulps of max(1, |ln Gamma|), as the tests pin it
_LOG_GAMMA_ULPS = 32.0


def _log_l1_floor(re: np.ndarray, b1: float, width: float) -> np.ndarray:
    """ln of a lower bound on the L1 scale int_0^W e^{phi(u)} du, phi(u) = re u
    - b1 (e^u - 1), for each real ``re``.

    phi is concave, so on any [p, q] within [0, W] the integral is at least
    (q - p) min(e^{phi(p)}, e^{phi(q)}); the bound is the best such product
    over intervals about phi's peak of half-widths W 2^-k, k < 40.
    """
    peak = np.minimum(np.log(np.maximum(re, b1) / b1), width)  # at ln(re / b1) in [0, W]
    half = width * 2.0 ** -np.arange(40.0)
    p = np.maximum(peak[:, None] - half, 0.0)
    q = np.minimum(peak[:, None] + half, width)
    phi = lambda u: re[:, None] * u - b1 * np.expm1(u)
    return np.max(np.log(q - p) + np.minimum(phi(p), phi(q)), axis=1)


def _log_gauss_bound(re: np.ndarray, tau: float, b1: float, width: float,
                     panels: int) -> np.ndarray:
    """ln of a bound on the error of ``panels`` 32-point Gauss-Legendre panels
    on int_0^W e^{a u - b1 (e^u - 1)} du, for each real part ``re`` of a and
    |Im a| <= ``tau``.

    A panel of width h whose integrand is analytic and at most M on the
    Bernstein ellipse E_rho about it errs by at most (h/2) (64/15) M
    rho^-64 / (rho^2 - 1) (Trefethen, *Approximation Theory and
    Approximation Practice*, thm. 19.3).  The ellipse reaches h/4 (rho +
    1/rho) along the real axis and y = h/4 (rho - 1/rho) off it; with y <=
    pi/2, Re e^u >= e^{Re u} cos y >= 0, so on it |e^{-b1 (e^u - 1)}| <=
    e^{b1 (1 - e^{lo} cos y)}, lo its left end, and |e^{a u}| <= e^{re mid +
    |re| h/4 (rho + 1/rho) + tau y}, mid its centre.  Each panel takes its
    best rho; the pass's bound is the sum over panels.
    """
    h = width / panels
    cap = math.pi / h + math.hypot(math.pi / h, 1.0)  # rho - 1/rho = 2 pi / h
    rho = cap ** _RHO_POWERS
    reach, off = 0.25 * h * (rho + 1.0 / rho), 0.25 * h * (rho - 1.0 / rho)
    mid = (np.arange(panels) + 0.5) * h
    decay = b1 * (1.0 - np.exp(mid - reach[:, None]) * np.cos(off)[:, None])
    ellipse = (tau * off + math.log(h) + _LOG_GAUSS_CONST - 64.0 * np.log(rho)
               - np.log((rho - 1.0) * (rho + 1.0)))
    log_m = (re[:, None, None] * mid + np.abs(re)[:, None, None] * reach[:, None]
             + (decay + ellipse[:, None]))
    per_panel = log_m.min(axis=1)
    top = per_panel.max(axis=1)
    return top + np.log(np.exp(per_panel - top[:, None]).sum(axis=1))


def _kernel(s: np.ndarray, b1: float, b2: float) -> tuple[np.ndarray, np.ndarray, int]:
    """int_{b1}^{b2} t^s e^{-t} dt for a flat complex array ``s``, a bound
    on each value's error, and the Gauss-Legendre panel count.

    With t = b1 e^u the integral is b1^{s+1} e^{-b1} int_0^W e^{(s+1)u -
    b1 (e^u - 1)} du, W = ln(b2/b1), b2 clipped where e^{-t} underflows.
    The panel count is the first of P0, 2 P0, ..., 64 P0, P0 the
    oscillation count max |Im s| W / 64, whose ``_log_gauss_bound`` is at
    most 2e-12 of ``_log_l1_floor``, a floor under the L1 scale int_0^W
    |integrand| du, which bounds every value; finding it evaluates no
    integrand, and the one pass at that count (``_gauss_pass``) is the
    value.  Where 64 P0 panels do not meet the tolerance it raises a
    ``ConvergenceError`` with no estimate (a kernel array is none).
    """
    hi = min(b2, _T_UNDERFLOW)
    if b1 >= hi:
        return np.zeros(s.shape, dtype=complex), np.zeros(s.shape), 0
    width = math.log(hi / b1)
    a = s + 1.0
    re, which = np.unique(a.real, return_inverse=True)
    tau = float(np.abs(a.imag).max())
    floor = math.log(_KERNEL_TOL) + _log_l1_floor(re, b1, width)
    panels = max(1, math.ceil(tau * width / _PANEL_PHASE))
    for _ in range(_KERNEL_DOUBLINGS + 1):
        log_bound = _log_gauss_bound(re, tau, b1, width, panels)
        if np.all(log_bound <= floor):
            return (*_gauss_pass(a, re, which, b1, width, panels, log_bound), panels)
        panels *= 2
    raise ConvergenceError(
        f"incomplete gamma difference not converged at {panels // 2} panels "
        f"(b1={b1}, b2={b2}, error bound "
        f"{float(np.max(log_bound - floor)) / math.log(10.0):.1f} decades above tolerance)")


def _gauss_pass(a: np.ndarray, re: np.ndarray, which: np.ndarray, b1: float, width: float,
                panels: int, log_bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_kernel``'s pass of ``panels`` panels at the orders a = s + 1, whose
    distinct real parts are ``re`` (re[which] = a.real) and whose
    truncation bound is ``log_bound``; returns the values and error bounds.

    Each error bound adds the pass's rounding, eps (32 P + the largest
    |exponent|, that of b1^{s+1} included) of the L1 scale, to the
    truncation bound.  The weighted sums are taken by ``np.einsum``, not
    ``@``: a (nodes) x (32 panels) product is above OpenBLAS's threading
    threshold, so ``@`` would wake its helper thread, which then spins on
    another CPU long after the call returns.
    """
    h = width / panels
    nodes, weights = _unit_gauss(32)
    u = ((np.arange(panels)[:, None] + nodes) * h).ravel()
    w = np.tile(weights * h, panels)
    decay = b1 * np.expm1(u)
    terms = np.multiply.outer(a, u)
    terms -= decay
    vals = np.einsum("ij,j->i", np.exp(terms, out=terms), w)
    l1 = np.einsum("ij,j->i", np.exp(np.multiply.outer(re, u) - decay), w)
    log_b1 = math.log(b1)
    exponent = float(np.abs(a).max()) * (width + abs(log_b1)) + b1 * math.exp(width)
    error = np.exp(log_bound) + _EPS * (32 * panels + exponent) * l1
    return np.exp(a * log_b1 - b1) * vals, (np.exp(re * log_b1 - b1) * error)[which]


def incomplete_gamma_difference(s, b1: float, b2: float):
    """Gamma(s+1, b1) - Gamma(s+1, b2) = int_{b1}^{b2} t^s e^{-t} dt for complex s.

    Accepts a scalar or an array of orders (the Mellin contour passes all
    its nodes in one call); b2 may be inf.  One Gauss-Legendre pass in ln
    t, its panel count fixed in advance by a Bernstein-ellipse error bound
    (``_kernel``): each value's truncation error is at most 2e-12 of
    int_{b1}^{b2} t^{Re s} e^{-t} dt, which bounds its modulus, and its
    rounding adds eps (32 P + the largest exponent) of that (``_gauss_pass``).
    """
    s_arr = np.asarray(s, dtype=complex)
    if not 0.0 < b1 <= b2:
        raise ValueError("need 0 < b1 <= b2")
    out = _kernel(s_arr.reshape(-1), b1, b2)[0].reshape(s_arr.shape)
    return out if out.ndim else complex(out)


def _log_gamma(s: np.ndarray) -> np.ndarray:
    """ln Gamma(s) for an array of complex s with Re s > 0, up to a multiple of 2 pi i.

    Stirling's series (DLMF 5.11.1) through B_16 at w = s + 8, where |w| > 8
    leaves a remainder near 1e-17, and Gamma(s) = Gamma(w) / (s (s+1) ...
    (s+7)).  Callers take only exp of it, so the branch of the complex log
    does not matter.
    """
    w = s + _STIRLING_SHIFT
    inv2 = 1.0 / (w * w)
    series = np.zeros_like(w)
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    rising = s.copy()
    for k in range(1, _STIRLING_SHIFT):
        rising *= s + k
    return (w - 0.5) * np.log(w) - w + _HALF_LN_2PI + series / w - np.log(rising)


def _gamma_front(s: np.ndarray, log_z: float, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(s)^power z^{-s} as one exp, and a bound on its rounding per unit of its modulus.

    The exponent's error is that of ``_log_gamma``, at most 32 eps max(1,
    |ln Gamma|) against 30-digit mpmath for |Im s| <= 60 (the test suite
    pins it), power times, plus eps of |s ln z|; exp turns it into a
    relative error, and one more eps rounds the product the caller forms.
    """
    log_gamma = _log_gamma(s)
    rounding = _EPS * (power * _LOG_GAMMA_ULPS * np.maximum(1.0, np.abs(log_gamma))
                       + np.abs(s) * abs(log_z) + 3.0)
    return np.exp(power * log_gamma - s * log_z), rounding


def _contour_cut(tail, target: float) -> int:
    """The fewest first-pass steps T / _CONTOUR_STEP with tail(T) <= target, at most 256.

    Every tail falls with T, so a bisection on [1, 256) finds that step in
    at most 8 calls.
    """
    lo, hi = 1, _CONTOUR_MAX_STEPS
    while lo < hi:
        mid = (lo + hi) // 2
        if tail(mid * _CONTOUR_STEP) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _mellin_contour(integrand, tail, strip, magnitude: float, scale: float = 1.0) -> Estimate:
    """``scale`` (1/2 pi i) int integrand(s) ds along Re(s) = 1/2, for an
    integrand conjugate-symmetric in Im s, as a ``mellin-barnes`` Estimate.

    ``integrand(s)`` returns its values, a bound on each value's error and
    the kernel's panel count.  Folds the contour onto tau = Im s >= 0, so
    the integral is (1/pi) int_0^inf Re integrand dtau, and takes one
    trapezoid pass of step h with nodes tau = 0, h, ..., T, every weight h
    but h/2 at tau = 0.  The node at tau = 0 is evaluated first and sizes
    the pass; ``magnitude`` bounds |integral|.

    The cut: ``tail(T)`` bounds (1/pi) int_T^inf |integrand| dtau per unit
    of the node at tau = 0 by a majorant that falls with tau, so it also
    bounds the nodes beyond T.  T is the first multiple of 60/256 where it
    is at most 2^-10 of the rounding floor 4e-16 * magnitude, and 60 at
    most.

    The step: the integrand is analytic in the strip 1/2 - a < Re s < 1/2
    + a for any a < 1/2, clear of Gamma's pole at s = 0, and ``strip(sigma)``
    bounds (1/2 pi) int |integrand(sigma + i tau)| dtau per unit of the
    node at tau = 0; that bound is log-convex in sigma, so M, its larger
    value at sigma = 1/2 - a and 1/2 + a, bounds it across the strip.  The
    whole-line trapezoid rule then errs by at most 2 M / (e^{2 pi a / h} -
    1) (Trefethen & Weideman, *SIAM Review* 56, 2014, thm. 5.1).  With a =
    0.495, h is the largest step T / n at which that meets the rounding
    floor 4e-16 * magnitude, n at most 4096.

    The error is that strip bound, the cut's tail bound, the trapezoid sum
    of the integrand's own error bounds, and the sum's rounding 4 eps
    trapezoid(|integrand|): a bound, not a gap between passes.  Where it
    exceeds 1e-8 * magnitude the contour raises a ``ConvergenceError``
    carrying its estimate.  Value and error are scaled by ``scale``; its
    ``work`` counts the nodes, tau = 0 among them, and the kernel's panels.
    """
    head_vals, head_errs, _ = integrand(np.array([_CONTOUR_C + 0j]))
    head, head_err = float(head_vals.real[0]), float(np.max(head_errs))
    size = abs(head) + head_err
    target = _ROUNDING * magnitude
    rest = lambda t: size * tail(t)
    steps = _contour_cut(rest, _CUT_SHARE * target)
    span = steps * _CONTOUR_STEP
    a = _STRIP_WIDTH
    m = size * max(strip(_CONTOUR_C - a), strip(_CONTOUR_C + a))
    nodes = min(math.ceil(span * math.log1p(2.0 * m / target) / (2.0 * math.pi * a)),
                _CONTOUR_MAX_NODES)
    h = span / nodes
    vals, errs, panels = integrand(_CONTOUR_C + 1j * h * np.arange(1, nodes + 1))
    vals = vals.real
    weight = h / math.pi
    strip_error = 2.0 * m / math.expm1(2.0 * math.pi * a / h)
    value = weight * (0.5 * head + float(np.sum(vals)))
    error = (strip_error + rest(span)
             + weight * (0.5 * head_err + float(np.sum(errs)))
             + _SUM_ROUNDING * weight * (0.5 * abs(head) + float(np.sum(np.abs(vals)))))
    best = Estimate(scale * value, "mellin-barnes", scale * error,
                    {"nodes": nodes + 1, "kernel_panels": panels})
    if error <= 1e-8 * magnitude:
        return best
    raise ConvergenceError(
        f"Mellin-Barnes contour not converged: error bound {error:.3e} above 1e-8 of "
        f"{magnitude:.3e} at {nodes + 1} nodes (value {best.value})", best)


def _gamma_strip(sigma: float) -> float:
    """A bound on (1/2 pi) int |Gamma(sigma + i tau)| dtau per unit of
    Gamma(1/2): Gamma(sigma) sqrt(sigma (sigma+1)) / (2 Gamma(1/2)), sigma > 0.

    By the product formula |Gamma(sigma + i tau) / Gamma(sigma)|^-2 =
    prod_n (1 + tau^2 / (sigma + n)^2) >= (1 + tau^2 / sigma^2) (1 + tau^2 /
    (sigma+1)^2) >= (1 + tau^2 / (sigma (sigma+1)))^2, whose root integrates
    to pi sqrt(sigma (sigma+1)).  Both factors are log-convex in sigma.
    """
    return math.gamma(sigma) * math.sqrt(sigma * (sigma + 1.0)) / (2.0 * math.gamma(_CONTOUR_C))


def _complete_tail(t: float) -> float:
    """The ``_mellin_contour`` tail of the complete kernel Gamma(s) Gamma(s+1) z^{-s}.

    Gamma(s) Gamma(s+1) = s Gamma(s)^2, and |Gamma(1/2 + i tau)|^2 = pi /
    cosh(pi tau) <= 2 pi e^{-pi tau}, so the integrand is at most
    4 |s| e^{-pi tau} <= 4 (tau + 1/2) e^{-pi tau} times its value at tau = 0.
    """
    return 4.0 / math.pi * math.exp(-math.pi * t) * ((t + 0.5) / math.pi + math.pi ** -2)


def _incomplete_tail(t: float) -> float:
    """The ``_mellin_contour`` tail of Gamma(s) kernel(s) z^{-s} with the
    incomplete kernel(s) = int_{b1}^{b2} t^s e^{-t} dt.

    |t^s| = t^{1/2} on the line, so |kernel(s)| <= kernel(1/2), and
    |Gamma(1/2 + i tau)| <= sqrt(2 pi) e^{-pi tau / 2} = sqrt(2) Gamma(1/2)
    e^{-pi tau / 2}: the integrand is at most sqrt(2) e^{-pi tau / 2} times
    its value at tau = 0.
    """
    return 2.0 * math.sqrt(2.0) / math.pi ** 2 * math.exp(-0.5 * math.pi * t)


def foxh_h11_incomplete(z: float) -> Estimate:
    """(1/2 pi i) int Gamma(s) Gamma(s+1) z^{-s} ds by contour integration.

    The H^{1,1}_{1,1} term with the incomplete kernel at b = 0, where it is
    the complete Gamma(s+1) = s Gamma(s), one log-gamma per node; the value
    equals 2 sqrt(z) K_1(2 sqrt(z)), an identity the test suite pins.  The
    line is cut where its rest falls below 2^-10 of 4e-16 of the integral
    of |integrand|: at |Im s| = 14.5 for every z.  The strip bound takes
    |Gamma(s+1)| <= Gamma(sigma+1); at z = 1 the pass has 183 nodes.
    """
    if not z > 0.0:
        raise ValueError("z must be positive")
    log_z = math.log(z)

    def integrand(s):
        front, rounding = _gamma_front(s, log_z, 2)
        vals = s * front
        return vals, np.abs(vals) * rounding, 0

    strip = lambda sigma: (_gamma_strip(sigma) * math.gamma(sigma + 1.0)
                           / math.gamma(_CONTOUR_C + 1.0)
                           * math.exp((_CONTOUR_C - sigma) * log_z))
    # the integral of |integrand|, which bounds the value, is at most the
    # tail from 0 times the integrand at tau = 0, (1/2) Gamma(1/2)^2 z^{-1/2}
    magnitude = 0.5 * math.pi / math.sqrt(z) * _complete_tail(0.0)
    return _mellin_contour(integrand, _complete_tail, strip, magnitude)


def _assembly_terms(r1: float, r2: float, g1: float, g2: float) -> tuple[float, float]:
    """t1 and t23 of the two-round assembly P = t1 + t23 - phi."""
    a2 = math.expm1(r2 * _LN2) / g2
    t1 = math.expm1(-math.expm1(r1 * _LN2) / g1) * math.expm1(-a2)  # (1-e^{-a1})(1-e^{-a2})
    t23 = math.exp(-a2) * -math.expm1(-(2.0 ** r2) * math.expm1(r1 * _LN2) / g2)
    return t1, t23


def phi_foxh(r1: float, r2: float, snr_bar1: float, snr_bar2: float) -> Estimate:
    """phi via its Mellin-Barnes / incomplete-H representation.

    The two incomplete-gamma kernels are differenced inside one contour
    integral as int_{b1}^{b2} t^s e^{-t} dt, so their common bulk never
    forms.  The line is cut where a bound on its rest, scaled by
    e^{1/g1 + 1/g2}, is 2^-10 of 4e-16 (t1 + t23), which bounds phi = t1 +
    t23 - P; beyond |Im s| = T the rest is at most 2 sqrt(2) / pi^2 e^{-pi
    T / 2} times the integrand at Im s = 0 (``_incomplete_tail``).  The
    step is where the strip bound meets 4e-16 (t1 + t23), with |kernel(sigma
    + i tau)| <= kernel(sigma) <= kernel(1/2) b^{sigma - 1/2}, b = b2 for
    sigma > 1/2 and b1 below, since t^{sigma - 1/2} is monotone on [b1, b2].
    The uncertainty is the strip and tail bounds, the kernel's and
    log-gamma's error at each node and the node sum's rounding, all scaled;
    the contour raises where it exceeds 1e-8 (t1 + t23), and raises with
    no estimate where the scale overflows a double (1/g1 + 1/g2 > 709.78,
    below about -25.5 dB).  At (1, 1, 10, 10) the pass has 340 nodes,
    each on one 32-point kernel panel.
    """
    if not all(x > 0.0 for x in (r1, r2, snr_bar1, snr_bar2)):
        raise ValueError("rates and average SNRs must be positive")
    exponent = 1.0 / snr_bar1 + 1.0 / snr_bar2
    if not exponent <= _LOG_DOUBLE_MAX:
        raise ConvergenceError(f"phi: the contour's scale e^(1/g1 + 1/g2) = "
                               f"e^{exponent:.6g} overflows a double")
    big_z = 2.0 ** (r1 + r2)
    log_z = math.log(big_z / (snr_bar1 * snr_bar2))
    b1 = (2.0 ** r2) / snr_bar2
    b2 = big_z / snr_bar2

    def integrand(s):
        kernel, errors, panels = _kernel(s, b1, b2)
        front, rounding = _gamma_front(s, log_z, 1)
        vals = front * kernel
        return vals, np.abs(front) * errors + np.abs(vals) * rounding, panels

    strip = lambda sigma: (_gamma_strip(sigma) * math.exp(
        (sigma - _CONTOUR_C) * (math.log(b2 if sigma > _CONTOUR_C else b1) - log_z)))
    scale = math.exp(exponent)
    bound = sum(_assembly_terms(r1, r2, snr_bar1, snr_bar2)) / scale
    return _mellin_contour(integrand, _incomplete_tail, strip, bound, scale)


def outage_k2_via_foxh(rates: RateSchedule, powers: PowerProfile) -> Estimate:
    """Two-round outage with phi taken from the contour path.

    The paper's assembly t1 + t23 - phi with phi from the Mellin-Barnes
    representation, a route independent of ``xp_outage``'s recursion.  At
    high SNR t23 and phi cancel; the uncertainty is the contour's error
    estimate plus the assembly's rounding, so it grows with the
    cancellation.  A contour that gives up raises with the outage assembled
    from its best phi, unclamped.  Either carries phi's ``work``.
    """
    if rates.K != 2 or powers.K != 2:
        raise ValueError("the closed form covers exactly K = 2")
    (r1, r2), (g1, g2) = rates.rates, powers.snr_bars
    t1, t23 = _assembly_terms(r1, r2, g1, g2)

    def assemble(phi: Estimate) -> Estimate:
        return Estimate(t1 + t23 - phi.value, "k2-foxh",
                        phi.uncertainty + _ROUNDING * (abs(t1) + t23 + abs(phi.value)), phi.work)

    try:
        phi = phi_foxh(r1, r2, g1, g2)
    except ConvergenceError as err:
        if err.estimate is None:
            raise
        raise ConvergenceError(str(err), assemble(err.estimate)) from err
    outage = assemble(phi)
    value = clamp_probability(outage.value, _CLAMP_TOL, "two-round outage (contour phi)")
    return Estimate(value, outage.method, outage.uncertainty, outage.work)
