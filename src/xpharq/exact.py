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
module needs nothing beyond numpy.  On the line |Gamma(1/2 + i tau)| =
sqrt(pi / cosh(pi tau)) <= sqrt(2 pi) e^{-pi tau / 2}, so a closed-form
bound on the integrand's rest beyond |Im s| = T follows from its value at
tau = 0 (``_mellin_contour``).  The line is cut where that bound falls
below 2^-10 of the rounding floor 4e-16 |value| that the assembly already
reports.  That bound, the last refinement gap and the node sum's rounding
are the contour's error; refining stops once it is 1e-8 of a value bound.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import _GAUSS
from .core import (
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
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

# Mellin-Barnes contour: the line Re(s) = _CONTOUR_C, its first pass's step,
# and the most steps it takes, out to |Im s| = 60
_CONTOUR_C = 0.5
_CONTOUR_STEP = 60.0 / 256
_CONTOUR_MAX_STEPS = 256
# the assembly's rounding floor per unit of |t1| + t23 + |phi|, the share of
# it the rest of the line beyond the cut may take, and a trapezoid sum's
# rounding per unit of the sum of its |terms|
_ROUNDING = 4e-16
_CUT_SHARE = 2.0 ** -10
_SUM_ROUNDING = 4.0 * 2.0 ** -52

# Kernel panels: a 32-point Gauss-Legendre rule on [0, 1]; the first pass
# gives each panel 64 radians of the phase of t^{i Im s}, half a node per
# radian, the coarsest count Gauss-Legendre can resolve, and doubles at
# most _KERNEL_DOUBLINGS times from there.
_PANEL_X, _PANEL_W = _GAUSS[32]
_PANEL_PHASE = 64.0
_KERNEL_DOUBLINGS = 6
# e^{-t} underflows to zero beyond this t
_T_UNDERFLOW = -math.log(math.ulp(0.0))
# the contour assembly's excursions outside [0, 1] clamped as rounding
_CLAMP_TOL = 1e-9


def incomplete_gamma_difference(s, b1: float, b2: float):
    """Gamma(s+1, b1) - Gamma(s+1, b2) = int_{b1}^{b2} t^s e^{-t} dt for complex s.

    Accepts a scalar or an array of orders (the Mellin contour passes all
    its nodes in one call); b2 may be inf.  With t = b1 e^u the integral is
    b1^{s+1} e^{-b1} int_0^W e^{(s+1)u - b1 (e^u - 1)} du, W = ln(b2/b1),
    with b2 clipped where e^{-t} underflows.  Gauss-Legendre panels on
    [0, W] start from the oscillation count max |Im s| W of t^s and double
    until two passes agree to 1e-13 relative, or to 2e-12 of the
    integrand's L1 scale where rounding noise dominates, or raise a
    ``ConvergenceError`` with no estimate (a kernel array is none).

    The weighted sums are taken by ``np.einsum``, not ``@``: a (nodes) x
    (32 panels) product is above OpenBLAS's threading threshold, so ``@``
    would wake its helper thread, which then spins on another CPU long
    after the call returns.
    """
    s_arr = np.asarray(s, dtype=complex)
    if not 0.0 < b1 <= b2:
        raise ValueError("need 0 < b1 <= b2")
    hi = min(b2, _T_UNDERFLOW)
    a = s_arr.reshape(-1) + 1.0
    if b1 >= hi:
        out = np.zeros(s_arr.shape, dtype=complex)
        return out if out.ndim else complex(out)
    width = math.log(hi / b1)
    re, which = np.unique(a.real, return_inverse=True)

    def passes(panels: int) -> tuple[np.ndarray, np.ndarray]:
        h = width / panels
        u = ((np.arange(panels)[:, None] + _PANEL_X) * h).ravel()
        w = np.tile(_PANEL_W * h, panels)
        decay = b1 * np.expm1(u)
        terms = np.multiply.outer(a, u)
        terms -= decay
        vals = np.einsum("ij,j->i", np.exp(terms, out=terms), w)
        # L1 scale per distinct Re(s): the rounding noise of a pass is a
        # few eps of it, so it sets the absolute floor of the test
        l1 = np.einsum("ij,j->i", np.exp(np.multiply.outer(re, u) - decay), w)
        return vals, l1[which]

    scale = np.exp(a * math.log(b1) - b1)  # b1^{s+1} e^{-b1}
    panels = max(1, math.ceil(float(np.abs(a.imag).max()) * width / _PANEL_PHASE))
    prev, _ = passes(panels)
    for _ in range(_KERNEL_DOUBLINGS):
        panels *= 2
        cur, l1 = passes(panels)
        excess = np.abs(cur - prev) - np.maximum(1e-13 * np.abs(cur), 2e-12 * l1)
        if np.all(excess <= 0.0):
            break
        prev = cur
    else:
        raise ConvergenceError(
            f"incomplete gamma difference not converged at {panels} panels "
            f"(b1={b1}, b2={b2}, worst tolerance excess {float(excess.max()):.3e})")
    out = (scale * cur).reshape(s_arr.shape)
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


def _contour_cut(tail, target: float) -> int:
    """The fewest first-pass steps T / _CONTOUR_STEP with tail(T) <= target, at most 256."""
    return next((n for n in range(1, _CONTOUR_MAX_STEPS)
                 if tail(n * _CONTOUR_STEP) <= target), _CONTOUR_MAX_STEPS)


def _mellin_contour(integrand, tail, magnitude: float, scale: float = 1.0) -> Estimate:
    """``scale`` (1/2 pi i) int integrand(s) ds along Re(s) = 1/2, for an
    integrand conjugate-symmetric in Im s, as a ``mellin-barnes`` Estimate.

    Folds the contour onto tau = Im s >= 0, so the integral is (1/pi)
    int_0^inf Re integrand dtau.  ``tail(T)`` bounds (1/pi) int_T^inf
    |integrand| dtau per unit of integrand(1/2), the node at tau = 0, which
    is evaluated first; ``magnitude`` bounds |integral|.  The line is cut at
    the first multiple T of the first pass's step where the bound is at
    most 2^-10 of the rounding floor 4e-16 * magnitude, and at |Im s| = 60
    at most.  The trapezoid on [0, T] is refined until its error, the gap
    of two successive node counts plus the tail bound plus the sum's own
    rounding 4 eps trapezoid(|integrand|), is at most 1e-8 * magnitude;
    on this analytic integrand step-halving converges spectrally, so the
    gap vastly overstates the final error.  Value and error are scaled by
    ``scale``, in a ``ConvergenceError``'s estimate too.  The grids are
    nested: the n nodes of one pass are the even-indexed nodes of the next
    pass's 2n - 1, so each pass evaluates only its n - 1 new odd nodes.
    """

    def at(tau: np.ndarray) -> np.ndarray:
        return integrand(_CONTOUR_C + 1j * tau).real

    head = float(at(np.zeros(1))[0])
    rest = lambda t: abs(head) * tail(t)
    steps = _contour_cut(rest, _CUT_SHARE * _ROUNDING * magnitude)
    span = steps * _CONTOUR_STEP

    def trapezoid(vals: np.ndarray) -> float:
        h = span / (len(vals) - 1)
        return float((np.sum(vals) - 0.5 * (vals[0] + vals[-1])) * h / math.pi)

    vals = np.empty(steps + 1)
    vals[0] = head
    vals[1:] = at(np.linspace(0.0, span, steps + 1)[1:])
    prev = trapezoid(vals)
    cut = rest(span)
    for _ in range(4):
        finer = np.empty(2 * len(vals) - 1)
        finer[0::2] = vals
        finer[1::2] = at(np.linspace(0.0, span, len(finer))[1::2])
        vals = finer
        cur = trapezoid(vals)
        error = abs(cur - prev) + cut + _SUM_ROUNDING * trapezoid(np.abs(vals))
        best = Estimate(scale * cur, "mellin-barnes", scale * error)
        if error <= 1e-8 * magnitude:
            return best
        prev = cur
    raise ConvergenceError(
        f"Mellin-Barnes contour not converged at {len(vals)} nodes (last {best.value})", best)


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
    of |integrand|: at |Im s| = 14.5 for every z.
    """
    if not z > 0.0:
        raise ValueError("z must be positive")
    log_z = math.log(z)
    integrand = lambda s: s * np.exp(2.0 * _log_gamma(s) - s * log_z)
    # the integral of |integrand|, which bounds the value, is at most the
    # tail from 0 times the integrand at tau = 0, (1/2) Gamma(1/2)^2 z^{-1/2}
    magnitude = 0.5 * math.pi / math.sqrt(z) * _complete_tail(0.0)
    return _mellin_contour(integrand, _complete_tail, magnitude)


def _assembly_terms(r1: float, r2: float, g1: float, g2: float) -> tuple[float, float]:
    """t1 and t23 of the two-round assembly P = t1 + t23 - phi."""
    a2 = math.expm1(r2 * _LN2) / g2
    t1 = math.expm1(-math.expm1(r1 * _LN2) / g1) * math.expm1(-a2)  # (1-e^{-a1})(1-e^{-a2})
    t23 = math.exp(-a2) * -math.expm1(-(2.0 ** r2) * math.expm1(r1 * _LN2) / g2)
    return t1, t23


def phi_foxh(r1: float, r2: float, snr_bar1: float, snr_bar2: float) -> Estimate:
    """phi via its Mellin-Barnes / incomplete-H representation.

    Independent of phi_quadrature: same quantity, different machinery.  The
    two incomplete-gamma kernels are differenced inside one contour
    integral as int_{b1}^{b2} t^s e^{-t} dt, so their common bulk never
    forms.  The line is cut where a bound on its rest, scaled by
    e^{1/g1 + 1/g2}, is 2^-10 of 4e-16 (t1 + t23), which bounds phi = t1 +
    t23 - P; beyond |Im s| = T the rest is at most 2 sqrt(2) / pi^2 e^{-pi
    T / 2} times the integrand at Im s = 0 (``_incomplete_tail``).  The
    uncertainty is that bound, the last refinement gap and the node sum's
    rounding, all scaled, which the refinement brings to 1e-8 (t1 + t23).
    """
    if not all(x > 0.0 for x in (r1, r2, snr_bar1, snr_bar2)):
        raise ValueError("rates and average SNRs must be positive")
    big_z = 2.0 ** (r1 + r2)
    log_z = math.log(big_z / (snr_bar1 * snr_bar2))
    b1 = (2.0 ** r2) / snr_bar2
    b2 = big_z / snr_bar2
    integrand = lambda s: (np.exp(_log_gamma(s) - s * log_z)
                           * incomplete_gamma_difference(s, b1, b2))
    scale = math.exp(1.0 / snr_bar1 + 1.0 / snr_bar2)
    bound = sum(_assembly_terms(r1, r2, snr_bar1, snr_bar2)) / scale
    return _mellin_contour(integrand, _incomplete_tail, bound, scale)


def outage_k2_via_foxh(rates: RateSchedule, powers: PowerProfile) -> Estimate:
    """Two-round outage with phi taken from the contour path.

    The paper's assembly t1 + t23 - phi with phi from the Mellin-Barnes
    representation, a route independent of ``xp_outage``'s recursion.  At
    high SNR t23 and phi cancel; the uncertainty is the contour's error
    estimate plus the assembly's rounding, so it grows with the
    cancellation.  A contour that gives up raises with the outage assembled
    from its best phi, unclamped.
    """
    if rates.K != 2 or powers.K != 2:
        raise ValueError("the closed form covers exactly K = 2")
    (r1, r2), (g1, g2) = rates.rates, powers.snr_bars
    t1, t23 = _assembly_terms(r1, r2, g1, g2)

    def assemble(phi: Estimate) -> Estimate:
        return Estimate(t1 + t23 - phi.value, "k2-foxh",
                        phi.uncertainty + _ROUNDING * (abs(t1) + t23 + abs(phi.value)))

    try:
        phi = phi_foxh(r1, r2, g1, g2)
    except ConvergenceError as err:
        if err.estimate is None:
            raise
        raise ConvergenceError(str(err), assemble(err.estimate)) from err
    outage = assemble(phi)
    value = clamp_probability(outage.value, _CLAMP_TOL, "two-round outage (contour phi)")
    return Estimate(value, outage.method, outage.uncertainty)
