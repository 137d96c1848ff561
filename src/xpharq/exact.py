"""Exact outage probabilities for one and two rounds.

The paper's two-round XP outage probability, with g_k the per-round
average SNRs, Z = 2^{R1+R2} and a_k = (2^{R_k}-1)/g_k, is

    P = t1 + t23 - phi,   t1 = (1 - e^{-a1}) (1 - e^{-a2}),
    t23 = e^{-a2} - e^{-(Z-1)/g2},
    phi = (1/g2) e^{1/g1 + 1/g2} integral_{2^{R2}}^{Z} exp(-Z/(z g1) - z/g2) dz.

At high SNR t23 and phi cancel to O(1/(g1 g2)) and the subtraction loses
every digit.  t23 is the integral of (1/g2) e^{-(z-1)/g2} over the same
interval, so with z = 2^{R2} + g2 u the two combine into one nonnegative
integral and no subtraction is left:

    P = t1 + e^{-a2} integral_0^{(Z-2^{R2})/g2} e^{-u}
                 (1 - e^{-(Z/(2^{R2} + g2 u) - 1)/g1}) du.

That is one level of the backward recursion in ``bounds``, and
``outage_k2_exact`` takes it with the recursion's panels, passes,
stopping rule and uncertainty (``bounds._probability``).

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
assembles t1 + t23 - phi from it as an independent cross-check, not the
default: it keeps the cancellation, and its uncertainty grows with it.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import _GAUSS, _failed, _level, _probability
from .core import (
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    clamp_probability,
)
from .quadrature import IntegrationResult

__all__ = [
    "outage_k1",
    "outage_k2_exact",
    "outage_k2_via_foxh",
    "incomplete_gamma_difference",
    "foxh_h11_incomplete",
    "phi_foxh",
]

_LN2 = math.log(2.0)

# Mellin-Barnes contour: the line Re(s) = _CONTOUR_C, truncated where
# |Gamma(s)| ~ e^{-pi |Im s| / 2} is negligible, and its first node count
_CONTOUR_C = 0.5
_CONTOUR_HALFSPAN = 60.0
_CONTOUR_NODES = 257

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


def outage_k1(r1: float, snr_bar: float) -> float:
    """Single-round outage 1 - e^{-(2^{r1}-1)/snr_bar}."""
    if not (r1 > 0.0 and snr_bar > 0.0):
        raise ValueError("rate and average SNR must be positive")
    return -math.expm1(-math.expm1(r1 * _LN2) / snr_bar)


def _k2_terms(rates: RateSchedule, powers: PowerProfile):
    """R1, R2, g1, g2, the product term t1 and a2 of the two-round form."""
    if rates.K != 2 or powers.K != 2:
        raise ValueError("the closed form covers exactly K = 2")
    (r1, r2), (g1, g2) = rates.rates, powers.snr_bars
    a2 = math.expm1(r2 * _LN2) / g2
    t1 = math.expm1(-math.expm1(r1 * _LN2) / g1) * math.expm1(-a2)  # (1-e^{-a1})(1-e^{-a2})
    return r1, r2, g1, g2, t1, a2


def outage_k2_exact(
    rates: RateSchedule,
    powers: PowerProfile,
    tol: float = 1e-10,
) -> Estimate:
    """Two-round XP outage probability from the closed form.

    t1 plus the nonnegative integral that replaces t23 - phi (module
    docstring), taken as one recursion level and stopped, as ``xp_outage``
    is, at max(tol, 1e-9 * value); the uncertainty is the last gap plus a
    rounding floor of 1e-14 relative.
    """
    r1, r2, g1, g2, t1, a2 = _k2_terms(rates, powers)
    big_z = 2.0 ** (r1 + r2)
    inner = lambda s: _level(s, big_z, g1, paid=_failed)  # closed form: round 1 fails
    tail = math.exp(-a2)  # Pr(gamma_2 >= a2)

    def assemble(n: int, m: int) -> list[float]:
        if tail == 0.0:  # g2 / 2^{R2} may underflow too; the term is 0 either way
            return [t1]
        level = _level(np.array([r2 * _LN2]), big_z, g2 / 2.0 ** r2, inner, m)
        return [t1 + tail * level.item()]

    value, uncertainty = _probability(assemble, tol, 1e-9, "two-round outage")
    return Estimate(value, "k2-exact", uncertainty)


def incomplete_gamma_difference(s, b1: float, b2: float):
    """Gamma(s+1, b1) - Gamma(s+1, b2) = int_{b1}^{b2} t^s e^{-t} dt for complex s.

    Accepts a scalar or an array of orders (the Mellin contour passes all
    its nodes in one call); b2 may be inf.  With t = b1 e^u the integral is
    b1^{s+1} e^{-b1} int_0^W e^{(s+1)u - b1 (e^u - 1)} du, W = ln(b2/b1),
    with b2 clipped where e^{-t} underflows.  Gauss-Legendre panels on
    [0, W] start from the oscillation count max |Im s| W of t^s and double
    until two passes agree to 1e-13 relative, or to 2e-12 of the
    integrand's L1 scale where rounding noise dominates.
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
        vals = np.exp(terms, out=terms) @ w
        # L1 scale per distinct Re(s): the rounding noise of a pass is a
        # few eps of it, so it sets the absolute floor of the test
        l1 = np.exp(np.multiply.outer(re, u) - decay) @ w
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
            f"(b1={b1}, b2={b2}, worst tolerance excess {float(excess.max()):.3e})",
            best_estimate=scale * cur,
        )
    out = (scale * cur).reshape(s_arr.shape)
    return out if out.ndim else complex(out)


def _mellin_contour(z: float, kernel) -> tuple[float, float, int]:
    """(1/2 pi i) int Gamma(s) kernel(s) z^{-s} ds along Re(s) = 1/2.

    Returns the value, the gap between the last two passes and the number
    of contour nodes evaluated.  Uses conjugate symmetry to fold the
    contour onto tau >= 0 and refines the trapezoid until two successive
    node counts agree to 1e-8; step-halving on this analytic integrand
    converges spectrally, so the stopping gap vastly overstates the final
    error.
    """
    from scipy.special import gamma as complex_gamma

    log_z = math.log(z)

    def pass_value(n: int) -> float:
        tau = np.linspace(0.0, _CONTOUR_HALFSPAN, n)
        s = _CONTOUR_C + 1j * tau
        vals = (complex_gamma(s) * kernel(s) * np.exp(-s * log_z)).real
        h = tau[1] - tau[0]
        return float((np.sum(vals) - 0.5 * (vals[0] + vals[-1])) * h / math.pi)

    n = _CONTOUR_NODES
    evaluations = n
    prev = pass_value(n)
    for _ in range(4):
        n = 2 * n - 1
        evaluations += n
        cur = pass_value(n)
        if abs(cur - prev) <= 1e-8 * max(1.0, abs(cur)):
            return cur, abs(cur - prev), evaluations
        prev = cur
    raise ConvergenceError(
        f"Mellin-Barnes contour not converged at {n} nodes (last {cur})",
        best_estimate=cur,
        error_estimate=abs(cur - prev),
    )


def foxh_h11_incomplete(z: float) -> float:
    """(1/2 pi i) int Gamma(s) Gamma(s+1) z^{-s} ds by contour integration.

    The H^{1,1}_{1,1} term with the incomplete kernel at b = 0, where it is
    the complete Gamma(s+1); the value equals 2 sqrt(z) K_1(2 sqrt(z)), an
    identity the test suite pins.
    """
    if not z > 0.0:
        raise ValueError("z must be positive")
    from scipy.special import gamma as complex_gamma

    return _mellin_contour(z, lambda s: complex_gamma(s + 1.0))[0]


def phi_foxh(r1: float, r2: float, snr_bar1: float, snr_bar2: float) -> IntegrationResult:
    """phi via its Mellin-Barnes / incomplete-H representation.

    Independent of phi_quadrature: same quantity, different machinery.  The
    two incomplete-gamma kernels are differenced inside one contour
    integral as int_{b1}^{b2} t^s e^{-t} dt, so their common bulk never
    forms.  The error estimate is the gap of the last contour refinement.
    """
    if not all(x > 0.0 for x in (r1, r2, snr_bar1, snr_bar2)):
        raise ValueError("rates and average SNRs must be positive")
    big_z = 2.0 ** (r1 + r2)
    z = big_z / (snr_bar1 * snr_bar2)
    b1 = (2.0 ** r2) / snr_bar2
    b2 = big_z / snr_bar2
    mb, gap, evaluations = _mellin_contour(z, lambda s: incomplete_gamma_difference(s, b1, b2))
    scale = math.exp(1.0 / snr_bar1 + 1.0 / snr_bar2)
    return IntegrationResult(scale * mb, scale * gap, evaluations)


def outage_k2_via_foxh(rates: RateSchedule, powers: PowerProfile) -> Estimate:
    """Two-round outage with phi taken from the contour path.

    The paper's assembly t1 + t23 - phi with phi from the Mellin-Barnes
    representation, a route independent of outage_k2_exact's integral.  At
    high SNR t23 and phi cancel; the uncertainty is the contour's last
    refinement gap plus the assembly's rounding, so it grows with the
    cancellation.
    """
    r1, r2, g1, g2, t1, a2 = _k2_terms(rates, powers)
    t23 = math.exp(-a2) * -math.expm1(-(2.0 ** r2) * math.expm1(r1 * _LN2) / g2)
    phi = phi_foxh(r1, r2, g1, g2)
    value = clamp_probability(t1 + t23 - phi.value, _CLAMP_TOL, "two-round outage (contour phi)")
    uncertainty = phi.abs_error_estimate + 4e-16 * (abs(t1) + t23 + abs(phi.value))
    return Estimate(value, "k2-foxh", uncertainty)
