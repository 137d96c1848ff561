"""Exact outage probabilities for one and two rounds.

The two-round XP outage probability has the closed form

    P = (1 - e^{-(2^{R1}-1)/g1}) (1 - e^{-(2^{R2}-1)/g2})
        + e^{-(2^{R2}-1)/g2} - e^{-(2^{R1+R2}-1)/g2} - phi(R1, R2)

with g_k the per-round average SNRs and

    phi = (1/g2) e^{1/g1 + 1/g2}
          * integral_{2^{R2}}^{2^{R1+R2}} exp(-2^{R1+R2}/(z g1) - z/g2) dz.

phi is evaluated two independent ways: directly by adaptive quadrature on
the finite interval (the default path), and through its Mellin-Barnes
representation

    phi = e^{1/g1+1/g2} (1/2 pi i) integral_{c-i inf}^{c+i inf}
          Gamma(s) [Gamma(s+1, b1) - Gamma(s+1, b2)] z^{-s} ds,

    z = 2^{R1+R2}/(g1 g2),  b1 = 2^{R2}/g2,  b2 = 2^{R1+R2}/g2,

i.e. a difference of two upper-incomplete variants of the H^{1,1}_{1,1}
function.  The contour path exists as a cross-check, not the default: the
finite-interval integrand is smooth and carries no truncation-parameter
risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _complex_gamma

from .core import (
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    clamp_probability,
)
from .quadrature import IntegrationResult, integrate_adaptive

__all__ = [
    "outage_k1",
    "phi_quadrature",
    "outage_k2_exact",
    "outage_k2_via_foxh",
    "FoxHParams11",
    "upper_incomplete_gamma_complex",
    "foxh_h11_incomplete",
    "phi_foxh",
]

_LN2 = math.log(2.0)


def outage_k1(r1: float, snr_bar: float) -> float:
    """Single-round outage 1 - e^{-(2^{r1}-1)/snr_bar}."""
    if r1 <= 0.0 or snr_bar <= 0.0:
        raise ValueError("rate and average SNR must be positive")
    return -math.expm1(-math.expm1(r1 * _LN2) / snr_bar)


def phi_quadrature(
    r1: float,
    r2: float,
    snr_bar1: float,
    snr_bar2: float,
    tol: float = 1e-12,
) -> IntegrationResult:
    """The phi integral of the two-round closed form, by direct quadrature.

    Absolute error at most ``tol``.  The prefactor exponentials are folded
    into the integrand, whose combined exponent (1 - Z/z)/g1 + (1 - z)/g2
    is nonpositive over the whole interval, so no overflow is possible.
    """
    if min(r1, r2, snr_bar1, snr_bar2) <= 0.0:
        raise ValueError("rates and average SNRs must be positive")
    if not 0.0 < tol <= 1e-3:
        raise ValueError("tol must lie in (0, 1e-3]")
    big_z = 2.0 ** (r1 + r2)
    lo = 2.0 ** r2

    def integrand(z: np.ndarray) -> np.ndarray:
        expo = (1.0 - big_z / z) / snr_bar1 + (1.0 - z) / snr_bar2
        return np.exp(expo) / snr_bar2

    return integrate_adaptive(integrand, lo, big_z, tol)


def outage_k2_exact(
    rates: RateSchedule,
    powers: PowerProfile,
    tol: float = 1e-10,
) -> Estimate:
    """Two-round XP outage probability from the closed form.

    Assembles the four terms of the closed form; exponential differences go
    through expm1 so the assembly stays accurate deep into the high-SNR
    regime, and phi's quadrature tolerance is scaled to the expected
    magnitude of the result so the cancellation against the middle terms
    does not swamp it.
    """
    if rates.K != 2 or powers.K != 2:
        raise ValueError("the closed form covers exactly K = 2")
    r1, r2 = rates.rates
    g1, g2 = powers.snr_bars

    a1 = math.expm1(r1 * _LN2) / g1        # (2^{R1}-1)/g1
    a2 = math.expm1(r2 * _LN2) / g2
    t1 = math.expm1(-a1) * math.expm1(-a2)  # product of two (1-e^{-x})
    # e^{-(2^{R2}-1)/g2} - e^{-(2^{R1+R2}-1)/g2}, difference via expm1 of the
    # positive gap (2^{R1+R2}-2^{R2})/g2 = 2^{R2}(2^{R1}-1)/g2
    gap = (2.0 ** r2) * math.expm1(r1 * _LN2) / g2
    t23 = math.exp(-a2) * -math.expm1(-gap)

    # phi nearly cancels t23 at high SNR; aim its absolute tolerance three
    # decades under the surviving leading-order value.
    rough = (2.0 ** (r1 + r2)) * r1 * _LN2 / (g1 * g2)
    phi_tol = min(tol, max(1e-3 * rough, 1e-17), 1e-3)
    phi = phi_quadrature(r1, r2, g1, g2, tol=phi_tol)

    raw = t1 + t23 - phi.value
    value = clamp_probability(raw, tol, "two-round outage")
    uncertainty = phi.abs_error_estimate + 4e-16 * (abs(t1) + t23 + phi.value)
    return Estimate(value, "k2-exact", uncertainty)


@dataclass(frozen=True)
class FoxHParams11:
    """Parameters of one upper-incomplete H^{1,1}_{1,1} contour evaluation.

    Represents (1/2 pi i) int Gamma(s) Gamma(s+1, b) z^{-s} ds along the
    vertical line Re(s) = contour_c truncated at +- contour_halfspan,
    starting from ``nodes`` quadrature nodes on the half-line.
    """

    z: float
    b: float
    contour_c: float = 0.5
    contour_halfspan: float = 60.0
    nodes: int = 257

    def __post_init__(self):
        if self.z <= 0.0:
            raise ValueError("z must be positive")
        if self.b < 0.0:
            raise ValueError("b must be nonnegative")
        if self.contour_c <= 0.0:
            raise ValueError("contour_c must be positive")
        if self.contour_halfspan <= 0.0:
            raise ValueError("contour_halfspan must be positive")
        if self.nodes < 64:
            raise ValueError("need at least 64 contour nodes")


def upper_incomplete_gamma_complex(a, b: float):
    """Gamma(a, b) = int_b^inf t^{a-1} e^{-t} dt for complex order a.

    Accepts a scalar or array of orders (the Mellin contour is evaluated in
    one vectorized call).  Computed by trapezoid integration along the ray
    t = b + e^u, refined by halving the step until two passes agree to
    1e-13 relative (or to the rounding-noise floor of the integrand's L1
    scale, whichever is larger); the exponential substitution keeps
    accuracy uniform in Im(a), where continued-fraction schemes degrade.

    For b = 0 the integral is the complete Gamma and requires Re(a) > 0.
    """
    a_arr = np.atleast_1d(np.asarray(a, dtype=complex))
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    re_min = float(a_arr.real.min())
    if b == 0.0 and re_min <= 0.0:
        raise ValueError("b = 0 requires Re(a) > 0")

    u_hi = 4.2
    u_lo = -46.0
    if b == 0.0 and re_min < 0.75:
        # tail mass below u_lo scales like e^{Re(a) u_lo}
        u_lo = -34.0 / re_min

    def passes(n: int) -> tuple[np.ndarray, np.ndarray]:
        u = np.linspace(u_lo, u_hi, n)
        h = u[1] - u[0]
        t = b + np.exp(u)
        log_t = np.log(t)
        w = np.exp(u - t)
        w[0] *= 0.5
        w[-1] *= 0.5
        out = np.empty(a_arr.shape, dtype=complex)
        step = max(1, int(2e6 // n))
        for i in range(0, a_arr.size, step):
            block = a_arr[i : i + step] - 1.0
            # pairwise .sum keeps roundoff near eps*log(n), well below
            # the sequential-accumulation noise a BLAS dot would add
            out[i : i + step] = (np.exp(np.multiply.outer(block, log_t)) * w).sum(axis=-1)
        # L1 scale of the integrand per distinct Re(a): per-term rounding
        # noise wanders around eps*sqrt(n) of this scale between passes,
        # so it sets the absolute floor of the convergence test.
        l1 = np.empty(a_arr.shape, dtype=float)
        for re in np.unique(a_arr.real):
            l1[a_arr.real == re] = float((np.exp((re - 1.0) * log_t) * w).sum())
        return h * out, h * l1

    n = int(math.ceil((u_hi - u_lo) / 0.04)) + 1
    prev, _ = passes(n)
    for _ in range(3):
        n = 2 * n - 1
        cur, l1 = passes(n)
        bound = np.maximum(1e-13 * np.abs(cur), 2e-12 * l1)
        worst = float(np.max(np.abs(cur - prev) - bound))
        if worst <= 0.0:
            if np.isscalar(a) or np.ndim(a) == 0:
                return complex(cur[0])
            return cur
        prev = cur
    raise ConvergenceError(
        f"incomplete gamma ray integration stalled at {n} nodes "
        f"(b={b}, {a_arr.size} orders, worst tolerance excess {worst:.3e})",
        best_estimate=cur,
    )


def _mellin_contour(z: float, b1: float, b2, c: float, halfspan: float, nodes: int) -> float:
    """(1/2 pi i) int Gamma(s) [Gamma(s+1,b1) - Gamma(s+1,b2)] z^{-s} ds.

    Pass b2 = None for a single-term integral.  Uses conjugate symmetry to
    fold the contour onto tau >= 0 and refines the trapezoid until two
    successive node counts agree to 1e-8; step-halving on this analytic
    integrand converges spectrally, so the stopping gap vastly overstates
    the final error.
    """
    log_z = math.log(z)

    def pass_value(n: int) -> float:
        tau = np.linspace(0.0, halfspan, n)
        s = c + 1j * tau
        kernel = upper_incomplete_gamma_complex(s + 1.0, b1)
        if b2 is not None:
            kernel = kernel - upper_incomplete_gamma_complex(s + 1.0, b2)
        vals = (_complex_gamma(s) * kernel * np.exp(-s * log_z)).real
        h = tau[1] - tau[0]
        return float((np.sum(vals) - 0.5 * (vals[0] + vals[-1])) * h / math.pi)

    n = nodes
    prev = pass_value(n)
    for _ in range(4):
        n = 2 * n - 1
        cur = pass_value(n)
        if abs(cur - prev) <= 1e-8 * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise ConvergenceError(
        f"Mellin-Barnes contour not converged at {n} nodes (last {cur})",
        best_estimate=cur,
        error_estimate=abs(cur - prev),
    )


def foxh_h11_incomplete(params: FoxHParams11) -> float:
    """One upper-incomplete H^{1,1}_{1,1} term by contour integration.

    With b = 0 the kernel degenerates to Gamma(s)Gamma(s+1) and the value
    equals 2 sqrt(z) K_1(2 sqrt(z)); the test suite pins that identity.
    """
    return _mellin_contour(
        params.z, params.b, None, params.contour_c, params.contour_halfspan, params.nodes
    )


def phi_foxh(
    r1: float,
    r2: float,
    snr_bar1: float,
    snr_bar2: float,
    contour_c: float = 0.5,
    contour_halfspan: float = 60.0,
    nodes: int = 257,
) -> float:
    """phi via its Mellin-Barnes / incomplete-H representation.

    Independent of phi_quadrature: same quantity, different machinery.  The
    two incomplete-gamma kernels are differenced inside one contour
    integral so their common bulk cancels before integration.
    """
    if min(r1, r2, snr_bar1, snr_bar2) <= 0.0:
        raise ValueError("rates and average SNRs must be positive")
    big_z = 2.0 ** (r1 + r2)
    z = big_z / (snr_bar1 * snr_bar2)
    b1 = (2.0 ** r2) / snr_bar2
    b2 = big_z / snr_bar2
    # validate contour parameters through the params type
    FoxHParams11(z=z, b=b1, contour_c=contour_c, contour_halfspan=contour_halfspan, nodes=nodes)
    mb = _mellin_contour(z, b1, b2, contour_c, contour_halfspan, nodes)
    return math.exp(1.0 / snr_bar1 + 1.0 / snr_bar2) * mb


def outage_k2_via_foxh(
    rates: RateSchedule,
    powers: PowerProfile,
    tol: float = 1e-9,
) -> Estimate:
    """Two-round outage with phi taken from the contour path.

    Same term assembly as outage_k2_exact but the integral term comes from
    the Mellin-Barnes representation, giving a fully independent route
    through the closed form.
    """
    if rates.K != 2 or powers.K != 2:
        raise ValueError("the closed form covers exactly K = 2")
    r1, r2 = rates.rates
    g1, g2 = powers.snr_bars
    a1 = math.expm1(r1 * _LN2) / g1
    a2 = math.expm1(r2 * _LN2) / g2
    t1 = math.expm1(-a1) * math.expm1(-a2)
    gap = (2.0 ** r2) * math.expm1(r1 * _LN2) / g2
    t23 = math.exp(-a2) * -math.expm1(-gap)
    raw = t1 + t23 - phi_foxh(r1, r2, g1, g2)
    value = clamp_probability(raw, tol, "two-round outage (contour phi)")
    return Estimate(value, "k2-foxh", tol)
