"""Lower/upper outage bounds and the accumulated-information CDF."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from xpharq import (
    ConvergenceError,
    PowerProfile,
    RateSchedule,
    SimConfig,
    estimate_outage,
    ir_outage_chain,
    outage_k1,
    outage_k2_exact,
    outage_lower,
    outage_upper_ir,
    sum_info_cdf,
    throughput_recursion,
    xp_outage,
    xp_outage_quadrature,
)
from xpharq import bounds


def _sum2_cdf_reference(r: float, g1: float, g2: float) -> float:
    """Pr(log2(1+gamma_1) + log2(1+gamma_2) < r) via a scipy integral.

    Conditions on gamma_1 = u and integrates the closed-form conditional
    CDF of the second round, an entirely separate route from the package's
    recursive convolution.
    """

    def f(u):
        rest = r - math.log2(1.0 + u)
        inner = -math.expm1(-(2.0**rest - 1.0) / g2)
        return math.exp(-u / g1) / g1 * inner

    val, _ = quad(f, 0.0, 2.0**r - 1.0, epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


# ---------------------------------------------------------------------------
# lower bound


def test_outage_lower_closed_form_values():
    p1 = -math.expm1(-0.1)
    v2 = outage_lower(RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0)))
    assert v2 == pytest.approx(p1**2, rel=1e-14)
    v3 = outage_lower(RateSchedule((1.0, 1.0, 1.0)), PowerProfile((10.0, 10.0, 10.0)))
    assert v3 == pytest.approx(p1**3, rel=1e-14)


def test_outage_lower_single_round_degenerates():
    assert outage_lower(RateSchedule((1.5,)), PowerProfile((7.0,))) == pytest.approx(
        outage_k1(1.5, 7.0), rel=1e-15
    )


def test_outage_lower_joint_permutation_invariance():
    a = outage_lower(RateSchedule((1.0, 2.0)), PowerProfile((10.0, 40.0)))
    b = outage_lower(RateSchedule((2.0, 1.0)), PowerProfile((40.0, 10.0)))
    assert a == pytest.approx(b, rel=1e-15)


# ---------------------------------------------------------------------------
# accumulated-information CDF


def test_sum_info_cdf_single_round():
    v, err = sum_info_cdf(1.5, PowerProfile((5.0,)))
    assert v == pytest.approx(-math.expm1(-(2.0**1.5 - 1.0) / 5.0), rel=1e-12)
    assert err >= 0.0


def test_sum_info_cdf_nonpositive_threshold():
    assert sum_info_cdf(0.0, PowerProfile((5.0, 5.0))) == (0.0, 0.0)
    assert sum_info_cdf(-1.0, PowerProfile((5.0,))) == (0.0, 0.0)


def test_sum_info_cdf_two_rounds_against_scipy():
    for r, g1, g2 in ((2.0, 10.0, 10.0), (1.7, 3.0, 20.0)):
        got, err = sum_info_cdf(r, PowerProfile((g1, g2)))
        ref = _sum2_cdf_reference(r, g1, g2)
        assert got == pytest.approx(ref, rel=1e-8), (r, g1, g2)
        assert abs(got - ref) <= max(err, 1e-8 * ref)


# ---------------------------------------------------------------------------
# upper bound


def test_outage_upper_two_rounds_against_scipy():
    rates = RateSchedule((1.0, 1.0))
    est = outage_upper_ir(rates, PowerProfile((10.0, 10.0)))
    ref = _sum2_cdf_reference(2.0, 10.0, 10.0)
    assert est.value == pytest.approx(ref, rel=1e-7)
    assert est.method == "ir-quadrature"


def test_outage_upper_matches_monte_carlo():
    for K in (2, 3):
        rates = RateSchedule((1.0,) * K)
        powers = PowerProfile((10.0,) * K)
        est = outage_upper_ir(rates, powers)
        mc = estimate_outage(
            SimConfig(scheme="inr", rates=rates, powers=powers, trials=1_000_000, seed=0)
        )
        sigma = mc.uncertainty / 1.96
        assert abs(est.value - mc.value) <= 3.0 * sigma, K


def test_bound_sandwich_moderate_snr():
    for K in (2, 3, 4):
        rates = RateSchedule((1.0,) * K)
        powers = PowerProfile((10.0,) * K)
        lo = outage_lower(rates, powers)
        mid = xp_outage_quadrature(rates, powers).value
        up = outage_upper_ir(rates, powers).value
        assert lo < mid < up, (K, lo, mid, up)


def test_outage_upper_snr_permutation_invariance():
    # the bound depends on the rate schedule only through its total
    a = outage_upper_ir(RateSchedule((1.0, 2.0)), PowerProfile((10.0, 40.0))).value
    b = outage_upper_ir(RateSchedule((2.0, 1.0)), PowerProfile((40.0, 10.0))).value
    c = outage_upper_ir(RateSchedule((1.0, 2.0)), PowerProfile((40.0, 10.0))).value
    assert a == pytest.approx(b, rel=1e-9)
    assert a == pytest.approx(c, rel=1e-9)


def _mp_two_rounds(a1: float, big_z: float, gbar: float):
    """Pr(gamma_1 < a1 and (1 + gamma_1)(1 + gamma_2) < big_z), 40 digits."""
    with mp.workdps(40):
        g = mp.mpf(gbar)
        return float(mp.quad(
            lambda x: mp.exp(-x / g) / g * -mp.expm1(-(big_z / (1 + x) - 1) / g), [0, a1]
        ))


def _mp_xp_three_rounds(limits, gbar: float):
    """XP outage of three equal-SNR rounds as a 2-D integral over x_1, x_2."""
    with mp.workdps(25):
        g = mp.mpf(gbar)
        u1, u2, u3 = (mp.mpf(u) for u in limits)

        def given_x1(x1):
            return mp.quad(
                lambda x2: mp.exp(-(x2 / x1 - 1) / g) / (g * x1) * -mp.expm1(-(u3 / x2 - 1) / g),
                [x1, u2], method="gauss-legendre",
            )

        return float(mp.quad(
            lambda x1: mp.exp(-(x1 - 1) / g) / g * given_x1(x1), [1, u1],
            method="gauss-legendre",
        ))


def _mp_throughput_two_rounds(scheme, r1: float, r2: float, gbar: float):
    """Throughput E[R] / E[T] of two equal-SNR rounds, 40 digits.

    E[T] = 2 - e^{-a_1}, and E[R] pays R_1 when round 1 decodes and R_2^sum
    (XP) or R_1 (IR) when round 2 does; with x = 1 + gamma_1 the second is
    an integral over x < U_1 whose exponent is least at x = sqrt(U_2).
    """
    with mp.workdps(40):
        g = mp.mpf(gbar)
        u1 = mp.mpf(2) ** r1
        u2 = u1 if scheme == "inr" else mp.mpf(2) ** (r1 + r2)
        second = r1 if scheme == "inr" else r1 + r2
        first = mp.exp(-(u1 - 1) / g)
        peak = mp.sqrt(u2)
        decodes_second = mp.quad(
            lambda x: mp.exp(-(x - 1) / g - (u2 / x - 1) / g) / g,
            [1] + ([peak] if 1 < peak < u1 else []) + [u1],
        )
        return float((r1 * first + second * decodes_second) / (2 - first))


def test_recursion_uncertainty_calibrated():
    # K = 2, R = (1, 1): XP outage is Pr(x_1 < 2, x_2 < 4), the IR bound
    # Pr(x_2 < 4); the two-round closed form shares the recursion's level
    # and pass rule.  Above 160 dB mp.quad drifts, so the reference there is
    # the leading high-SNR term, whose relative error O(1/gbar) is < 1e-16.
    rates = RateSchedule((1.0, 1.0))
    for snr_db in list(range(-10, 161, 10)) + [200, 250, 300]:
        gbar = 10.0 ** (snr_db / 10.0)
        powers = PowerProfile((gbar, gbar))
        if snr_db <= 160:
            refs = (_mp_two_rounds(1.0, 4.0, gbar), _mp_two_rounds(3.0, 4.0, gbar))
        else:
            refs = ((4.0 * math.log(2.0) - 1.0) / gbar**2,
                    (8.0 * math.log(2.0) - 3.0) / gbar**2)
        estimates = (xp_outage(rates, powers), outage_upper_ir(rates, powers),
                     outage_k2_exact(rates, powers))
        for est, ref in zip(estimates, refs + refs[:1]):
            err = abs(est.value - ref)
            assert err <= est.uncertainty, (snr_db, est, ref)
            assert err <= 1e-12 * est.value, (snr_db, est, ref)
    rates = RateSchedule((1.0, 1.0, 1.0))
    est = xp_outage(rates, PowerProfile((0.1,) * 3))
    ref = _mp_xp_three_rounds((2.0, 4.0, 8.0), 0.1)
    assert abs(est.value - ref) <= min(est.uncertainty, 1e-12 * est.value), (est, ref)
    # analytical throughput, both schemes: at R = (1, 1) as accurate as the
    # outage; at (8, 8) and 0 dB IR's 1 - P_K cancelled in the chain
    # formula; at (20, 20) and 10 dB decoding needs u past the last panel,
    # so the value is far off and the uncertainty, scaled by R_1, covers it
    for scheme in ("xp", "inr"):
        points = [((1.0, 1.0), snr_db) for snr_db in range(-10, 161, 10)]
        for (r1, r2), snr_db in points + [((8.0, 8.0), 0), ((20.0, 20.0), 10)]:
            gbar = 10.0 ** (snr_db / 10.0)
            est = throughput_recursion(RateSchedule((r1, r2)), PowerProfile((gbar, gbar)), scheme)
            ref = _mp_throughput_two_rounds(scheme, r1, r2, gbar)
            err = abs(est.value - ref)
            assert 0.0 < est.uncertainty and err <= est.uncertainty, (scheme, r1, snr_db, est, ref)
            if r1 == 1.0:
                assert err <= 1e-12 * ref, (scheme, snr_db, est, ref)


@pytest.mark.parametrize("k_rounds", [3, 4])
def test_recursion_converges_at_saturated_outage(k_rounds):
    # large rates at low SNR: the value is 1 to double precision, and the
    # step of each interpolated level is narrow against ln U_k
    weights = {"even": [1.0] * k_rounds, "skewed": list(range(1, k_rounds + 1))}
    for total in (200.0, 300.0, 600.0, 1000.0):
        for w in weights.values():
            rates = RateSchedule(tuple(total * x / sum(w) for x in w))
            for snr_db in (0.0, 10.0, 20.0, 30.0):
                powers = PowerProfile((10.0 ** (snr_db / 10.0),) * k_rounds)
                for est in (outage_upper_ir(rates, powers), xp_outage(rates, powers)):
                    assert abs(1.0 - est.value) <= est.uncertainty <= 1e-9, (
                        total, w, snr_db, est,
                    )


def test_outage_convergence_error_carries_floats():
    # no two passes agree to the bit, so a zero tolerance exhausts them; the
    # error reports the one probability as a float, as the outage calls return it
    with pytest.raises(ConvergenceError) as info:
        xp_outage(RateSchedule((1.0,) * 3), PowerProfile((10.0,) * 3), tol=0.0, rel_tol=0.0)
    assert type(info.value.best_estimate) is float, info.value.best_estimate
    assert type(info.value.error_estimate) is float and info.value.error_estimate > 0.0


def test_recursion_skips_levels_the_limits_never_bind(monkeypatch):
    # R_2 = 100 lifts U_2 past every x_2 the second round can reach, so the
    # outage is that of the first round alone, and G_2 on [0, ln U_1] is 1
    # without being interpolated
    domains = []
    real = bounds._interpolate

    def recording(f, n, lo, hi):
        domains.append((lo, hi))
        return real(f, n, lo, hi)

    monkeypatch.setattr(bounds, "_interpolate", recording)
    for rates in ((1.0, 100.0, 1.0), (1.0, 100.0, 1.0, 1.0)):
        domains.clear()
        est = xp_outage(RateSchedule(rates), PowerProfile((1.0,) * len(rates)))
        assert est.value == pytest.approx(outage_k1(1.0, 1.0), rel=1e-14)
        # only the level under U_2 = 2^101 is interpolated, and only at K = 4
        assert all(hi == pytest.approx(101.0 * math.log(2.0)) for _, hi in domains), domains
        assert bool(domains) == (len(rates) == 4)


def _level_all_panels(s, limit, gbar, inner, m):
    """``bounds._level`` over all seven dyadic panels, none skipped."""
    excess = np.maximum(limit * np.exp(-s) - 1.0, 0.0)
    v_edges = np.log1p(np.minimum(gbar * bounds._PANEL_EDGES, excess[..., None]))
    width = np.diff(v_edges, axis=-1)
    t, w = bounds._GAUSS[m]
    v = v_edges[..., :-1, None] + width[..., None] * t
    f = np.exp(v - np.expm1(v) / gbar) * inner(s[..., None, None] + v)
    return ((f @ w) * width).sum(axis=-1) / gbar


@pytest.mark.parametrize("limit, panels", [
    (9.0 - 2.0 ** -40, 3),  # largest gbar * a_k(x) just below the scaled edge 8
    (9.0, 3),               # exactly on it
    (9.0 + 2.0 ** -40, 4),  # just above it
    (1000.0, 7),            # above 64 gbar: every panel
    (0.5, 1),               # zero everywhere: one zero-width panel
], ids=["below-edge", "on-edge", "above-edge", "above-64gbar", "zero"])
@pytest.mark.parametrize("m", [8, 64])
def test_level_skips_only_panels_no_node_reaches(limit, panels, m):
    # gbar = 2 scales the panel edges to 0, 2, 4, 8, ..., 128; the largest
    # excess limit e^{-s} - 1 is at s = 0
    gbar = 2.0
    s = np.linspace(0.0, 1.5, 7)
    closed = lambda t: -np.expm1(np.minimum((1.0 - 40.0 * np.exp(-t)) / 3.0, 0.0))
    seen = []

    def inner(t):
        seen.append(t.shape[-2])
        return closed(t)

    cut = bounds._level(s, limit, gbar, inner, m)
    assert seen == [panels]
    np.testing.assert_allclose(cut, _level_all_panels(s, limit, gbar, closed, m),
                               rtol=1e-14, atol=0.0)
    if limit < 1.0:
        assert not cut.any()


def test_outage_upper_validation():
    with pytest.raises(ValueError):
        outage_upper_ir(RateSchedule((1.0, 1.0)), PowerProfile((10.0,) * 3))


# ---------------------------------------------------------------------------
# fixed-rate outage chain


def test_ir_chain_first_entry_single_round():
    rates = RateSchedule((1.2, 0.8, 1.0))
    powers = PowerProfile((8.0, 12.0, 5.0))
    chain = ir_outage_chain(rates, powers)
    assert len(chain) == 3
    assert chain[0] == pytest.approx(outage_k1(1.2, 8.0), rel=1e-12)
    assert all(0.0 <= p <= 1.0 for p in chain)
    assert all(a >= b - 1e-12 for a, b in zip(chain, chain[1:]))


def test_ir_chain_final_entry_against_direct_simulation():
    rates = RateSchedule((1.2, 0.8, 1.0))
    powers = PowerProfile((8.0, 12.0, 5.0))
    chain = ir_outage_chain(rates, powers)
    rng = np.random.default_rng(123)
    n = 400_000
    snrs = rng.standard_exponential((n, 3)) * np.array(powers.snr_bars)
    info = np.log1p(snrs).sum(axis=1) / math.log(2.0)
    p_hat = float(np.mean(info < rates.rates[0]))
    sigma = math.sqrt(p_hat * (1.0 - p_hat) / n)
    assert abs(chain[-1] - p_hat) <= 3.0 * sigma
