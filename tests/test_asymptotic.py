"""High-SNR coefficient recursion, the asymptotic outage term, and slope fits."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from xpharq import (
    PowerProfile,
    RateSchedule,
    build_hbar_table,
    hbar_eval,
    hbar_quadrature,
    outage_asymptotic_general,
    xp_outage,
)

from oracles import hbar_mp, loglog_slope

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# two-round asymptote


def test_outage_k2_asymptotic_coefficient():
    # R = (1, 1): the gamma1*gamma2-scaled outage tends to 4 ln 2 - 1
    v = outage_asymptotic_general(RateSchedule((1.0, 1.0)), PowerProfile((100.0, 50.0))).value
    assert v * 100.0 * 50.0 == pytest.approx(4.0 * _LN2 - 1.0, rel=1e-14)


def test_outage_k2_asymptotic_matches_general_path():
    # the paper's two-round term (2^{R1+R2} R1 ln2 - (2^{R1}-1)) / (g1 g2)
    for r1, r2 in ((1.0, 1.0), (0.7, 1.3)):
        paper = (2.0 ** (r1 + r2) * r1 * _LN2 - math.expm1(r1 * _LN2)) / (30.0 * 400.0)
        general = outage_asymptotic_general(
            RateSchedule((r1, r2)), PowerProfile((30.0, 400.0))).value
        assert paper == pytest.approx(general, rel=1e-12), (r1, r2)


# ---------------------------------------------------------------------------
# coefficient recursion


def test_hbar_table_two_rounds_unit_rates():
    table = build_hbar_table(RateSchedule((1.0, 1.0)))
    assert table[1] == pytest.approx((4.0,))
    assert table[0] == pytest.approx((4.0 * _LN2 - 2.0, -4.0))


def test_hbar_table_three_rounds_unit_rates():
    table = build_hbar_table(RateSchedule((1.0, 1.0, 1.0)))
    assert table[2] == pytest.approx((8.0,))
    assert table[1] == pytest.approx((16.0 * _LN2 - 4.0, -8.0))
    assert table[0] == pytest.approx(
        (12.0 * _LN2**2 - 4.0 * _LN2 + 2.0, 4.0 - 16.0 * _LN2, 4.0)
    )


def test_hbar_table_thresholds_are_exact():
    # 2^{R_k^sum} is a power of two at integer rates, so the last two rows
    # hold it to the bit
    for rates in ((1.0, 2.0), (3.0, 3.0, 2.0), (100.0, 200.0, 300.0, 400.0)):
        table = build_hbar_table(RateSchedule(rates))
        top = 2.0 ** sum(rates)
        assert table[-1] == (top,) and table[-2][1] == -top, (rates, table)


def test_hbar_table_penultimate_linear_coefficient():
    # c_{K-1,1} = -2^{R_K^sum} regardless of the schedule
    rng = np.random.default_rng(3)
    rates = RateSchedule(tuple(rng.uniform(0.25, 3.0, 5)))
    table = build_hbar_table(rates)
    expected = -(2.0 ** rates.cumulative()[-1])
    assert table[3][1] == pytest.approx(expected, rel=1e-14)


def test_hbar_eval_reference_values():
    t2 = build_hbar_table(RateSchedule((1.0, 1.0)))
    assert hbar_eval(t2, 2, 1.0) == pytest.approx(3.0, rel=1e-14)
    assert hbar_eval(t2, 1, 1.0) == pytest.approx(4.0 * _LN2 - 1.0, rel=1e-14)
    t3 = build_hbar_table(RateSchedule((1.0, 1.0, 1.0)))
    assert hbar_eval(t3, 3, 1.0) == pytest.approx(7.0, rel=1e-14)
    assert hbar_eval(t3, 2, 1.0) == pytest.approx(16.0 * _LN2 - 3.0, rel=1e-14)
    assert hbar_eval(t3, 1, 1.0) == pytest.approx(
        12.0 * _LN2**2 - 4.0 * _LN2 + 1.0, rel=1e-12
    )


def test_hbar_eval_validation():
    table = build_hbar_table(RateSchedule((1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        hbar_eval(table, 0, 1.0)
    with pytest.raises(ValueError):
        hbar_eval(table, 4, 1.0)
    with pytest.raises(ValueError):
        hbar_eval(table, 1, 0.0)
    with pytest.raises(ValueError):
        build_hbar_table(RateSchedule((1.0,)))


def test_hbar_integral_identity_all_levels():
    """hbar_{K,k}(x) = integral_x^{2^{R_k^sum}} t^{-1} hbar_{K,k+1}(t) dt.

    Checks the defining identity level by level, which exercises every
    coefficient of the table rather than only the top value.
    """
    rng = np.random.default_rng(11)
    rates = RateSchedule(tuple(rng.uniform(0.3, 2.0, 4)))
    table = build_hbar_table(rates)
    cums = rates.cumulative()
    for k in (1, 2, 3):
        top = 2.0 ** cums[k - 1]
        for x in (0.5, 1.0, 0.8 * top):
            ref, _ = quad(lambda t, level=k + 1: hbar_eval(table, level, t) / t,
                          x, top, epsabs=1e-12, epsrel=1e-11)
            assert hbar_eval(table, k, x) == pytest.approx(ref, rel=1e-9), (k, x)


def test_hbar_recursion_matches_nested_quadrature():
    rng = np.random.default_rng(5)
    for K in (2, 3, 4, 5):
        rates = RateSchedule(tuple(rng.uniform(0.25, 3.0, K)))
        rec = hbar_eval(build_hbar_table(rates), 1, 1.0)
        orc = hbar_quadrature(rates, k=1, x=1.0)
        assert rec == pytest.approx(orc, rel=1e-10), K


def test_hbar_top_coefficient_positive():
    rng = np.random.default_rng(17)
    for _ in range(25):
        K = int(rng.integers(2, 6))
        rates = RateSchedule(tuple(rng.uniform(0.25, 3.0, K)))
        assert hbar_eval(build_hbar_table(rates), 1, 1.0) > 0.0


# ---------------------------------------------------------------------------
# general asymptote and slope fits


def test_outage_asymptotic_general_three_rounds():
    v = outage_asymptotic_general(
        RateSchedule((1.0, 1.0, 1.0)), PowerProfile((100.0, 100.0, 100.0))
    ).value
    expected = (12.0 * _LN2**2 - 4.0 * _LN2 + 1.0) / 1e6
    assert v == pytest.approx(expected, rel=1e-12)


def test_asymptotes_survive_an_overflowing_snr_product():
    # prod(gbar) = 1e368 overflows and its reciprocal underflows, while the
    # outage, about 1.1e-306, is a normal double deep in the asymptotic regime
    rates = RateSchedule((100.0, 100.0))
    powers = PowerProfile((10.0 ** 300, 10.0 ** 68))  # 3000 and 680 dB
    ref = xp_outage(rates, powers).value
    assert 1e-307 < ref < 1e-305
    assert outage_asymptotic_general(rates, powers).value == pytest.approx(ref, rel=1e-9, abs=0.0)
    # three rounds: the term is 1/gbar_1 times a function of the other SNRs
    rates3 = RateSchedule((30.0, 30.0, 30.0))
    low = outage_asymptotic_general(rates3, PowerProfile((1e10, 1e12, 1e15))).value
    high = outage_asymptotic_general(rates3, PowerProfile((1e300, 1e12, 1e15))).value
    assert high > 0.0
    assert high == pytest.approx(low * 1e-290, rel=1e-14, abs=0.0)


_RATES = (1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.5, 1.0, 2.0, 4.0, 8.0)


def test_asymptote_rounding_bound_covers_the_recursion():
    # with gbar_k = 1e20 2^{R_k^sum} the bracket width is below 1e-19 A, so
    # the uncertainty is the rounding bound alone; against an mpmath copy of
    # the recursion with enough digits to carry its cancellation, the double
    # asymptote stays inside it, at large rates too
    for K in (2, 3, 4, 5):
        for rate in _RATES + (30.0, 60.0, 100.0, 200.0):
            if K * (K - 1) * rate > 1200.0:  # A underflows
                continue
            rates = RateSchedule((rate,) * K)
            gbars = [1e20 * 2.0 ** c for c in rates.cumulative()]
            est = outage_asymptotic_general(rates, PowerProfile(gbars))
            digits = 30 + K * math.ceil(abs(math.log10(rate)))
            with mp.workdps(digits):
                ref = hbar_mp(rates, digits) / mp.fprod(mp.mpf(g) for g in gbars)
            assert abs(est.value - float(ref)) <= est.uncertainty, (K, rate, est, ref)


def test_asymptote_uncertainty_covers_the_outage():
    # |P - A| <= A (1 - e^{-S}) + rounding, so the exact recursion lies
    # within the two uncertainties of the asymptote at every point
    for K in (2, 3, 4, 5):
        for rate in _RATES:
            rates = RateSchedule((rate,) * K)
            for snr_db in (-10.0, 0.0, 10.0, 20.0, 40.0, 60.0, 100.0):
                for step_db in (0.0, 5.0):
                    powers = PowerProfile([10.0 ** ((snr_db + step_db * k) / 10.0)
                                           for k in range(K)])
                    exact = xp_outage(rates, powers)
                    asym = outage_asymptotic_general(rates, powers)
                    gap = abs(exact.value - asym.value)
                    assert gap <= asym.uncertainty + exact.uncertainty, (K, rate, snr_db, step_db)


def test_asymptote_uncertainty_readings():
    est = outage_asymptotic_general(RateSchedule((1.0,) * 3), PowerProfile((1e4,) * 3))
    assert est.value == pytest.approx(3.99284744e-12, rel=1e-9)
    assert 0.0 < est.uncertainty <= 1e-14
    # the double recursion cancels at tiny rates, and says so
    est = outage_asymptotic_general(RateSchedule((1e-4,) * 4), PowerProfile((1e10,) * 4))
    assert est.uncertainty >= 1.02e-56


def test_outage_asymptotic_general_validation():
    with pytest.raises(ValueError):
        outage_asymptotic_general(RateSchedule((1.0, 1.0)), PowerProfile((10.0,)))
    with pytest.raises(ValueError):
        outage_asymptotic_general(RateSchedule((1.0,)), PowerProfile((10.0,)))


def test_diversity_fit_recovers_synthetic_power_law():
    snrs = (1e4, 1e5, 1e6)
    assert -loglog_slope(snrs, [0.37 / g**2 for g in snrs]) == pytest.approx(2.0, abs=1e-12)


def test_diversity_fit_on_asymptotic_three_rounds():
    rates = RateSchedule((1.0, 1.0, 1.0))
    snrs = [10.0 ** (db / 10.0) for db in (50.0, 55.0, 60.0)]
    outages = [outage_asymptotic_general(rates, PowerProfile((g, g, g))).value for g in snrs]
    assert -loglog_slope(snrs, outages) == pytest.approx(3.0, abs=1e-9)
