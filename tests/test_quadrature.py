"""The nested Gauss-Legendre outage and hbar references."""

import math

import numpy as np
import pytest

from xpharq import (
    ConvergenceError,
    PowerProfile,
    RateSchedule,
    hbar_quadrature,
    outage_asymptotic_general,
    outage_lower,
    xp_outage,
    xp_outage_quadrature,
)

from oracles import hbar_mp, xp_three_rounds_mp, xp_two_rounds_mp


# ---------------------------------------------------------------------------
# nested outage oracle


def test_oracle_k1_closed_form():
    est = xp_outage_quadrature(RateSchedule((1.5,)), PowerProfile((5.0,)))
    want = outage_lower(RateSchedule((1.5,)), PowerProfile((5.0,))).value
    assert est.value == pytest.approx(want, rel=1e-12)


def test_oracle_matches_two_round_closed_form():
    for r, g in (((1.0, 1.0), (10.0, 10.0)), ((2.0, 0.5), (3.0, 30.0))):
        rates, powers = RateSchedule(r), PowerProfile(g)
        oracle = xp_outage_quadrature(rates, powers, tol=1e-12, rel_tol=1e-10)
        exact = xp_outage(rates, powers).value
        assert oracle.value == pytest.approx(exact, rel=1e-8), (r, g)


def test_oracle_vanishing_first_rate():
    # R_1 -> 0 collapses the first integration cell; outage goes to zero
    est = xp_outage_quadrature(RateSchedule((1e-9, 1.0)), PowerProfile((10.0, 10.0)))
    assert 0.0 <= est.value < 1e-9


def test_oracle_k3_high_snr_matches_asymptote():
    rates = RateSchedule((1.0, 1.0, 1.0))
    powers = PowerProfile((1e6, 1e6, 1e6))
    est = xp_outage_quadrature(rates, powers, tol=1e-30, rel_tol=1e-7)
    asym = outage_asymptotic_general(rates, powers).value
    assert est.value == pytest.approx(asym, rel=0.05)


def test_oracle_rejects_unsupported_round_counts():
    with pytest.raises(ValueError):
        xp_outage_quadrature(RateSchedule((1.0,) * 5), PowerProfile((10.0,) * 5))
    with pytest.raises(ValueError):
        xp_outage_quadrature(RateSchedule((1.0, 1.0)), PowerProfile((10.0,)))


# ---------------------------------------------------------------------------
# nested hbar oracle


def test_hbar_quadrature_base_case():
    # k = K needs no integration: 2^{R_K^sum} - x
    rates = RateSchedule((1.0, 1.0))
    assert hbar_quadrature(rates, k=2, x=1.5) == pytest.approx(2.5, rel=1e-14)


def test_hbar_quadrature_two_rounds_analytic():
    # K = 2, k = 1 at x = 1: integral_1^2 t^{-1} (4 - t) dt = 4 ln 2 - 1
    rates = RateSchedule((1.0, 1.0))
    assert hbar_quadrature(rates, k=1, x=1.0) == pytest.approx(
        4.0 * math.log(2.0) - 1.0, rel=1e-12
    )


def test_hbar_quadrature_three_rounds():
    rates = RateSchedule((1.0, 1.0, 1.0))
    ln2 = math.log(2.0)
    expected = 12.0 * ln2**2 - 4.0 * ln2 + 1.0
    assert hbar_quadrature(rates, k=1, x=1.0) == pytest.approx(expected, rel=1e-10)


def test_hbar_quadrature_rejects_x_beyond_cell():
    rates = RateSchedule((1.0, 1.0))
    with pytest.raises(ValueError):
        hbar_quadrature(rates, k=1, x=5.0)  # upper end of the k=1 cell is 2


# ---------------------------------------------------------------------------
# the nested Gauss-Legendre rule against independent values


def test_hbar_quadrature_matches_the_mpmath_coefficient_recursion():
    rng = np.random.default_rng(30)
    for K in (2, 3, 4, 5, 6):
        for _ in range(3):
            rates = RateSchedule(tuple(rng.uniform(0.25, 3.0, K)))
            ref = float(hbar_mp(rates, 40))
            assert hbar_quadrature(rates) == pytest.approx(ref, rel=1e-13), rates


def test_xp_quadrature_uncertainty_covers_mpmath():
    cases = [((1.0, 1.0), g, xp_two_rounds_mp(1.0, 4.0, g))
             for g in (0.1, 1.0, 10.0, 1e2, 1e4)]
    cases.append(((1.0, 1.0, 1.0), 10.0, xp_three_rounds_mp((2.0, 4.0, 8.0), 10.0)))
    for r, g, ref in cases:
        rates, powers = RateSchedule(r), PowerProfile((g,) * len(r))
        for tol, rel_tol in ((1e-10, 1e-9), (0.0, 1e-12)):
            est = xp_outage_quadrature(rates, powers, tol=tol, rel_tol=rel_tol)
            assert abs(est.value - ref) <= est.uncertainty, (r, g, tol, est, ref)
        assert est.value == pytest.approx(ref, rel=1e-13), (r, g)


def test_xp_quadrature_matches_the_recursion_on_a_grid():
    for K in (2, 3, 4):
        for r in (0.5, 1.0, 2.0):
            for snr_db in (0, 10, 20, 30, 40):
                rates = RateSchedule((r,) * K)
                powers = PowerProfile((10.0 ** (snr_db / 10.0),) * K)
                est = xp_outage_quadrature(rates, powers, tol=0.0, rel_tol=1e-12)
                rec = xp_outage(rates, powers)
                assert abs(est.value - rec.value) <= est.uncertainty + rec.uncertainty
                assert est.value == pytest.approx(rec.value, rel=1e-12), (K, r, snr_db)


def test_xp_quadrature_raises_where_its_rule_cannot_resolve_a_level():
    # at -40 dB round 1's step density is a layer 1e-4 wide in d on
    # [0, 8 ln 2], which 128 nodes do not resolve; under a relative rule the
    # rule says so and carries its last pass, a probability, in the call's
    # tag (the outage is 1; the passes read 2e-127, 2e-31, 2e-7 and 0.097),
    # with an uncertainty that covers the outage
    rates, powers = RateSchedule((8.0, 8.0)), PowerProfile((1e-4, 1e-4))
    with pytest.raises(ConvergenceError) as info:
        xp_outage_quadrature(rates, powers, tol=0.0, rel_tol=1e-12)
    est = info.value.estimate
    assert est.method == "xp-quadrature"
    assert 0.0 < est.value < 1.0 and est.uncertainty > 0.0
    assert abs(est.value - xp_outage(rates, powers).value) <= est.uncertainty


def test_xp_quadrature_default_rule_raises_rather_than_accept_a_miss():
    # the default rule is relative only: at R = (8, 8), -40 dB an absolute
    # floor of 1e-10 accepted the 16- and 32-node passes, 2.3e-127 and
    # 1.7e-31, as an outage of 1.7e-31 +- 1e-10 where the outage is 1
    rates, powers = RateSchedule((8.0, 8.0)), PowerProfile((1e-4, 1e-4))
    assert xp_outage(rates, powers).value == 1.0
    with pytest.raises(ConvergenceError, match="exceed the largest pass"):
        xp_outage_quadrature(rates, powers)
