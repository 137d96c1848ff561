"""Checks for the domain containers and per-realization protocol semantics."""

import math

import numpy as np
import pytest

from xpharq import (
    ConsistencyError,
    PowerProfile,
    RateSchedule,
    SnrRealization,
    clamp_probability,
    ir_outage_event,
    mutual_information,
    xp_success_round,
)


def test_mutual_information_reference_points():
    assert mutual_information(0.0) == 0.0
    assert mutual_information(1.0) == pytest.approx(1.0, rel=1e-15)
    assert mutual_information(3.0) == pytest.approx(2.0, rel=1e-15)


def test_mutual_information_small_snr_precision():
    # log2(1 + x) ~ x / ln 2 for tiny x; a naive log(1 + x) would lose digits
    x = 1e-13
    assert mutual_information(x) == pytest.approx(x / math.log(2.0), rel=1e-12)


def test_mutual_information_rejects_bad_input():
    with pytest.raises(ValueError):
        mutual_information(-0.5)
    with pytest.raises(ValueError):
        mutual_information(float("inf"))


def test_rate_schedule_cumulative_and_prefix():
    r = RateSchedule((1.0, 0.5, 2.0))
    assert r.K == 3
    assert r.cumulative() == pytest.approx((1.0, 1.5, 3.5))
    assert r.cumulative(2) == pytest.approx(1.5)
    assert r.prefix(2).rates == (1.0, 0.5)
    with pytest.raises(ValueError):
        r.cumulative(4)
    with pytest.raises(ValueError):
        r.prefix(0)


def test_rate_schedule_validation():
    with pytest.raises(ValueError):
        RateSchedule(())
    with pytest.raises(ValueError):
        RateSchedule((1.0, 0.0))
    with pytest.raises(ValueError):
        RateSchedule((1.0, -2.0))
    with pytest.raises(ValueError):
        RateSchedule((float("nan"),))
    # 2^{R_K^sum} overflows a double from a total rate of 1024 on
    with pytest.raises(ValueError, match="1024"):
        RateSchedule((1000.0, 24.0))
    with pytest.raises(ValueError, match="1024"):
        RateSchedule((5000.0, 1.0))
    assert RateSchedule((600.0, 400.0)).cumulative(2) == 1000.0


def test_power_profile_validation_and_prefix():
    g = PowerProfile((10.0, 31.6, 100.0))
    assert g.K == 3
    assert g.prefix(1).snr_bars == (10.0,)
    with pytest.raises(ValueError):
        PowerProfile((10.0, 0.0))


def test_snr_realization_allows_zero_but_not_negative():
    real = SnrRealization((0.0, 3.0))
    assert real.K == 2
    with pytest.raises(ValueError):
        SnrRealization((-1e-9,))
    with pytest.raises(ValueError):
        SnrRealization(())


def test_containers_are_frozen():
    r = RateSchedule((1.0,))
    with pytest.raises(Exception):
        r.rates = (2.0,)


def test_xp_success_round_examples():
    # round 1: I = 0.585 < 1; round 2: 0.585 + 2 = 2.585 >= 2
    rates = RateSchedule((1.0, 1.0))
    assert xp_success_round(rates, SnrRealization((0.5, 3.0))) == 2
    # equality counts as success
    assert xp_success_round(RateSchedule((1.0,)), SnrRealization((1.0,))) == 1
    # zero SNR in every round: no information ever accumulates
    assert xp_success_round(RateSchedule((2.0, 2.0)), SnrRealization((0.0, 0.0))) is None


def test_xp_success_round_checks_lengths():
    with pytest.raises(ValueError):
        xp_success_round(RateSchedule((1.0, 1.0)), SnrRealization((1.0,)))


def test_ir_outage_event_examples():
    rates = RateSchedule((1.0, 1.0))
    # total I = log2(1) + log2(4) = 2 = R^sum: equality is success
    assert ir_outage_event(rates, SnrRealization((0.0, 3.0))) is False
    assert ir_outage_event(rates, SnrRealization((0.5, 0.5))) is True
    with pytest.raises(ValueError):
        ir_outage_event(rates, SnrRealization((1.0,)))


def test_xp_outage_implies_ir_outage():
    """If every accumulated prefix falls short, so does the final total."""
    rng = np.random.default_rng(42)
    rates = RateSchedule((1.0, 0.75, 1.5))
    for _ in range(500):
        real = SnrRealization(tuple(rng.exponential(2.0, 3)))
        if xp_success_round(rates, real) is None:
            assert ir_outage_event(rates, real)


def test_xp_success_round_monotone_in_snr():
    """Raising any round's SNR can only move success earlier (or keep it)."""
    rng = np.random.default_rng(7)
    rates = RateSchedule((1.0, 1.0, 1.0))
    for _ in range(200):
        snrs = rng.exponential(1.0, 3)
        base = xp_success_round(rates, SnrRealization(tuple(snrs)))
        j = rng.integers(0, 3)
        boosted = snrs.copy()
        boosted[j] += rng.exponential(2.0)
        bumped = xp_success_round(rates, SnrRealization(tuple(boosted)))
        if base is not None:
            assert bumped is not None and bumped <= base


def test_clamp_probability():
    assert clamp_probability(-1e-14, 1e-12, "p") == 0.0
    assert clamp_probability(1.0 + 1e-13, 1e-12, "p") == 1.0
    assert clamp_probability(0.25, 1e-12, "p") == 0.25
    assert clamp_probability(0.0, 1e-12, "p") == 0.0
    assert clamp_probability(1.0, 1e-12, "p") == 1.0
    with pytest.raises(ConsistencyError):
        clamp_probability(-1e-6, 1e-12, "p")
    with pytest.raises(ConsistencyError):
        clamp_probability(1.5, 1e-12, "p")
