"""Checks for the domain containers."""

import pytest

from xpharq import ConsistencyError, PowerProfile, RateSchedule, clamp_probability


def test_rate_schedule_cumulative_and_prefix():
    r = RateSchedule((1.0, 0.5, 2.0))
    assert r.K == 3
    assert r.cumulative() == pytest.approx((1.0, 1.5, 3.5))
    assert r.prefix(2).rates == (1.0, 0.5)
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
    assert RateSchedule((600.0, 400.0)).cumulative() == (600.0, 1000.0)


def test_power_profile_validation_and_prefix():
    g = PowerProfile((10.0, 31.6, 100.0))
    assert g.K == 3
    assert g.prefix(1).snr_bars == (10.0,)
    with pytest.raises(ValueError):
        PowerProfile((10.0, 0.0))


def test_containers_are_frozen():
    r = RateSchedule((1.0,))
    with pytest.raises(Exception):
        r.rates = (2.0,)


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
