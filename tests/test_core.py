"""Checks for the domain containers."""

import pytest

from xpharq import (ConsistencyError, Estimate, PowerProfile, RateSchedule, SimConfig,
                    clamp_probability, throughput_recursion)
from xpharq.core import decoding_limits


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


def test_decoding_limits_table():
    # XP decodes R_k^sum at round k; the HARQ-IR outage is the upper-bound
    # event at R_K^sum in every round; HARQ-IR throughput decodes R_1 throughout
    table = {
        (1,): {"xp": (1,), "inr outage": (1,), "inr throughput": (1,)},
        (1, 2): {"xp": (1, 3), "inr outage": (3, 3), "inr throughput": (1, 1)},
        (0.5, 2, 4): {"xp": (0.5, 2.5, 6.5), "inr outage": (6.5,) * 3,
                      "inr throughput": (0.5,) * 3},
        (3, 0.25, 1, 0.75): {"xp": (3, 3.25, 4.25, 5), "inr outage": (5,) * 4,
                             "inr throughput": (3,) * 4},
    }
    for rates, want in table.items():
        schedule = RateSchedule(rates)
        for quantity in ("outage", "throughput"):
            got = decoding_limits(schedule, "xp", quantity)
            assert got == schedule.cumulative() == want["xp"], (rates, quantity)
            got = decoding_limits(schedule, "inr", quantity)
            assert got == want[f"inr {quantity}"], (rates, quantity)
            assert all(type(v) is float for v in got)
    with pytest.raises(ValueError, match="'outage' or 'throughput'"):
        decoding_limits(RateSchedule((1.0,)), "xp", "delay")
    # an unknown scheme is rejected by the one rule, wherever it enters
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    for reject in (lambda: decoding_limits(rates, "foo", "outage"),
                   lambda: SimConfig("foo", rates, powers, trials=100, seed=0),
                   lambda: throughput_recursion(rates, powers, "foo")):
        with pytest.raises(ValueError, match="scheme must be 'xp' or 'inr', got 'foo'"):
            reject()


def test_estimate_equality_and_hash_ignore_work():
    plain = Estimate(0.25, "xp-recursion", 1e-15)
    worked = Estimate(0.25, "xp-recursion", 1e-15, {"passes": 2, "stop": "gap"})
    assert plain.work is None
    assert worked == plain and hash(worked) == hash(plain)
    assert worked != Estimate(0.25, "xp-recursion", 2e-15, {"passes": 2, "stop": "gap"})
