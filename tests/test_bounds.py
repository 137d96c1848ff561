"""Lower/upper outage bounds and the accumulated-information CDF."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev
from scipy.integrate import quad

from xpharq import (
    ConvergenceError,
    PowerProfile,
    RateSchedule,
    SimConfig,
    estimate_outage,
    ir_outage_chain,
    outage_asymptotic_general,
    outage_lower,
    outage_upper_ir,
    throughput_recursion,
    xp_outage,
    xp_outage_quadrature,
)
from xpharq import bounds

from oracles import throughput_from_chain, xp_three_rounds_mp, xp_two_rounds_mp


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
    v2 = outage_lower(RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))).value
    assert v2 == pytest.approx(p1**2, rel=1e-14)
    v3 = outage_lower(RateSchedule((1.0, 1.0, 1.0)), PowerProfile((10.0, 10.0, 10.0))).value
    assert v3 == pytest.approx(p1**3, rel=1e-14)


def test_outage_lower_single_round_degenerates():
    rates, powers = RateSchedule((1.5,)), PowerProfile((7.0,))
    assert outage_lower(rates, powers).value == pytest.approx(
        xp_outage(rates, powers).value, rel=1e-15)


def test_outage_lower_joint_permutation_invariance():
    a = outage_lower(RateSchedule((1.0, 2.0)), PowerProfile((10.0, 40.0))).value
    b = outage_lower(RateSchedule((2.0, 1.0)), PowerProfile((40.0, 10.0))).value
    assert a == pytest.approx(b, rel=1e-15)


def test_outage_lower_uncertainty_covers_its_rounding():
    # against the product in 40 digits, rounded to double: an underflowed
    # product reads 0, and so does its reference
    rng = np.random.default_rng(23)
    for K in (1, 2, 8, 64):
        for top_rate in (0.01, 1.0, 15.0):
            for _ in range(40):
                rates = tuple(rng.uniform(top_rate / 100.0, top_rate, K))
                snr_db = tuple(rng.uniform(-10.0, 20.0 if K == 64 else 60.0, K))
                gbars = [10.0 ** (v / 10.0) for v in snr_db]
                est = outage_lower(RateSchedule(rates), PowerProfile(gbars))
                with mp.workdps(40):
                    ref = mp.fprod(-mp.expm1(-mp.expm1(mp.mpf(r) * mp.log(2)) / mp.mpf(g))
                                   for r, g in zip(rates, gbars))
                assert abs(est.value - float(ref)) <= est.uncertainty, (K, rates, gbars)
    high = outage_lower(RateSchedule((1.0,) * 64), PowerProfile((1e10,) * 64))
    assert (high.value, high.uncertainty) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# accumulated-information CDF


# Pr(sum_{k<=K} I_k < r) is the HARQ-IR outage at rates summing to r; at
# (r/2, r/2) both rounds' limits are r exactly.  The pinned values are the
# recursion's at limits (r,) * K, to the bit


def test_sum_info_cdf_single_round():
    est = outage_upper_ir(RateSchedule((1.5,)), PowerProfile((5.0,)))
    assert est.value == pytest.approx(-math.expm1(-(2.0**1.5 - 1.0) / 5.0), rel=1e-12)
    assert est.uncertainty >= 0.0
    assert est.method == "ir-recursion"
    assert (est.value, est.uncertainty) == (0.30627900579411305, 3.0627900579411304e-15)


def test_sum_info_cdf_two_rounds_against_scipy():
    pinned = {2.0: (0.0218644946039107, 2.1864494605266697e-16),
              1.7: (0.021130469733123988, 2.1130469737088836e-16)}
    for r, g1, g2 in ((2.0, 10.0, 10.0), (1.7, 3.0, 20.0)):
        est = outage_upper_ir(RateSchedule((r / 2, r / 2)), PowerProfile((g1, g2)))
        ref = _sum2_cdf_reference(r, g1, g2)
        assert est.value == pytest.approx(ref, rel=1e-8), (r, g1, g2)
        assert abs(est.value - ref) <= max(est.uncertainty, 1e-8 * ref)
        assert (est.value, est.uncertainty) == pinned[r], (r, est)


# ---------------------------------------------------------------------------
# upper bound


def test_outage_upper_two_rounds_against_scipy():
    rates = RateSchedule((1.0, 1.0))
    est = outage_upper_ir(rates, PowerProfile((10.0, 10.0)))
    ref = _sum2_cdf_reference(2.0, 10.0, 10.0)
    assert est.value == pytest.approx(ref, rel=1e-7)
    assert est.method == "ir-recursion"


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
        lo = outage_lower(rates, powers).value
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


def _mp_xp_two_rounds_high_snr(r1: float, r2: float, gbar: float):
    """XP outage of two equal-SNR rounds by exponential integrals, 40 digits.

    With x = 1 + gamma_1, X = 2^{R1} and Z = 2^{R1+R2} the outage is
    (1/gbar) int_1^X e^{-(x-1)/gbar} (1 - e^{-(Z/x-1)/gbar}) dx.  Dropping
    e^{-(x-1)/gbar} and the -1 of Z/x - 1, a relative change below
    2^{-R2} + 2^{R1}/gbar, and putting w = Z/(x gbar) leaves
    (Z/gbar^2) [H(2^{R2}/gbar) - H(Z/gbar)], H(w) = (1 - e^{-w})/w + E1(w).
    """
    with mp.workdps(40):
        g = mp.mpf(gbar)
        big_z = mp.mpf(2) ** (r1 + r2)
        h = lambda w: -mp.expm1(-w) / w + mp.e1(w)
        return float(big_z / g**2 * (h(mp.mpf(2) ** r2 / g) - h(big_z / g)))


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
    # Pr(x_2 < 4).  Above 160 dB mp.quad drifts, so the reference there is
    # the leading high-SNR term, whose relative error O(1/gbar) is < 1e-16.
    rates = RateSchedule((1.0, 1.0))
    for snr_db in list(range(-10, 161, 10)) + [200, 250, 300]:
        gbar = 10.0 ** (snr_db / 10.0)
        powers = PowerProfile((gbar, gbar))
        if snr_db <= 160:
            refs = (xp_two_rounds_mp(1.0, 4.0, gbar), xp_two_rounds_mp(3.0, 4.0, gbar))
        else:
            refs = ((4.0 * math.log(2.0) - 1.0) / gbar**2,
                    (8.0 * math.log(2.0) - 3.0) / gbar**2)
        for est, ref in zip((xp_outage(rates, powers), outage_upper_ir(rates, powers)), refs):
            err = abs(est.value - ref)
            assert err <= est.uncertainty, (snr_db, est, ref)
            assert err <= 1e-12 * est.value, (snr_db, est, ref)
    rates = RateSchedule((1.0, 1.0, 1.0))
    est = xp_outage(rates, PowerProfile((0.1,) * 3))
    ref = xp_three_rounds_mp((2.0, 4.0, 8.0), 0.1)
    assert abs(est.value - ref) <= min(est.uncertainty, 1e-12 * est.value), (est, ref)
    # R_1 ln 2 far past 8: the first v-panel is split, and the stopping
    # rule, relative only, sees its error at outages of 1e-78 to 1e-297
    for (r1, r2), snr_db in (((100.0, 100.0), 1000), ((200.0, 200.0), 1000),
                             ((500.0, 500.0), 3000)):
        gbar = 10.0 ** (snr_db / 10.0)
        ref = _mp_xp_two_rounds_high_snr(r1, r2, gbar)
        est = xp_outage(RateSchedule((r1, r2)), PowerProfile((gbar, gbar)))
        err = abs(est.value - ref)
        assert err <= est.uncertainty <= 1e-9 * est.value, (r1, snr_db, est, ref)
    # rates near 0: 2^R - 1 taken from 2^R keeps only the digits of R ln 2
    # that survive the sum 1 + R ln 2, and expm1(R ln 2) keeps them all
    a1 = math.expm1(1e-9 * math.log(2.0))
    for rates, gbar, ref in (
        ((1e-12,), 1.0, -math.expm1(-math.expm1(1e-12 * math.log(2.0)))),
        ((1e-9, 2.0), 1e4, xp_two_rounds_mp(a1, 2.0 ** (2.0 + 1e-9), 1e4)),
    ):
        est = xp_outage(RateSchedule(rates), PowerProfile((gbar,) * len(rates)))
        err = abs(est.value - ref)
        assert err <= est.uncertainty <= 1e-9 * est.value, (rates, est, ref)
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


def _quadrature_chain(rates, gbar):
    """XP outage of each prefix of ``rates`` at equal SNR by the nested rule,
    and the sum of their uncertainties."""
    chain = [xp_outage_quadrature(rates.prefix(k), PowerProfile((gbar,) * k))
             for k in range(1, rates.K + 1)]
    return [e.value for e in chain], sum(e.uncertainty for e in chain)


def test_recursion_uncertainty_covers_independent_references():
    # a sample of the benchmark's analytic pool, K = 2-4, 0.5-2 bits a round
    # and 0-40 dB, where nearly every recursion stops at its first pass by
    # its own error estimate: the uncertainty covers |value - reference|
    # beyond the reference's own error.  References: 40-digit mpmath for
    # K = 2 and 3, and the nested rule (its outage chain for XP throughput)
    # at K = 3 and 4
    cases = []
    for r1, r2, db in ((0.5, 2.0, 0), (1.0, 1.5, 15), (2.0, 2.0, 40)):
        g = 10.0 ** (db / 10.0)
        ref = xp_two_rounds_mp(2.0 ** r1 - 1.0, 2.0 ** (r1 + r2), g)
        cases.append((xp_outage, (r1, r2), g, ref, 0.0))
    for r1, r2, db in ((0.5, 1.5, 15), (2.0, 1.0, 35)):
        g, u = 10.0 ** (db / 10.0), 2.0 ** (r1 + r2)
        cases.append((outage_upper_ir, (r1, r2), g, xp_two_rounds_mp(u - 1.0, u, g), 0.0))
    g = 10.0
    cases.append((xp_outage, (0.5, 1.0, 2.0), g,
                  xp_three_rounds_mp((2.0 ** 0.5, 2.0 ** 1.5, 2.0 ** 3.5), g), 0.0))
    cases.append((outage_upper_ir, (2.0, 0.5, 1.0), g, xp_three_rounds_mp((2.0 ** 3.5,) * 3, g),
                  0.0))
    for rates, db in (((1.5, 2.0, 1.0), 30), ((0.5, 2.0, 1.0, 1.5), 30), ((1.0,) * 4, 10),
                      ((2.0,) * 4, 20), ((1.5, 0.5, 0.5, 1.0), 0)):
        ref = xp_outage_quadrature(RateSchedule(rates), PowerProfile((10.0 ** (db / 10.0),)
                                                                     * len(rates)))
        cases.append((xp_outage, rates, 10.0 ** (db / 10.0), ref.value, ref.uncertainty))
    for scheme, (r1, r2), db in (("xp", (1.0, 2.0), 10), ("xp", (0.5, 0.5), 30),
                                 ("inr", (2.0, 1.5), 0), ("inr", (1.0, 1.0), 20)):
        g = 10.0 ** (db / 10.0)
        solve = lambda r, p, s=scheme: throughput_recursion(r, p, s)
        cases.append((solve, (r1, r2), g, _mp_throughput_two_rounds(scheme, r1, r2, g), 0.0))
    for rates, db in (((1.0, 2.0, 0.5), 20), ((2.0, 1.0, 0.5, 0.5), 10)):
        g = 10.0 ** (db / 10.0)
        chain, spread = _quadrature_chain(RateSchedule(rates), g)
        ref = throughput_from_chain("xp", RateSchedule(rates), chain)
        # eta moves by at most (R_K^sum + eta) / E[T] <= R_K^sum + eta per
        # unit of chain error
        cases.append((throughput_recursion, rates, g, ref, (sum(rates) + ref) * spread))
    for solve, rates, g, ref, ref_err in cases:
        est = solve(RateSchedule(rates), PowerProfile((g,) * len(rates)))
        assert abs(est.value - ref) <= est.uncertainty + ref_err, (solve, rates, g, est, ref)


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


# the grid points where an outage recursion raises: (solver, K, rate per
# round, dB), the interpolant's absolute accuracy against outages of 1e-40
# and below
_RAISING = {
    ("outage_upper_ir", 3, 20.0, 100), ("outage_upper_ir", 3, 20.0, 300),
    ("outage_upper_ir", 3, 20.0, 1000), ("xp_outage", 3, 400.0 / 3, 1000),
    ("outage_upper_ir", 3, 400.0 / 3, 1000), ("outage_upper_ir", 4, 8.0, 100),
    ("outage_upper_ir", 4, 8.0, 300), ("xp_outage", 4, 15.0, 100),
    ("outage_upper_ir", 4, 15.0, 100), ("outage_upper_ir", 4, 15.0, 300),
    ("outage_upper_ir", 4, 100.0, 300), ("xp_outage", 4, 100.0, 1000),
    ("outage_upper_ir", 4, 100.0, 1000),
}


def test_outage_recursions_meet_the_relative_rule_or_raise():
    # each outage recursion either reports an uncertainty within 1e-9 of
    # its value, plus the 1e-14 rounding floor, or raises, at the pinned
    # points only; where both converge, lower <= oracle <= upper within
    # their uncertainties
    raised = set()
    for k_rounds in (2, 3, 4):
        for rate in (1e-12, 1e-9, 0.01, 0.5, 2.0, 8.0, 60.0 / k_rounds, 400.0 / k_rounds):
            for snr_db in (-10, 0, 10, 30, 100, 300, 1000, 3000):
                rates = RateSchedule((rate,) * k_rounds)
                powers = PowerProfile((10.0 ** (snr_db / 10.0),) * k_rounds)
                got = {}
                for solve in (xp_outage, outage_upper_ir):
                    try:
                        est = got[solve] = solve(rates, powers)
                    except ConvergenceError:
                        raised.add((solve.__name__, k_rounds, rate, snr_db))
                        continue
                    assert est.uncertainty <= (1e-9 + 1e-14) * est.value, (rate, snr_db, est)
                if len(got) == 2:
                    xp, ir = got[xp_outage], got[outage_upper_ir]
                    low = outage_lower(rates, powers).value
                    assert low <= xp.value + xp.uncertainty, (rate, snr_db)
                    assert xp.value - xp.uncertainty <= ir.value + ir.uncertainty, (rate, snr_db)
    assert raised == _RAISING


def test_outage_ladder_stops_at_a_negative_pass(monkeypatch):
    # the outage sums nonnegative terms, so a pass below 0 has an error
    # beyond the value: at 1000 dB and 80 bits per round the third pass
    # reads -4.7e-99 and the fourth is never run
    passes = []
    real = bounds._nested

    def counting(*args):
        passes.append(args[-2:])
        return real(*args)

    monkeypatch.setattr(bounds, "_nested", counting)
    with pytest.raises(ConvergenceError, match="below 0") as info:
        outage_upper_ir(RateSchedule((80.0,) * 5), PowerProfile((1e100,) * 5))
    assert passes == [(32, 16), (64, 16), (128, 32)]
    best = info.value.estimate
    assert best.work == {"passes": 3, "stop": "raised"}
    assert best.method == "ir-recursion"
    assert type(best.value) is float and best.value < 0.0
    assert best.uncertainty >= -best.value


def test_recursion_work_records_the_passes_and_what_stopped_them():
    # at 1 bit a round and 10 dB every recursion's first pass meets the
    # tolerance by its own error estimate; the IR bound at 2 bits a round,
    # K = 4 and 0 dB does not (the estimate reads 3e-8 of an outage near 1),
    # and the second pass's gap to it, plus its own estimate, stops it
    for k_rounds in (2, 3, 4):
        rates, powers = RateSchedule((1.0,) * k_rounds), PowerProfile((10.0,) * k_rounds)
        for solve in (xp_outage, outage_upper_ir, lambda r, p: throughput_recursion(r, p, "xp"),
                      lambda r, p: throughput_recursion(r, p, "inr")):
            assert solve(rates, powers).work == {"passes": 1, "stop": "estimate"}, k_rounds
    est = outage_upper_ir(RateSchedule((2.0,) * 4), PowerProfile((1.0,) * 4))
    assert est.work == {"passes": 2, "stop": "gap"}


def test_concurrent_recursions_keep_their_own_work():
    # each result carries its own record, so threads that run different
    # ladders at once cannot read each other's: the IR bound at (2, 2, 2, 2)
    # and 0 dB takes two passes, the XP outage at (1, 1, 1) and 10 dB one.
    # A short switch interval makes the threads interleave within a ladder
    ir = lambda: outage_upper_ir(RateSchedule((2.0,) * 4), PowerProfile((1.0,) * 4))
    xp = lambda: xp_outage(RateSchedule((1.0,) * 3), PowerProfile((10.0,) * 3))
    solvers = (ir, xp) * 2
    start = threading.Barrier(len(solvers))

    def run(solve):
        start.wait(timeout=60)
        return [solve() for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(solvers)) as pool:
            runs = [f.result(timeout=60) for f in [pool.submit(run, s) for s in solvers]]
    finally:
        sys.setswitchinterval(interval)
    for solve, results in zip(solvers, runs):
        want = {"passes": 2, "stop": "gap"} if solve is ir else {"passes": 1, "stop": "estimate"}
        assert [e.work for e in results] == [want] * 10
        assert len({e.value for e in results}) == 1


def test_outage_recursion_meets_the_asymptote_at_high_snr():
    # from 200 dB on the leading asymptote is the outage up to a relative
    # O(2^{R_K^sum} / gbar), below 1e-12 here; at K = 4 and 1000 dB it
    # underflows to 0
    for k_rounds in (2, 3, 4):
        for rate in (0.5, 1.0, 2.0, 8.0):
            rates = RateSchedule((rate,) * k_rounds)
            for snr_db in (200, 300) + ((1000,) if k_rounds <= 3 else ()):
                powers = PowerProfile((10.0 ** (snr_db / 10.0),) * k_rounds)
                est = xp_outage(rates, powers)
                asym = outage_asymptotic_general(rates, powers).value
                assert abs(est.value - asym) <= 1e-12 * asym, (k_rounds, rate, snr_db, est, asym)


def test_outage_convergence_error_carries_floats():
    # at K = 2 the top level reads the closed-form last level, the passes at
    # (64, 16) and (128, 32) agree to the bit, and a zero tolerance is met by
    # their gap; at K = 3 the first two passes read V_2 at the same 16 Gauss
    # nodes and agree to the bit, but the second adds its own error estimate
    # to that gap of 0, and at K = 4 V_3 is interpolated and no two passes
    # agree to the bit: the error carries the one probability as an
    # Estimate of floats, as the outage calls return it
    est = xp_outage(RateSchedule((1.0,) * 2), PowerProfile((10.0,) * 2), rel_tol=0.0)
    assert est.uncertainty == 1e-14 * est.value
    for k_rounds in (3, 4):
        with pytest.raises(ConvergenceError) as info:
            xp_outage(RateSchedule((1.0,) * k_rounds), PowerProfile((10.0,) * k_rounds),
                      rel_tol=0.0)
        best = info.value.estimate
        assert best.method == "xp-recursion"
        assert type(best.value) is float, best
        assert type(best.uncertainty) is float and best.uncertainty > 0.0, best


def test_recursion_skips_levels_the_limits_never_bind(monkeypatch):
    # R_2 = 100 lifts U_2 past every x_2 the second round can reach, so the
    # outage is that of the first round alone, and G_2 on [0, ln U_1] is 1:
    # nothing under it is evaluated, let alone interpolated
    domains = []
    real = bounds._interpolate

    def recording(f, n, lo, hi):
        domains.append((lo, hi))
        return real(f, n, lo, hi)

    monkeypatch.setattr(bounds, "_interpolate", recording)
    for rates in ((1.0, 100.0, 1.0), (1.0, 100.0, 1.0, 1.0), (1.0, 100.0, 1.0, 1.0, 1.0)):
        est = xp_outage(RateSchedule(rates), PowerProfile((1.0,) * len(rates)))
        assert est.value == pytest.approx(
            outage_lower(RateSchedule((1.0,)), PowerProfile((1.0,))).value, rel=1e-14)
        assert domains == [], (rates, domains)


def test_levels_read_at_most_n_points_are_not_interpolated(monkeypatch):
    # at 1 bit a round and 10 dB the top level reads V_2 on one panel, m
    # Gauss nodes, and n >= 2 m: K = 3 builds no interpolant, K = 4 one per
    # pass (V_3), K = 5 two.  The default tolerance stops at the first pass;
    # a zero tolerance runs all four
    passes, built = [], []
    nested, interpolate = bounds._nested, bounds._interpolate

    def recording_nested(bits, gbars, paid, n, m):
        passes.append(n)
        return nested(bits, gbars, paid, n, m)

    def recording_interpolate(f, n, lo, hi):
        built.append(n)
        return interpolate(f, n, lo, hi)

    monkeypatch.setattr(bounds, "_nested", recording_nested)
    monkeypatch.setattr(bounds, "_interpolate", recording_interpolate)
    for k_rounds in (3, 4, 5):
        rates, powers = RateSchedule((1.0,) * k_rounds), PowerProfile((10.0,) * k_rounds)
        for rel_tol, ran in ((1e-9, [32]), (0.0, [32, 64, 128, 256])):
            passes.clear()
            built.clear()
            try:
                xp_outage(rates, powers, rel_tol=rel_tol)
            except ConvergenceError:
                assert rel_tol == 0.0
            assert passes == ran, (k_rounds, rel_tol, passes)
            assert sorted(built) == sorted(passes * (k_rounds - 3)), (k_rounds, passes, built)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_interpolant_is_numpys_chebyshev_interpolate(n):
    # the cached transform and the domain map give, row by row, the bits of
    # numpy's own interpolant on [lo, hi] and of its evaluation
    lo, hi = 0.3, 7.25
    rows = (lambda x: -np.expm1(-np.expm1(x) / 40.0), lambda x: np.exp(-x) * np.cos(3.0 * x))
    stacked = lambda x: np.stack([row(x) for row in rows])
    rng = np.random.default_rng(n)
    for f, payoff in ((rows[0], rows[:1]), (stacked, rows)):
        read, tail, rest = bounds._interpolate(lambda x: (f(x), "rest"), n, lo, hi)
        assert rest == "rest"
        coef = [Chebyshev.interpolate(row, n - 1, domain=[lo, hi]).coef for row in payoff]
        assert np.array_equal(tail, np.array([abs(c[-2]) + abs(c[-1]) for c in coef]).reshape(
            np.shape(tail))), (n, len(payoff))
        for shape in ((37,), (5, 3, 8)):
            s = rng.uniform(lo, hi, shape)
            got = read(s)
            assert got.shape == f(s).shape, (n, got.shape, shape)
            for row, value in zip(payoff, got.reshape((len(payoff),) + shape)):
                want = Chebyshev.interpolate(row, n - 1, domain=[lo, hi])(s)
                assert np.array_equal(value, want), (n, len(payoff), shape)


def test_outage_upper_at_large_rates_and_high_snr():
    # IR outage at K = 3, 8 bits a round: Pr(sum_k ln(1 + gamma_k) < ln U),
    # U = 2^24.  At 100 dB the reference is a 30-digit mpmath double integral
    # in x_l = 1 + gamma_l, split at powers of 2 in x_1 and x_2 (about a
    # minute to run).  At 1000 dB the outage is the volume of x_1 x_2 x_3 < U,
    # x_l >= 1, over gbar^3 up to a relative U / gbar, below 1e-90.
    rates = RateSchedule((8.0,) * 3)
    with mp.workdps(30):
        u = mp.mpf(2) ** 24
        volume = u * mp.log(u) ** 2 / 2 - u * mp.log(u) + u - 1
        high = float(volume / mp.mpf(1e100) ** 3)
    for snr_db, ref in ((100, 2.0591083109225136e-21), (1000, high)):
        est = outage_upper_ir(rates, PowerProfile((10.0 ** (snr_db / 10.0),) * 3))
        assert abs(est.value - ref) <= est.uncertainty <= 1e-9 * est.value, (snr_db, est, ref)


def _level_all_panels(s, bits, gbar, inner, m):
    """``bounds._level`` over all seven dyadic panels, none skipped."""
    excess = np.maximum(2.0 ** bits * np.exp(-s) - 1.0, 0.0)
    v_edges = np.log1p(np.minimum(gbar * bounds._PANEL_EDGES, excess[..., None]))
    width = np.diff(v_edges, axis=-1)
    t, w = bounds._unit_gauss(m)
    v = v_edges[..., :-1, None] + width[..., None] * t
    f = np.exp(v - np.expm1(v) / gbar) * inner(s[..., None, None] + v)
    return ((f @ w) * width).sum(axis=-1) / gbar


@pytest.mark.parametrize("limit, panels", [
    (16.0 - 2.0 ** -40, 3),  # largest gbar * a_k(x) just below the scaled edge 15
    (16.0, 3),               # exactly on it
    (16.0 + 2.0 ** -40, 4),  # just above it
    (1024.0, 7),             # above 64 gbar: every panel
    (0.5, 1),                # zero everywhere: one zero-width panel
], ids=["below-edge", "on-edge", "above-edge", "above-64gbar", "zero"])
@pytest.mark.parametrize("m", [8, 64])
def test_level_skips_only_panels_no_node_reaches(limit, panels, m):
    # gbar = 3.75 scales the panel edges to 0, 3.75, 7.5, 15, ..., 240; the
    # largest excess limit e^{-s} - 1 is at s = 0
    bits, gbar = math.log2(limit), 3.75
    s = np.linspace(0.0, 1.5, 7)
    closed = lambda t: -np.expm1(np.minimum((1.0 - 40.0 * np.exp(-t)) / 3.0, 0.0))
    seen = []

    def inner(t):
        seen.append(t.shape[-2])
        return closed(t), (0.0, 0.0, 0.0)

    cut, _ = bounds._level(s, bits, gbar, inner, m)
    assert seen == [panels]
    np.testing.assert_allclose(cut, _level_all_panels(s, bits, gbar, closed, m),
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
    first = outage_lower(rates.prefix(1), powers.prefix(1)).value
    assert chain[0] == pytest.approx(first, rel=1e-12)
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
