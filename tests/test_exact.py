"""The one- and two-round exact outage, the phi integral, and the contour
special functions.

The exact outage is the backward recursion ``xp_outage``; this file checks it
at K <= 2.
Reference values come from independent routes: mpmath's phi, incomplete
gamma, log-gamma and outage integrals, scipy's gamma, log-gamma, exp1 and
Bessel K, and, for the contour, the recursion.  scipy and mpmath are test
references only; the package runs on numpy alone.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import exp1, gamma, kv, loggamma

from xpharq import (
    ConvergenceError,
    PowerProfile,
    RateSchedule,
    foxh_h11_incomplete,
    incomplete_gamma_difference,
    outage_k2_via_foxh,
    phi_foxh,
    xp_outage,
)
from xpharq import exact

_EULER_GAMMA = 0.5772156649015329


def _outage_k2_mpmath(r1, r2, g1, g2, dps=40):
    """Full two-round outage assembly in high-precision arithmetic."""
    with mp.workdps(dps):
        a1 = (mp.mpf(2.0) ** r1 - 1) / g1
        a2 = (mp.mpf(2.0) ** r2 - 1) / g2
        big_z = mp.mpf(2.0) ** (r1 + r2)
        lo = mp.mpf(2.0) ** r2
        t1 = (1 - mp.e**-a1) * (1 - mp.e**-a2)
        gap = (big_z - lo) / g2
        t23 = mp.e**-a2 * (1 - mp.e**-gap)
        phi = mp.quad(
            lambda z: mp.e ** ((1 - big_z / z) / g1 + (1 - z) / g2), [lo, big_z]
        ) / g2
        return float(t1 + t23 - phi)


# ---------------------------------------------------------------------------
# single round and phi


def _outage_k1(r1, snr_bar):
    return xp_outage(RateSchedule((r1,)), PowerProfile((snr_bar,))).value


def test_outage_k1_reference_values():
    assert _outage_k1(1.0, 10.0) == pytest.approx(1.0 - math.exp(-0.1), rel=1e-14)
    assert _outage_k1(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)


def test_outage_k1_rejects_bad_input():
    for args in ((0.0, 10.0), (1.0, -1.0), (math.nan, 10.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be positive"):
            _outage_k1(*args)


# ---------------------------------------------------------------------------
# complex-order incomplete gamma difference int_{b1}^{b2} t^s e^{-t} dt


def test_incomplete_gamma_trivial_order_one():
    # s = 0: int_{b1}^{b2} e^{-t} dt = e^{-b1} - e^{-b2}, on 101 points off the
    # excluded b1 = 0
    for b1 in np.linspace(0.0, 10.0, 101) + 0.1:
        for b2 in (2.0 * b1, math.inf):
            got = incomplete_gamma_difference(0.0, float(b1), b2)
            want = math.exp(-b1) - math.exp(-b2)
            assert abs(got.real - want) <= 1e-12 * want, (b1, b2)
            assert abs(got.imag) <= 1e-12 * want, (b1, b2)


def test_incomplete_gamma_complete_limit():
    # b1 -> 0 and b2 = inf reduce to the complete Gamma(s+1), the kernel of
    # foxh_h11_incomplete; the part int_0^{b1} t^s dt left out is below 1e-14
    val = incomplete_gamma_difference(-0.5, 1e-30, math.inf)
    assert val.real == pytest.approx(math.sqrt(math.pi), rel=1e-10)
    assert abs(val.imag) < 1e-12
    for s in (0.5 + 3j, 2.0, 1.0 + 5j):
        got = incomplete_gamma_difference(s, 1e-30, math.inf)
        assert abs(got - gamma(s + 1.0)) <= 1e-12 * abs(gamma(s + 1.0)), s


def test_incomplete_gamma_small_order_logarithmic():
    # s = -1: int_{b1}^{b2} e^{-t}/t dt = E_1(b1) - E_1(b2), and
    # E_1(x) ~ -ln x - euler_gamma for small x
    val = incomplete_gamma_difference(-1.0, 1e-4, 1.0)
    assert val.real == pytest.approx(float(exp1(1e-4) - exp1(1.0)), rel=1e-10)
    assert abs(val.imag) < 1e-12
    tail = incomplete_gamma_difference(-1.0, 1e-4, math.inf)
    assert tail.real == pytest.approx(float(exp1(1e-4)), rel=1e-10)
    assert tail.real == pytest.approx(-math.log(1e-4) - _EULER_GAMMA, abs=2e-4)


def test_incomplete_gamma_complex_orders_against_mpmath():
    orders = [1.5 + 0j, 1.5 + 5j, 1.5 + 20j, 1.5 + 60j, -0.5 + 3j]
    for b1, b2 in ((0.2, 2.0), (2.0, 20.0), (0.2, math.inf), (2.0, math.inf)):
        got = incomplete_gamma_difference(np.array(orders) - 1.0, b1, b2)
        for a, g in zip(orders, got):
            ref = complex(mp.gammainc(a, b1, mp.inf if b2 == math.inf else b2))
            assert abs(complex(g) - ref) < 1e-11, (a, b1, b2)


def test_incomplete_gamma_preserves_shape():
    s = np.array([[0.0, 0.5 + 2j], [-0.5, 1.0]])
    out = incomplete_gamma_difference(s, 0.5, 3.0)
    assert out.shape == (2, 2)
    for idx in np.ndindex(s.shape):
        one = incomplete_gamma_difference(complex(s[idx]), 0.5, 3.0)
        assert isinstance(one, complex)
        assert one == pytest.approx(out[idx], rel=1e-12)
    assert incomplete_gamma_difference(1.0, 0.5, 0.5) == 0.0


def test_incomplete_gamma_rejects_divergent_cases():
    for b1, b2 in ((0.0, 1.0), (-0.5, 1.0), (2.0, 1.0), (1.0, math.nan), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            incomplete_gamma_difference(1.0, b1, b2)


def _kernel_cases():
    # random orders with |Im s| <= 60, some with Re s + 1 <= 0, on every
    # (b1, b2) pair of the grid
    rng = np.random.default_rng(7)
    for b1 in (1e-30, 0.01, 0.2, 1.0):
        for b2 in (2.0 * b1, 10.0, math.inf):
            s = rng.uniform(-1.5, 3.0, 10) + 1j * rng.uniform(-60.0, 60.0, 10)
            s[:2] = (0.5, 0.5 + 60j)
            yield s, b1, b2


def test_kernel_values_lie_within_their_bound_of_mpmath():
    # the one pass's error bound, truncation plus rounding, covers the
    # 30-digit incomplete gamma at each order
    with mp.workdps(30):
        for s, b1, b2 in _kernel_cases():
            vals, errs, panels = exact._kernel(s, b1, b2)
            assert panels >= 1 and np.all(errs > 0.0), (b1, b2)
            top = mp.inf if b2 == math.inf else b2
            for order, got, err in zip(s, vals, errs):
                ref = complex(mp.gammainc(mp.mpc(order.real, order.imag) + 1, b1, top))
                assert abs(got - ref) <= err, (order, b1, b2, abs(got - ref), err)


def _pass_at(s, b1, b2, panels):
    """``_kernel``'s pass and error bounds at a chosen panel count."""
    width = math.log(min(b2, exact._T_UNDERFLOW) / b1)
    a = s + 1.0
    re, which = np.unique(a.real, return_inverse=True)
    bound = exact._log_gauss_bound(re, float(np.abs(a.imag).max()), b1, width, panels)
    return exact._gauss_pass(a, re, which, b1, width, panels, bound)


def test_kernel_bound_covers_the_chosen_pass_against_four_times_the_panels():
    # the chosen pass against one with 4x the panels, whose own error is
    # far smaller; and passes coarser than the bound allows, where the
    # truncation bound is what covers the gap, so it is not vacuous there
    for s, b1, b2 in _kernel_cases():
        vals, errs, panels = exact._kernel(s, b1, b2)
        fine, fine_errs = _pass_at(s, b1, b2, 4 * panels)
        assert np.all(np.abs(vals - fine) <= errs + fine_errs), (b1, b2, panels)
    s = 0.5 + 1j * np.array([0.0, 20.0, 40.0, 60.0])
    vals, _, panels = exact._kernel(s, 0.2, 10.0)
    fine, fine_errs = _pass_at(s, 0.2, 10.0, 4 * panels)
    gaps = []
    for coarse in range(1, panels):
        got, errs = _pass_at(s, 0.2, 10.0, coarse)
        assert np.all(np.abs(got - fine) <= errs + fine_errs), coarse
        gaps.append(np.max(np.abs(got - fine) / errs))
    # somewhere the truncation error is within 1e3 of its bound
    assert max(gaps) >= 1e-3, gaps


# ---------------------------------------------------------------------------
# contour representation


def test_foxh_params_validation():
    for z in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            foxh_h11_incomplete(z)
    bad = [(0.0, 1.0, 10.0, 10.0), (1.0, -1.0, 10.0, 10.0),
           (1.0, 1.0, 0.0, 10.0), (1.0, 1.0, 10.0, -5.0)]
    # NaN in each slot, which an ordering test such as min(...) <= 0 lets through
    for slot in range(4):
        args = [1.0, 1.0, 10.0, 10.0]
        args[slot] = math.nan
        bad.append(tuple(args))
    for args in bad:
        with pytest.raises(ValueError, match="must be positive"):
            phi_foxh(*args)


def test_foxh_degenerate_bessel_identity():
    # with b = 0 the contour value collapses to 2 sqrt(z) K_1(2 sqrt(z))
    for z in (0.25, 1.0, 4.0):
        got = foxh_h11_incomplete(z)
        want = 2.0 * math.sqrt(z) * float(kv(1, 2.0 * math.sqrt(z)))
        assert got.value == pytest.approx(want, rel=1e-6), z
        assert got.method == "mellin-barnes" and abs(got.value - want) <= got.uncertainty, z
        # the complete kernel is one log-gamma per node, on no panel
        assert got.work["kernel_panels"] == 0 and got.work["nodes"] > 1, (z, got.work)


def test_foxh_large_argument_decays():
    assert abs(foxh_h11_incomplete(1e4).value) < 1e-10


def _phi_mpmath(r1, r2, g1, g2):
    """phi by 20-digit quadrature of its defining integral; on the grid below
    it is within 1e-11 of each contour uncertainty of a 30-digit one on nine
    subintervals."""
    with mp.workdps(20):
        big_z, lo = mp.mpf(2) ** (r1 + r2), mp.mpf(2) ** r2
        f = lambda z: mp.e ** ((1 - big_z / z) / g1 + (1 - z) / g2)
        return float(mp.quad(f, [lo, big_z]) / g2)


def test_phi_foxh_lies_within_its_bound_of_mpmath():
    # the one-pass uncertainty, strip bound plus tail bound plus node
    # errors plus rounding, 1.6e-16 to 2.4e-13 here, covers phi on a broad
    # rate/SNR grid; at r1 = 6 and 8, ln(b2/b1) = r1 ln 2 reaches 5.5, so
    # t^s turns about 50 times over the kernel interval at the contour's
    # end, Im s = 60
    for r1 in (0.5, 1.0, 2.0, 3.0, 6.0, 8.0):
        for r2 in (0.5, 1.0, 2.0, 3.0):
            for g in (1.0, 10.0, 100.0):
                got = phi_foxh(r1, r2, g, g)
                ref = _phi_mpmath(r1, r2, g, g)
                assert got.method == "mellin-barnes"
                assert abs(got.value - ref) <= got.uncertainty, (r1, r2, g, got, ref)


def test_contour_cut_bisects_to_the_linear_scan(monkeypatch):
    # every tail falls with T, so the bisection stops at the first step the
    # linear scan 1, 2, ... would reach, on the grid above, in at most 8
    # calls of the tail bound where the scan took up to 118
    real, cuts = exact._contour_cut, []

    def recording(tail, target):
        calls = []
        steps = real(lambda t: calls.append(t) or tail(t), target)
        cuts.append((tail, target, steps, len(calls)))
        return steps

    monkeypatch.setattr(exact, "_contour_cut", recording)
    for r1 in (0.5, 1.0, 2.0, 3.0, 6.0, 8.0):
        for r2 in (0.5, 1.0, 2.0, 3.0):
            for g in (1.0, 10.0, 100.0):
                phi_foxh(r1, r2, g, g)
    assert len(cuts) == 72
    for tail, target, steps, calls in cuts:
        scan = next((n for n in range(1, exact._CONTOUR_MAX_STEPS)
                     if tail(n * exact._CONTOUR_STEP) <= target), exact._CONTOUR_MAX_STEPS)
        assert steps == scan and calls <= 8, (steps, scan, calls)


def test_phi_raises_where_its_scale_overflows():
    # the contour's scale e^{1/g1 + 1/g2} overflows a double below about
    # -25.5 dB; it raises a ConvergenceError with no estimate there, and
    # the assembly passes it on, while -25 dB still gives an outage of 1
    rates = RateSchedule((1.0, 1.0))
    g = 10.0 ** -2.6
    for call in (lambda: phi_foxh(1.0, 1.0, g, g),
                 lambda: outage_k2_via_foxh(rates, PowerProfile((g, g)))):
        with pytest.raises(ConvergenceError, match="overflows a double") as info:
            call()
        assert info.value.estimate is None
    est = outage_k2_via_foxh(rates, PowerProfile((10.0 ** -2.5,) * 2))
    assert est.value == 1.0 and est.uncertainty < 1e-14


# ---------------------------------------------------------------------------
# two-round outage assembly


def test_outage_k2_exact_against_mpmath():
    cases = (
        (1.0, 1.0, 10.0, 10.0),
        (2.0, 0.5, 3.0, 30.0),
        (0.5, 0.5, 1.0, 1.0),
        (1.0, 2.0, 100.0, 100.0),
    )
    for r1, r2, g1, g2 in cases:
        est = xp_outage(RateSchedule((r1, r2)), PowerProfile((g1, g2)))
        ref = _outage_k2_mpmath(r1, r2, g1, g2)
        assert est.value == pytest.approx(ref, rel=1e-9), (r1, r2, g1, g2)
        assert est.method == "xp-recursion"
        assert est.uncertainty >= 0.0


def test_outage_k2_exact_survives_cancellation():
    # at high SNR the paper's assembly, the 40-digit reference, is a
    # difference of nearly equal terms; the recursion has no subtraction
    est = xp_outage(RateSchedule((1.0, 1.0)), PowerProfile((1e6, 1e6)))
    ref = _outage_k2_mpmath(1.0, 1.0, 1e6, 1e6)
    assert est.value == pytest.approx(ref, rel=1e-6)
    assert est.value > 0.0


def test_outage_k2_exact_monotone_and_bounded():
    outage = lambda r, g: xp_outage(RateSchedule(r), PowerProfile(g)).value
    base = outage((1.0, 1.0), (5.0, 5.0))
    better1 = outage((1.0, 1.0), (8.0, 5.0))
    better2 = outage((1.0, 1.0), (5.0, 8.0))
    greedy1 = outage((1.5, 1.0), (5.0, 5.0))
    greedy2 = outage((1.0, 1.5), (5.0, 5.0))
    assert better1 <= base and better2 <= base
    assert greedy1 >= base and greedy2 >= base
    for g in (1e-3, 1.0, 1e8):
        v = outage((1.0, 1.0), (g, g))
        assert 0.0 <= v <= 1.0
    # e^{-a2} and g2 / 2^{R2} underflow: the second round always fails
    est = xp_outage(RateSchedule((20.0, 1000.0)), PowerProfile((1e300, 1e-300)))
    assert est.value == pytest.approx(_outage_k1(20.0, 1e300), rel=1e-14)


def test_outage_k2_exact_rejects_other_round_counts():
    # the paper's two-round form, the contour route to the exact outage
    with pytest.raises(ValueError):
        outage_k2_via_foxh(RateSchedule((1.0,)), PowerProfile((10.0,)))
    with pytest.raises(ValueError):
        outage_k2_via_foxh(RateSchedule((1.0, 1.0, 1.0)), PowerProfile((10.0,) * 3))


def test_outage_k2_contour_path_agrees():
    for r, g in (((1.0, 1.0), (10.0, 10.0)), ((2.0, 1.0), (50.0, 5.0))):
        a = xp_outage(RateSchedule(r), PowerProfile(g)).value
        b = outage_k2_via_foxh(RateSchedule(r), PowerProfile(g))
        assert b.value == pytest.approx(a, rel=1e-6), (r, g)
        # the outage carries the work record of the contour that gave phi
        assert b.work == phi_foxh(*r, *g).work and b.work["nodes"] > 1, (r, g, b.work)


def test_outage_k2_contour_uncertainty_calibrated():
    for r in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
        for db in range(-10, 41, 5):
            g = 10.0 ** (db / 10.0)
            rates, powers = RateSchedule(r), PowerProfile((g, g))
            est = outage_k2_via_foxh(rates, powers)
            ref = xp_outage(rates, powers).value
            assert abs(est.value - ref) <= est.uncertainty, (r, db)


def test_contour_gives_up_where_its_scale_swamps_the_sum():
    # at -20 and -15 dB phi_foxh multiplies the contour integral by
    # e^{2/g} up to e^200, so the trapezoid's rounding alone exceeds 1e-8 of
    # t1 + t23; the call raises, and the outage it carries, assembled from
    # the contour's best phi, covers P.  The assembly would read P far
    # outside [0, 1] had the contour stopped
    points = [((0.01, 0.01), -20), ((0.01, 0.01), -15), ((0.1, 0.1), -20),
              ((0.1, 0.1), -15), ((0.5, 0.5), -20)]
    for (r1, r2), db in points:
        g = 10.0 ** (db / 10.0)
        rates, powers = RateSchedule((r1, r2)), PowerProfile((g, g))
        with pytest.raises(ConvergenceError, match="not converged") as info:
            outage_k2_via_foxh(rates, powers)
        best = info.value.estimate
        assert best.method == "k2-foxh", (r1, db)
        with pytest.raises(ConvergenceError) as phi_info:
            phi_foxh(r1, r2, g, g)
        assert best.work == phi_info.value.estimate.work and best.work["nodes"] > 1, (r1, db)
        want = xp_outage(rates, powers).value
        assert abs(best.value - want) <= best.uncertainty, (r1, db, best, want)


def test_contour_evaluates_each_node_once(monkeypatch):
    # the node at tau = 0 sizes the pass: the cut, 117 steps of 60/256,
    # reaches |Im s| = 27.4, and the strip bound's step splits it into 339
    # steps.  One pass evaluates the kernel once at each of the 340 nodes,
    # on the one panel that its Bernstein-ellipse bound asks for
    seen = []
    real = exact._kernel

    def counting(s, b1, b2):
        seen.append(s.imag.copy())
        return real(s, b1, b2)

    monkeypatch.setattr(exact, "_kernel", counting)
    res = phi_foxh(1.0, 1.0, 10.0, 10.0)
    assert [len(t) for t in seen] == [1, 339]
    nodes = np.concatenate(seen)
    assert len(np.unique(nodes)) == len(nodes)
    assert np.allclose(nodes, np.linspace(0.0, 117 * 60.0 / 256, 340), rtol=1e-15, atol=0.0)
    assert res.work == {"nodes": 340, "kernel_panels": 1}
    # the value computed when every pass evaluated the whole line to 60
    assert abs(res.value - 0.1576149085553178) <= res.uncertainty


def test_log_gamma_against_scipy_and_mpmath():
    # exp(ln Gamma) is all the contour uses, so the logs are compared
    # modulo 2 pi i.  Their error is a few ulps of |ln Gamma|, which reaches
    # 190 at Im s = 60; scipy's own error adds to it
    eps = np.finfo(float).eps
    tau = np.linspace(0.0, 60.0, 241)
    for re in (0.5, 1.5):
        s = re + 1j * tau
        got = exact._log_gamma(s)
        with mp.workdps(30):
            exact_ref = np.array([complex(mp.loggamma(mp.mpc(re, t))) for t in tau])
        for ref, ulps in ((exact_ref, 32), (loggamma(s), 64)):
            d = got - ref
            d = d.real + 1j * ((d.imag + np.pi) % (2.0 * np.pi) - np.pi)
            assert np.all(np.abs(d) <= ulps * eps * np.maximum(1.0, np.abs(ref))), re


def test_contour_tail_bound_covers_the_dropped_line(monkeypatch):
    # the part of the old line [T, 60] that the cut drops, by scipy's gamma
    # on the old last pass's nodes, lies within the tail bound the error
    # carries; that bound is 2^-10 of the assembly's rounding floor
    calls = []
    real = exact._mellin_contour

    def spying(integrand, tail, strip, magnitude, *rest):
        calls.append((integrand, tail, magnitude))
        return real(integrand, tail, strip, magnitude, *rest)

    monkeypatch.setattr(exact, "_mellin_contour", spying)
    taus = np.linspace(0.0, 60.0, 1025)
    for r1, r2 in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
        for db in range(-10, 41, 5):
            g = 10.0 ** (db / 10.0)
            calls.clear()
            phi = phi_foxh(r1, r2, g, g)
            ((integrand, tail, magnitude),) = calls
            vals, errs, _ = integrand(np.array([0.5 + 0j]))
            head = abs(vals.real[0]) + float(np.max(errs))
            target = 2.0 ** -10 * 4e-16 * magnitude
            steps = exact._contour_cut(lambda t: head * tail(t), target)
            assert steps < 256, (r1, r2, db)
            span = steps * 60.0 / 256
            bound = head * tail(span)
            assert bound <= target, (r1, r2, db)
            assert phi.uncertainty >= math.exp(2.0 / g) * bound, (r1, r2, db)
            z, b1, b2 = 2.0 ** (r1 + r2) / g ** 2, 2.0 ** r2 / g, 2.0 ** (r1 + r2) / g
            s = 0.5 + 1j * taus[4 * steps:]
            vals = (gamma(s) * incomplete_gamma_difference(s, b1, b2) * z ** -s).real
            dropped = (np.sum(vals) - 0.5 * (vals[0] + vals[-1])) * (taus[1] - taus[0]) / np.pi
            assert abs(dropped) <= bound, (r1, r2, db, dropped, bound)


_HELPER_CPU_PROBE = """
import os, time
import scipy.special
import xpharq

def helper_ticks():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total

def settled():
    last = helper_ticks()
    for _ in range(100):
        time.sleep(0.05)
        now = helper_ticks()
        if now == last:
            return now
        last = now
    return last

rates, powers = xpharq.RateSchedule((1.0, 1.0)), xpharq.PowerProfile((10.0, 10.0))
before = settled()
for _ in range(5):
    xpharq.outage_k2_via_foxh(rates, powers)
print(settled() - before)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_contour_wakes_no_blas_helper():
    # with the helper threads allowed, the contour kernel must still not
    # hand them work: a woken helper spins on another CPU after the call
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _HELPER_CPU_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 2
