"""Monte Carlo engine: sampling, determinism, estimates, and throughput."""

import functools
import math
import sys
import threading

import numpy as np
import pytest

from xpharq import (
    PowerProfile,
    RateSchedule,
    SimConfig,
    SimSummary,
    estimate_outage,
    estimate_throughput,
    outage_k1,
    outage_k2_exact,
    outage_upper_ir,
    throughput_recursion,
    xp_outage_quadrature,
)
import xpharq.simulate as simulate
from xpharq.simulate import (
    _BLOCK,
    _COMPACT_SHARE,
    _LN2,
    _block_rng,
    _run_block,
    _scheme_vectors,
    _simulate,
    _workspace,
)

from oracles import throughput_oracle, xp_outage_chain


def _trial_major_block(seed, block_index, n, gbars, thresholds):
    """Reference block: one row per trial, decided by cumsum/argmax.

    Returns each trial's 0-based first-success round, K for an outage.  The
    stream's documented layout is round-major: round 1 of all n trials,
    then round 2, and so on, each SNR gbar * -log1p(-U) of a uniform U.
    """
    rng = _block_rng(seed, block_index)
    k_rounds = len(gbars)
    snr = -np.log1p(-rng.random((k_rounds, n))).T * gbars
    info_cum = np.cumsum(np.log1p(snr), axis=1) / _LN2
    reached = info_cum >= thresholds
    return np.where(reached.any(axis=1), np.argmax(reached, axis=1), k_rounds)


def _gather_round(first, k_rounds):
    """Round after which ``_run_block`` carries only the pending trials.

    None when it never does: the block stays dense to round K, or no trial
    is left pending before the pending share falls to ``_COMPACT_SHARE``.
    """
    for k in range(1, k_rounds):
        left = np.count_nonzero(first >= k)
        if left == 0:
            return None
        if left <= _COMPACT_SHARE * len(first):
            return k
    return None


def test_sim_config_validation():
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    with pytest.raises(ValueError):
        SimConfig(scheme="foo", rates=rates, powers=powers, trials=100, seed=0)
    with pytest.raises(ValueError):
        SimConfig(scheme="xp", rates=rates, powers=PowerProfile((10.0,)), trials=100, seed=0)
    with pytest.raises(ValueError):
        SimConfig(scheme="xp", rates=rates, powers=powers, trials=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(scheme="xp", rates=rates, powers=powers, trials=100, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(scheme="xp", rates=rates, powers=powers, trials=100, seed=0, workers=0)


def test_summary_merge_adds_fields():
    a = SimSummary(10, (5, 3))
    b = SimSummary(4, (2, 1))
    m = a.merge(b)
    assert m == SimSummary(14, (7, 4))
    assert (a.outage_count, b.outage_count, m.outage_count) == (2, 1, 3)
    assert b.merge(a) == m
    with pytest.raises(ValueError):
        a.merge(SimSummary(1, (1,)))


def test_engine_summary_invariants():
    cfg = SimConfig(
        scheme="xp",
        rates=RateSchedule((1.0, 1.0)),
        powers=PowerProfile((10.0, 10.0)),
        trials=150_000,
        seed=3,
    )
    s = _simulate(cfg, _scheme_vectors(cfg, "throughput"))
    assert s.trials == cfg.trials
    assert len(s.success_at_round) == cfg.rates.K
    assert all(type(c) is int and c >= 0 for c in s.success_at_round)
    assert s.outage_count >= 0


def test_block_kernel_matches_trial_major_oracle():
    rng = np.random.default_rng(2024)
    sizes = [1, 2, 7, 65_535, 65_536, 65_537, 70_000] + [
        int(n) for n in rng.integers(1, 70_000, size=17)
    ]
    cases = [(n, case % 8 + 1, (0.05, 3.0), (-10.0, 30.0)) for case, n in enumerate(sizes)]
    # the decision on prod(1 + g) - 1 must keep the log sum's relative
    # precision where 2^R and 1 + g keep few digits (rates of 1e-18 to 1e-12
    # in deep fades) and where R and log2(1 + g) are large
    for k_rounds in range(1, 13):
        decade = -18.0 + 5.0 * (k_rounds - 1) / 11.0
        tiny = (10.0 ** decade, 10.0 ** (decade + 1.0))
        cases.append((3000, k_rounds, tiny, (-180.0, -100.0)))
        cases.append((3000, k_rounds, (20.0, 80.0), (100.0, 300.0)))
    # one round, one trial, and trials gathered after round 1, after a
    # middle round, or never (dense to round K, or none left pending)
    cases += [(n, 1, (0.5, 3.0), (-10.0, 30.0)) for n in (1, 2, 5000)]
    cases += [(1, k, (0.05, 3.0), (-10.0, 30.0)) for k in (2, 3, 8)]
    phases = {}  # case: the gather round, for xp, inr outage and inr throughput
    for rate, db, k_rounds, gathered in ((0.5, 25.0, 4, (1, 1, 1)), (1.0, 3.0, 6, (2, None, 2)),
                                         (1.0, 6.0, 6, (1, 4, 1)), (3.0, -10.0, 5, (None,) * 3),
                                         (0.3, 60.0, 3, (None,) * 3)):
        for case in range(len(cases), len(cases) + 3):
            phases[case] = gathered[case % 3]
        cases += [(5000, k_rounds, (rate, rate), (db, db))] * 3
    for case, (n, k_rounds, rate_range, db_range) in enumerate(cases):
        rates = RateSchedule(tuple(float(r) for r in rng.uniform(*rate_range, k_rounds)))
        db = rng.uniform(*db_range, k_rounds)
        powers = PowerProfile(tuple(float(g) for g in 10.0 ** (db / 10.0)))
        gbars = np.asarray(powers.snr_bars)
        scheme, purpose = (("xp", "outage"), ("inr", "outage"), ("inr", "throughput"))[case % 3]
        cfg = SimConfig(scheme=scheme, rates=rates, powers=powers, trials=n, seed=case)
        thresholds = _scheme_vectors(cfg, purpose)
        seed, index = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 1000))
        got = _run_block(seed, index, n, gbars, thresholds, _workspace(n))
        first = _trial_major_block(seed, index, n, gbars, thresholds)
        counts = np.bincount(first, minlength=k_rounds + 1)[:k_rounds]
        assert got == SimSummary(n, tuple(int(c) for c in counts)), (
            case, n, k_rounds, scheme, purpose
        )
        if case in phases:
            assert _gather_round(first, k_rounds) == phases[case], (case, scheme, purpose)
        assert all(type(c) is int for c in got.success_at_round)


def test_block_success_counts_monotone_in_snr():
    # scaling every mean SNR by c > 1 scales each trial's draws up, so no
    # trial can succeed later: the cumulative first-success counts never fall
    rng = np.random.default_rng(77)
    n = 4000
    work = _workspace(n)
    for k_rounds in range(1, 9):
        rates = RateSchedule(tuple(float(r) for r in rng.uniform(0.2, 2.0, k_rounds)))
        gbars = 10.0 ** (rng.uniform(-5.0, 20.0, k_rounds) / 10.0)
        powers = PowerProfile(tuple(float(g) for g in gbars))
        for scheme, purpose in (("xp", "outage"), ("inr", "outage"), ("inr", "throughput")):
            cfg = SimConfig(scheme=scheme, rates=rates, powers=powers, trials=n, seed=0)
            thresholds = _scheme_vectors(cfg, purpose)
            seed, index = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 1000))
            prev = np.cumsum(_run_block(seed, index, n, gbars, thresholds, work).success_at_round)
            for c in (1.0 + 2.0 ** -40, 1.5, 4.0, 100.0):
                got = _run_block(seed, index, n, gbars * c, thresholds, work)
                cum = np.cumsum(got.success_at_round)
                assert np.all(cum >= prev), (k_rounds, scheme, purpose, c)
                prev = cum
            assert prev[-1] > 0, (k_rounds, scheme, purpose)


def test_throughput_equals_trial_major_reward_over_slots():
    # one block: the estimate is sum(reward) / sum(slots) over the trials,
    # each trial's reward and slots taken from its own first-success round
    for r, db in (((0.7, 1.3), (4.0, 9.0)), ((1.3, 0.7, 0.7), (2.0, 6.0, 3.0))):
        rates = RateSchedule(r)
        powers = PowerProfile(tuple(10.0 ** (d / 10.0) for d in db))
        gbars, k_rounds, n = np.asarray(powers.snr_bars), len(r), 50_000
        for scheme in ("xp", "inr"):
            cfg = SimConfig(scheme=scheme, rates=rates, powers=powers, trials=n, seed=31)
            # XP delivers R_k^sum at round k; INR delivers its one rate-R_1 message
            rewards = np.cumsum(r) if scheme == "xp" else np.full(k_rounds, r[0])
            first = _trial_major_block(cfg.seed, 0, n, gbars, rewards)
            delivered = np.append(rewards, 0.0)[first].sum()
            slots = np.minimum(first + 1, k_rounds).sum()
            assert 0 < np.count_nonzero(first == k_rounds) < n, (r, scheme)
            assert estimate_throughput(cfg).value == pytest.approx(
                delivered / slots, rel=1e-14, abs=0.0
            ), (r, scheme)


def test_block_streams_differ_by_index_and_seed():
    draws = {
        (seed, index): _block_rng(seed, index).standard_exponential(4).tolist()
        for seed in (0, 1, 2 ** 64 - 1)
        for index in (0, 1, 2, 1000)
    }
    assert len({tuple(d) for d in draws.values()}) == len(draws)
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    for seed in (0, 2 ** 64 - 1):
        cfg = SimConfig(scheme="xp", rates=rates, powers=powers, trials=70_000, seed=seed)
        assert 0.0 < estimate_outage(cfg).value < 1.0


def test_block_summary_pinned():
    # a change of the stream or of its layout moves these counts; log it
    gbars = np.array([1.0, 4.0, 2.0])
    thresholds = np.array([1.0, 2.0, 3.0])
    got = _run_block(0, 3, 1000, gbars, thresholds, _workspace(1000))
    assert got == SimSummary(1000, (382, 398, 90))
    assert got.outage_count == 130


def test_block_stream_advances_by_rows_drawn(monkeypatch):
    # one row of n doubles per round, none once no trial is pending: a block
    # emptied at round j leaves its stream at j n, one pending at K at K n
    used = []

    def spy(seed, block_index):
        used.append(_block_rng(seed, block_index))
        return used[-1]

    monkeypatch.setattr(simulate, "_block_rng", spy)
    n = 3000
    for gbars, thresholds, rows in (
        ([1e6] * 4, [0.5, 1.0, 1.5, 2.0], 1),
        ([3.0, 30.0, 300.0, 3000.0], [1.0, 2.0, 3.0, 4.0], 3),
        ([300.0] * 5, [0.5, 1.0, 1.5, 2.0, 2.5], 2),
        ([1.0] * 4, [10.0, 20.0, 30.0, 40.0], 4),
        ([2.0, 0.5, 8.0, 1.0], [0.5, 1.0, 2.0, 2.5], 4),
    ):
        got = _run_block(7, 2, n, np.array(gbars), np.array(thresholds), _workspace(n))
        if rows < len(gbars):
            assert got.outage_count == 0 and got.success_at_round[rows - 1] > 0, got
            assert not any(got.success_at_round[rows:]), got
        else:
            assert got.outage_count > 0, got
        ref = _block_rng(7, 2)
        ref.random(rows * n)
        assert used[-1].bit_generator.state == ref.bit_generator.state, (gbars, rows)


def _serial_summary(cfg, thresholds):
    gbars = np.asarray(cfg.powers.snr_bars)
    parts = [
        _run_block(cfg.seed, index, n, gbars, thresholds, _workspace(n))
        for index, n in enumerate(
            min(_BLOCK, cfg.trials - start) for start in range(0, cfg.trials, _BLOCK)
        )
    ]
    return functools.reduce(SimSummary.merge, parts)


def test_worker_split_equals_serial_summary():
    rates = RateSchedule((0.5, 1.0, 0.7))
    powers = PowerProfile((3.0, 10.0, 5.0))
    # six blocks, the last partial: no worker count here divides them evenly
    for trials in (5 * _BLOCK + 123, 1000):
        base = SimConfig(scheme="xp", rates=rates, powers=powers, trials=trials, seed=19)
        thresholds = _scheme_vectors(base, "throughput")
        serial = _serial_summary(base, thresholds)
        assert serial.trials == trials
        for workers in (1, 2, 3, 8):
            cfg = SimConfig(
                scheme="xp", rates=rates, powers=powers, trials=trials, seed=19, workers=workers
            )
            assert _simulate(cfg, thresholds) == serial, (trials, workers)


def test_block_ignores_stale_workspace():
    gbars = np.array([2.0, 0.5, 8.0, 1.0])
    thresholds = np.array([0.5, 1.0, 2.0, 2.5])
    n = 5000
    fresh = _run_block(8, 2, n, gbars, thresholds, _workspace(n))
    stale = _workspace(n + 17)  # sized for a larger block, as a worker's may be
    stale[0].fill(math.nan)
    stale[1].fill(True)
    assert _run_block(8, 2, n, gbars, thresholds, stale) == fresh
    stale[1].fill(False)
    assert _run_block(8, 2, n, gbars, thresholds, stale) == fresh


def test_worker_split_stress_more_workers_than_cores():
    rates = RateSchedule((1.0, 0.5))
    powers = PowerProfile((10.0, 4.0))
    cfg = SimConfig(scheme="inr", rates=rates, powers=powers, trials=9 * _BLOCK + 7, seed=23)
    thresholds = _scheme_vectors(cfg, "outage")
    serial = _serial_summary(cfg, thresholds)
    stressed = SimConfig(
        scheme="inr", rates=rates, powers=powers, trials=cfg.trials, seed=23, workers=8
    )
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            runner = threading.Thread(
                target=lambda: results.append(_simulate(stressed, thresholds))
            )
            runner.start()
            runner.join(timeout=120.0)
            assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial] * 3


def test_outage_estimate_deterministic_across_workers():
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    results = []
    for workers in (1, 2, 4):
        cfg = SimConfig(
            scheme="xp", rates=rates, powers=powers, trials=200_000, seed=11, workers=workers
        )
        results.append(estimate_outage(cfg))
    assert results[0].value == results[1].value == results[2].value
    assert results[0].uncertainty == results[2].uncertainty
    # fewer trials than one block with several workers
    small = [
        estimate_outage(
            SimConfig(scheme="xp", rates=rates, powers=powers, trials=50_000, seed=11, workers=w)
        ).value
        for w in (1, 4)
    ]
    assert small[0] == small[1]
    # K = 8 throughput over several blocks, the last one partial
    rates8 = RateSchedule((0.3, 0.7, 0.2, 1.1, 0.4, 0.9, 0.6, 0.5))
    powers8 = PowerProfile((1.0, 2.0, 0.5, 3.0, 1.5, 0.8, 2.5, 1.2))
    eta = [
        estimate_throughput(
            SimConfig(
                scheme="xp", rates=rates8, powers=powers8, trials=300_001, seed=5, workers=w
            )
        )
        for w in (1, 2, 4)
    ]
    assert eta[0] == eta[1] == eta[2]


def test_outage_estimate_depends_on_seed():
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    a = estimate_outage(SimConfig(scheme="xp", rates=rates, powers=powers, trials=100_000, seed=0))
    b = estimate_outage(SimConfig(scheme="xp", rates=rates, powers=powers, trials=100_000, seed=1))
    assert a.value != b.value


def test_outage_estimate_matches_closed_form():
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    mc = estimate_outage(
        SimConfig(scheme="xp", rates=rates, powers=powers, trials=1_000_000, seed=0)
    )
    exact = outage_k2_exact(rates, powers).value
    assert abs(mc.value - exact) <= 3.0 * mc.uncertainty / 1.96
    assert mc.method == "mc-xp"


def test_inr_outage_estimate_matches_quadrature_bound():
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    mc = estimate_outage(
        SimConfig(scheme="inr", rates=rates, powers=powers, trials=1_000_000, seed=0)
    )
    ref = outage_upper_ir(rates, powers).value
    assert abs(mc.value - ref) <= 3.0 * mc.uncertainty / 1.96
    assert mc.method == "mc-inr"


def test_xp_outage_within_inr_outage_same_stream():
    # coupled draws: an XP outage leaves every accumulated prefix short, in
    # particular the full K-round sum, so the event sits inside the IR one
    for r in ((1.0, 1.0), (0.5, 1.5)):
        rates, powers = RateSchedule(r), PowerProfile((10.0, 10.0))
        xp = estimate_outage(
            SimConfig(scheme="xp", rates=rates, powers=powers, trials=100_000, seed=4)
        )
        inr = estimate_outage(
            SimConfig(scheme="inr", rates=rates, powers=powers, trials=100_000, seed=4)
        )
        assert xp.value <= inr.value


def test_confidence_interval_calibration():
    """The 95% interval should cover the true value in >= 90 of 100 seeds."""
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    p_true = outage_k2_exact(rates, powers).value
    covered = 0
    for seed in range(100):
        mc = estimate_outage(
            SimConfig(scheme="xp", rates=rates, powers=powers, trials=20_000, seed=seed)
        )
        if abs(mc.value - p_true) <= mc.uncertainty:
            covered += 1
    assert covered >= 90, covered


def test_rare_event_reports_zero_honestly():
    cfg = SimConfig(
        scheme="xp",
        rates=RateSchedule((1.0, 1.0)),
        powers=PowerProfile((1e8, 1e8)),
        trials=2000,
        seed=0,
    )
    mc = estimate_outage(cfg)
    assert mc.value == 0.0
    # no event seen: the rule of three bounds the outage probability
    assert mc.uncertainty == 3.0 / 2000
    # every trial an outage: the same bound on the success probability
    low = estimate_outage(
        SimConfig(scheme="xp", rates=cfg.rates, powers=PowerProfile((1e-8, 1e-8)),
                  trials=2000, seed=0)
    )
    assert (low.value, low.uncertainty) == (1.0, 3.0 / 2000)


def test_throughput_single_round_identity():
    # with one round the throughput estimator is exactly R1 (1 - outage)
    rates, powers = RateSchedule((1.5,)), PowerProfile((5.0,))
    cfg = SimConfig(scheme="xp", rates=rates, powers=powers, trials=80_000, seed=2)
    eta = estimate_throughput(cfg)
    p = estimate_outage(cfg)
    assert eta.value == pytest.approx(1.5 * (1.0 - p.value), rel=1e-12)


def test_throughput_saturates_at_first_rate():
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((1e6, 1e6))
    eta = estimate_throughput(
        SimConfig(scheme="xp", rates=rates, powers=powers, trials=10_000, seed=0)
    )
    assert eta.value == pytest.approx(1.0, abs=1e-3)
    low = estimate_throughput(
        SimConfig(
            scheme="xp",
            rates=rates,
            powers=PowerProfile((1e-4, 1e-4)),
            trials=10_000,
            seed=0,
        )
    )
    assert low.value < 0.01


def test_throughput_single_outcome_reports_rule_of_three():
    # every trial decodes in round 1, so the delta method reads 0; moving
    # 3/n of the trials to outage (delivering 0 in K = 2 slots) moves eta most
    rates, high = RateSchedule((1.0, 1.0)), PowerProfile((1e8, 1e8))
    mc = estimate_throughput(SimConfig(scheme="xp", rates=rates, powers=high, trials=2000, seed=0))
    q = 3.0 / 2000
    assert mc.value == 1.0
    assert mc.uncertainty == pytest.approx(2.0 * q / (1.0 + q), rel=1e-12)
    assert abs(mc.value - throughput_recursion(rates, high, "xp").value) <= mc.uncertainty
    # every trial an outage: 3/n of the trials decoding R_1 = 30 in round 1
    rates3, low = RateSchedule((30.0, 1.0, 1.0)), PowerProfile((1.0,) * 3)
    mc = estimate_throughput(
        SimConfig(scheme="inr", rates=rates3, powers=low, trials=1000, seed=0))
    q = 3.0 / 1000
    assert mc.value == 0.0
    assert mc.uncertainty == pytest.approx(30.0 * q / (3.0 * (1.0 - q) + q), rel=1e-12)
    assert abs(mc.value - throughput_recursion(rates3, low, "inr").value) <= mc.uncertainty


def test_throughput_analytical_reference_cases():
    # K = 1: eta = R_1 (1 - P_1); both schemes are one round of rate R_1
    rates, powers = RateSchedule((1.5,)), PowerProfile((5.0,))
    p1 = outage_k1(1.5, 5.0)
    for scheme in ("xp", "inr"):
        est = throughput_recursion(rates, powers, scheme)
        assert est.value == pytest.approx(1.5 * (1.0 - p1), rel=1e-14)
        assert abs(est.value - 1.5 * (1.0 - p1)) <= est.uncertainty
        assert est.method == f"analytical-{scheme}"
    # outage near 0 at every round: the first round delivers R_1 in one slot
    rates3, powers3 = RateSchedule((1.0, 1.0, 1.0)), PowerProfile((1e12,) * 3)
    assert throughput_recursion(rates3, powers3).value == pytest.approx(1.0, rel=1e-11)
    # R_2 = 100: no round after the first ever decodes, so every round is
    # entered while round 1 fails, and the levels past it are saturated
    p1 = outage_k1(1.0, 1.0)
    for rates_k in ((1.0, 100.0, 1.0), (1.0, 100.0, 1.0, 1.0)):
        est = throughput_recursion(RateSchedule(rates_k), PowerProfile((1.0,) * len(rates_k)))
        want = (1.0 - p1) / (1.0 + (len(rates_k) - 1) * p1)
        assert est.value == pytest.approx(want, rel=1e-13), (rates_k, est)
    # K = 8: the chain formula on per-prefix outages, away from cancellation
    rates8 = RateSchedule((1.0, 0.5) * 4)
    powers8 = PowerProfile((10.0, 3.0, 20.0, 5.0, 8.0, 12.0, 2.0, 30.0))
    for scheme in ("xp", "inr"):
        est = throughput_recursion(rates8, powers8, scheme)
        ref = throughput_oracle(scheme, rates8, powers8, tol=1e-300)
        assert abs(est.value - ref) <= 1e-12 * ref, (scheme, est, ref)
        assert 0.0 < est.uncertainty <= 1e-12 * ref, (scheme, est)
    # R_1 = 75 over four rounds at 40 dB: E[R] is below 1e-70 and E[T] near
    # K; the passes stop once eta, not E[T] on its own, has converged
    est = throughput_recursion(RateSchedule((75.0,) * 4), PowerProfile((1e4,) * 4), "inr")
    assert 0.0 <= est.value <= est.uncertainty <= 1e-10, est
    with pytest.raises(ValueError):
        throughput_recursion(rates, powers, "foo")
    with pytest.raises(ValueError):
        throughput_recursion(rates3, powers)


def test_throughput_analytical_agrees_with_monte_carlo():
    rates = RateSchedule((1.0, 1.0))
    for db in (0.0, 5.0, 10.0, 15.0, 20.0):
        g = 10.0 ** (db / 10.0)
        powers = PowerProfile((g, g))
        ana = throughput_recursion(rates, powers, "xp").value
        mc = estimate_throughput(
            SimConfig(scheme="xp", rates=rates, powers=powers, trials=2_000_000, seed=1)
        )
        # 4 standard errors: about 6e-5 false alarms per point
        assert abs(mc.value - ana) <= 4.0 * mc.uncertainty / 1.96, db


def test_throughput_analytical_inr_agrees_with_monte_carlo():
    rates = RateSchedule((1.0, 0.5, 0.5))
    powers = PowerProfile((10.0, 10.0, 10.0))
    ana = throughput_recursion(rates, powers, "inr").value
    mc = estimate_throughput(
        SimConfig(scheme="inr", rates=rates, powers=powers, trials=2_000_000, seed=0)
    )
    assert abs(mc.value - ana) <= 4.0 * mc.uncertainty / 1.96


def test_xp_outage_chain_matches_per_prefix_solvers():
    rates = RateSchedule((1.0, 0.5, 1.5))
    powers = PowerProfile((10.0, 20.0, 5.0))
    chain = xp_outage_chain(rates, powers)  # the test oracle's chain
    assert chain[0] == pytest.approx(outage_k1(1.0, 10.0), rel=1e-12)
    assert chain[1] == pytest.approx(
        outage_k2_exact(rates.prefix(2), powers.prefix(2)).value, rel=1e-9
    )
    assert chain[2] == pytest.approx(
        xp_outage_quadrature(rates, powers).value, rel=1e-8
    )
    with pytest.raises(ValueError):
        xp_outage_chain(rates, PowerProfile((10.0, 20.0)))
