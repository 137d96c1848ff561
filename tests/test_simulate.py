"""Monte Carlo engine: sampling, determinism, estimates, and throughput."""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from xpharq import (
    ConvergenceError,
    PowerProfile,
    RateSchedule,
    SimConfig,
    estimate_outage,
    estimate_throughput,
    outage_lower,
    outage_upper_ir,
    throughput_recursion,
    xp_outage,
    xp_outage_quadrature,
)
import xpharq.simulate as simulate
from xpharq.core import decoding_limits
from xpharq.simulate import (
    _BLOCK,
    _COMPACT_SHARE,
    _LN2,
    _ascending_exponentials,
    _block_rng,
    _estimate,
    _run_block,
    _share_count,
    _simulate_share,
    _workspace,
)

from oracles import throughput_oracle, xp_outage_chain


def _trial_major_block(seed, block_index, n, gbars, thresholds):
    """Reference block: one row per trial, decided by cumsum/argmax.

    Returns each trial's 0-based first-success round, K for an outage.  The
    stream's documented layout is round-major: round 1 of all n trials,
    then round 2, and so on, each row n exponentials -log1p(-U) of uniforms
    U.  Round 1 is in ascending order, trial t taking the Renyi sum of
    Z_i / (n - i + 1) over the row's first t exponentials Z_i; trial t of a
    later round takes that row's t-th exponential.  The SNR is gbar times it.
    """
    rng = _block_rng(seed, block_index)
    k_rounds = len(gbars)
    exps = -np.log1p(-rng.random((k_rounds, n)))
    exps[0] = np.cumsum(exps[0] * (1.0 / np.arange(n, 0, -1)))
    snr = exps.T * gbars
    info_cum = np.cumsum(np.log1p(snr), axis=1) / _LN2
    reached = info_cum >= thresholds
    return np.where(reached.any(axis=1), np.argmax(reached, axis=1), k_rounds)


def _limits(cfg, purpose):
    return np.asarray(decoding_limits(cfg.rates, cfg.scheme, purpose))


def _run_point(seed, block_index, n, gbars, thresholds, work):
    """``_run_block`` on a group of one point: its K-vectors, its counts by round."""
    return _run_block(seed, block_index, n, np.asarray(gbars)[None],
                      np.asarray(thresholds)[None], work)[0]


def _outages(n, counts):
    return n - int(counts.sum())


def _gather_round(first, k_rounds):
    """Round after which ``_run_block`` carries only the pending trials.

    Round 1's failures are a prefix of the block, and the later rounds run
    on it, so the earliest gather follows round 2.  None when it never
    does: the prefix stays dense to round K, or no trial is left pending
    before the pending share of the prefix falls to ``_COMPACT_SHARE``.
    """
    prefix = np.count_nonzero(first >= 1)
    for k in range(1, k_rounds):
        left = np.count_nonzero(first >= k)
        if left == 0:
            return None
        if left <= _COMPACT_SHARE * prefix:
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


def test_engine_summary_invariants():
    cfg = SimConfig(
        scheme="xp",
        rates=RateSchedule((1.0, 1.0)),
        powers=PowerProfile((10.0, 10.0)),
        trials=150_000,
        seed=3,
    )
    counts = _simulate_share([cfg], "throughput", 0, 1)
    assert counts.shape == (1, cfg.rates.K) and counts.dtype == np.int64
    assert np.all(counts >= 0)
    assert _outages(cfg.trials, counts) >= 0


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
    # one round, one trial, and trials gathered after round 2 (the earliest),
    # after a later round, or never (dense to round K, or none left pending)
    cases += [(n, 1, (0.5, 3.0), (-10.0, 30.0)) for n in (1, 2, 5000)]
    cases += [(1, k, (0.05, 3.0), (-10.0, 30.0)) for k in (2, 3, 8)]
    phases = {}  # case: the gather round, for xp, inr outage and inr throughput
    for rate, db, k_rounds, gathered in ((0.5, 25.0, 4, (None, 2, None)),
                                         (1.0, 3.0, 6, (3, 5, 2)), (1.0, 6.0, 6, (2, 4, 2)),
                                         (3.0, -10.0, 5, (None,) * 3),
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
        thresholds = _limits(cfg, purpose)
        seed, index = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 1000))
        got = _run_point(seed, index, n, gbars, thresholds, _workspace(n))
        first = _trial_major_block(seed, index, n, gbars, thresholds)
        counts = np.bincount(first, minlength=k_rounds + 1)[:k_rounds]
        assert np.array_equal(got, counts), (case, n, k_rounds, scheme, purpose)
        if case in phases:
            assert _gather_round(first, k_rounds) == phases[case], (case, scheme, purpose)
        assert got.dtype == np.int64


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
            thresholds = _limits(cfg, purpose)
            seed, index = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 1000))
            prev = np.cumsum(_run_point(seed, index, n, gbars, thresholds, work))
            for c in (1.0 + 2.0 ** -40, 1.5, 4.0, 100.0):
                got = _run_point(seed, index, n, gbars * c, thresholds, work)
                cum = np.cumsum(got)
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


def _exact_prefix_sums(terms):
    """Each prefix sum of the doubles ``terms``, exact, then rounded once."""
    one = 1 << 1074  # every double is an integer multiple of 2^-1074
    total, sums = 0, []
    for x in terms.tolist():
        num, den = x.as_integer_ratio()
        total += num * (one // den)
        sums.append(total / one)  # int / int rounds correctly
    return np.array(sums)


def _full_round_one(rng, n, size=None):
    """Round 1 of a block of n drawn in full: no point passes an infinite limit."""
    out = np.empty(n)
    first = _ascending_exponentials(rng, out, np.empty(n), np.ones(1), np.array([np.inf]),
                                    size or n)
    assert first == n
    return out


def test_round_one_holds_ascending_order_statistics():
    # round 1 of a block of n is the order statistics of the exponentials
    # Z_i = -log1p(-U_i) of its stream's first n uniforms, the Renyi sums
    # E_(t) = sum_{i<=t} Z_i / (n - i + 1), with at most t 2^-53 relative
    # rounding from the running sum; a partial last block is one of 4321
    for n, index in ((1, 0), (2, 0), (7, 1), (65_535, 2), (65_536, 3), (4321, 5)):
        got = _full_round_one(_block_rng(17, index), n)
        assert np.all(np.diff(got) >= 0.0), n
        exps = -np.log1p(-_block_rng(17, index).random(n))
        want = _exact_prefix_sums(exps * (1.0 / np.arange(n, 0, -1)))
        t = np.arange(1, n + 1)
        assert np.all(np.abs(got - want) <= t * 2.0 ** -53 * want), n
    # pooled over many blocks, the rows are draws of Exp(1), and the least
    # of n, scaled by n, is Exp(1) too
    rows, least = [], []
    for n, blocks in ((7, 1000), (100, 100)):
        for index in range(blocks):
            row = _full_round_one(_block_rng(23, index), n)
            rows.append(row)
            least.append(n * row[0])
    assert stats.kstest(np.concatenate(rows), "expon").pvalue > 1e-3
    assert stats.kstest(least, "expon").pvalue > 1e-3


def test_round_one_stops_where_every_point_has_passed():
    # round 1 draws from a first size on, doubling, until gbar E >= limit at
    # its last position for every point, and skips the stream to n; what it
    # holds, however many times it extends, is bit-equal to one running sum
    # over the full row, and each point's prefix of failures is the same
    for n, index in ((1, 0), (7, 1), (3000, 2), (65_536, 3), (4321, 5)):
        full = _full_round_one(_block_rng(29, index), n)
        ref = _block_rng(29, index)
        ref.random(n)
        for size in (1, 3, n):
            assert np.array_equal(_full_round_one(_block_rng(29, index), n, size), full)
            # the point with the longest prefix is first, then last, then alone
            for gbars in ((1.0, 40.0, 7.0), (40.0, 7.0, 1.0), (3.0,)):
                gbars, limits = np.array(gbars), np.full(len(gbars), full[(2 * n) // 3])
                rng, out = _block_rng(29, index), np.empty(n)
                first = _ascending_exponentials(rng, out, np.empty(n), gbars, limits, size)
                assert rng.bit_generator.state == ref.bit_generator.state, (n, size)
                assert np.array_equal(out[:first], full[:first]), (n, size, gbars)
                prefixes = [np.count_nonzero(g * full < lim) for g, lim in zip(gbars, limits)]
                assert [np.count_nonzero(g * out[:first] < lim)
                        for g, lim in zip(gbars, limits)] == prefixes, (n, size, gbars)
                assert max(prefixes) < first <= n, (n, size, gbars, first)
                if first < n:  # every point passes at the last end, and some failed at those before
                    assert np.all(gbars * out[first - 1] >= limits), (n, size, gbars)
                    assert first <= max(size, 2 * max(prefixes)), (n, size, first)


def test_block_summary_pinned():
    # a change of the stream or of its layout moves these counts; log it
    gbars = np.array([1.0, 4.0, 2.0])
    thresholds = np.array([1.0, 2.0, 3.0])
    got = _run_block(0, 3, 1000, gbars[None], thresholds[None], _workspace(1000))[0]
    assert got.tolist() == [369, 400, 82]
    assert _outages(1000, got) == 149


def _round_one_drawn(n, gbars, thresholds, prefix):
    """The doubles round 1 of a block of n draws: the first of the ends
    size, 2 size, 4 size, ... (at most n) past the longest prefix of
    failures, size being six standard deviations past the binomial mean
    prefix of the point likeliest to fail, plus 64."""
    limits = np.expm1(np.asarray(thresholds) * math.log(2.0))
    p = -math.expm1(-float(np.max(limits / np.asarray(gbars))))
    end = int(n * p + 6.0 * math.sqrt(n * p * (1.0 - p))) + 64
    while end <= prefix and end < n:
        end *= 2
    return min(end, n)


def test_block_stream_advances_by_rows_drawn(monkeypatch):
    # one row of n doubles per round, none once no trial is pending: a block
    # emptied at round j leaves its stream at j n, one pending at K at K n.
    # Round 1 draws only until every point has passed its limit, a round
    # after the first only the doubles of round 1's longest prefix of
    # failures, and each skips the rest of its row
    used = []

    class Counting:
        def __init__(self, rng):
            self.rng, self.bit_generator, self.drawn = rng, rng.bit_generator, 0

        def random(self, out):
            self.drawn += out.size
            return self.rng.random(out=out)

    def spy(seed, block_index):
        used.append(Counting(_block_rng(seed, block_index)))
        return used[-1]

    monkeypatch.setattr(simulate, "_block_rng", spy)
    n = 3000
    cases = (
        ([1e6] * 4, [0.5, 1.0, 1.5, 2.0], 1),
        ([3.0, 30.0, 1000.0, 3000.0], [1.0, 2.0, 3.0, 4.0], 3),
        ([300.0] * 5, [0.5, 1.0, 1.5, 2.0, 2.5], 2),
        ([1.0] * 4, [10.0, 20.0, 30.0, 40.0], 4),
        ([2.0, 0.5, 8.0, 1.0], [0.5, 1.0, 2.0, 2.5], 4),
    )
    alone = []
    for gbars, thresholds, rows in cases:
        got = _run_point(7, 2, n, gbars, thresholds, _workspace(n))
        alone.append(got)
        if rows < len(gbars):
            assert _outages(n, got) == 0 and got[rows - 1] > 0, got
            assert not any(got[rows:]), got
        else:
            assert _outages(n, got) > 0, got
        ref = _block_rng(7, 2)
        ref.random(rows * n)
        assert used[-1].bit_generator.state == ref.bit_generator.state, (gbars, rows)
        prefix = n - got[0]
        first = _round_one_drawn(n, gbars[:1], thresholds[:1], prefix)
        assert used[-1].drawn == first + (rows - 1) * prefix, (gbars, rows)
        if gbars[0] == 1e6:  # at 60 dB no trial fails round 1
            assert first < n / 10, first
    # a group draws each round once, as far as its most demanding point needs
    for group in ((0, 0), (0, 1), (1, 0), (0, 1, 0), (0, 1, 3), (4, 1), (3, 4)):
        gbars = np.array([cases[i][0] for i in group])
        thresholds = np.array([cases[i][1] for i in group])
        got = _run_block(7, 2, n, gbars, thresholds, _workspace(n, 4))
        assert np.array_equal(got, [alone[i] for i in group]), group
        rows = max(cases[i][2] for i in group)
        ref = _block_rng(7, 2)
        ref.random(rows * n)
        assert used[-1].bit_generator.state == ref.bit_generator.state, group
        prefix = max(n - alone[i][0] for i in group)
        first = _round_one_drawn(n, gbars[:, 0], thresholds[:, 0], prefix)
        assert used[-1].drawn == first + (rows - 1) * prefix, group


def test_group_block_equals_each_point_alone():
    # a group draws each round once for all its points; each point's counts
    # are those of a run of that point alone, whether its rounds are dense or
    # gathered, and whichever point of the group first needs a row in full
    rng = np.random.default_rng(2026)
    seen = set()
    purposes = (("xp", "outage"), ("inr", "outage"), ("xp", "throughput"), ("inr", "throughput"))
    for k_rounds in (2, 3, 4, 8):
        for n in (1, 7, 5000):
            points = []
            for db in (-20.0, 0.0, 3.0, 6.0, 10.0, 20.0, 60.0):
                rates = RateSchedule(tuple(float(r) for r in rng.uniform(0.3, 1.5, k_rounds)))
                powers = PowerProfile(tuple(10.0 ** ((db + d) / 10.0)
                                            for d in rng.uniform(-1.0, 1.0, k_rounds)))
                for scheme, purpose in purposes:
                    cfg = SimConfig(scheme=scheme, rates=rates, powers=powers, trials=n, seed=0)
                    points.append((np.asarray(powers.snr_bars), _limits(cfg, purpose)))
            seed, index = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 1000))
            alone = [_run_point(seed, index, n, g, t, _workspace(n)) for g, t in points]
            for order in (points, points[::-1]):
                gbars = np.array([g for g, _ in order])
                thresholds = np.array([t for _, t in order])
                got = _run_block(seed, index, n, gbars, thresholds, _workspace(n, k_rounds))
                want = alone if order is points else alone[::-1]
                assert np.array_equal(got, want), (k_rounds, n)
            if n < 5000:
                continue
            for (g, t), counts in zip(points, alone):
                first = _trial_major_block(seed, index, n, g, t)
                last = max((k for k, c in enumerate(counts, start=1) if c), default=k_rounds)
                seen.add((k_rounds, "pending at K" if _outages(n, counts) or last == k_rounds
                          else "empty at 1" if last == 1 else "empty part-way"))
                seen.add((k_rounds, "dense" if _gather_round(first, k_rounds) is None
                          else "gathered"))
    for k_rounds in (2, 3, 4, 8):
        want = {"pending at K", "empty at 1", "empty part-way", "dense", "gathered"}
        if k_rounds == 2:  # no round lies between the first and the last, and
            # round 2 runs dense on round 1's failures, the earliest gather after it
            want -= {"empty part-way", "gathered"}
        assert {phase for k, phase in seen if k == k_rounds} == want, k_rounds


def test_group_block_shares_merge_to_serial_summaries():
    rates = RateSchedule((0.5, 1.0, 0.7))
    trials = 5 * _BLOCK + 123  # six blocks, the last partial
    points = [
        SimConfig(scheme=scheme, rates=rates, powers=PowerProfile((g, 2.0 * g, g)),
                  trials=trials, seed=19)
        for g in (1.0, 10.0, 1000.0) for scheme in ("xp", "inr")
    ]
    for purpose in ("outage", "throughput"):
        serial = [_serial_counts(p, _limits(p, purpose)) for p in points]
        for parts in (1, 2, 4, 6):
            shares = [_simulate_share(points, purpose, part, parts) for part in range(parts)]
            assert np.array_equal(sum(shares), serial), (purpose, parts)
            # one point is a group too
            one = [_simulate_share(points[2:3], purpose, part, parts) for part in range(parts)]
            assert np.array_equal(sum(one), serial[2:3]), (purpose, parts)
    for other in (dict(seed=20), dict(trials=trials + 1),
                  dict(rates=RateSchedule((0.5, 1.0)), powers=PowerProfile((1.0, 1.0)))):
        with pytest.raises(ValueError, match="share seed, trials and K"):
            _simulate_share([points[0], replace(points[1], **other)], "outage", 0, 1)


def _serial_counts(cfg, thresholds):
    """The point's counts by round, block after block on fresh workspaces."""
    gbars = np.asarray(cfg.powers.snr_bars)
    parts = [
        _run_point(cfg.seed, index, n, gbars, thresholds, _workspace(n))
        for index, n in enumerate(
            min(_BLOCK, cfg.trials - start) for start in range(0, cfg.trials, _BLOCK)
        )
    ]
    return sum(parts)


def test_worker_split_equals_serial_summary():
    rates = RateSchedule((0.5, 1.0, 0.7))
    powers = PowerProfile((3.0, 10.0, 5.0))
    # six blocks, the last partial: no worker count here divides them evenly
    for trials in (5 * _BLOCK + 123, 1000):
        base = SimConfig(scheme="xp", rates=rates, powers=powers, trials=trials, seed=19)
        serial = _serial_counts(base, _limits(base, "throughput"))
        for workers in (1, 2, 3, 8):
            cfg = SimConfig(
                scheme="xp", rates=rates, powers=powers, trials=trials, seed=19, workers=workers
            )
            parts = _share_count(trials, workers)
            shares = [_simulate_share([cfg], "throughput", part, parts) for part in range(parts)]
            assert np.array_equal(sum(shares), [serial]), (trials, workers)
            # the point estimate runs the same shares, on threads
            want = _estimate(base, "throughput", serial)
            assert estimate_throughput(cfg) == want, (trials, workers)


def test_block_ignores_stale_workspace():
    gbars = np.array([2.0, 0.5, 8.0, 1.0])
    thresholds = np.array([0.5, 1.0, 2.0, 2.5])
    n = 5000
    fresh = _run_point(8, 2, n, gbars, thresholds, _workspace(n))
    stale = _workspace(n + 17)  # sized for a larger block, as a worker's may be
    stale[0].fill(math.nan)
    stale[1].fill(True)
    assert np.array_equal(_run_point(8, 2, n, gbars, thresholds, stale), fresh)
    stale[1].fill(False)
    assert np.array_equal(_run_point(8, 2, n, gbars, thresholds, stale), fresh)


def test_worker_split_stress_more_workers_than_cores(monkeypatch):
    rates = RateSchedule((1.0, 0.5))
    powers = PowerProfile((10.0, 4.0))
    cfg = SimConfig(scheme="inr", rates=rates, powers=powers, trials=9 * _BLOCK + 7, seed=23)
    serial = _serial_counts(cfg, _limits(cfg, "outage"))
    stressed = SimConfig(
        scheme="inr", rates=rates, powers=powers, trials=cfg.trials, seed=23, workers=8
    )
    # record the summed counts each estimate is finished from, round by round
    results = []
    finish = simulate._estimate

    def recording(point, purpose, counts):
        results.append(counts.tolist())
        return finish(point, purpose, counts)

    monkeypatch.setattr(simulate, "_estimate", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            runner = threading.Thread(target=estimate_outage, args=(stressed,))
            runner.start()
            runner.join(timeout=120.0)
            assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial.tolist()] * 3


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
    exact = xp_outage(rates, powers).value
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
    p_true = xp_outage(rates, powers).value
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


def test_throughput_interval_covers_when_no_outage_is_seen():
    # outcome counts drawn from the recursion's probabilities, no engine run:
    # where most runs see no outage the interval must still cover eta at
    # about 95 %; 130 misses of 2000 is 6.5 %, 3.1 sigma above 5 %
    rng = np.random.default_rng(12)
    for rates, db, trials in (((1.0, 1.0), 30.0, 50_000), ((1.0, 1.0, 1.0), 20.0, 100_000)):
        rates, powers = RateSchedule(rates), PowerProfile((10.0 ** (db / 10.0),) * len(rates))
        cfg = SimConfig(scheme="xp", rates=rates, powers=powers, trials=trials, seed=0)
        chain = [1.0] + xp_outage_chain(rates, powers)
        # first success at rounds 1..K, then outage
        probs = [a - b for a, b in zip(chain, chain[1:])] + [chain[-1]]
        truth = throughput_recursion(rates, powers, "xp").value
        misses = 0
        for counts in rng.multinomial(trials, probs, size=2000):
            est = _estimate(cfg, "throughput", counts[:-1])
            misses += abs(est.value - truth) > est.uncertainty
        assert misses <= 130, (rates, db, misses)


def test_throughput_analytical_reference_cases():
    # K = 1: eta = R_1 (1 - P_1); both schemes are one round of rate R_1
    rates, powers = RateSchedule((1.5,)), PowerProfile((5.0,))
    p1 = outage_lower(rates, powers).value
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
    p1 = outage_lower(RateSchedule((1.0,)), PowerProfile((1.0,))).value
    for rates_k in ((1.0, 100.0, 1.0), (1.0, 100.0, 1.0, 1.0)):
        est = throughput_recursion(RateSchedule(rates_k), PowerProfile((1.0,) * len(rates_k)))
        want = (1.0 - p1) / (1.0 + (len(rates_k) - 1) * p1)
        assert est.value == pytest.approx(want, rel=1e-13), (rates_k, est)
    # K = 8: the chain formula on per-prefix outages, away from cancellation
    rates8 = RateSchedule((1.0, 0.5) * 4)
    powers8 = PowerProfile((10.0, 3.0, 20.0, 5.0, 8.0, 12.0, 2.0, 30.0))
    for scheme in ("xp", "inr"):
        est = throughput_recursion(rates8, powers8, scheme)
        ref = throughput_oracle(scheme, rates8, powers8)
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


def test_throughput_convergence_error_carries_the_throughput():
    # at 80 dB and 75 bits per round the IR ladder's last two passes differ
    # by 3.7e-9 and it gives up; what it carries is eta in bits per channel
    # use, not the scaled payoffs E[R] / max r and E[T] / K it recursed on
    rates, powers = RateSchedule((75.0,) * 4), PowerProfile((1e8,) * 4)
    with pytest.raises(ConvergenceError) as info:
        throughput_recursion(rates, powers, "inr")
    best = info.value.estimate
    assert best.method == "analytical-inr"
    mc = estimate_throughput(
        SimConfig(scheme="inr", rates=rates, powers=powers, trials=200_000, seed=0)
    )
    assert abs(mc.value - best.value) <= 4.0 * mc.uncertainty / 1.96, (best, mc)


def test_xp_outage_chain_matches_per_prefix_solvers():
    rates = RateSchedule((1.0, 0.5, 1.5))
    powers = PowerProfile((10.0, 20.0, 5.0))
    chain = xp_outage_chain(rates, powers)  # the test oracle's chain
    first = outage_lower(rates.prefix(1), powers.prefix(1)).value
    assert chain[0] == pytest.approx(first, rel=1e-12)
    assert chain[1] == pytest.approx(xp_outage(rates.prefix(2), powers.prefix(2)).value, rel=1e-9)
    assert chain[2] == pytest.approx(
        xp_outage_quadrature(rates, powers).value, rel=1e-8
    )
    with pytest.raises(ValueError):
        xp_outage_chain(rates, PowerProfile((10.0, 20.0)))
