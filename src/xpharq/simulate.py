"""Seeded, parallelizable Monte Carlo simulation of HARQ cycles.

Trials are partitioned into fixed-size blocks; block i draws from its own
PCG64 stream, seeded by ``SeedSequence(seed, spawn_key=(i,))``.  A block
returns only its counts of first-success rounds, one int64 row of K per
point; the outage count, slots and delivered rate all follow from them.
The counts are integers, so they sum exactly in any order and every output
is identical for any worker count and any scheduling order.

Round k of a block takes its n uniforms U in [0, 1) from stream positions
(k - 1) n to k n - 1, drawn with ``rng.random``, and its exponentials are
Z = -log1p(-U).  Round 1 holds its row's exponentials in ascending order,
the order statistics E_(t) = sum_{i<=t} Z_i / (n - i + 1) (Renyi 1953;
Devroye, Non-Uniform Random Variate Generation, 1986, ch. V): trial t's
round-1 SNR is gbar_1 E_(t), so each point's round-1 failures are a prefix
t < L_1 of the block, found by a binary search.  Later rounds are
positional: round k of trial t is the exponential at stream position
(k - 1) n + t.  They are iid and independent of round 1, so pairing them
with sorted round-1 values leaves the joint law of the n trials, and every
estimate's distribution, unchanged.  No position depends on the scheme or
the mean SNRs: XP and INR on one seed see the same SNRs, and scaling the
mean SNRs scales each trial's SNRs.  A later round's SNR is
g = gbar * -log1p(-U).  U is a multiple of 2^-53, so U = 0 gives g = 0 (no
infinity), the smallest nonzero draw is 2^-53 gbar and the largest
53 ln 2 gbar = 36.7 gbar, and P(g < t) is exact to 2^-53 = 1.1e-16
absolute.  In round 1 the running sum adds at most t 2^-53 relative
rounding to the t-th value (7.3e-12 at n = 65536), and the smallest
nonzero value is 2^-53 gbar / n.

Round 1 draws only positions [0, first) and advances the stream over the
other n - first.  A point's round-1 failures number Binomial(n, p), p =
P(gbar E < limit), so the block first draws to six standard deviations past
the mean of the point likeliest to fail, and doubles that stretch until
gbar E_(t) >= limit holds at its last position t for every point; that
test is monotone in t, so each point's prefix is the one a full row gives.
Each stretch adds the running sum so far to its first term before its own
running sum, which makes the additions those of one sum over the row:
E_(t) is bit-identical to a full row's however many stretches it takes.

The decision takes no logarithm: sum_{l<=k} log2(1 + g_l) >= R_k holds
exactly when y_k = prod_{l<=k}(1 + g_l) - 1 >= expm1(R_k ln 2), and the
block carries y_k = y_{k-1} + g_k (1 + y_{k-1}).  Every term is
nonnegative, so y_k keeps the log sum's relative precision at any rate and
SNR; the shorter prod(1 + g) >= 2^R rounds 1 + g and 2^R to a few digits
and miscounts at rates below about 1e-14 and deep fades.

Per-round work follows the trials still pending.  A round after the first
draws only positions [0, m) of its row, m being the longest round-1 prefix
among the block's points, and advances the stream over the other n - m;
once no trial is pending the block draws no further row, so a block whose
last pending trial succeeds at round j has advanced its stream by exactly
j n doubles, whatever its first round drew.  While more than
``_COMPACT_SHARE`` of a point's prefix is pending, each round updates the
prefix's rows in place under a pending mask; after that the point gathers
the pending trials' positions and y once and, each later round, transforms
and updates only those positions.
The arithmetic of a trial is the same in both phases, so where the switch
falls changes no count.  Each worker reuses one workspace (rows g, y and
step, and the pending and hit masks) sized to its largest block; of W
workers, worker w runs blocks w, w + W, ... and sums their counts.  A
point query is a group of one whose shares run on threads; a sweep maps its
groups' shares on its process pool.

Because round k of trial t sits at one stream position for every point, a
group of points that share seed, trials and K (a sweep's Monte Carlo rows)
is one simulation read at several points.  A group's block draws each
round's row once (after round 1, over its longest prefix), keeps it in the
workspace (K rows more, whatever the number of points) and runs its points
one after another through the kept rows.  It forms log1p(-U) of a row's
drawn prefix once, in place, where some point needs its whole prefix; a
point then multiplies by its own -gbar, and a point that carries only its
pending trials gathers them from the row as it stands.
The arithmetic of each trial is the one it has alone, so each point's
counts are bit-identical to a run of that point alone, and the stream
advances by the rows its most demanding point needs.  A lone point keeps
no row: it sorts round 1 into y and draws every later round into g.

The engine itself is scheme-agnostic: a cycle succeeds at the first round
k whose accumulated mutual information reaches ``thresholds[k-1]``,
delivering that threshold as its rate and consuming k slots; a cycle with
no such round is an outage and consumes all K slots.  Outage is defined
with strict "<", so equality counts as success (the ``>=`` above); the
convention matters only on a measure-zero set under continuous fading but
must be fixed for determinism.  The thresholds of a scheme and quantity
are ``core.decoding_limits``.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import Estimate, PowerProfile, RateSchedule, _check_rounds, decoding_limits

__all__ = [
    "SimConfig",
    "estimate_outage",
    "estimate_throughput",
]

_BLOCK = 65536

_LN2 = math.log(2.0)

# Share of a point's round-1 failures still pending at or below which it
# carries only those trials.  Chosen by CPU over the point-mc classes (K = 2,
# 4, 8 at 0 to 20 dB, 1e6 trials): a half was fastest in total, within 1 % of
# a quarter and 1.5 % of an eighth, and 5 % ahead of dense rounds to the last.
_COMPACT_SHARE = 0.5


@dataclass(frozen=True)
class SimConfig:
    scheme: str
    rates: RateSchedule
    powers: PowerProfile
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        decoding_limits(self.rates, self.scheme, "outage")  # rejects an unknown scheme
        _check_rounds(self.rates, self.powers)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # PCG64 by name, so a change of numpy's default generator cannot move it
    seq = np.random.SeedSequence(seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64(seq))


@functools.lru_cache(maxsize=1)
def _order_weights(size: int) -> np.ndarray:
    """-1 / (size - i) for i = 0, ..., size - 1, read-only: a block of n
    weighs its i-th term by entry size - n + i, -1 / (n - i)."""
    weights = -1.0 / np.arange(size, 0, -1, dtype=float)
    weights.flags.writeable = False
    return weights


def _workspace(n: int, kept: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Rows g, y and step, then ``kept`` rows of draws, and the pending and
    hit masks, for n trials.  A point keeps no row (it draws into y and g);
    a group of points keeps one per round."""
    return np.empty((3 + kept, n)), np.empty((2, n), dtype=bool)


def _log1m(row: np.ndarray) -> None:
    """Uniform draws U in [0, 1) to log1p(-U), in place."""
    np.negative(row, out=row)
    np.log1p(row, out=row)


def _to_snr(row: np.ndarray, gbar: float) -> None:
    """Uniform draws U in [0, 1) to exponential SNRs gbar * -log1p(-U), in place."""
    _log1m(row)
    row *= -gbar


def _ascending_exponentials(rng: np.random.Generator, out: np.ndarray, scratch: np.ndarray,
                            gbars: np.ndarray, limits: np.ndarray, size: int) -> int:
    """Round 1 of a block of n = len(out): the exponentials of the stream's
    next n uniforms in ascending order, E_(t) = sum_{i<=t} Z_i / (n - i + 1)
    of Z_i = -log1p(-U_i) (Renyi's representation), into ``out`` as far as
    the points (``gbars``, ``limits``) can fail round 1.

    It draws ``size`` >= 1 positions, then twice as many, until gbar E >= limit
    holds at the last one for every point (or all n are drawn), and returns
    that count ``first``: out[:first] holds E_(1), ..., E_(first) as one
    running sum over the row would, and the stream stands at n.
    """
    n, drawn, carry = len(out), 0, 0.0
    weights = _order_weights(max(n, _BLOCK))[-n:]
    while drawn < n:
        stop = min(size, n)
        chunk = scratch[drawn:stop]
        rng.random(out=chunk)
        _log1m(chunk)
        chunk *= weights[drawn:stop]
        chunk[0] += carry  # before the sum, so the additions are those of one sum over the row
        np.cumsum(chunk, out=out[drawn:stop])
        drawn, carry, size = stop, out[stop - 1], 2 * size
        if np.all(gbars * carry >= limits):  # monotone in t: no point fails past here
            break
    rng.bit_generator.advance(n - drawn)
    return drawn


def _run_block(
    seed: int,
    block_index: int,
    n: int,
    gbars: np.ndarray,
    thresholds: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Each point's first-success counts by round over block ``block_index``
    (n trials): row s of the (S, K) result counts point s's trials that
    first succeed at each round; its other trials are outages.

    ``gbars`` and ``thresholds`` are the (S, K) rows of a group of S points;
    a group of more than one needs a workspace that keeps K rows (module
    docstring).
    """
    rng = _block_rng(seed, block_index)
    limits = np.expm1(thresholds * _LN2)
    k_rounds = gbars.shape[1]
    rows, masks = work[0][:, :n], work[1][:, :n]
    # a lone point keeps round 1 in y and draws every later round into g
    draws = rows[3:3 + k_rounds] if len(gbars) > 1 else [rows[1]] + [rows[0]] * (k_rounds - 1)
    # round 1 draws first to six standard deviations past the mean prefix of
    # the point likeliest to fail (module docstring)
    p = -math.expm1(-float(np.max(limits[:, 0] / gbars[:, 0])))
    size = int(n * p + 6.0 * math.sqrt(n * p * (1.0 - p))) + 64
    first = _ascending_exponentials(rng, draws[0], rows[0], gbars[:, 0], limits[:, 0], size)
    # gbar E_(t) < limit is monotone in t: each point's round-1 failures are a prefix
    prefixes = [bisect.bisect_left(draws[0], limit, hi=first, key=lambda e: gbar * e)
                for gbar, limit in zip(gbars[:, 0], limits[:, 0])]
    drawn = max(prefixes)  # later rounds draw only the trials of the longest prefix
    logged = [True]  # per round drawn: whether its row holds log1p(-U) yet

    def draw(k: int, full: bool) -> np.ndarray:
        if k == len(logged):
            # round k + 1 of trial t is stream position k n + t
            rng.random(out=draws[k][:drawn])
            rng.bit_generator.advance(n - drawn)
            logged.append(False)
        if full and not logged[k]:
            _log1m(draws[k][:drawn])
            logged[k] = True
        return draws[k]

    counts = np.zeros(gbars.shape, dtype=np.int64)
    for gbar, limit, count, prefix in zip(gbars, limits, counts, prefixes):
        g, y, step = rows[:3, :prefix]
        pending, hit = masks[:, :prefix]
        np.multiply(draws[0][:prefix], gbar[0], out=y)
        pending.fill(True)
        left = prefix
        count[0] = n - left
        index = None
        for k in range(1, k_rounds):
            if left == 0:
                break
            if index is None and left <= _COMPACT_SHARE * prefix:
                # few trials pending: gather them once and carry only them; the
                # dead rows y and g then hold their SNRs and scratch.  The
                # indices are in range, and mode="clip" writes straight into out
                # where the default mode buffers a copy
                index = np.flatnonzero(pending)
                np.take(y, index, out=step[:left], mode="clip")
                y, g, step = step[:left], y[:left], g[:left]
                pending, hit = pending[:left], hit[:left]
                pending.fill(True)
            if index is None:
                np.multiply(draw(k, True)[:prefix], -gbar[k], out=g)
            else:
                np.take(draw(k, False), index, out=g, mode="clip")
                if logged[k]:
                    g *= -gbar[k]
                else:  # transform only the pending trials' draws
                    _to_snr(g, gbar[k])
            np.add(y, 1.0, out=step)
            step *= g
            y += step  # y_k = y_{k-1} + g_k (1 + y_{k-1})
            np.less(y, limit[k], out=hit)
            pending &= hit
            now = int(np.count_nonzero(pending))
            count[k] = left - now
            left = now
    return counts


def _simulate_share(points, purpose: str, part: int, parts: int) -> np.ndarray:
    """Each point's first-success counts by round, summed over blocks part,
    part + parts, ... of a group, as an (S, K) array.

    The points share seed, trials and K and run on shared draws; a point's
    counts are those it has on its own.  The shares of parts 0 to
    parts - 1 sum to the whole run.
    """
    seed, trials, k_rounds = key = (points[0].seed, points[0].trials, points[0].rates.K)
    if any((p.seed, p.trials, p.rates.K) != key for p in points):
        raise ValueError("a group's points must share seed, trials and K")
    gbars = np.array([p.powers.snr_bars for p in points])
    thresholds = np.array([decoding_limits(p.rates, p.scheme, purpose) for p in points])

    def size(index: int) -> int:  # every block is full but the last
        return min(_BLOCK, trials - index * _BLOCK)

    work = _workspace(size(part), k_rounds if len(points) > 1 else 0)
    counts = np.zeros(gbars.shape, dtype=np.int64)
    for index in range(part, -(-trials // _BLOCK), parts):
        counts += _run_block(seed, index, size(index), gbars, thresholds, work)
    return counts


def _share_count(trials: int, workers: int) -> int:
    """How many block shares a run of ``trials`` splits into on ``workers``."""
    return min(workers, -(-trials // _BLOCK))


def _estimate_group(points, purpose: str, workers: int, map_shares=None) -> list[Estimate]:
    """Each point's ``purpose`` estimate from its group's ``_share_count``
    block shares, summed: mapped by ``map_shares`` (a pool's ``map``) where
    given, else one thread per share, or inline as one share."""
    parts = _share_count(points[0].trials, workers)
    if map_shares is None and parts > 1:
        from concurrent.futures import ThreadPoolExecutor  # only where a pool is built

        with ThreadPoolExecutor(max_workers=parts) as pool:
            return _estimate_group(points, purpose, workers, pool.map)
    run = functools.partial(_simulate_share, points, purpose, parts=parts)
    counts = sum((map_shares or map)(run, range(parts)))  # integers: exact in any order
    return [_estimate(p, purpose, c) for p, c in zip(points, counts)]


def estimate_outage(cfg: SimConfig) -> Estimate:
    """Monte Carlo outage probability with a 95% binomial CI half-width.

    With no outage, or no success, in n trials the half-width is 3/n (the
    rule of three), not 0.

    For scheme "inr" the estimated event is the information total falling
    short of R_K^sum — the XP upper bound — not the fixed-rate protocol
    event used for INR throughput.
    """
    return _estimate_group([cfg], "outage", cfg.workers)[0]


def estimate_throughput(cfg: SimConfig) -> Estimate:
    """Renewal-reward throughput estimate with a delta-method 95% CI.

    A cycle's delivered rate and slot count are fixed by its success round
    (``rewards[k-1]`` and k, or 0 and K in outage), so the estimate and the
    variance of the reward/slots ratio follow from the histogram alone.  An
    outcome no trial took may still hold mass the histogram cannot show (with
    equal rates every XP success delivers the same rate per slot, so the
    delta variance is 0 whenever no outage is seen): the half-width is never
    below how far eta moves when 3/n of the trials take the unseen outcome
    that moves it most.
    """
    return _estimate_group([cfg], "throughput", cfg.workers)[0]


def _estimate(cfg: SimConfig, purpose: str, counts: np.ndarray) -> Estimate:
    """The ``purpose`` estimate at ``cfg`` from its first-success counts by
    round over all ``cfg.trials`` trials."""
    n, counts = cfg.trials, counts.tolist()
    outages = n - sum(counts)
    if purpose == "outage":
        p = outages / n
        if outages in (0, n):
            # no outage, or no success: the binomial half-width would be 0; the
            # rule of three, 3/n, bounds the unseen probability at 95 %
            ci = min(3.0 / n, 1.0)
        else:
            ci = 1.96 * math.sqrt(p * (1.0 - p) / n)
        return Estimate(p, f"mc-{cfg.scheme}", ci)
    rewards = decoding_limits(cfg.rates, cfg.scheme, "throughput")
    # (trials, delivered rate, slots) of each outcome: outage, then success at round k
    outcomes = [(outages, 0.0, cfg.rates.K)]
    outcomes += [(c, float(r), k) for k, (c, r) in enumerate(zip(counts, rewards), start=1)]
    slots = sum(c * t for c, _, t in outcomes)
    delivered = float(np.dot(counts, rewards))
    eta = delivered / slots
    # the delta method on E[(reward - eta * slots)^2] over the outcomes, no
    # narrower than how far eta moves when 3/n of the trials take an unseen outcome
    sq = sum(c * (r - eta * t) ** 2 for c, r, t in outcomes)
    half = 1.96 * math.sqrt(sq / n / (n * (slots / n) ** 2))
    q = min(3.0 / n, 1.0)
    for c, r, t in outcomes:
        if c == 0:
            half = max(half, abs(((1.0 - q) * delivered / n + q * r)
                                 / ((1.0 - q) * slots / n + q * t) - eta))
    return Estimate(eta, f"mc-{cfg.scheme}", half)
