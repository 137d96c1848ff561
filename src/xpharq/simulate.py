"""Seeded, parallelizable Monte Carlo simulation of HARQ cycles.

Trials are partitioned into fixed-size blocks; block i draws from its own
PCG64 stream, seeded by ``SeedSequence(seed, spawn_key=(i,))``.  A block
reports only its histogram of first-success rounds (``SimSummary``); the
outage count, slots and delivered rate all follow from it.  The counts are
integers, so summaries merge exactly in any order and every output is
identical for any worker count and any scheduling order.

A block draws one row of n uniforms U in [0, 1) per round with
``rng.random``, so round k of trial t sits at stream position
(k - 1) n + t whatever the scheme or the mean SNRs: XP and INR on one seed
see the same SNRs, and scaling the mean SNRs scales each trial's SNRs.  The
SNR is g = gbar * -log1p(-U).  U is a multiple of 2^-53, so U = 0 gives
g = 0 (no infinity), the smallest nonzero draw is 2^-53 gbar and the
largest 53 ln 2 gbar = 36.7 gbar, and P(g < t) is exact to 2^-53 = 1.1e-16
absolute.  The decision takes no logarithm: sum_{l<=k} log2(1 + g_l) >= R_k
holds exactly when y_k = prod_{l<=k}(1 + g_l) - 1 >= expm1(R_k ln 2), and
the block carries y_k = y_{k-1} + g_k (1 + y_{k-1}).  Every term is
nonnegative, so y_k keeps the log sum's relative precision at any rate and
SNR; the shorter prod(1 + g) >= 2^R rounds 1 + g and 2^R to a few digits
and miscounts at rates below about 1e-14 and deep fades.

Per-round work follows the trials still pending.  While more than
``_COMPACT_SHARE`` of a block is pending, each round updates full rows in
place under a pending mask; after that the block gathers the pending
trials' positions and y once and, each later round, draws the full row but
transforms and updates only those positions.  Once no trial is pending the
block draws no further row, so a block whose last pending trial succeeds at
round j has advanced its stream by exactly j n doubles.  The arithmetic of
a trial is the same in both phases, so where the switch falls changes no
count.  Each worker reuses one workspace (rows u, y and step, and the
pending and hit masks) sized to its largest block; of W workers, worker w
runs blocks w, w + W, ... and sums their histograms.

The engine itself is scheme-agnostic: a cycle succeeds at the first round
k whose accumulated mutual information reaches ``thresholds[k-1]``,
delivering that threshold as its rate and consuming k slots; a cycle with
no such round is an outage and consumes all K slots.  Outage is defined
with strict "<", so equality counts as success (the ``>=`` above); the
convention matters only on a measure-zero set under continuous fading but
must be fixed for determinism.  The two schemes map onto the engine as
follows:

* XP outage and throughput: the threshold at round k is the accumulated
  rate R_k^sum.
* INR outage: the comparison event is the upper-bound event
  I_K^sum < R_K^sum, so every round's threshold is R_K^sum (early-round
  checks are then redundant but harmless since I^sum is nondecreasing).
* INR throughput: the protocol decodes one message of rate R_1 against the
  information total, so the threshold is R_1 in every round.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Estimate, PowerProfile, RateSchedule

__all__ = [
    "SimConfig",
    "SimSummary",
    "estimate_outage",
    "estimate_throughput",
]

_BLOCK = 65536

_LN2 = math.log(2.0)

# Share of a block's trials pending at or below which it carries only those
# trials.  Chosen by per-block CPU over the point-mc classes (K = 2, 4, 8 at
# 0 to 20 dB): a quarter was fastest in total, 2 % ahead of an eighth and of
# a half, and 17 % ahead of full rows to the last round.
_COMPACT_SHARE = 0.25


@dataclass(frozen=True)
class SimConfig:
    scheme: str
    rates: RateSchedule
    powers: PowerProfile
    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.scheme not in ("xp", "inr"):
            raise ValueError(f"scheme must be 'xp' or 'inr', got {self.scheme!r}")
        if self.rates.K != self.powers.K:
            raise ValueError(
                f"schedule has {self.rates.K} rounds but profile has {self.powers.K}"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class SimSummary:
    """First-success histogram of a batch of simulated HARQ cycles.

    ``success_at_round[k-1]`` counts the cycles that first succeed at round
    k; the other trials are outages.
    """

    trials: int
    success_at_round: tuple[int, ...]

    @property
    def outage_count(self) -> int:
        return self.trials - sum(self.success_at_round)

    def merge(self, other: "SimSummary") -> "SimSummary":
        if len(self.success_at_round) != len(other.success_at_round):
            raise ValueError("cannot merge summaries with different round counts")
        return SimSummary(
            trials=self.trials + other.trials,
            success_at_round=tuple(
                a + b for a, b in zip(self.success_at_round, other.success_at_round)
            ),
        )


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # PCG64 by name, so a change of numpy's default generator cannot move it
    seq = np.random.SeedSequence(seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64(seq))


def _workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows u, y and step, then the pending and hit masks, for n trials."""
    return np.empty((3, n)), np.empty((2, n), dtype=bool)


def _to_snr(row: np.ndarray, gbar: float) -> None:
    """Uniform draws U in [0, 1) to exponential SNRs gbar * -log1p(-U), in place."""
    np.negative(row, out=row)
    np.log1p(row, out=row)
    row *= -gbar


def _run_block(
    seed: int,
    block_index: int,
    n: int,
    gbars: np.ndarray,
    thresholds: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> SimSummary:
    rng = _block_rng(seed, block_index)
    u, y, step = work[0][:, :n]
    pending, hit = work[1][:, :n]
    limits = np.expm1(thresholds * _LN2)
    counts = [0] * len(gbars)
    rng.random(out=y)
    _to_snr(y, gbars[0])
    np.less(y, limits[0], out=pending)
    left = int(np.count_nonzero(pending))
    counts[0] = n - left
    g, index = u, None
    for k in range(1, len(gbars)):
        if left == 0:
            break
        if index is None and left <= _COMPACT_SHARE * n:
            # few trials pending: gather them once and carry only them; the
            # dead rows y and u then hold their draws and scratch.  The
            # indices are in range, and mode="clip" writes straight into out
            # where the default mode buffers a copy
            index = np.flatnonzero(pending)
            np.take(y, index, out=step[:left], mode="clip")
            y, g, step = step[:left], y[:left], u[:left]
            pending, hit = pending[:left], hit[:left]
            pending.fill(True)
        rng.random(out=u)  # round k + 1 of trial t is stream position k n + t
        if index is not None:
            np.take(u, index, out=g, mode="clip")
        _to_snr(g, gbars[k])
        np.add(y, 1.0, out=step)
        step *= g
        y += step  # y_k = y_{k-1} + g_k (1 + y_{k-1})
        np.less(y, limits[k], out=hit)
        pending &= hit
        now = int(np.count_nonzero(pending))
        counts[k] = left - now
        left = now
    return SimSummary(trials=n, success_at_round=tuple(counts))


def _simulate(cfg: SimConfig, thresholds: np.ndarray) -> SimSummary:
    gbars = np.asarray(cfg.powers.snr_bars)
    blocks = [
        (i, min(_BLOCK, cfg.trials - i * _BLOCK))
        for i in range((cfg.trials + _BLOCK - 1) // _BLOCK)
    ]
    workers = min(cfg.workers, len(blocks))

    def run(share) -> SimSummary:
        work = _workspace(max(size for _, size in share))
        return functools.reduce(
            SimSummary.merge,
            (_run_block(cfg.seed, index, size, gbars, thresholds, work) for index, size in share),
        )

    if workers == 1:
        return run(blocks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        shares = pool.map(run, [blocks[w::workers] for w in range(workers)])
        return functools.reduce(SimSummary.merge, shares)


def _scheme_vectors(cfg: SimConfig, purpose: str) -> np.ndarray:
    """Per-round thresholds of the scheme and purpose (module docstring).

    The thresholds double as the rewards: a cycle that first succeeds at
    round k delivers ``thresholds[k-1]``.
    """
    cums = np.asarray(cfg.rates.cumulative())
    if cfg.scheme == "xp":
        return cums
    return np.full_like(cums, cums[-1] if purpose == "outage" else cfg.rates.rates[0])


def estimate_outage(cfg: SimConfig) -> Estimate:
    """Monte Carlo outage probability with a 95% binomial CI half-width.

    With no outage, or no success, in n trials the half-width is 3/n (the
    rule of three), not 0.

    For scheme "inr" the estimated event is the information total falling
    short of R_K^sum — the XP upper bound — not the fixed-rate protocol
    event used for INR throughput.
    """
    summary = _simulate(cfg, _scheme_vectors(cfg, "outage"))
    n = summary.trials
    p = summary.outage_count / n
    if summary.outage_count in (0, n):
        # no outage, or no success: the binomial half-width would be 0; the
        # rule of three, 3/n, bounds the unseen probability at 95 %
        ci = min(3.0 / n, 1.0)
    else:
        ci = 1.96 * math.sqrt(p * (1.0 - p) / n)
    return Estimate(p, f"mc-{cfg.scheme}", ci)


def estimate_throughput(cfg: SimConfig) -> Estimate:
    """Renewal-reward throughput estimate with a delta-method 95% CI.

    A cycle's delivered rate and slot count are fixed by its success round
    (``rewards[k-1]`` and k, or 0 and K in outage), so the estimate and the
    variance of the reward/slots ratio follow from the histogram alone.  If
    all trials share one outcome that variance is 0, and the half-width is
    how far eta moves when 3/n of them take the unseen outcome moving it most.
    """
    rewards = _scheme_vectors(cfg, "throughput")
    summary = _simulate(cfg, rewards)
    n, counts = summary.trials, summary.success_at_round
    # (trials, delivered rate, slots) of each outcome: outage, then success at round k
    outcomes = [(summary.outage_count, 0.0, cfg.rates.K)]
    outcomes += [(c, float(r), k) for k, (c, r) in enumerate(zip(counts, rewards), start=1)]
    slots = sum(c * t for c, _, t in outcomes)
    delivered = float(np.dot(counts, rewards))
    eta = delivered / slots
    if max(c for c, _, _ in outcomes) == n:
        q = min(3.0 / n, 1.0)
        half = max(abs(((1.0 - q) * delivered / n + q * r) / ((1.0 - q) * slots / n + q * t) - eta)
                   for _, r, t in outcomes)
    else:  # E[(reward - eta * slots)^2] over the outcomes
        sq = sum(c * (r - eta * t) ** 2 for c, r, t in outcomes)
        half = 1.96 * math.sqrt(sq / n / (n * (slots / n) ** 2))
    return Estimate(eta, f"mc-{cfg.scheme}", half)
