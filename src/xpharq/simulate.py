"""Seeded, parallelizable Monte Carlo simulation of HARQ cycles.

Trials are partitioned into fixed-size blocks; block i draws from its own
PCG64 stream, seeded by ``SeedSequence(seed, spawn_key=(i,))``.  A block
reports only its histogram of first-success rounds (``SimSummary``); the
outage count, slots and delivered rate all follow from it.  The counts are
integers, so summaries merge exactly in any order and every output is
identical for any worker count and any scheduling order.

A block streams its SNRs round by round, row k of n trials right after
row k-1: exactly the stream of one round-major (K, n) fill, so every trial
draws all K rounds and XP and INR on one seed see the same SNRs.  The
decision takes no logarithm: sum_{l<=k} log2(1 + g_l) >= R_k holds exactly
when y_k = prod_{l<=k}(1 + g_l) - 1 >= expm1(R_k ln 2), and the block
carries y_k = y_{k-1} + g_k (1 + y_{k-1}).  Every term is nonnegative, so
y_k keeps the log sum's relative precision at any rate and SNR; the shorter
prod(1 + g) >= 2^R rounds 1 + g and 2^R to a few digits and miscounts at
rates below about 1e-14 and deep fades.  A mask of pending trials counts
first successes per round.  Each worker reuses one workspace (rows y, draw
and step, and the two masks) sized to its largest block; of W workers,
worker w runs blocks w, w + W, ... and sums their histograms.

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
    "throughput_analytical",
]

_BLOCK = 65536

_LN2 = math.log(2.0)


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
    """Rows y, draw and step, then the pending and hit masks, for n trials."""
    return np.empty((3, n)), np.empty((2, n), dtype=bool)


def _run_block(
    seed: int,
    block_index: int,
    n: int,
    gbars: np.ndarray,
    thresholds: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
) -> SimSummary:
    rng = _block_rng(seed, block_index)
    y, draw, step = work[0][:, :n]
    pending, hit = work[1][:, :n]
    pending.fill(True)
    counts = []
    for k, (gbar, limit) in enumerate(zip(gbars, np.expm1(thresholds * _LN2))):
        if k == 0:
            rng.standard_exponential(out=y)
            y *= gbar
        else:
            rng.standard_exponential(out=draw)
            draw *= gbar
            np.add(y, 1.0, out=step)
            step *= draw
            y += step  # y_k = y_{k-1} + g_k (1 + y_{k-1})
        np.greater_equal(y, limit, out=hit)
        hit &= pending
        counts.append(int(np.count_nonzero(hit)))
        pending ^= hit  # hit is a subset of pending: pending &= ~hit
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

    For scheme "inr" the estimated event is the information total falling
    short of R_K^sum — the XP upper bound — not the fixed-rate protocol
    event used for INR throughput.
    """
    summary = _simulate(cfg, _scheme_vectors(cfg, "outage"))
    p = summary.outage_count / summary.trials
    ci = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / summary.trials)
    return Estimate(p, f"mc-{cfg.scheme}", ci)


def estimate_throughput(cfg: SimConfig) -> Estimate:
    """Renewal-reward throughput estimate with a delta-method 95% CI.

    A cycle's delivered rate and slot count are fixed by its success round
    (``rewards[k-1]`` and k, or 0 and K in outage), so the estimate and the
    variance of the reward/slots ratio follow from the histogram alone.
    """
    rewards = _scheme_vectors(cfg, "throughput")
    summary = _simulate(cfg, rewards)
    n, k_rounds, counts = summary.trials, cfg.rates.K, summary.success_at_round
    slots = sum(k * c for k, c in enumerate(counts, start=1)) + k_rounds * summary.outage_count
    eta = float(np.dot(counts, rewards)) / slots
    # E[(reward - eta * slots)^2] over the outcome categories
    sq = summary.outage_count * (eta * k_rounds) ** 2
    for k, count in enumerate(counts, start=1):
        sq += count * (float(rewards[k - 1]) - eta * k) ** 2
    var_eta = sq / n / (n * (slots / n) ** 2)
    return Estimate(eta, f"mc-{cfg.scheme}", 1.96 * math.sqrt(var_eta))


def throughput_analytical(
    scheme: str,
    rates: RateSchedule,
    powers: PowerProfile,
    outage_chain: list[float],
) -> float:
    """Renewal-reward throughput from an outage chain P_1..P_K (P_0 = 1).

    XP: eta = sum_k R_k^sum (P_{k-1} - P_k) / sum_{k=0}^{K-1} P_k, the
    chain being XP outage probabilities of the truncated schedules.
    INR: eta = R_1 (1 - P_K) / sum_{k=0}^{K-1} P_k with the chain
    Pr(I_k^sum < R_1).  Both denominators are the expected number of rounds
    spent per cycle.
    """
    if scheme not in ("xp", "inr"):
        raise ValueError(f"scheme must be 'xp' or 'inr', got {scheme!r}")
    if rates.K != powers.K:
        raise ValueError(f"schedule has {rates.K} rounds but profile has {powers.K}")
    chain = [float(p) for p in outage_chain]
    if len(chain) != rates.K:
        raise ValueError(f"chain has {len(chain)} entries for {rates.K} rounds")
    prev = 1.0
    for k, p in enumerate(chain, start=1):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"chain entry {k} = {p} outside [0, 1]")
        if p > prev + 1e-12:
            raise ValueError(
                f"outage chain must be nonincreasing, entry {k} rises {prev} -> {p}"
            )
        prev = p
    expected_slots = 1.0 + sum(chain[:-1])
    if scheme == "xp":
        cums = rates.cumulative()
        reward = 0.0
        prev = 1.0
        for k in range(rates.K):
            reward += cums[k] * (prev - chain[k])
            prev = chain[k]
    else:
        reward = rates.rates[0] * (1.0 - chain[-1])
    return reward / expected_slots

