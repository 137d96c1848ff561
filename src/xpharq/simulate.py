"""Seeded, parallelizable Monte Carlo simulation of HARQ cycles.

Trials are partitioned into fixed-size blocks; block i draws from its own
PCG64 stream, seeded by ``SeedSequence(seed, spawn_key=(i,))``, so results
are identical for any worker count and any scheduling order.  Block
summaries are merged in block-index order, making every output
byte-reproducible.

A block draws its SNRs straight into a round-major (K, n) buffer, row k
holding round k of every trial: the stream fills round 1 of all n trials,
then round 2, and so on.  Every trial draws all K rounds whatever the
scheme, so XP and INR on one seed see the same SNRs.  Every later stage
works in place on contiguous rows of n trials: scaling by the average
SNRs, log1p, the running sum over rounds (row k += row k-1, the order of
a per-trial cumsum, so the mutual information is bit-identical), the
division by ln 2, and the decision, which walks the rounds with a mask of
still-pending trials and counts first successes per round.  Slots and
delivered rate follow from that histogram alone.

The engine itself is scheme-agnostic: a cycle succeeds at the first round
k whose accumulated mutual information reaches ``thresholds[k-1]``, earning
``rewards[k-1]`` in delivered rate and consuming k slots; a cycle with no
such round is an outage and consumes all K slots.  The two schemes map
onto it as follows:

* XP outage and throughput: threshold and reward at round k are both the
  accumulated rate R_k^sum.
* INR outage: the comparison event is the upper-bound event
  I_K^sum < R_K^sum, so every round's threshold is R_K^sum (early-round
  checks are then redundant but harmless since I^sum is nondecreasing).
* INR throughput: the protocol decodes one message of rate R_1 against the
  information total, so threshold and reward are R_1 in every round.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Estimate, PowerProfile, RateSchedule

__all__ = [
    "SimConfig",
    "SimSummary",
    "sample_snr",
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
    """Sufficient statistics of a batch of simulated HARQ cycles."""

    trials: int
    outage_count: int
    success_at_round: tuple[int, ...]
    delivered_rate_total: float
    slots_total: int

    def merge(self, other: "SimSummary") -> "SimSummary":
        if len(self.success_at_round) != len(other.success_at_round):
            raise ValueError("cannot merge summaries with different round counts")
        return SimSummary(
            trials=self.trials + other.trials,
            outage_count=self.outage_count + other.outage_count,
            success_at_round=tuple(
                a + b for a, b in zip(self.success_at_round, other.success_at_round)
            ),
            delivered_rate_total=self.delivered_rate_total + other.delivered_rate_total,
            slots_total=self.slots_total + other.slots_total,
        )


def sample_snr(snr_bar: float, rng: np.random.Generator) -> float:
    """One exponential instantaneous-SNR draw with mean snr_bar."""
    if snr_bar <= 0.0:
        raise ValueError("snr_bar must be positive")
    return float(rng.standard_exponential() * snr_bar)


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # PCG64 by name, so a change of numpy's default generator cannot move it
    seq = np.random.SeedSequence(seed, spawn_key=(block_index,))
    return np.random.Generator(np.random.PCG64(seq))


def _run_block(
    seed: int,
    block_index: int,
    n: int,
    gbars: np.ndarray,
    thresholds: np.ndarray,
    rewards: np.ndarray,
) -> SimSummary:
    rng = _block_rng(seed, block_index)
    k_rounds = len(gbars)
    info = np.empty((k_rounds, n))  # row k holds round k of every trial
    rng.standard_exponential(out=info)
    info *= gbars[:, None]
    np.log1p(info, out=info)
    for k in range(1, k_rounds):
        info[k] += info[k - 1]  # the order of cumsum(axis=1), bit for bit
    info /= _LN2
    pending = np.ones(n, dtype=bool)
    hit = np.empty(n, dtype=bool)
    counts = []
    for k in range(k_rounds):
        np.greater_equal(info[k], thresholds[k], out=hit)
        hit &= pending
        counts.append(int(np.count_nonzero(hit)))
        pending ^= hit  # hit is a subset of pending: pending &= ~hit
    n_out = n - sum(counts)
    slots = sum((k + 1) * c for k, c in enumerate(counts)) + k_rounds * n_out
    delivered = float(np.dot(counts, rewards))
    return SimSummary(
        trials=n,
        outage_count=n_out,
        success_at_round=tuple(counts),
        delivered_rate_total=delivered,
        slots_total=slots,
    )


def _simulate(cfg: SimConfig, thresholds: np.ndarray, rewards: np.ndarray) -> SimSummary:
    gbars = np.asarray(cfg.powers.snr_bars)
    blocks = [
        (i, min(_BLOCK, cfg.trials - i * _BLOCK))
        for i in range((cfg.trials + _BLOCK - 1) // _BLOCK)
    ]

    def run(block) -> SimSummary:
        index, size = block
        return _run_block(cfg.seed, index, size, gbars, thresholds, rewards)

    if cfg.workers == 1 or len(blocks) == 1:
        parts = [run(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(run, blocks))
    summary = parts[0]
    for part in parts[1:]:
        summary = summary.merge(part)
    return summary


def _scheme_vectors(cfg: SimConfig, purpose: str) -> tuple[np.ndarray, np.ndarray]:
    cums = np.asarray(cfg.rates.cumulative())
    if cfg.scheme == "xp":
        return cums, cums
    total = cums[-1]
    r1 = cfg.rates.rates[0]
    if purpose == "outage":
        return np.full_like(cums, total), np.full_like(cums, total)
    return np.full_like(cums, r1), np.full_like(cums, r1)


def estimate_outage(cfg: SimConfig) -> Estimate:
    """Monte Carlo outage probability with a 95% binomial CI half-width.

    For scheme "inr" the estimated event is the information total falling
    short of R_K^sum — the XP upper bound — not the fixed-rate protocol
    event used for INR throughput.
    """
    thresholds, rewards = _scheme_vectors(cfg, "outage")
    summary = _simulate(cfg, thresholds, rewards)
    p = summary.outage_count / summary.trials
    ci = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / summary.trials)
    return Estimate(p, f"mc-{cfg.scheme}", ci)


def estimate_throughput(cfg: SimConfig) -> Estimate:
    """Renewal-reward throughput estimate with a delta-method 95% CI.

    Per-cycle reward and slot count are deterministic functions of the
    success round, so the variance of the reward/slots ratio follows from
    the success-round histogram alone.
    """
    thresholds, rewards = _scheme_vectors(cfg, "throughput")
    summary = _simulate(cfg, thresholds, rewards)
    n = summary.trials
    k_rounds = cfg.rates.K
    eta = summary.delivered_rate_total / summary.slots_total
    mean_slots = summary.slots_total / n
    # E[(reward - eta * slots)^2] over the outcome categories
    sq = summary.outage_count * (eta * k_rounds) ** 2
    for k, count in enumerate(summary.success_at_round, start=1):
        sq += count * (float(rewards[k - 1]) - eta * k) ** 2
    var_eta = sq / n / (n * mean_slots ** 2)
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

