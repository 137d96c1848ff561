"""Seeded, parallelizable Monte Carlo simulation of HARQ cycles.

Trials are partitioned into fixed-size blocks; block i draws from its own
PCG64 stream, seeded by ``SeedSequence(seed, spawn_key=(i,))``, so results
are identical for any worker count and any scheduling order.  Block
summaries are merged in block-index order, making every output
byte-reproducible.

A block streams its SNRs round by round, row k of n trials right after
row k-1: exactly the stream of one round-major (K, n) fill, so every trial
draws all K rounds and XP and INR on one seed see the same SNRs.  The
decision takes no logarithm: sum_{l<=k} log2(1 + g_l) >= R_k holds exactly
when y_k = prod_{l<=k}(1 + g_l) - 1 >= expm1(R_k ln 2), and the block
carries y_k = y_{k-1} + g_k (1 + y_{k-1}).  Every term is nonnegative, so
y_k keeps the log sum's relative precision at any rate and SNR; the shorter
prod(1 + g) >= 2^R rounds 1 + g and 2^R to a few digits and miscounts at
rates below about 1e-14 and deep fades.  A mask of pending trials counts
first successes per round; slots and delivered rate follow from that
histogram.  Each worker reuses one workspace (rows y, draw and step, and
the two masks) sized to its largest block; of W workers, worker w runs
blocks w, w + W, ... and the summaries merge back in block order.

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
    if not snr_bar > 0.0:
        raise ValueError("snr_bar must be positive")
    return float(rng.standard_exponential() * snr_bar)


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
    rewards: np.ndarray,
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
    n_out = n - sum(counts)
    slots = sum((k + 1) * c for k, c in enumerate(counts)) + len(gbars) * n_out
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
    workers = min(cfg.workers, len(blocks))

    def run(share) -> list[SimSummary]:
        work = _workspace(max(size for _, size in share))
        return [
            _run_block(cfg.seed, index, size, gbars, thresholds, rewards, work)
            for index, size in share
        ]

    shares = [blocks[w::workers] for w in range(workers)]
    if workers == 1:
        results = [run(blocks)]
    else:  # pool.map keeps the order of the shares
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, shares))
    summary = results[0][0]
    for i in range(1, len(blocks)):
        summary = summary.merge(results[i % workers][i // workers])
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

