"""Domain types and per-realization HARQ protocol semantics.

A HARQ cycle runs up to K rounds over independent Rayleigh block-fading
channels.  Round l sees an instantaneous SNR gamma_l (exponential with mean
gamma_bar_l) and contributes mutual information I_l = log2(1 + gamma_l).

Two accumulation disciplines are modeled:

* cross-packet (XP): round k succeeds when the accumulated mutual
  information sum_{l<=k} I_l reaches the accumulated rate target
  R_k^sum = sum_{l<=k} R_l.  The cycle is in outage when every round
  falls strictly short.
* incremental redundancy (IR): only the final total matters; outage is
  sum_{l<=K} I_l < R_K^sum.

Outage is defined with strict "<"; equality counts as success.  The
convention matters only on a measure-zero set under continuous fading but
must be fixed for determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "XpharqError",
    "ConvergenceError",
    "ConsistencyError",
    "RateSchedule",
    "PowerProfile",
    "SnrRealization",
    "Estimate",
    "mutual_information",
    "xp_success_round",
    "ir_outage_event",
    "clamp_probability",
]


class XpharqError(Exception):
    """Base class for package-specific errors."""


class ConvergenceError(XpharqError):
    """A numerical routine failed to reach its tolerance.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message: str, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class ConsistencyError(XpharqError):
    """An internally computed value violates a structural constraint.

    Raised e.g. when a probability assembly lands outside [0, 1] by more
    than its numerical tolerance — a formula bug, not roundoff.
    """


def _as_positive_tuple(values: Sequence[float], what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) == 0:
        raise ValueError(f"{what} must contain at least one entry")
    for v in out:
        if not math.isfinite(v) or v <= 0.0:
            raise ValueError(f"{what} entries must be positive and finite, got {v!r}")
    return out


@dataclass(frozen=True)
class RateSchedule:
    """Per-round incremental rates R_1..R_K in bits per channel use.

    The cumulative target of round k is R_k^sum = sum_{l<=k} R_l; with all
    R_k > 0 the cumulative sequence is strictly increasing automatically.
    The total R_K^sum must stay below 1024: 2^1024 overflows a double.
    """

    rates: tuple[float, ...]

    def __init__(self, rates: Sequence[float]):
        out = _as_positive_tuple(rates, "rates")
        if sum(out) >= 1024.0:
            raise ValueError(f"the total rate must be below 1024, got {sum(out)!r}")
        object.__setattr__(self, "rates", out)

    @property
    def K(self) -> int:
        return len(self.rates)

    def cumulative(self, k: Optional[int] = None):
        """R_k^sum for round k (1-based), or the full tuple when k is None."""
        cums = []
        total = 0.0
        for r in self.rates:
            total += r
            cums.append(total)
        if k is None:
            return tuple(cums)
        if not 1 <= k <= len(cums):
            raise ValueError(f"round index {k} outside 1..{len(cums)}")
        return cums[k - 1]

    def prefix(self, k: int) -> "RateSchedule":
        """The schedule truncated to the first k rounds."""
        if not 1 <= k <= self.K:
            raise ValueError(f"round index {k} outside 1..{self.K}")
        return RateSchedule(self.rates[:k])


@dataclass(frozen=True)
class PowerProfile:
    """Per-round average received SNR gamma_bar_k = P_k / sigma^2 (linear)."""

    snr_bars: tuple[float, ...]

    def __init__(self, snr_bars: Sequence[float]):
        object.__setattr__(self, "snr_bars", _as_positive_tuple(snr_bars, "snr_bars"))

    @property
    def K(self) -> int:
        return len(self.snr_bars)

    def prefix(self, k: int) -> "PowerProfile":
        if not 1 <= k <= self.K:
            raise ValueError(f"round index {k} outside 1..{self.K}")
        return PowerProfile(self.snr_bars[:k])


@dataclass(frozen=True)
class SnrRealization:
    """One cycle's instantaneous per-round SNRs gamma_1..gamma_K (>= 0)."""

    snrs: tuple[float, ...]

    def __init__(self, snrs: Sequence[float]):
        out = tuple(float(v) for v in snrs)
        if len(out) == 0:
            raise ValueError("snrs must contain at least one entry")
        for v in out:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"snrs entries must be nonnegative and finite, got {v!r}")
        object.__setattr__(self, "snrs", out)

    @property
    def K(self) -> int:
        return len(self.snrs)


@dataclass(frozen=True)
class Estimate:
    """An outage probability or throughput with a method tag and an uncertainty.

    ``uncertainty`` is a numerical error bound for deterministic methods (0
    where none is computed) and a 95% confidence half-width for Monte
    Carlo.  The 0 of ``lower`` (a bound) and ``asymptotic`` (an
    approximation) covers their arithmetic only, not their distance from
    the outage probability.  ``chain`` is the outage chain P_1..P_K behind
    an analytical throughput, and empty otherwise.
    """

    value: float
    method: str
    uncertainty: float
    chain: tuple[float, ...] = ()


def mutual_information(snr: float) -> float:
    """I = log2(1 + snr) for an instantaneous SNR, in bits per channel use."""
    if snr < 0.0 or not math.isfinite(snr):
        raise ValueError(f"snr must be nonnegative and finite, got {snr!r}")
    return math.log1p(snr) / math.log(2.0)


def _check_lengths(rates: RateSchedule, real: SnrRealization) -> None:
    if rates.K != real.K:
        raise ValueError(
            f"schedule has {rates.K} rounds but realization has {real.K}"
        )


def xp_success_round(rates: RateSchedule, real: SnrRealization) -> Optional[int]:
    """First round k at which accumulated information reaches the target.

    Returns the smallest k with sum_{l<=k} I_l >= R_k^sum, or None when no
    round succeeds (the cycle is in outage).  Equality counts as success.
    """
    _check_lengths(rates, real)
    acc_info = 0.0
    acc_rate = 0.0
    for k, (r, g) in enumerate(zip(rates.rates, real.snrs), start=1):
        acc_info += mutual_information(g)
        acc_rate += r
        if acc_info >= acc_rate:
            return k
    return None


def ir_outage_event(rates: RateSchedule, real: SnrRealization) -> bool:
    """True iff the K-round information total falls short of R_K^sum."""
    _check_lengths(rates, real)
    total = sum(mutual_information(g) for g in real.snrs)
    return total < rates.cumulative(rates.K)


def clamp_probability(value: float, tol: float, what: str) -> float:
    """Clamp roundoff-sized excursions outside [0, 1]; reject larger ones.

    Values in [-tol, 0) or (1, 1+tol] are attributed to floating-point noise
    and clamped; anything further out signals a formula bug and raises
    ConsistencyError.
    """
    if -tol <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + tol:
        return 1.0
    if 0.0 <= value <= 1.0:
        return value
    raise ConsistencyError(f"{what} = {value!r} is outside [0, 1] beyond tolerance {tol}")
