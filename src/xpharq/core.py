"""Domain types: rate schedules, power profiles, estimates and errors.

A HARQ cycle runs up to K rounds over independent Rayleigh block-fading
channels.  Round k carries incremental rate R_k and sees an instantaneous
SNR that is exponential with mean gamma_bar_k.
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
    "Estimate",
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
class Estimate:
    """An outage probability or throughput with a method tag and an uncertainty.

    ``uncertainty`` is a numerical error bound for deterministic methods
    and a 95% confidence half-width for Monte Carlo.  It is 0 only for the
    closed forms ``lower``, ``asymptotic`` and the one-round ``exact``; the
    0 of ``lower`` (a bound) and ``asymptotic`` (an approximation) covers
    their arithmetic only, not their distance from the outage probability.
    """

    value: float
    method: str
    uncertainty: float


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
