"""Domain types: rate schedules, power profiles, estimates and errors, and
the one Gauss-Legendre table that every quadrature of the package reads.

A HARQ cycle runs up to K rounds over independent Rayleigh block-fading
channels.  Round k carries incremental rate R_k and sees an instantaneous
SNR that is exponential with mean gamma_bar_k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "XpharqError",
    "ConvergenceError",
    "ConsistencyError",
    "RateSchedule",
    "PowerProfile",
    "Estimate",
    "clamp_probability",
    "decoding_limits",
]


class XpharqError(Exception):
    """Base class for package-specific errors."""


class ConvergenceError(XpharqError):
    """A numerical routine failed to reach its tolerance.

    ``estimate`` is the best ``Estimate`` it reached, in the units and with
    the method tag of its call's result, or None where it has none.
    """

    def __init__(self, message: str, estimate: Estimate | None = None):
        super().__init__(message)
        self.estimate = estimate


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

    def cumulative(self) -> tuple[float, ...]:
        """R_k^sum for every round k = 1..K."""
        return tuple(itertools.accumulate(self.rates))

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
    """A computed quantity with a method tag and an uncertainty: every
    outage, throughput, integral and contour value the package returns.

    ``uncertainty`` is a numerical error bound for deterministic methods
    and a 95% confidence half-width for Monte Carlo.  The outage recursions
    (``exact``, ``oracle``, ``upper``) and analytical throughput report the
    error estimate of their first pass, or where that misses the tolerance
    the gap that stopped a later pass, plus 1e-14 of the value (of the
    largest payoff for throughput), at every K; ``lower`` the rounding of
    its product;
    ``asymptotic`` the width of its bracket [A e^{-S}, A] around the outage
    probability, plus rounding; the contour (``mellin-barnes``) its strip
    and tail bounds, each node's error and the node sum's rounding; the
    nested rule (``xp-quadrature``) its last pass gap plus ``tol`` and
    rounding, and ``inf`` on the estimate of the ConvergenceError it raises.

    ``work`` is what the computation did, where a method counts it, and
    None elsewhere: the payoff ladder's ``{"passes": count, "stop":
    "estimate" | "gap" | "raised"}`` (the pass's own estimate or its gap met
    the tolerance, or the ladder gave up), the contour's ``{"nodes": n,
    "kernel_panels": p}`` (0 panels for the complete kernel).  Equality and
    hashing ignore it.
    """

    value: float
    method: str
    uncertainty: float
    work: Mapping[str, object] | None = field(default=None, compare=False)


def decoding_limits(rates: RateSchedule, scheme: str, quantity: str) -> tuple[float, ...]:
    """What round k must reach: the accumulated mutual information, in bits,
    at or above which it decodes, for k = 1..K.

    XP decodes the accumulated rate R_k^sum.  HARQ-IR decodes against its
    information total: its outage is the event I_K^sum < R_K^sum that bounds
    XP's outage from above, so every round's limit is R_K^sum (the early
    checks are redundant, as I^sum is nondecreasing); its throughput is the
    protocol's, one message of rate R_1, so every round's limit is R_1.  A
    cycle that first decodes at round k delivers its limit as its rate.
    """
    if scheme not in ("xp", "inr"):
        raise ValueError(f"scheme must be 'xp' or 'inr', got {scheme!r}")
    if quantity not in ("outage", "throughput"):
        raise ValueError(f"quantity must be 'outage' or 'throughput', got {quantity!r}")
    cums = rates.cumulative()
    if scheme == "xp":
        return cums
    return (cums[-1] if quantity == "outage" else rates.rates[0],) * rates.K


def _check_rounds(rates: RateSchedule, powers: PowerProfile) -> None:
    if rates.K != powers.K:
        raise ValueError(f"schedule has {rates.K} rounds but profile has {powers.K}")


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


@cache
def _unit_gauss(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre nodes and weights on [0, 1], built on first
    use: the recursion's panels, the contour's kernel and the nested
    references all read this one read-only table."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    nodes, weights = (nodes + 1.0) / 2.0, weights / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
