"""High-SNR asymptote of the XP outage probability for any K >= 2.

The dominant term is P ~ prod_k (1/gbar_k) * hbar_{K,1}(1), where the
hbar family is a polynomial in ln x plus a linear term,

    hbar_{K,k}(x) = (-1)^{K-k+1} x + sum_{i=0}^{K-k} c_{k,i} (ln x)^i,

built by the recursion (from integrating t^{-1} (ln t)^{i-1} across each
cell)

    c_{K,0} = 2^{R_K^sum}
    c_{k,i} = -c_{k+1,i-1} / i                      (1 <= i <= K-k)
    c_{k,0} = sum_{i=0}^{K-k-1} c_{k+1,i} ln(2^{R_k^sum})^{i+1} / (i+1)
              + (-1)^{K-k} 2^{R_k^sum}.

At K = 2 this is the paper's (2^{R1+R2} R1 ln2 - (2^{R1}-1)) / (g1 g2).
The recursion is validated against the nested-integral oracle in
``quadrature.hbar_quadrature``; note the divisor in the c_{k,i} line is i
(it comes from d/dx (ln x)^i = i (ln x)^{i-1} / x), which the oracle test
pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import PowerProfile, RateSchedule

__all__ = [
    "HbarTable",
    "build_hbar_table",
    "hbar_eval",
    "outage_asymptotic_general",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class HbarTable:
    """Triangular coefficient table of the hbar polynomial family.

    ``coeffs[k-1][i]`` holds c_{k,i} for k in 1..K, i in 0..K-k.
    """

    K: int
    coeffs: tuple[tuple[float, ...], ...]


def build_hbar_table(rates: RateSchedule) -> HbarTable:
    """Run the coefficient recursion from k = K down to k = 1 (K >= 2)."""
    K = rates.K
    if K < 2:
        raise ValueError("the recursion needs at least two rounds")
    log_thresholds = [c * _LN2 for c in rates.cumulative()]  # ln 2^{R_k^sum}
    thresholds = [math.exp(lt) for lt in log_thresholds]

    rows: list[list[float]] = [[] for _ in range(K)]
    rows[K - 1] = [thresholds[-1]]
    for k in range(K - 1, 0, -1):
        above = rows[k]  # c_{k+1, .}
        row = [0.0] * (K - k + 1)
        for i in range(1, K - k + 1):
            row[i] = -above[i - 1] / i
        lt = log_thresholds[k - 1]
        acc = 0.0
        for i in range(K - k - 1, -1, -1):  # Horner over powers of lt
            acc = (acc + above[i] / (i + 1)) * lt
        row[0] = acc + (-1.0) ** (K - k) * thresholds[k - 1]
        rows[k - 1] = row
    return HbarTable(K=K, coeffs=tuple(tuple(r) for r in rows))


def hbar_eval(table: HbarTable, k: int, x: float) -> float:
    """Evaluate hbar_{K,k}(x) from the coefficient table (Horner in ln x)."""
    if not 1 <= k <= table.K:
        raise ValueError(f"level {k} outside 1..{table.K}")
    if x <= 0.0:
        raise ValueError("x must be positive")
    lx = math.log(x)
    acc = 0.0
    for c in reversed(table.coeffs[k - 1]):
        acc = acc * lx + c
    return (-1.0) ** (table.K - k + 1) * x + acc


def outage_asymptotic_general(rates: RateSchedule, powers: PowerProfile) -> float:
    """Dominant high-SNR outage term for general K: prod(1/gbar) hbar_{K,1}(1)."""
    if rates.K != powers.K:
        raise ValueError(f"schedule has {rates.K} rounds but profile has {powers.K}")
    if rates.K < 2:
        raise ValueError("general asymptotic needs K >= 2")
    table = build_hbar_table(rates)
    value = hbar_eval(table, 1, 1.0)
    for g in powers.snr_bars:  # in turn: prod(1/gbar) underflows where this does not
        value /= g
    return value
