"""High-SNR asymptote of the XP outage probability for any K >= 2.

The dominant term is P ~ prod_k (1/gbar_k) * hbar_{K,1}(1), where the
hbar family is a polynomial in ln x plus a linear term,

    hbar_{K,k}(x) = (-1)^{K-k+1} x + sum_{i=0}^{K-k} c_{k,i} (ln x)^i,

built by the recursion (integrating t^{-1} (ln t)^{i-1} across each cell)

    c_{K,0} = 2^{R_K^sum}
    c_{k,i} = -c_{k+1,i-1} / i                      (1 <= i <= K-k)
    c_{k,0} = sum_{i=0}^{K-k-1} c_{k+1,i} ln(2^{R_k^sum})^{i+1} / (i+1)
              + (-1)^{K-k} 2^{R_k^sum}.

At K = 2 this is the paper's (2^{R1+R2} R1 ln2 - (2^{R1}-1)) / (g1 g2);
``quadrature.hbar_quadrature`` pins the divisor i of the c_{k,i} line.

Write A for the asymptote.  A is the outage's payoff recursion with e^{-u}
replaced by 1 and 1 - e^{-a} by a, which only raises each level, so P <= A;
every x_k >= 1 bounds a_k(x) by (2^{R_k^sum} - 1)/gbar_k, so P >= A e^{-S}
with S = sum_k (2^{R_k^sum} - 1)/gbar_k.  A's uncertainty is A (1 - e^{-S})
plus ((K+1)^2 + 2 R_K^sum) 2^-53 M / prod gbar_k, with M the recursion run on
every term positive; 2 R_K^sum covers the rounding of ln 2^{R_k^sum}, and M
the cancellation of O(2^R) terms to O(R^K) below a bit per round.
"""

from __future__ import annotations

import math

from .core import Estimate, PowerProfile, RateSchedule, XpharqError, _check_rounds

__all__ = [
    "build_hbar_table",
    "hbar_eval",
    "outage_asymptotic_general",
]

_LN2 = math.log(2.0)


def build_hbar_table(rates: RateSchedule, sign: float = -1.0) -> tuple[tuple[float, ...], ...]:
    """Rows c_{k,0..K-k}, k = 1..K, by the recursion from k = K down (K >= 2).

    ``sign`` = +1 takes every term positive and bounds the magnitudes summed.
    Raises XpharqError where a coefficient overflows a double.
    """
    K = rates.K
    if K < 2:
        raise ValueError("the recursion needs at least two rounds")
    log_thresholds = [c * _LN2 for c in rates.cumulative()]  # ln 2^{R_k^sum}
    thresholds = [2.0 ** c for c in rates.cumulative()]  # exact at integer rates

    rows: list[list[float]] = [[] for _ in range(K)]
    rows[K - 1] = [thresholds[-1]]
    for k in range(K - 1, 0, -1):
        above = rows[k]  # c_{k+1, .}
        row = [0.0] * (K - k + 1)
        for i in range(1, K - k + 1):
            row[i] = sign * above[i - 1] / i
        lt = log_thresholds[k - 1]
        acc = 0.0
        for i in range(K - k - 1, -1, -1):  # Horner over powers of lt
            acc = (acc + above[i] / (i + 1)) * lt
        row[0] = acc + sign ** (K - k) * thresholds[k - 1]
        rows[k - 1] = row
    if not all(math.isfinite(c) for row in rows for c in row):
        raise XpharqError(f"the asymptote overflows a double at rates {rates.rates}")
    return tuple(tuple(r) for r in rows)


def hbar_eval(coeffs: tuple[tuple[float, ...], ...], k: int, x: float) -> float:
    """Evaluate hbar_{K,k}(x) from the coefficient rows (Horner in ln x).

    Raises XpharqError where the value overflows a double.
    """
    K = len(coeffs)
    if not 1 <= k <= K:
        raise ValueError(f"level {k} outside 1..{K}")
    if x <= 0.0:
        raise ValueError("x must be positive")
    lx = math.log(x)
    acc = 0.0
    for c in reversed(coeffs[k - 1]):
        acc = acc * lx + c
    value = (-1.0) ** (K - k + 1) * x + acc
    if not math.isfinite(value):
        raise XpharqError(f"hbar_{{{K},{k}}}({x!r}) overflows a double")
    return value


def outage_asymptotic_general(rates: RateSchedule, powers: PowerProfile) -> Estimate:
    """Dominant high-SNR outage term for general K: A = prod(1/gbar) hbar_{K,1}(1).

    Raises XpharqError where A or its uncertainty overflows a double.
    """
    _check_rounds(rates, powers)
    # hbar_{K,1}(1) = c_{1,0} + (-1)^K, and M the same with every sign +1
    value, bound = (build_hbar_table(rates, s)[0][0] + s ** rates.K for s in (-1.0, 1.0))
    rounding = ((rates.K + 1) ** 2 + 2 * rates.cumulative()[-1]) * 2.0 ** -53 * bound
    spread = 0.0  # S
    for c, g in zip(rates.cumulative(), powers.snr_bars):
        # in turn: prod(1/gbar) underflows where this does not
        value /= g
        rounding /= g
        spread += math.expm1(c * _LN2) / g
    uncertainty = abs(value) * -math.expm1(-spread) + rounding
    if not math.isfinite(value + uncertainty):
        raise XpharqError(f"the asymptote overflows a double at rates {rates.rates}")
    return Estimate(value, "asymptotic", uncertainty)
