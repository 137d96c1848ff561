"""Independent references used only by the tests.

The throughput of an outage chain by the renewal-reward formula: the
package computes throughput by one payoff recursion, and this formula,
fed with per-prefix outage probabilities, checks it.  Where a chain entry
is within rounding of 1, the formula's 1 - P_K cancels and the check is
void; the tests use it only away from that corner.

Also the log-log slope through high-SNR outage points, whose negation is
the diversity order, the high-SNR coefficient recursion in mpmath, and the
XP outage of two and of three rounds by mpmath integrals.
"""

import mpmath as mp
import numpy as np

from xpharq import ir_outage_chain, xp_outage


def loglog_slope(snr_bars, outages):
    """Least-squares slope of log10 outage against log10 linear-scale SNR."""
    return float(np.polyfit(np.log10(snr_bars), np.log10(outages), 1)[0])


def xp_outage_chain(rates, powers):
    """XP outage probabilities of every truncated schedule, k = 1..K."""
    if rates.K != powers.K:
        raise ValueError(f"schedule has {rates.K} rounds but profile has {powers.K}")
    return [
        xp_outage(rates.prefix(k), powers.prefix(k)).value
        for k in range(1, rates.K + 1)
    ]


def throughput_from_chain(scheme, rates, chain):
    """Renewal-reward throughput from an outage chain P_1..P_K (P_0 = 1).

    XP: eta = sum_k R_k^sum (P_{k-1} - P_k) / sum_{k=0}^{K-1} P_k, the
    chain being XP outage probabilities of the truncated schedules.
    INR: eta = R_1 (1 - P_K) / sum_{k=0}^{K-1} P_k with the chain
    Pr(I_k^sum < R_1).  Both denominators are the expected number of rounds
    spent per cycle.
    """
    expected_slots = 1.0 + sum(chain[:-1])
    if scheme == "inr":
        return rates.rates[0] * (1.0 - chain[-1]) / expected_slots
    reward, prev = 0.0, 1.0
    for cum, p in zip(rates.cumulative(), chain):
        reward += cum * (prev - p)
        prev = p
    return reward / expected_slots


def throughput_oracle(scheme, rates, powers):
    """Throughput by the chain formula on the package's per-prefix outages."""
    if scheme == "xp":
        chain = xp_outage_chain(rates, powers)
    else:
        chain = ir_outage_chain(rates, powers)
    return throughput_from_chain(scheme, rates, chain)


def hbar_mp(rates, digits):
    """hbar_{K,1}(1) by the coefficient recursion in ``digits``-digit mpmath,
    the rates taken exactly as the doubles they are."""
    with mp.workdps(digits):
        logs = [mp.mpf(c) * mp.log(2) for c in rates.cumulative()]
        K = len(logs)
        row = [mp.exp(logs[-1])]  # c_{K, .}
        for k in range(K - 1, 0, -1):  # row c_{k, .} from c_{k+1, .}
            lt = logs[k - 1]
            head = sum(c * lt ** (i + 1) / (i + 1) for i, c in enumerate(row))
            row = [head + (-1) ** (K - k) * mp.exp(lt)] + [
                -c / i for i, c in enumerate(row, start=1)]
        return row[0] + (-1) ** K


def xp_two_rounds_mp(a1: float, big_z: float, gbar: float):
    """Pr(gamma_1 < a1 and (1 + gamma_1)(1 + gamma_2) < big_z), 40 digits."""
    with mp.workdps(40):
        g = mp.mpf(gbar)
        return float(mp.quad(
            lambda x: mp.exp(-x / g) / g * -mp.expm1(-(big_z / (1 + x) - 1) / g), [0, a1]
        ))


def xp_three_rounds_mp(limits, gbar: float):
    """XP outage of three equal-SNR rounds as a 2-D integral over x_1, x_2."""
    with mp.workdps(25):
        g = mp.mpf(gbar)
        u1, u2, u3 = (mp.mpf(u) for u in limits)

        def given_x1(x1):
            return mp.quad(
                lambda x2: mp.exp(-(x2 / x1 - 1) / g) / (g * x1) * -mp.expm1(-(u3 / x2 - 1) / g),
                [x1, u2], method="gauss-legendre",
            )

        return float(mp.quad(
            lambda x1: mp.exp(-(x1 - 1) / g) / g * given_x1(x1), [1, u1],
            method="gauss-legendre",
        ))
