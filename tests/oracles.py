"""Independent references used only by the tests.

The throughput of an outage chain by the renewal-reward formula: the
package computes throughput by one payoff recursion, and this formula,
fed with per-prefix outage probabilities, checks it.  Where a chain entry
is within rounding of 1, the formula's 1 - P_K cancels and the check is
void; the tests use it only away from that corner.
"""

from xpharq import ir_outage_chain, xp_outage


def xp_outage_chain(rates, powers, tol=1e-10):
    """XP outage probabilities of every truncated schedule, k = 1..K."""
    if rates.K != powers.K:
        raise ValueError(f"schedule has {rates.K} rounds but profile has {powers.K}")
    return [
        xp_outage(rates.prefix(k), powers.prefix(k), tol).value
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


def throughput_oracle(scheme, rates, powers, tol=1e-10):
    """Throughput by the chain formula on the package's per-prefix outages."""
    if scheme == "xp":
        chain = xp_outage_chain(rates, powers, tol)
    else:
        chain = ir_outage_chain(rates, powers)
    return throughput_from_chain(scheme, rates, chain)
