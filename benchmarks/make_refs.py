"""Regenerate ``refs.json``: the reference value of every benchmark item.

Run from the repository root (takes several minutes):

    PYTHONPATH=src python3 benchmarks/make_refs.py

How each reference is produced is recorded per entry under ``how``:

* ``mpmath``: K <= 2 quantities evaluated in 40-digit arithmetic.  The
  K = 2 XP outage is the one-dimensional integral of the outage event,
  checked against the closed form (with its phi integral) to 1e-25;
  the K = 2 IR events are the same integral with the IR threshold.
* ``oracle-tight``: the package's nested quadrature at tol=1e-14,
  rel_tol=1e-12 (XP outage, K = 3, 4).
* ``ir-tight``: the package's IR convolution at relative tolerance
  1e-11 (IR outage and IR chain, K = 3, 4).
* ``hbar-tight``: the nested hbar integral at rel_tol=1e-13 times the
  product of 1/gbar (asymptote, K = 3, 4).
* ``numpy-mc``: for K = 8, beyond every analytic cap, an independent
  NumPy simulation (PCG64, not the package's Philox engine) of
  ``n_ref`` cycles; the benchmark widens its Monte Carlo tolerance by the
  reference's own sampling error.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from xpharq import PowerProfile, RateSchedule, hbar_quadrature  # noqa: E402
from xpharq import outage_upper_ir, xp_outage_quadrature  # noqa: E402
from xpharq.bounds import ir_outage_chain  # noqa: E402

mp.mp.dps = 40
N_REF = 40_000_000
CHUNK = 500_000


def gbar(snr_db: float):
    return mp.mpf(10) ** (mp.mpf(snr_db) / 10)


def mp_k1(r, snr_db):
    return -mp.expm1(-(mp.mpf(2) ** r - 1) / gbar(snr_db))


def mp_pair(u1, total, snr_db):
    """Pr(I_1 < u1 and I_1 + I_2 < total) for two rounds at snr_db."""
    g = gbar(snr_db)
    big_z = mp.mpf(2) ** total
    a = mp.mpf(2) ** u1 - 1

    def f(x):
        return mp.exp(-x / g) / g * -mp.expm1(-(big_z / (1 + x) - 1) / g)

    return mp.quad(f, [0, a])


def mp_xp_k2(rates, snr_db):
    r1, r2 = (mp.mpf(r) for r in rates)
    direct = mp_pair(r1, r1 + r2, snr_db)
    g = gbar(snr_db)
    big_z = mp.mpf(2) ** (r1 + r2)
    a1 = (mp.mpf(2) ** r1 - 1) / g
    a2 = (mp.mpf(2) ** r2 - 1) / g
    phi = mp.exp(2 / g) / g * mp.quad(
        lambda z: mp.exp(-big_z / (z * g) - z / g), [mp.mpf(2) ** r2, big_z])
    closed = (1 - mp.exp(-a1)) * (1 - mp.exp(-a2)) + mp.exp(-a2) - mp.exp(-(big_z - 1) / g) - phi
    if abs(closed - direct) > mp.mpf(10) ** -25 * max(abs(direct), mp.mpf(10) ** -60):
        raise RuntimeError(f"closed form and integral disagree at {rates} {snr_db}")
    return direct


def mp_ir_k2(total, snr_db):
    return mp_pair(mp.mpf(total), mp.mpf(total), snr_db)


def mp_lower(rates, snr_db):
    p = mp.mpf(1)
    for r in rates:
        p *= mp_k1(r, snr_db)
    return p


def mp_asymptotic_k2(rates, snr_db):
    r1, r2 = (mp.mpf(r) for r in rates)
    g = gbar(snr_db)
    return (mp.mpf(2) ** (r1 + r2) * r1 * mp.log(2) - (mp.mpf(2) ** r1 - 1)) / (g * g)


def schedule(rates, snr_db):
    return RateSchedule(rates), PowerProfile([10.0 ** (snr_db / 10.0)] * len(rates))


def oracle(rates, snr_db):
    if len(rates) == 1:
        return float(mp_k1(rates[0], snr_db)), "mpmath"
    if len(rates) == 2:
        return float(mp_xp_k2(rates, snr_db)), "mpmath"
    return xp_outage_quadrature(*schedule(rates, snr_db), tol=1e-14, rel_tol=1e-12).value, "oracle-tight"


def numpy_mc(rates, snr_db) -> dict:
    """Independent K-round simulation of every quantity at one point."""
    rng = np.random.Generator(np.random.PCG64(20221017))
    k_rounds = len(rates)
    cums = np.cumsum(rates)
    g = 10.0 ** (snr_db / 10.0)
    xp_fail = np.zeros(k_rounds, dtype=np.int64)   # not decoded by round k
    inr_fail = np.zeros(k_rounds, dtype=np.int64)  # I_k^sum < R_1
    ir_out = 0
    for start in range(0, N_REF, CHUNK):
        n = min(CHUNK, N_REF - start)
        info = np.cumsum(np.log2(1.0 + g * rng.standard_exponential((n, k_rounds))), axis=1)
        decoded = np.logical_or.accumulate(info >= cums, axis=1)
        xp_fail += (~decoded).sum(axis=0)
        inr_fail += (info < rates[0]).sum(axis=0)
        ir_out += int((info[:, -1] < cums[-1]).sum())
    how = {"how": "numpy-mc", "n_ref": N_REF}
    return {
        "xp_outage": {"value": xp_fail[-1] / N_REF, **how},
        "ir_outage": {"value": ir_out / N_REF, **how},
        "xp_chain": {"chain": (xp_fail / N_REF).tolist(), **how},
        "inr_chain": {"chain": (inr_fail / N_REF).tolist(), **how},
    }


def reference(quantity, rates, snr_db) -> dict:
    k_rounds = len(rates)
    if quantity == "xp_outage":
        value, how = oracle(rates, snr_db)
        return {"value": value, "how": how}
    if quantity == "ir_outage":
        if k_rounds == 2:
            return {"value": float(mp_ir_k2(sum(rates), snr_db)), "how": "mpmath"}
        est = outage_upper_ir(*schedule(rates, snr_db), budget=1e-11)
        return {"value": est.value, "how": "ir-tight"}
    if quantity == "lower":
        return {"value": float(mp_lower(rates, snr_db)), "how": "mpmath"}
    if quantity == "asymptotic":
        if k_rounds == 2:
            return {"value": float(mp_asymptotic_k2(rates, snr_db)), "how": "mpmath"}
        scale = 10.0 ** (-snr_db * k_rounds / 10.0)
        hbar = hbar_quadrature(RateSchedule(rates), rel_tol=1e-13)
        return {"value": scale * hbar, "how": "hbar-tight"}
    if quantity == "xp_chain":
        chain = [oracle(rates[:k], snr_db)[0] for k in range(1, k_rounds + 1)]
        return {"chain": chain, "how": "mpmath" if k_rounds <= 2 else "oracle-tight"}
    if quantity == "inr_chain":
        if k_rounds == 2:
            chain = [float(mp_k1(rates[0], snr_db)), float(mp_ir_k2(rates[0], snr_db))]
            return {"chain": chain, "how": "mpmath"}
        chain = ir_outage_chain(*schedule(rates, snr_db), rel_tol=1e-11)
        return {"chain": list(chain), "how": "ir-tight"}
    raise ValueError(quantity)


def main() -> int:
    keys = sorted(wl.all_reference_keys())
    refs = {}
    mc_cache = {}
    start = time.perf_counter()
    for i, key in enumerate(keys):
        quantity, rates_txt, snr_txt = key.split("|")
        rates = tuple(float(r) for r in rates_txt.split(","))
        snr_db = float(snr_txt)
        if len(rates) > 4:
            if (rates, snr_db) not in mc_cache:
                mc_cache[(rates, snr_db)] = numpy_mc(rates, snr_db)
            refs[key] = mc_cache[(rates, snr_db)][quantity]
        else:
            refs[key] = reference(quantity, rates, snr_db)
        if i % 50 == 0:
            print(f"{i}/{len(keys)} {time.perf_counter() - start:.0f}s", file=sys.stderr)
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"generator": "benchmarks/make_refs.py", "refs": refs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(refs)} references in {time.perf_counter() - start:.0f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
