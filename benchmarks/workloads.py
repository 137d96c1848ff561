"""Workload generators, reference keys and output checks for the benchmark.

Every query is drawn from a finite pool of (rates, SNR) grid points, so
every item the benchmark can run has a stored reference in ``refs.json``
(produced by ``make_refs.py``).  The workload seed picks points from the
pools; the program under test only ever sees the CLI argv built here.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

WORKLOADS = ("point-analytic", "point-mc", "sweep-ref", "selftest")

RATES = (0.5, 1.0, 1.5, 2.0)
SNR_ANALYTIC = tuple(float(s) for s in range(0, 41, 5))
SNR_MC = tuple(float(s) for s in range(0, 21, 5))
MC_TRIALS = 1_000_000
MC_K = (2, 4, 8)
# Points per (K, quantity).  Latency falls into one class per (K, workers),
# fastest first: K2/w2, K4/w2, K2/w1, K8/w2, K4/w1, K8/w1.  These counts put
# the median in the middle of the K8/w2 class rather than on the gap
# between two classes, where run-to-run noise would move it most.
MC_DRAWS = {2: 1, 4: 2, 8: 2}
MAX_WORKERS = 2  # the box has two cores; the program never gets more

# K >= 3 uses a fixed list of rate vectors: all combinations would make the
# reference pool (and its generation time) grow as 4^K.
RATE_VECTORS = {
    1: [(r,) for r in RATES],
    2: list(itertools.product(RATES, repeat=2)),
    3: [(r,) * 3 for r in RATES]
    + [(0.5, 1.0, 2.0), (2.0, 0.5, 1.0), (1.0, 1.5, 0.5), (1.5, 2.0, 1.0)],
    4: [(r,) * 4 for r in RATES]
    + [(0.5, 2.0, 1.0, 1.5), (1.5, 0.5, 0.5, 1.0), (2.0, 1.0, 0.5, 0.5), (1.0, 1.0, 2.0, 2.0)],
    8: [(r,) * 8 for r in (0.5, 1.0)]
    + [(1.0, 0.5) * 4, (2.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)],
}

# The K=4 convolution and nested-quadrature queries cost 10 ms to 1.2 s
# depending on rates and SNR.  Drawing them per seed would make
# queries_per_s measure the draw, so they are one fixed design, the same on
# every seed (only their position in the list is shuffled).
K4_DESIGN = (
    ("outage", "xp", "upper", (1.0, 1.0, 1.0, 1.0), 10.0),
    ("outage", "xp", "upper", (0.5, 2.0, 1.0, 1.5), 30.0),
    ("outage", "xp", "upper", (2.0, 2.0, 2.0, 2.0), 20.0),
    ("outage", "inr", "upper", (1.0, 1.0, 1.0, 1.0), 30.0),
    ("outage", "inr", "upper", (0.5, 2.0, 1.0, 1.5), 10.0),
    ("outage", "inr", "upper", (2.0, 2.0, 2.0, 2.0), 0.0),
    ("throughput", "inr", "analytical", (1.0, 1.0, 1.0, 1.0), 20.0),
    ("throughput", "inr", "analytical", (0.5, 2.0, 1.0, 1.5), 0.0),
    ("throughput", "inr", "analytical", (2.0, 2.0, 2.0, 2.0), 30.0),
    ("outage", "xp", "oracle", (1.0, 1.0, 1.0, 1.0), 0.0),
    ("outage", "xp", "oracle", (0.5, 2.0, 1.0, 1.5), 20.0),
    ("throughput", "xp", "analytical", (2.0, 2.0, 2.0, 2.0), 30.0),
    ("throughput", "xp", "analytical", (1.0, 1.0, 1.0, 1.0), 10.0),
)

# Seed-drawn classes of point-analytic: (cmd, scheme, method, K choices, count).
ANALYTIC_DRAWN = (
    ("outage", "xp", "exact", (1,), 4),
    ("outage", "xp", "exact", (2,), 6),
    ("outage", "xp", "oracle", (2,), 4),
    ("outage", "xp", "upper", (2,), 2),
    ("outage", "inr", "upper", (2,), 2),
    ("outage", "xp", "lower", (2, 3, 4), 4),
    ("outage", "xp", "asymptotic", (2, 3, 4), 6),
    ("throughput", "xp", "analytical", (2,), 4),
    ("throughput", "inr", "analytical", (2,), 4),
    ("outage", "xp", "oracle", (3,), 2),
    ("outage", "xp", "upper", (3,), 1),
    ("outage", "inr", "upper", (3,), 1),
    ("throughput", "xp", "analytical", (3,), 1),
    ("throughput", "inr", "analytical", (3,), 1),
)

MC_CLASSES = (("outage", "xp"), ("outage", "inr"), ("throughput", "xp"), ("throughput", "inr"))

# The ROADMAP reference sweep.
SWEEP_SNR = tuple(float(s) for s in range(0, 31, 5))
SWEEP_RATES = (1.0, 1.0, 1.0)
SWEEP_METHODS = ("lower", "upper", "oracle", "asymptotic", "mc")
SWEEP_WORKERS = 2


def fmt_num(x: float) -> str:
    return "%g" % x


@dataclass(frozen=True)
class Query:
    """One CLI point query."""

    cmd: str
    scheme: str
    method: str
    rates: tuple
    snr_db: float
    workers: int = 1
    seed: Optional[int] = None

    @property
    def K(self) -> int:
        return len(self.rates)

    @property
    def trials(self) -> int:
        return MC_TRIALS if self.method == "mc" else 0

    def argv(self) -> list:
        out = [
            self.cmd, "--scheme", self.scheme, "--method", self.method,
            "--rates", ",".join(fmt_num(r) for r in self.rates),
            "--snr-db", fmt_num(self.snr_db),
        ]
        if self.method == "mc":
            out += ["--trials", str(MC_TRIALS), "--seed", str(self.seed),
                    "--workers", str(self.workers)]
        return out

    def quantity(self) -> str:
        """Which reference quantity this query estimates."""
        if self.cmd == "throughput":
            return f"{self.scheme}_chain"
        if self.method in ("lower", "asymptotic"):
            return self.method
        if self.method == "upper" or (self.method == "mc" and self.scheme == "inr"):
            return "ir_outage"
        return "xp_outage"


def ref_key(quantity: str, rates, snr_db: float) -> str:
    return f"{quantity}|{','.join(fmt_num(r) for r in rates)}|{fmt_num(snr_db)}"


def query_key(q: Query) -> str:
    return ref_key(q.quantity(), q.rates, q.snr_db)


# --------------------------------------------------------------- generators

def analytic_queries(seed: int) -> list:
    rng = random.Random(f"point-analytic:{seed}")
    out = [Query(cmd, scheme, method, rates, snr) for cmd, scheme, method, rates, snr in K4_DESIGN]
    for cmd, scheme, method, ks, count in ANALYTIC_DRAWN:
        for _ in range(count):
            k = rng.choice(ks)
            out.append(Query(cmd, scheme, method, rng.choice(RATE_VECTORS[k]),
                             rng.choice(SNR_ANALYTIC)))
    rng.shuffle(out)
    return out


def mc_queries(seed: int) -> list:
    """Each drawn point runs at 1 and 2 workers with the same program seed."""
    rng = random.Random(f"point-mc:{seed}")
    out = []
    for k in MC_K:
        for cmd, scheme in MC_CLASSES:
            for _ in range(MC_DRAWS[k]):
                rates = rng.choice(RATE_VECTORS[k])
                snr = rng.choice(SNR_MC)
                prog_seed = rng.randrange(2 ** 31)
                for workers in (1, MAX_WORKERS):
                    out.append(Query(cmd, scheme, "mc", rates, snr, workers, prog_seed))
    return out


def sweep_config(seed: int) -> str:
    """The reference sweep config; the workload seed is its Monte Carlo seed."""
    return (
        "quantity = outage\naxis = snr_db\n"
        f"values = {','.join(fmt_num(v) for v in SWEEP_SNR)}\n"
        f"rates = {','.join(fmt_num(r) for r in SWEEP_RATES)}\n"
        f"methods = {','.join(SWEEP_METHODS)}\nschemes = xp\n"
        f"trials = {MC_TRIALS}\nseed = {seed % 2 ** 31}\n"
    )


def build(workload: str, seed: int):
    """The workload's inputs: a query list, or the sweep config text."""
    if workload == "point-analytic":
        return analytic_queries(seed)
    if workload == "point-mc":
        return mc_queries(seed)
    if workload == "sweep-ref":
        return sweep_config(seed)
    if workload == "selftest":
        return [["selftest"]]
    raise ValueError(f"unknown workload {workload!r}")


def all_reference_keys() -> set:
    """Every reference any seed of any workload can ask for."""
    keys = set()
    for cmd, scheme, method, rates, snr in K4_DESIGN:
        keys.add(query_key(Query(cmd, scheme, method, rates, snr)))
    for cmd, scheme, method, ks, _ in ANALYTIC_DRAWN:
        for k in ks:
            for rates in RATE_VECTORS[k]:
                for snr in SNR_ANALYTIC:
                    keys.add(query_key(Query(cmd, scheme, method, rates, snr)))
    for k in MC_K:
        for cmd, scheme in MC_CLASSES:
            for rates in RATE_VECTORS[k]:
                for snr in SNR_MC:
                    keys.add(query_key(Query(cmd, scheme, "mc", rates, snr)))
    for snr in SWEEP_SNR:
        for quantity in ("xp_outage", "ir_outage", "lower", "asymptotic"):
            keys.add(ref_key(quantity, SWEEP_RATES, snr))
    return keys


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)["refs"]


# ------------------------------------------------------------------- checks

# Deterministic methods: |value - ref| <= ABS + REL * |ref|.  Closed forms
# are limited only by the 9 significant digits the CLI prints; quadrature
# and convolution paths by the tolerances they are documented to meet
# (1e-10 absolute, and the 1e-6 relative the convolution accepts when it
# stops short of its target).
CLOSED_FORM_TOL = (0.0, 1e-7)
NUMERICAL_TOL = (1e-10, 2e-6)
MC_Z = 6.0  # sigmas; a false alarm has probability about 2e-9 per check


def parse_record(stdout: str) -> dict:
    """key=value fields of the CLI's first output line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return dict(tok.split("=", 1) for tok in lines[0].split()[1:] if "=" in tok)


def throughput_from_chain(scheme: str, rates, chain) -> float:
    """Renewal-reward throughput of an outage chain (P_0 = 1)."""
    expected_slots = 1.0 + sum(chain[:-1])
    if scheme == "inr":
        return rates[0] * (1.0 - chain[-1]) / expected_slots
    reward, prev, cum = 0.0, 1.0, 0.0
    for r, p in zip(rates, chain):
        cum += r
        reward += cum * (prev - p)
        prev = p
    return reward / expected_slots


def throughput_sd(scheme: str, rates, chain, trials: int) -> float:
    """Delta-method standard deviation of a Monte Carlo throughput estimate."""
    eta = throughput_from_chain(scheme, rates, chain)
    k_rounds = len(rates)
    expected_slots = 1.0 + sum(chain[:-1])
    var, prev, cum = chain[-1] * (eta * k_rounds) ** 2, 1.0, 0.0
    for k, (r, p) in enumerate(zip(rates, chain), start=1):
        cum += r
        reward = rates[0] if scheme == "inr" else cum
        var += (prev - p) * (reward - eta * k) ** 2
        prev = p
    return math.sqrt(max(var, 0.0) / trials) / expected_slots


def binomial_tolerance(p_ref: float, trials: int, n_ref: Optional[int]) -> float:
    """Allowed |p_hat - p_ref| for a trials-sample estimate of p_ref.

    When the reference is itself a Monte Carlo estimate from n_ref trials,
    its own variance is added and p is floored at one event in n_ref.
    """
    inv = 1.0 / trials
    p = p_ref
    if n_ref:
        inv += 1.0 / n_ref
        p = max(p, 1.0 / n_ref)
    return MC_Z * math.sqrt(p * (1.0 - p) * inv) + 1.0 / trials


def check_value(q: Query, value: float, ref: dict) -> Optional[str]:
    """None when value matches the reference, else a one-line reason."""
    if not math.isfinite(value):
        return f"non-finite value {value}"
    if q.cmd == "throughput":
        expect = throughput_from_chain(q.scheme, q.rates, ref["chain"])
    else:
        expect = ref["value"]
    if q.method == "mc":
        if q.cmd == "throughput":
            inv_share = 1.0 + (MC_TRIALS / ref["n_ref"] if ref.get("n_ref") else 0.0)
            sd = throughput_sd(q.scheme, q.rates, ref["chain"], MC_TRIALS)
            # plus the most one cycle's reward can move the ratio
            tol = MC_Z * sd * math.sqrt(inv_share) + max(q.rates) * len(q.rates) / MC_TRIALS
        else:
            tol = binomial_tolerance(expect, MC_TRIALS, ref.get("n_ref"))
    else:
        closed = q.method in ("lower", "asymptotic") or (q.method == "exact" and q.K == 1)
        abs_tol, rel_tol = CLOSED_FORM_TOL if closed else NUMERICAL_TOL
        tol = abs_tol + rel_tol * abs(expect)
    if abs(value - expect) <= tol:
        return None
    return f"value {value!r} vs reference {expect!r} (tolerance {tol:.3g})"


def check_sweep_csv(text: str, refs: dict, seed: int) -> list:
    """Reasons the sweep CSV is wrong; empty when every row checks out."""
    rows = list(csv.reader(text.splitlines()))[1:]
    expected_rows = len(SWEEP_SNR) * len(SWEEP_METHODS)
    if len(rows) != expected_rows:
        return [f"expected {expected_rows} rows, got {len(rows)}"]
    problems = []
    for snr, _, _, scheme, method, value, _, row_seed in rows:
        if int(row_seed) != seed % 2 ** 31:
            problems.append(f"row seed {row_seed} != {seed % 2 ** 31}")
            continue
        q = Query("outage", scheme, method, SWEEP_RATES, float(snr), 1, int(row_seed))
        reason = check_value(q, float(value), refs[query_key(q)])
        if reason:
            problems.append(f"sweep {method} @ {snr} dB: {reason}")
    return problems
