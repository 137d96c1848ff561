"""Paired A/B runs of the benchmark on two source trees.

    python3 tools/ab.py BASE CHANGE --workload point-mc --pairs 10 --seed 1 --label NAME

BASE and CHANGE are two checkouts of the repository (``git archive`` or
``git worktree``).  Each pair runs ``benchmarks/run.py`` once on each tree,
every run in a fresh interpreter started in that tree, in ABBA order so that
a drift of the host over time favours neither side.  The record goes to
``BENCH_<label>.json`` at the repository root holding this script: both
sides' raw JSON records, and for each end-to-end metric of
``BENCHMARK.json`` the median over pairs of log(change / base), a bootstrap
95 % interval of that median, how many pairs favour the change, and a
verdict: ``improved`` or ``worse`` where the interval excludes 0, else
``unresolved`` (Kalibera & Jones, "Rigorous benchmarking in reasonable
time", ISMM 2013).  A run whose record says ``correct: false`` measured a
broken program, so if either side has one, every verdict is
``incorrect``; the record keeps each side's count of such runs.  A run
that exits non-zero or whose last line is no JSON record is kept as one
such run, with its exit code, and the series goes on.  Each run
lasts the ``run_seconds`` of
``BENCHMARK.json`` plus about 2 s of set-up probes: ten pairs at 20 s a run
take about 8 minutes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# resamples of the pairs for the bootstrap interval, drawn from a fixed seed
# so that one record always yields one interval
BOOTSTRAP_DRAWS = 10_000


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON record, the last line of standard output, of one benchmark run
    in ``tree``; for a run that exits non-zero or prints no record, ``{"correct":
    false, "exit_code": ..., "stderr": its last 2000 characters}``."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if proc.returncode != 0 or not isinstance(record, dict) or "metrics" not in record:
        return {"correct": False, "exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    return record


def bootstrap_interval(ratios: list) -> tuple[float, float]:
    """The 2.5 and 97.5 percentiles of the median of ``ratios`` resampled with replacement."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_DRAWS))
    return medians[int(0.025 * BOOTSTRAP_DRAWS)], medians[int(0.975 * BOOTSTRAP_DRAWS) - 1]


def failed_runs(records: list) -> int:
    """How many of ``records`` report a wrong or failed item."""
    return sum(not record.get("correct", True) for record in records)


def summarise(base: list, change: list, metrics: list) -> dict:
    """Per metric: the median paired log-ratio change / base, its bootstrap
    95 % interval, the pairs favouring the change, and the verdict, which
    is ``incorrect`` wherever a run of either side was.  A pair with a run
    that failed outright has no metrics and is left out of the figures;
    where no pair is left, a metric has only its verdict and pair count."""
    broken = failed_runs(base) + failed_runs(change)
    measured = [(b["metrics"], c["metrics"]) for b, c in zip(base, change)
                if "metrics" in b and "metrics" in c]
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        ratios = [math.log(c[name]["value"] / b[name]["value"]) for b, c in measured]
        if not ratios:
            out[name] = {"verdict": "incorrect", "pairs": 0}
            continue
        lo, hi = bootstrap_interval(ratios)
        if broken:
            verdict = "incorrect"
        elif lo <= 0.0 <= hi:
            verdict = "unresolved"
        else:
            verdict = "improved" if sign * hi < 0.0 else "worse"
        out[name] = {
            "median_log_ratio": statistics.median(ratios),
            "interval_95": [lo, hi],
            "verdict": verdict,
            "favouring_change": sum(sign * r < 0.0 for r in ratios),
            "pairs": len(ratios),
            "base_median": statistics.median(b[name]["value"] for b, _ in measured),
            "change_median": statistics.median(c[name]["value"] for _, c in measured),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    trees = {"base": args.base, "change": args.change}
    records = {"base": [], "change": []}
    for pair in range(args.pairs):
        for side in ("base", "change") if pair % 2 == 0 else ("change", "base"):
            record = run_once(trees[side], args.workload, args.seed, seconds)
            if "exit_code" in record:
                print(f"pair {pair}: {side} run failed with exit code {record['exit_code']}",
                      file=sys.stderr)
            elif not record["correct"]:
                print(f"pair {pair}: {side} run had {record['failed']} failed items",
                      file=sys.stderr)
            records[side].append(record)
        print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr)
    summary = summarise(records["base"], records["change"], metrics)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "pairs": args.pairs, "order": "ABBA",
        "failed_runs": {side: failed_runs(records[side]) for side in records},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "summary": summary, "base": records["base"], "change": records["change"],
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    for name, s in summary.items():
        if not s["pairs"]:
            print(f"{name}: no pair measured: {s['verdict']}")
            continue
        lo, hi = s["interval_95"]
        print(f"{name}: {s['base_median']:.4g} -> {s['change_median']:.4g}, median log-ratio "
              f"{s['median_log_ratio']:+.3f} [{lo:+.3f}, {hi:+.3f}], {s['favouring_change']} "
              f"of {s['pairs']} pairs favour the change: {s['verdict']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
