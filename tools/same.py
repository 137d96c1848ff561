"""Equal behaviour of two source trees on a committed query set.

    python3 tools/same.py BASE CHANGE

BASE and CHANGE are two checkouts of the repository (``git archive`` or
``git worktree``).  In each tree one fresh interpreter, with that tree's
``src`` on ``PYTHONPATH``, runs every query of ``queries`` through
``xpharq.cli.main`` and records its standard output, standard error and
exit code.  The set is one point query per method-table entry and scheme
at K = 2, 3 and 4 (1 bit a round, 10 dB), the Monte Carlo entries at
65,537 trials (two blocks) on 1 and 2 workers, the ``hbar`` dump at the
same K, the corner points of ``CORNERS`` for every deterministic entry and
scheme, the high-SNR points of ``HIGH_SNR``, the Monte Carlo entries at
5 and 65,535 trials (part of one block) at K = 2, ``selftest``, and the
reference sweep (K = 3, 0-30 dB, 1e6 trials) at 1, 2 and 3 workers.  A
point query's ``seconds=`` field reads a clock, so it is dropped; the rest
compares as text, and nothing else depends on the host.  The script prints ``identical`` and exits 0,
or prints a unified diff of the two records and exits 1.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

# Every (quantity, method) of the method table; each runs under both
# schemes, so an entry that a scheme cannot run shows its usage error.
ENTRIES = (
    ("outage", "exact"), ("outage", "asymptotic"), ("outage", "lower"), ("outage", "upper"),
    ("outage", "mc"), ("outage", "oracle"), ("throughput", "analytical"), ("throughput", "mc"),
)
SCHEMES = ("xp", "inr")
ROUNDS = (2, 3, 4)
MC_TRIALS = 65_537
# Rates and SNR in dB where 2^R - 1 nears its rounding and where the SNR
# nears a double's range.
CORNERS = (("1e-12,1e-12", "-100"), ("60,60", "300"))
# Recursions at high SNR whose ladders stop by the gap between passes; the
# last raises ConvergenceError, so its error line and exit 1 compare too.
HIGH_SNR = (
    ["outage", "--method", "upper", "--rates", "8,8,8", "--snr-db", "40"],
    ["outage", "--method", "oracle", "--rates", "15,15,15,15", "--snr-db", "300"],
    ["outage", "--method", "upper", "--rates", "8,8,8,8", "--snr-db", "60"],
)

# The reference sweep of the benchmark's sweep-ref workload at seed 1.
SWEEP_CONFIG = """\
quantity = outage
axis = snr_db
values = 0,5,10,15,20,25,30
rates = 1,1,1
methods = lower,upper,oracle,asymptotic,mc
schemes = xp
trials = 1000000
seed = 1
"""

# Runs in each tree: reads the argv lists as JSON on stdin and writes one
# {"out", "err", "exit"} per query as JSON on stdout.
DRIVER = """\
import contextlib, io, json, sys, traceback
from xpharq.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = "raised " + traceback.format_exception_only(exc)[-1].strip()
    results.append({"out": out.getvalue(), "err": err.getvalue(), "exit": code})
json.dump(results, sys.__stdout__)
"""


def queries(config_path: str) -> list[list[str]]:
    """The committed query set, the sweep reading its config at ``config_path``."""
    out = []
    for k in ROUNDS:
        point = ["--rates", ",".join(["1"] * k), "--snr-db", "10"]
        for quantity, method in ENTRIES:
            for scheme in SCHEMES:
                argv = [quantity, "--scheme", scheme, "--method", method] + point
                if method != "mc":
                    out.append(argv)
                    continue
                for workers in ("1", "2"):
                    out.append(argv + ["--trials", str(MC_TRIALS), "--seed", "1",
                                       "--workers", workers])
        out.append(["hbar", "--rates", ",".join(["1"] * k)])
    for rates, snr_db in CORNERS:
        for quantity, method in ENTRIES:
            if method != "mc":
                out += [[quantity, "--scheme", scheme, "--method", method, "--rates", rates,
                         "--snr-db", snr_db] for scheme in SCHEMES]
    out += HIGH_SNR
    for quantity, method in ENTRIES:
        if method == "mc":
            out += [[quantity, "--scheme", scheme, "--method", "mc", "--rates", "1,1",
                     "--snr-db", "10", "--trials", trials, "--seed", "1"]
                    for scheme in SCHEMES for trials in ("5", "65535")]
    out.append(["selftest"])
    out += [["sweep", "--config", config_path, "--workers", w] for w in ("1", "2", "3")]
    return out


def record(tree: str, argvs: list[list[str]]) -> list[str]:
    """The lines that ``argvs`` print in ``tree``: per query its command, exit
    code, standard output without ``seconds=`` and standard error."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, "-c", DRIVER], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=tree, env=env)
    if proc.returncode != 0:
        return [f"the query driver exited {proc.returncode}:"] + proc.stderr.splitlines()
    lines = []
    for argv, result in zip(argvs, json.loads(proc.stdout)):
        lines.append(f"$ xpharq {' '.join(argv)}  [exit {result['exit']}]")
        lines += [re.sub(r" seconds=\S+", "", line) for line in result["out"].splitlines()]
        lines += ["stderr: " + line for line in result["err"].splitlines()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        config = os.path.join(scratch, "reference.cfg")
        with open(config, "w", encoding="utf-8") as f:
            f.write(SWEEP_CONFIG)
        argvs = queries(config)
        base, change = record(args.base, argvs), record(args.change, argvs)
    if base == change:
        print("identical")
        return 0
    sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
        base, change, args.base, args.change, lineterm=""))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
