"""The xpharq benchmark: one workload per run, closed loop, one client.

    python3 benchmarks/run.py --workload point-analytic --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src`` (no
install needed).  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs an untraced, a traced and an untraced pass and reports
the per-layer metrics and the tracing overhead.  The gated item and set-up
times are CPU time (user + system, the program's child processes included):
on a shared host a busy virtual CPU loses a varying share of its wall time
to other tenants, which wall time counts and CPU time does not.  Wall-clock
latency and throughput are printed beside them.  Human-readable lines come
first; the last line of standard output is one JSON object.  Every item's
output is checked against ``refs.json``; a failed check counts the item as
failed.  Spans of a traced run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
TAIL_MIN = 10  # a percentile is reported only with this many samples beyond it


# ------------------------------------------------------------------ helpers

def tail_percentile(values, q: float):
    """Nearest-rank q-quantile and the number of samples beyond it.

    Returns (None, beyond) when fewer than TAIL_MIN samples lie beyond it.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < TAIL_MIN:
        return None, beyond
    return ordered[rank - 1], beyond


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def children_cpu() -> float:
    """CPU seconds of every child process that has ended and been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(workload: str, seed: int, importtime: bool):
    """A fresh interpreter importing xpharq.cli and building the inputs:
    (CPU seconds, wall seconds, stderr)."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import xpharq.cli, workloads; "
            f"workloads.build({workload!r}, {seed})")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    cpu = children_cpu()
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    wall = time.perf_counter() - start
    cpu = children_cpu() - cpu
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return cpu, wall, proc.stderr


def run_cli(cli, argv):
    """One in-process CLI call: (wall s, CPU s, exit code or exception text, stdout).

    CPU time is the whole process's, so threads the call starts are counted.
    """
    out = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an item that raises is a failed item, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, time.process_time() - cpu, rc, out.getvalue()


class Tally:
    def __init__(self):
        self.latencies = []  # wall seconds per timed item
        self.cpu = []        # CPU seconds per timed item
        self.by_item = {}    # item index in the pass -> its wall times, one per pass
        self.cpu_by_item = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.trials = 0

    def record(self, seconds, cpu, problem, item=None):
        """Count one attempted item; item=None leaves it out of the timings."""
        self.attempted += 1
        if item is not None:
            self.latencies.append(seconds)
            self.cpu.append(cpu)
            self.by_item.setdefault(item, []).append(seconds)
            self.cpu_by_item.setdefault(item, []).append(cpu)
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


# ------------------------------------------------------ in-process workloads

class PointRunner:
    """point-analytic, point-mc and selftest: in-process ``xpharq.cli.main``."""

    def __init__(self, workload, seed, refs):
        import xpharq.cli
        self.cli = xpharq.cli
        self.workload = workload
        self.items = wl.build(workload, seed)
        self.argvs = [item if workload == "selftest" else item.argv() for item in self.items]
        self.refs = refs

    def check(self, item, rc, stdout, paired):
        if rc != 0:
            return f"{item}: exit {rc}"
        if self.workload == "selftest":
            if "selftest: ok" not in stdout or "FAIL" in stdout:
                return "selftest reported failures"
            return None
        try:
            value = float(wl.parse_record(stdout)["value"])
        except (ValueError, KeyError) as exc:
            return f"{item.argv()}: unreadable output ({exc})"
        problem = wl.check_value(item, value, self.refs[wl.query_key(item)])
        if item.method == "mc":
            twin = paired.setdefault((item.cmd, item.scheme, item.rates, item.snr_db, item.seed), value)
            if twin != value:
                problem = f"workers=1 gave {twin!r}, workers={item.workers} gave {value!r}"
        return f"{item.argv()}: {problem}" if problem else None

    def one_pass(self, tally, tracer=None):
        paired = {}
        for qid, (item, argv) in enumerate(zip(self.items, self.argvs)):
            if tracer is not None:
                tracer.qid = qid
            seconds, cpu, rc, stdout = run_cli(self.cli, argv)
            tally.record(seconds, cpu, self.check(item, rc, stdout, paired), qid)
            tally.trials += getattr(item, "trials", 0)

    def warm_up(self):
        """Run one item of each kind untimed: a first call runs slower
        (allocator and cache growth), by about 30 % over a whole pass."""
        seen = set()
        for item, argv in zip(self.items, self.argvs):
            kind = argv[0] if self.workload == "selftest" else (item.cmd, item.method, item.K, item.workers)
            if kind not in seen:
                seen.add(kind)
                run_cli(self.cli, argv)

    def measure(self, seconds):
        self.warm_up()
        tally = Tally()
        start = time.perf_counter()
        while True:
            self.one_pass(tally)
            if time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return tally, wall, rss

    def timed_pass(self, tally, tracer=None):
        start = time.perf_counter()
        if tracer is None:
            self.one_pass(tally)
            return time.perf_counter() - start
        tracer.install()
        try:
            self.one_pass(tally, tracer)
            return time.perf_counter() - start
        finally:
            tracer.uninstall()

    def traced(self):
        """Untraced, traced, untraced passes; overhead is against the untraced mean."""
        self.warm_up()
        tally = Tally()
        tracer = tracing.Tracer()
        before = self.timed_pass(tally)
        traced = self.timed_pass(tally, tracer)
        after = self.timed_pass(tally)
        return tally, (before + after) / 2, traced, tracer.spans, tracer.counters, len(self.items)


# ------------------------------------------------------- subprocess workload

class SweepRunner:
    """sweep-ref: ``python -m xpharq.cli sweep`` as a fresh subprocess."""

    def __init__(self, seed, refs):
        self.seed = seed
        self.refs = refs
        self.config = os.path.join(OUT_DIR, "sweep-ref.cfg")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(wl.sweep_config(seed))
        self.reference_csv = None

    def invoke(self, workers, trace_path=None):
        """(wall s, CPU s, problem, peak RSS MB) of one sweep; CPU time and
        peak RSS cover the process tree."""
        out_csv = os.path.join(OUT_DIR, f"sweep-w{workers}.csv")
        args = ["sweep", "--config", self.config, "--out", out_csv, "--workers", str(workers)]
        if trace_path:
            cmd = [sys.executable, os.path.join(HERE, "trace_host.py"), trace_path, "--"] + args
        else:
            cmd = [sys.executable, "-m", "xpharq.cli"] + args
        with open(os.path.join(OUT_DIR, "sweep.stderr"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # wait4 reports the child's CPU time and peak RSS, its pool
            # workers included
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
            cpu = usage.ru_utime + usage.ru_stime
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        if proc.returncode != 0:
            return seconds, cpu, f"sweep --workers {workers}: exit {proc.returncode}: {stderr[-300:]}", 0.0
        with open(out_csv, "rb") as fh:
            data = fh.read()
        if self.reference_csv is None:
            problems = wl.check_sweep_csv(data.decode(), self.refs, self.seed)
            if problems:
                return seconds, cpu, "; ".join(problems[:3]), 0.0
            self.reference_csv = data
        elif data != self.reference_csv:
            return seconds, cpu, f"sweep --workers {workers}: CSV differs from --workers 1", 0.0
        return seconds, cpu, None, usage.ru_maxrss / 1024.0

    def measure(self, seconds):
        tally = Tally()
        _, _, problem, _ = self.invoke(1)
        tally.record(0.0, 0.0, problem)
        rss = 0.0
        start = time.perf_counter()
        while True:
            took, cpu, problem, peak = self.invoke(wl.SWEEP_WORKERS)
            tally.record(took, cpu, problem, 0)
            rss = max(rss, peak)
            tally.trials += len(wl.SWEEP_SNR) * wl.MC_TRIALS
            if time.perf_counter() - start >= seconds:
                break
        return tally, time.perf_counter() - start, rss

    def traced(self):
        """Untraced, traced, untraced sweeps at 1 and 2 workers."""
        tally = Tally()
        untraced = traced = 0.0
        spans = []
        counters = {"cheb.interpolations": 0, "cheb.degree_max": 0}
        for phase in ("before", "traced", "after"):
            for qid, workers in enumerate((1, wl.SWEEP_WORKERS)):
                path = os.path.join(OUT_DIR, f"sweep-trace-w{workers}.json")
                took, cpu, problem, _ = self.invoke(workers, path if phase == "traced" else None)
                tally.record(took, cpu, problem, qid)
                if phase != "traced":
                    untraced += took / 2
                    continue
                traced += took
                with open(path, encoding="utf-8") as fh:
                    part = json.load(fh)
                offset = len(spans)
                for name, start, end, parent, _, attrs in part["spans"]:
                    spans.append([name, start, end, None if parent is None else parent + offset,
                                  qid, attrs])
                counters["cheb.interpolations"] += part["counters"]["cheb.interpolations"]
                counters["cheb.degree_max"] = max(counters["cheb.degree_max"],
                                                  part["counters"]["cheb.degree_max"])
        return tally, untraced, traced, spans, counters, 2


# --------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def typical_pass(by_item):
    """Seconds of a pass in which every item takes its median time.

    Each item of the pass runs once per pass; taking its median over the
    passes keeps a burst of load from elsewhere on the machine, which can
    slow a whole pass by a third, out of the figure.
    """
    return sum(statistics.median(v) for v in by_item.values())


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, tally, wall, rss, probes):
    """Print every end-to-end figure; return the gated ones (CPU time, RSS)."""
    items = len(tally.by_item)
    metrics = {
        "setup_s": metric(statistics.median(cpu for cpu, _, _ in probes), "s"),
        "cpu_ms_p50": metric(1e3 * statistics.median(tally.cpu), "ms"),
        "cpu_ms_per_item": metric(1e3 * typical_pass(tally.cpu_by_item) / items, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    n = len(tally.latencies)
    passes = n // items
    queries_per_s = items / typical_pass(tally.by_item)
    print(f"workload {args.workload} seed {args.seed}: {n} timed items in {wall:.2f} s, "
          "closed loop, 1 client")
    print(f"setup_s {metrics['setup_s']['value']:.4f} s CPU (median of {len(probes)} fresh "
          f"interpreters; wall {statistics.median(w for _, w, _ in probes):.4f} s)")
    print(f"cpu_ms_p50 {metrics['cpu_ms_p50']['value']:.4f} ms (median CPU time per item, n={n})")
    print(f"cpu_ms_per_item {metrics['cpu_ms_per_item']['value']:.4f} ms (mean over the "
          f"{items} items of a pass of each item's median over {passes} passes)")
    print(f"peak_rss_mb {rss:.3f} MB")
    print("wall clock, not gated:")
    print(f"latency_p50_ms {1e3 * statistics.median(tally.latencies):.4f} ms (median, n={n})")
    p90, beyond = tail_percentile(tally.latencies, 0.9)
    if p90 is None:
        print(f"latency_p90_ms omitted: only {beyond} of n={n} samples lie beyond p90 (need {TAIL_MIN})")
    else:
        print(f"latency_p90_ms {1e3 * p90:.4f} ms (n={n}, {beyond} beyond)")
    print(f"queries_per_s {queries_per_s:.4f} 1/s (per-item medians over {passes} passes; "
          f"{n / wall:.4f} 1/s over the whole run)")
    if tally.trials:
        print(f"mtrials_per_s {tally.trials / n * queries_per_s / 1e6:.4f} "
              f"Mtrials/s ({tally.trials} Monte Carlo trials)")
    return metrics


def per_layer(args, result, import_ms):
    _, untraced, traced, spans, counters, items = result
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    tracing.write_trace(trace_path, spans, counters)
    values = tracing.layer_metrics(spans, counters, items)
    for module in tracing.IMPORT_MODULES:
        values[f"setup.import_ms.{module}"] = import_ms.get(module, 0.0)
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_frac"] = (traced - untraced) / untraced
    print(f"workload {args.workload} seed {args.seed}: traced pass of {items} items, "
          f"{len(spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
    print(f"tracing overhead: traced {traced:.3f} s - untraced {untraced:.3f} s = "
          f"{traced - untraced:.3f} s")
    metrics = {}
    for name, unit in tracing.UNITS:
        metrics[name] = metric(values[name], unit)
        print(f"{name} {values[name]:.6g} {unit}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "xpharq", "cli.py")):
        print(f"error: no xpharq sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, SRC)
    refs = wl.load_refs()

    probes = [setup_probe(args.workload, args.seed, args.trace == 1)
              for _ in range(SETUP_PROBES)]
    if args.workload == "sweep-ref":
        runner = SweepRunner(args.seed, refs)
    else:
        runner = PointRunner(args.workload, args.seed, refs)

    if args.trace:
        per_probe = [tracing.parse_importtime(err) for _, _, err in probes]
        import_ms = {m: statistics.median(p.get(m, 0.0) for p in per_probe)
                     for m in tracing.IMPORT_MODULES}
        result = runner.traced()
        tally = result[0]
        metrics = per_layer(args, result, import_ms)
    else:
        tally, wall, rss = runner.measure(args.seconds)
        metrics = end_to_end(args, tally, wall, rss, probes)

    print(f"error_frac {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} attempted items failed)")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
