"""In-memory span tracing of the xpharq layers, installed from outside.

``install`` replaces every public function of each layer module (its
``__all__``, or every name without a leading underscore) with a wrapper, in every ``xpharq`` namespace that holds it,
so calls between modules and within a module are both seen and no source
file changes.  A span is (name, start, end, parent, query id, attrs);
spans stay in memory until ``write_trace``.  ``layer_metrics`` turns them into
the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

import numpy as np

LAYERS = ("cli", "exact", "quadrature", "bounds", "asymptotic", "simulate", "sweep")
# Private functions that carry a per-layer metric of their own.
EXTRA = {"sweep": ("_compute_row",)}
CONTOUR = {"exact.phi_foxh", "exact.foxh_h11_incomplete", "exact.upper_incomplete_gamma_complex"}
SWEEP_METHODS = ("lower", "upper", "oracle", "asymptotic", "mc")
IMPORT_MODULES = (
    "xpharq", "xpharq.core", "xpharq.quadrature", "xpharq.exact", "xpharq.asymptotic",
    "xpharq.bounds", "xpharq.simulate", "xpharq.sweep", "xpharq.cli", "scipy.special",
)
# Every per-layer metric, in report order, with its unit.
UNITS = (
    [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [
        ("exact.k2_exact_ms", "ms"), ("exact.phi_quadrature.evals", "count"),
        ("exact.contour_ms", "ms"), ("exact.contour.gamma_orders", "count"),
        ("quadrature.integrate.calls", "count"), ("quadrature.integrate.evals", "count"),
        ("quadrature.integrate.failed", "count"), ("quadrature.integrate.wasted_frac", "ratio"),
        ("quadrature.oracle_k3_ms", "ms"), ("quadrature.oracle_k4_ms", "ms"),
        ("quadrature.hbar_oracle_ms", "ms"),
        ("bounds.upper_k3_ms", "ms"), ("bounds.upper_k4_ms", "ms"), ("bounds.ir_chain_k4_ms", "ms"),
        ("bounds.cheb.interpolations", "count"), ("bounds.cheb.degree_max", "count"),
        ("asymptotic.ms", "ms"),
        ("simulate.mtrials_per_s.w1", "Mtrials/s"), ("simulate.mtrials_per_s.w2", "Mtrials/s"),
        ("simulate.scaling_eff_w2", "ratio"), ("simulate.xp_chain_k4_ms", "ms"),
        ("sweep.run_w1_s", "s"), ("sweep.run_w2_s", "s"), ("sweep.pool_speedup", "ratio"),
    ]
    + [(f"sweep.row_ms.{m}", "ms") for m in SWEEP_METHODS]
    + [("sweep.write_csv_ms", "ms")]
    + [(f"setup.import_ms.{m}", "ms") for m in IMPORT_MODULES]
    + [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio")]
)


def _rounds(args, kwargs):
    return {"K": args[0].K}


def _sim(args, kwargs):
    return {"workers": args[0].workers, "trials": args[0].trials}


ATTRS = {
    "quadrature.xp_outage_quadrature": _rounds,
    "bounds.outage_upper_ir": _rounds,
    "bounds.ir_outage_chain": _rounds,
    "simulate.xp_outage_chain": _rounds,
    "simulate.estimate_outage": _sim,
    "simulate.estimate_throughput": _sim,
    "exact.upper_incomplete_gamma_complex": lambda a, kw: {"orders": int(np.size(a[0]))},
    "sweep.run_sweep": lambda a, kw: {"workers": kw.get("workers", a[1] if len(a) > 1 else 1)},
    "sweep._compute_row": lambda a, kw: {"method": a[0][3]},
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent, qid, attrs]
        self.stack = []
        self.qid = None
        self.counters = {"cheb.interpolations": 0, "cheb.degree_max": 0}
        self._saved = []

    # ------------------------------------------------------------ recording
    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else None
            if name == "quadrature.integrate_adaptive":
                args, attrs = tracer._count_integrand(args)
            parent = tracer.stack[-1] if tracer.stack else None
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), None, parent, tracer.qid, attrs]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if attrs is not None:
                    attrs["failed"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if attrs is not None and "box" in attrs:
                    attrs["evals"] = attrs.pop("box")[0]

        return wrapper

    def _count_integrand(self, args):
        """Count abscissae at which the integrand returned, failed calls too."""
        box = [0]
        f = args[0]

        def counted(x):
            out = f(x)
            box[0] += int(np.size(x))
            return out

        return (counted,) + args[1:], {"box": box}

    def _counting_chebyshev(self, base):
        tracer = self

        class CountingChebyshev(base):
            @classmethod
            def interpolate(cls, func, deg, domain=None, args=()):
                tracer.counters["cheb.interpolations"] += 1
                tracer.counters["cheb.degree_max"] = max(tracer.counters["cheb.degree_max"], deg)
                return base.interpolate(func, deg, domain=domain, args=args)

        return CountingChebyshev

    # ---------------------------------------------------------- installation
    def install(self):
        modules = [sys.modules[f"xpharq.{m}"] for m in LAYERS]
        modules += [sys.modules["xpharq"], sys.modules["xpharq.core"]]
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"xpharq.{layer}"]
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            names = list(public) + list(EXTRA.get(layer, ()))
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    replace[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replace[id(value)][1])
        bounds = sys.modules["xpharq.bounds"]
        self._saved.append((bounds, "Chebyshev", bounds.Chebyshev))
        bounds.Chebyshev = self._counting_chebyshev(bounds.Chebyshev)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()



def write_trace(path, spans, counters):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "counters": counters}, fh)


# ------------------------------------------------------------------ metrics

def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, counters, items: int) -> dict:
    """Per-layer metrics from recorded spans; a metric whose layer did no work is 0."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, qid, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_ms = {layer: 0.0 for layer in LAYERS}
    by_name = {}
    for i, (name, start, end, parent, qid, attrs) in enumerate(spans):
        self_ms[name.split(".")[0]] += (end - start - child_time[i]) * 1e3
        by_name.setdefault(name, []).append((end - start, attrs or {}, parent))

    def ms(name, **match):
        return 1e3 * _median([d for d, a, _ in by_name.get(name, ())
                              if all(a.get(k) == v for k, v in match.items())])

    per_item = 1.0 / max(items, 1)
    out = {f"{layer}.self_ms": v * per_item for layer, v in self_ms.items()}

    integ = by_name.get("quadrature.integrate_adaptive", [])
    evals = sum(a.get("evals", 0) for _, a, _ in integ)
    wasted = sum(a.get("evals", 0) for _, a, _ in integ if "failed" in a)
    phi_parents = {i for i, s in enumerate(spans) if s[0] == "exact.phi_quadrature"}
    contour_ms = sum(end - start for name, start, end, parent, _, _ in spans
                     if name in CONTOUR and (parent is None or spans[parent][0] not in CONTOUR))
    orders = sum(a.get("orders", 0) for _, a, _ in by_name.get("exact.upper_incomplete_gamma_complex", []))
    out.update({
        "exact.k2_exact_ms": ms("exact.outage_k2_exact"),
        "exact.phi_quadrature.evals": per_item * sum(
            a.get("evals", 0) for _, a, p in integ if p in phi_parents),
        "exact.contour_ms": 1e3 * contour_ms * per_item,
        "exact.contour.gamma_orders": orders * per_item,
        "quadrature.integrate.calls": len(integ) * per_item,
        "quadrature.integrate.evals": evals * per_item,
        "quadrature.integrate.failed": sum("failed" in a for _, a, _ in integ) * per_item,
        "quadrature.integrate.wasted_frac": wasted / evals if evals else 0.0,
        "quadrature.oracle_k3_ms": ms("quadrature.xp_outage_quadrature", K=3),
        "quadrature.oracle_k4_ms": ms("quadrature.xp_outage_quadrature", K=4),
        "quadrature.hbar_oracle_ms": ms("quadrature.hbar_quadrature"),
        "bounds.upper_k3_ms": ms("bounds.outage_upper_ir", K=3),
        "bounds.upper_k4_ms": ms("bounds.outage_upper_ir", K=4),
        "bounds.ir_chain_k4_ms": ms("bounds.ir_outage_chain", K=4),
        "bounds.cheb.interpolations": counters["cheb.interpolations"] * per_item,
        "bounds.cheb.degree_max": float(counters["cheb.degree_max"]),
        "asymptotic.ms": ms("asymptotic.outage_asymptotic_general"),
        "simulate.xp_chain_k4_ms": ms("simulate.xp_outage_chain", K=4),
    })
    rate = {}
    for workers in (1, 2):
        sims = [(d, a) for name in ("simulate.estimate_outage", "simulate.estimate_throughput")
                for d, a, _ in by_name.get(name, ()) if a["workers"] == workers]
        busy = sum(d for d, _ in sims)
        rate[workers] = sum(a["trials"] for _, a in sims) / busy / 1e6 if busy else 0.0
        out[f"simulate.mtrials_per_s.w{workers}"] = rate[workers]
    out["simulate.scaling_eff_w2"] = rate[2] / rate[1] / 2.0 if rate[1] else 0.0
    run_w1 = ms("sweep.run_sweep", workers=1) / 1e3
    run_w2 = ms("sweep.run_sweep", workers=2) / 1e3
    out["sweep.run_w1_s"] = run_w1
    out["sweep.run_w2_s"] = run_w2
    out["sweep.pool_speedup"] = run_w1 / run_w2 if run_w2 else 0.0
    for method in SWEEP_METHODS:
        out[f"sweep.row_ms.{method}"] = ms("sweep._compute_row", method=method)
    out["sweep.write_csv_ms"] = ms("sweep.write_csv")
    return out


def parse_importtime(stderr: str) -> dict:
    """Cumulative import ms of the tracked modules from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if parts[2] in IMPORT_MODULES and parts[1].isdigit():
            out[parts[2]] = int(parts[1]) / 1e3
    return out
