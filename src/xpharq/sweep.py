"""The method table, and config-driven parameter sweeps with deterministic
CSV output.

``METHODS`` maps each (quantity, method) to the schemes and round counts
it supports and the function that computes it.  ``evaluate`` runs one
entry and ``method_error`` explains why an entry cannot run; the CLI point
queries, the sweep rows and the config checks all read these rules.

Configs are flat UTF-8 ``key = value`` lines; ``#`` lines are comments and
lists are comma-separated.  Two sweep axes exist: ``snr_db`` (every round's
average SNR set to the axis value, rates fixed) and ``r1`` (first-round
rate replaced by the axis value, SNRs fixed from ``snr_db``).

Rows are emitted in axis-major order (axis value, then scheme, then
method), each a pure function of the config, so output bytes do not depend
on the worker count.  All SNR handling here is in dB; conversion to linear
scale happens exactly once, at the row boundary.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, TextIO, Union

from .asymptotic import outage_asymptotic_general
from .bounds import outage_lower, outage_upper_ir, throughput_recursion, xp_outage
from .core import Estimate, PowerProfile, RateSchedule, XpharqError
from .exact import outage_k1, outage_k2_exact
from .simulate import SimConfig, estimate_outage, estimate_throughput

__all__ = [
    "Method",
    "METHODS",
    "evaluate",
    "method_error",
    "SweepConfig",
    "ConfigError",
    "parse_config",
    "emit_config",
    "run_sweep",
    "SweepRow",
    "write_csv",
    "emit_gnuplot",
    "db_to_linear",
    "CSV_HEADER",
]

CSV_HEADER = ("snr_db", "K", "R_csv", "scheme", "method", "value", "uncertainty", "seed")


@dataclass(frozen=True)
class Method:
    """One way to compute a quantity, and the schemes and round counts K it covers.

    ``compute(rates, powers, scheme, tol, sim)`` returns an ``Estimate``, or
    a bare float that ``evaluate`` reports with uncertainty 0; ``sim`` is
    the Monte Carlo config for the ``mc`` entries and None otherwise.
    """

    schemes: tuple[str, ...]
    compute: Callable[..., Union[Estimate, float]]
    k_min: int = 1
    k_max: float = math.inf


def _exact(rates, powers, scheme, tol, sim):
    if rates.K == 1:
        return outage_k1(rates.rates[0], powers.snr_bars[0])
    return outage_k2_exact(rates, powers, tol)


_XP, _BOTH = ("xp",), ("xp", "inr")
# Insertion order is the order of the CLI --method choices; the first is the default.
METHODS = {
    ("outage", "exact"): Method(_XP, _exact, k_max=2),
    ("outage", "asymptotic"): Method(
        _XP, lambda r, p, *_: outage_asymptotic_general(r, p), k_min=2
    ),
    ("outage", "lower"): Method(_XP, lambda r, p, *_: outage_lower(r, p)),
    ("outage", "upper"): Method(_BOTH, lambda r, p, *_: outage_upper_ir(r, p)),
    ("outage", "mc"): Method(_BOTH, lambda r, p, s, tol, sim: estimate_outage(sim)),
    ("outage", "oracle"): Method(_XP, lambda r, p, s, tol, sim: xp_outage(r, p, tol)),
    ("throughput", "analytical"): Method(_BOTH, lambda r, p, s, *_: throughput_recursion(r, p, s)),
    ("throughput", "mc"): Method(_BOTH, lambda r, p, s, tol, sim: estimate_throughput(sim)),
}


def method_error(quantity: str, scheme: str, method: str, k_rounds: int) -> Optional[str]:
    """Why ``METHODS[quantity, method]`` cannot run for this scheme and K, or None."""
    entry = METHODS.get((quantity, method))
    if entry is None:
        return f"method {method!r} invalid for quantity {quantity!r}"
    if scheme not in entry.schemes:
        return f"method {method} supports scheme {' and '.join(entry.schemes)}, not {scheme!r}"
    if k_rounds < entry.k_min:
        return f"method {method} needs K >= {entry.k_min}, got K={k_rounds}"
    if k_rounds > entry.k_max:
        return f"method {method} supports K <= {entry.k_max}, got K={k_rounds}"
    return None


def evaluate(quantity: str, scheme: str, method: str, rates: RateSchedule,
             powers: PowerProfile, tol: float = 1e-10, trials: int = 100_000,
             seed: int = 0, workers: int = 1) -> Estimate:
    """Compute ``quantity`` at one point by one table entry.

    ``tol`` reaches the ``exact`` and ``oracle`` outage entries; ``trials``,
    ``seed`` and ``workers`` reach the ``mc`` entries.  Raises ValueError
    for an entry that cannot run (see ``method_error``).
    """
    error = method_error(quantity, scheme, method, rates.K)
    if error is not None:
        raise ValueError(error)
    sim = SimConfig(scheme, rates, powers, trials, seed, workers) if method == "mc" else None
    out = METHODS[quantity, method].compute(rates, powers, scheme, tol, sim)
    return out if isinstance(out, Estimate) else Estimate(out, method, 0.0)


class ConfigError(XpharqError):
    """Malformed sweep config; message carries the offending line number."""


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB overflows a double") from None


@dataclass(frozen=True)
class SweepConfig:
    quantity: str
    axis: str
    values: tuple[float, ...]
    rates: tuple[float, ...]
    methods: tuple[str, ...]
    schemes: tuple[str, ...] = ("xp",)
    snr_db: tuple[float, ...] = ()
    trials: int = 100000
    seed: int = 0


_LIST_FLOAT_KEYS = {"values", "rates", "snr_db"}
_LIST_STR_KEYS = {"methods", "schemes"}
_INT_KEYS = {"trials", "seed"}
_STR_KEYS = {"quantity", "axis"}
_ALL_KEYS = _LIST_FLOAT_KEYS | _LIST_STR_KEYS | _INT_KEYS | _STR_KEYS
_REQUIRED_KEYS = ("quantity", "axis", "values", "rates", "methods")


def parse_config(text: str) -> SweepConfig:
    """Parse a flat key=value config, reporting errors with line numbers."""
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _LIST_FLOAT_KEYS:
                seen[key] = tuple(float(v.strip()) for v in value.split(","))
            elif key in _LIST_STR_KEYS:
                seen[key] = tuple(v.strip() for v in value.split(","))
            elif key in _INT_KEYS:
                seen[key] = int(value)
            else:
                seen[key] = value
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    for key in _REQUIRED_KEYS:
        if key not in seen:
            raise ConfigError(f"missing required key {key!r}")
    cfg = SweepConfig(**seen)  # type: ignore[arg-type]
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: SweepConfig) -> None:
    k_rounds = len(cfg.rates)
    if cfg.quantity not in ("outage", "throughput"):
        raise ConfigError(f"quantity must be outage or throughput, got {cfg.quantity!r}")
    if cfg.axis not in ("snr_db", "r1"):
        raise ConfigError(f"axis must be snr_db or r1, got {cfg.axis!r}")
    if not cfg.values:
        raise ConfigError("values must be nonempty")
    if not all(math.isfinite(v) for v in cfg.values + cfg.rates + cfg.snr_db):
        raise ConfigError("values, rates and snr_db must be finite")
    if any(r <= 0 for r in cfg.rates):
        raise ConfigError("rates must be positive")
    if cfg.axis == "r1" and not cfg.snr_db:
        raise ConfigError("axis=r1 requires snr_db")
    if cfg.snr_db and len(cfg.snr_db) not in (1, k_rounds):
        raise ConfigError(f"snr_db needs 1 or {k_rounds} entries")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError("seed must fit in 64 bits")
    for scheme in cfg.schemes:
        for method in cfg.methods:
            error = method_error(cfg.quantity, scheme, method, k_rounds)
            if error is not None:
                raise ConfigError(error)
    for axis_value in cfg.values:
        try:
            _row_params(cfg, axis_value)
        except ValueError as exc:
            raise ConfigError(f"{cfg.axis} = {axis_value!r}: {exc}") from None


def emit_config(cfg: SweepConfig) -> str:
    """Canonical text form; parse_config(emit_config(c)) == c."""
    lines = [
        f"quantity = {cfg.quantity}",
        f"axis = {cfg.axis}",
        f"values = {','.join(repr(v) for v in cfg.values)}",
        f"rates = {','.join(repr(v) for v in cfg.rates)}",
        f"methods = {','.join(cfg.methods)}",
        f"schemes = {','.join(cfg.schemes)}",
    ]
    if cfg.snr_db:
        lines.append(f"snr_db = {','.join(repr(v) for v in cfg.snr_db)}")
    lines.append(f"trials = {cfg.trials}")
    lines.append(f"seed = {cfg.seed}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    K: int
    rates: tuple[float, ...]
    scheme: str
    method: str
    value: float
    uncertainty: float
    seed: int


def _row_params(cfg: SweepConfig, axis_value: float):
    if cfg.axis == "snr_db":
        rates = cfg.rates
        snr_db = tuple([axis_value] * len(rates))
        column_db = axis_value
    else:
        rates = (axis_value,) + cfg.rates[1:]
        snr_db = cfg.snr_db if len(cfg.snr_db) > 1 else cfg.snr_db * len(rates)
        column_db = cfg.snr_db[0]
    powers = PowerProfile([db_to_linear(v) for v in snr_db])
    return RateSchedule(rates), powers, column_db


def _compute_row(args: tuple[SweepConfig, float, str, str]) -> SweepRow:
    cfg, axis_value, scheme, method = args
    rates, powers, column_db = _row_params(cfg, axis_value)
    est = evaluate(cfg.quantity, scheme, method, rates, powers, trials=cfg.trials, seed=cfg.seed)
    return SweepRow(
        snr_db=column_db,
        K=rates.K,
        rates=rates.rates,
        scheme=scheme,
        method=method,
        value=est.value,
        uncertainty=est.uncertainty,
        seed=cfg.seed,
    )


def run_sweep(cfg: SweepConfig, workers: int = 1, seed: Optional[int] = None) -> list[SweepRow]:
    """Compute all rows in deterministic axis-major order.

    Rows are independent pure functions of the config, so any worker count
    yields identical output.  The pool has at most one process per row.
    ``seed`` overrides the config seed.
    """
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    specs = [
        (cfg, axis_value, scheme, method)
        for axis_value in cfg.values
        for scheme in cfg.schemes
        for method in cfg.methods
    ]
    workers = min(workers, len(specs))
    if workers <= 1:
        return [_compute_row(s) for s in specs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_compute_row, specs))


def _fmt(x: float) -> str:
    return "%.9g" % x


def emit_gnuplot(cfg: SweepConfig, csv_path: str) -> str:
    """Gnuplot script plotting the sweep CSV, one series per scheme/method."""
    if cfg.axis == "snr_db":
        x_expr = "column(1)"
        x_label = "average SNR (dB)"
    else:
        # the leading element of the quoted R_csv field is the swept R_1
        x_expr = "real(strcol(3))"
        x_label = "first-round rate (bits/channel use)"
    lines = [
        f"# plots {csv_path}; load with: gnuplot -persist <this file>",
        "set datafile separator comma",
        f"set xlabel '{x_label}'",
    ]
    if cfg.quantity == "outage":
        lines += ["set ylabel 'outage probability'", "set logscale y"]
    else:
        lines.append("set ylabel 'throughput (bits/channel use)'")
    lines.append("set key outside right")
    series = []
    for scheme in cfg.schemes:
        for method in cfg.methods:
            cond = f"strcol(4) eq '{scheme}' && strcol(5) eq '{method}'"
            series.append(
                f"'{csv_path}' every ::1 using ({x_expr}):({cond} ? column(6) : 1/0) "
                f"with linespoints title '{scheme} {method}'"
            )
    lines.append("plot \\\n  " + ", \\\n  ".join(series))
    return "\n".join(lines) + "\n"


def write_csv(rows: Iterable[SweepRow], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                _fmt(row.snr_db),
                str(row.K),
                ",".join(_fmt(r) for r in row.rates),
                row.scheme,
                row.method,
                _fmt(row.value),
                _fmt(row.uncertainty),
                str(row.seed),
            ]
        )
