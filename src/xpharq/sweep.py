"""Config-driven parameter sweeps with deterministic CSV output.

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
from typing import Iterable, Optional, TextIO

from .asymptotic import outage_asymptotic_general
from .bounds import ir_outage_chain, outage_lower, outage_upper_ir, xp_outage, xp_outage_chain
from .core import PowerProfile, RateSchedule, XpharqError
from .exact import outage_k1, outage_k2_exact
from .simulate import SimConfig, estimate_outage, estimate_throughput, throughput_analytical

__all__ = [
    "SweepConfig",
    "ConfigError",
    "parse_config",
    "emit_config",
    "run_sweep",
    "write_csv",
    "emit_gnuplot",
    "db_to_linear",
    "CSV_HEADER",
]

CSV_HEADER = ("snr_db", "K", "R_csv", "scheme", "method", "value", "uncertainty", "seed")

_OUTAGE_METHODS = ("exact", "asymptotic", "lower", "upper", "mc", "oracle")
_THROUGHPUT_METHODS = ("analytical", "mc")
_INR_OUTAGE_METHODS = ("upper", "mc")


class ConfigError(XpharqError):
    """Malformed sweep config; message carries the offending line number."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


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
    if cfg.axis == "r1":
        if not cfg.snr_db:
            raise ConfigError("axis=r1 requires snr_db")
        if any(v <= 0 for v in cfg.values):
            raise ConfigError("axis=r1 values are rates and must be positive")
    if cfg.snr_db and len(cfg.snr_db) not in (1, k_rounds):
        raise ConfigError(f"snr_db needs 1 or {k_rounds} entries")
    if cfg.trials < 1:
        raise ConfigError("trials must be at least 1")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError("seed must fit in 64 bits")
    allowed = _OUTAGE_METHODS if cfg.quantity == "outage" else _THROUGHPUT_METHODS
    for m in cfg.methods:
        if m not in allowed:
            raise ConfigError(f"method {m!r} invalid for quantity {cfg.quantity!r}")
    for s in cfg.schemes:
        if s not in ("xp", "inr"):
            raise ConfigError(f"scheme must be xp or inr, got {s!r}")
        if s == "inr" and cfg.quantity == "outage":
            bad = [m for m in cfg.methods if m not in _INR_OUTAGE_METHODS]
            if bad:
                raise ConfigError(
                    f"methods {bad} are XP-only; with scheme inr use {_INR_OUTAGE_METHODS}"
                )
    if cfg.quantity == "outage":
        if "exact" in cfg.methods and k_rounds > 2:
            raise ConfigError("method exact supports K <= 2")
        if "asymptotic" in cfg.methods and k_rounds < 2:
            raise ConfigError("method asymptotic needs K >= 2")


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
    if cfg.quantity == "outage":
        value, unc = _outage_value(cfg, scheme, method, rates, powers)
    else:
        value, unc = _throughput_value(cfg, scheme, method, rates, powers)
    return SweepRow(
        snr_db=column_db,
        K=rates.K,
        rates=rates.rates,
        scheme=scheme,
        method=method,
        value=value,
        uncertainty=unc,
        seed=cfg.seed,
    )


def _outage_value(cfg, scheme, method, rates, powers):
    if method == "exact":
        if rates.K == 1:
            return outage_k1(rates.rates[0], powers.snr_bars[0]), 0.0
        est = outage_k2_exact(rates, powers)
        return est.value, est.uncertainty
    if method == "asymptotic":
        return outage_asymptotic_general(rates, powers), 0.0
    if method == "lower":
        return outage_lower(rates, powers), 0.0
    if method == "upper":
        est = outage_upper_ir(rates, powers)
        return est.value, est.uncertainty
    if method == "oracle":
        est = xp_outage(rates, powers)
        return est.value, est.uncertainty
    est = estimate_outage(
        SimConfig(scheme=scheme, rates=rates, powers=powers, trials=cfg.trials, seed=cfg.seed)
    )
    return est.value, est.uncertainty


def _throughput_value(cfg, scheme, method, rates, powers):
    if method == "analytical":
        if scheme == "xp":
            chain = xp_outage_chain(rates, powers)
        else:
            chain = ir_outage_chain(rates, powers)
        return throughput_analytical(scheme, rates, powers, chain), 0.0
    est = estimate_throughput(
        SimConfig(scheme=scheme, rates=rates, powers=powers, trials=cfg.trials, seed=cfg.seed)
    )
    return est.value, est.uncertainty


def run_sweep(cfg: SweepConfig, workers: int = 1, seed: Optional[int] = None) -> list[SweepRow]:
    """Compute all rows in deterministic axis-major order.

    Rows are independent pure functions of the config, so any worker count
    yields identical output.  ``seed`` overrides the config seed.
    """
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    specs = [
        (cfg, axis_value, scheme, method)
        for axis_value in cfg.values
        for scheme in cfg.schemes
        for method in cfg.methods
    ]
    if workers <= 1 or len(specs) == 1:
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
