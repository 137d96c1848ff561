"""The method table, and config-driven parameter sweeps with deterministic
CSV output.

``METHODS`` maps each (quantity, method) to the schemes it supports, the
least round count it needs and the function that computes it.
``evaluate`` runs one entry and ``method_error`` explains why an entry
cannot run; the CLI point queries, the sweep rows and the config checks
all read these rules.

Configs are flat UTF-8 ``key = value`` lines; ``#`` starts a comment that
runs to the end of its line, and lists are comma-separated.  Two sweep
axes exist: ``snr_db`` (every round's average SNR set to the axis value,
rates fixed) and ``r1`` (first-round rate replaced by the axis value, SNRs
fixed from ``snr_db``, one value for every round or one per round).  The
``snr_db`` key is required on the ``r1`` axis and rejected on the
``snr_db`` axis, which sets every SNR itself.

Rows are emitted in axis-major order (axis value, then scheme, then
method), each a pure function of the config, so output bytes do not depend
on the worker count.  A deterministic row is one task; the ``mc`` rows of
every axis value and scheme are one group on each block's shared draws,
whose block shares run first in the same process pool, and the parent sums
each point's integer counts.  All SNR handling here is in dB; conversion
to linear scale happens exactly once, at the row boundary.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TextIO

from .asymptotic import outage_asymptotic_general
from .bounds import outage_lower, outage_upper_ir, throughput_recursion, xp_outage
from .core import Estimate, PowerProfile, RateSchedule, XpharqError
from .simulate import (SimConfig, _estimate_group, _share_count, estimate_outage,
                       estimate_throughput)

__all__ = [
    "Method",
    "METHODS",
    "evaluate",
    "method_error",
    "SweepConfig",
    "ConfigError",
    "parse_config",
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
    """One way to compute a quantity, its schemes and the least round count K it needs.

    ``compute(point)`` returns an ``Estimate`` at a ``SimConfig`` point; only
    the ``mc`` entries read its trials, seed and workers.  Each entry looks
    its function up per call, so a wrapper set on the module sees the call.

    ``purpose`` names the Monte Carlo entries' group form: points that share
    seed, trials and K run together on each block's draws
    (``simulate._estimate_group``), each point's value that of ``compute``,
    which runs a group of one.
    The deterministic entries have none, and a group of their points is
    ``compute`` mapped over them.
    """

    schemes: tuple[str, ...]
    compute: Callable[[SimConfig], Estimate]
    k_min: int = 1
    purpose: Optional[str] = None


_XP, _BOTH = ("xp",), ("xp", "inr")
_XP_OUTAGE = Method(_XP, lambda c: xp_outage(c.rates, c.powers))
# Insertion order is the order of the CLI --method choices; the first is the default.
METHODS = {
    ("outage", "exact"): _XP_OUTAGE,
    ("outage", "asymptotic"): Method(
        _XP, lambda c: outage_asymptotic_general(c.rates, c.powers), k_min=2
    ),
    ("outage", "lower"): Method(_XP, lambda c: outage_lower(c.rates, c.powers)),
    ("outage", "upper"): Method(_BOTH, lambda c: outage_upper_ir(c.rates, c.powers)),
    ("outage", "mc"): Method(_BOTH, lambda c: estimate_outage(c), purpose="outage"),
    ("outage", "oracle"): _XP_OUTAGE,
    ("throughput", "analytical"): Method(
        _BOTH, lambda c: throughput_recursion(c.rates, c.powers, c.scheme)
    ),
    ("throughput", "mc"): Method(_BOTH, lambda c: estimate_throughput(c), purpose="throughput"),
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
    return None


def evaluate(quantity: str, scheme: str, method: str, rates: RateSchedule,
             powers: PowerProfile, trials: int = 100_000, seed: int = 0,
             workers: int = 1) -> Estimate:
    """Compute ``quantity`` at one point by one table entry.

    ``trials``, ``seed`` and ``workers`` reach the ``mc`` entries; every
    deterministic entry stops at its own relative tolerance.  Raises
    ValueError for an entry that cannot run (see ``method_error``).
    """
    error = method_error(quantity, scheme, method, rates.K)
    if error is not None:
        raise ValueError(error)
    point = SimConfig(scheme, rates, powers, trials, seed, workers)
    return METHODS[quantity, method].compute(point)


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
        line = raw.partition("#")[0].strip()
        if not line:
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
    if cfg.axis == "r1" and not cfg.snr_db:
        raise ConfigError("axis=r1 requires snr_db")
    if cfg.axis == "snr_db" and cfg.snr_db:
        raise ConfigError("axis=snr_db sets every round's SNR; remove the snr_db key")
    for key in ("methods", "schemes"):
        entries = getattr(cfg, key)
        for i, entry in enumerate(entries):
            if entry in entries[:i]:
                raise ConfigError(f"{key} lists {entry!r} twice")
    for scheme in cfg.schemes:
        for method in cfg.methods:
            error = method_error(cfg.quantity, scheme, method, k_rounds)
            if error is not None:
                raise ConfigError(error)
    _cells(cfg)


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


def _round_snrs(snr_db: tuple[float, ...], k_rounds: int) -> tuple[float, ...]:
    """Each round's SNR in dB: one value broadcast to all K rounds, or K values."""
    if len(snr_db) == 1:
        return snr_db * k_rounds
    if len(snr_db) != k_rounds:
        raise ValueError(f"needs 1 or {k_rounds} entries, got {len(snr_db)}")
    return snr_db


def _cells(cfg: SweepConfig) -> list[tuple[float, SimConfig]]:
    """The (snr_db column, point) of every row cell, axis value then scheme.

    The point types check every value.  A bad axis value or SNR raises
    ConfigError naming its axis value; a bad fixed rate, SNR count, trials
    or seed one naming no axis value.
    """
    k_rounds = len(cfg.rates)
    fixed = cfg.rates if cfg.axis == "snr_db" else cfg.rates[1:]
    try:
        if fixed:
            RateSchedule(fixed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.axis == "r1":
        try:
            fixed_db = _round_snrs(cfg.snr_db, k_rounds)
        except ValueError as exc:
            raise ConfigError(f"snr_db {exc}") from None
    columns = []
    for axis_value in cfg.values:
        if cfg.axis == "snr_db":
            rates, snr_db, column_db = cfg.rates, _round_snrs((axis_value,), k_rounds), axis_value
        else:
            rates, snr_db, column_db = (axis_value,) + cfg.rates[1:], fixed_db, cfg.snr_db[0]
        try:
            rates, powers = RateSchedule(rates), PowerProfile([db_to_linear(v) for v in snr_db])
        except ValueError as exc:
            raise ConfigError(f"{cfg.axis} = {axis_value!r}: {exc}") from None
        columns.append((column_db, rates, powers))
    try:
        return [(column_db, SimConfig(scheme, rates, powers, cfg.trials, cfg.seed))
                for column_db, rates, powers in columns for scheme in cfg.schemes]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _sweep_row(column_db: float, point: SimConfig, method: str, est: Estimate) -> SweepRow:
    return SweepRow(column_db, point.rates.K, point.rates.rates, point.scheme, method,
                    est.value, est.uncertainty, point.seed)


def _compute_row(args: tuple[str, float, SimConfig, str]) -> SweepRow:
    quantity, column_db, point, method = args
    est = evaluate(quantity, point.scheme, method, point.rates, point.powers,
                   trials=point.trials, seed=point.seed)
    return _sweep_row(column_db, point, method, est)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list[SweepRow]:
    """Compute all rows in deterministic axis-major order.

    The rows of a method with a group form (``Method.purpose``: ``mc``) run
    as one group over every axis value and scheme, split into
    min(workers, blocks) block shares whose integer counts are summed; each
    deterministic row is one task.  Every share and row is a pure function
    of the config, so any worker count yields identical output.  One process
    pool, of at most one process per share and row, maps the groups' shares
    first, as they are the longest, then the rows; a sweep of one share or
    row runs in this process.  Raises ValueError for ``workers`` below 1.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    cells = _cells(cfg)
    points = [point for _, point in cells]
    groups = {method: METHODS[cfg.quantity, method].purpose for method in cfg.methods}
    groups = {method: purpose for method, purpose in groups.items() if purpose is not None}
    singles = [(i, method) for i in range(len(cells)) for method in cfg.methods
               if method not in groups]
    size = min(workers, len(groups) * _share_count(cfg.trials, workers) + len(singles))
    with contextlib.ExitStack() as stack:
        map_tasks = None
        if size > 1:
            from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing

            map_tasks = stack.enter_context(ProcessPoolExecutor(max_workers=size)).map
        rows = {}
        for method, purpose in groups.items():
            for i, est in enumerate(_estimate_group(points, purpose, workers, map_tasks)):
                rows[i, method] = _sweep_row(*cells[i], method, est)
        if singles:
            tasks = [(cfg.quantity, *cells[i], method) for i, method in singles]
            rows.update(zip(singles, (map_tasks or map)(_compute_row, tasks)))
    return [rows[i, method] for i in range(len(cells)) for method in cfg.methods]


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
