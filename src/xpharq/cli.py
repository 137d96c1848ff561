"""Command-line front end.

Subcommands: ``outage`` and ``throughput`` for single-point queries,
``sweep`` for config-driven CSV generation, ``hbar`` to dump the high-SNR
coefficient table, and ``selftest`` to run the oracle cross-checks.

All SNR arguments are in dB and converted once at this boundary
(gbar = 10^{dB/10}); the library APIs underneath are strictly linear.
A point query's Monte Carlo seed is its ``--seed`` (default 0); a sweep's
is its config's ``seed =``.  The package's types check every value the
parser reads, and their ``ValueError`` is the usage error (exit 2).

``main(argv)`` can be called any number of times in one process.  The
first call builds the argument parser and later calls reuse it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
import time

import numpy as np

from .asymptotic import build_hbar_table, hbar_eval
from .bounds import outage_lower
from .core import Estimate, PowerProfile, RateSchedule, XpharqError
from .exact import foxh_h11_incomplete, incomplete_gamma_difference, outage_k2_via_foxh
from .simulate import SimConfig
from .sweep import (METHODS, ConfigError, _fmt, _round_snrs, db_to_linear, emit_gnuplot,
                    evaluate, method_error, parse_config, run_sweep, write_csv)

_RARE_EVENT_FLOOR = 100


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v.strip()) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _cmd_point(parser, args) -> int:
    try:
        rates = RateSchedule(args.rates)
    except ValueError as exc:
        parser.error(f"--rates: {exc}")
    try:
        snr_db = _round_snrs(args.snr_db, rates.K)
        powers = PowerProfile([db_to_linear(v) for v in snr_db])
    except ValueError as exc:
        parser.error(f"--snr-db: {exc}")
    error = method_error(args.command, args.scheme, args.method, rates.K)
    if error is not None:
        parser.error(error)
    try:
        point = SimConfig(args.scheme, rates, powers, args.trials, args.seed, args.workers)
    except ValueError as exc:
        parser.error(str(exc))
    start = time.perf_counter()
    est = METHODS[args.command, args.method].compute(point)
    if args.command == "outage" and args.method == "mc":
        outages = round(est.value * args.trials)
        # the Wald interval fails where either outcome is rare
        seen, outcome = min((outages, "outage"), (args.trials - outages, "success"))
        if seen < _RARE_EVENT_FLOOR:
            others = [m for q, m in METHODS if q == "outage" and m != "mc"
                      and method_error("outage", args.scheme, m, rates.K) is None]
            print(
                f"warning: only {seen} {outcome} events observed (<{_RARE_EVENT_FLOOR}); "
                "the confidence interval is unreliable in this rare-event regime — "
                f"use --method {' or '.join(others)} here",
                file=sys.stderr,
            )
    if args.method == "asymptotic" and est.value >= 1.0:
        print(
            f"warning: the asymptote {_fmt(est.value)} is not a probability; it holds only in "
            "the high-SNR regime — use the exact, oracle or bound methods here",
            file=sys.stderr,
        )
    elapsed = time.perf_counter() - start
    print(
        f"{args.command} scheme={args.scheme} method={args.method} K={rates.K} "
        f"rates={','.join(_fmt(r) for r in rates.rates)} "
        f"snr_db={','.join(_fmt(v) for v in snr_db)} "
        f"value={_fmt(est.value)} uncertainty={_fmt(est.uncertainty)} seconds={elapsed:.3f}"
    )
    if args.method == "upper":
        low = outage_lower(rates, powers).value
        gap = (est.value - low) / est.value if est.value > 0 else math.nan
        # when both bounds round to 1 the lower one can land an ulp above;
        # a larger negative gap is a real defect and is printed as it is
        if -4.0 * sys.float_info.epsilon <= gap < 0.0:
            gap = 0.0
        print(f"bound-gap lower={_fmt(low)} upper={_fmt(est.value)} relative_gap={_fmt(gap)}")
    return 0


def _cmd_sweep(parser, args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config: {exc}")
    except ConfigError as exc:
        parser.error(str(exc))
    if args.gnuplot is not None and args.out == "-":
        parser.error("--gnuplot needs a real --out path for the script to reference")
    with contextlib.ExitStack() as files:
        # open both outputs before the sweep runs, so a bad path fails at once
        try:
            out = sys.stdout if args.out == "-" else files.enter_context(
                open(args.out, "w", encoding="utf-8", newline=""))
            script = None if args.gnuplot is None else files.enter_context(
                open(args.gnuplot, "w", encoding="utf-8"))
        except OSError as exc:
            parser.error(f"cannot write {exc.filename}: {exc.strerror}")
        try:
            rows = run_sweep(cfg, workers=args.workers)
        except ValueError as exc:
            parser.error(str(exc))
        write_csv(rows, out)
        if script is not None:
            script.write(emit_gnuplot(cfg, args.out))
    return 0


def _cmd_hbar(parser, args) -> int:
    try:
        rates = RateSchedule(args.rates)
    except ValueError as exc:
        parser.error(f"--rates: {exc}")
    if rates.K < 2:
        parser.error("the coefficient table needs K >= 2")
    # hbar_{K,k} holds for x <= 2^{R_k^sum}, and the dump reads every k at one x
    if not 0.0 < args.x <= 2.0 ** rates.rates[0]:
        parser.error(f"--x must be in (0, 2^R_1] = (0, {_fmt(2.0 ** rates.rates[0])}], "
                     f"got {args.x!r}")
    coeffs = build_hbar_table(rates)
    values = [hbar_eval(coeffs, k, args.x) for k in range(1, rates.K + 1)]
    print(f"K = {rates.K}")
    for k, row in enumerate(coeffs, start=1):
        for i, c in enumerate(row):
            print(f"c[k={k},i={i}] = {c!r}")
    for k, value in enumerate(values, start=1):
        print(f"hbar[K={rates.K},k={k}]({_fmt(args.x)}) = {value!r}")
    return 0


def _bessel_k1(x: float) -> float:
    """K_1(x) = int_0^inf e^{-x cosh t} cosh t dt (DLMF 10.32.9) by the trapezoid rule.

    The integrand is analytic and decays double-exponentially, so the rule
    converges spectrally at step 0.05; the line stops where x (cosh t - 1)
    reaches 40, past which the rest is about e^{-40} of the whole.  The
    selftest's reference for the contour, with which it shares nothing.
    """
    h = 0.05
    t = np.arange(0.0, math.acosh(1.0 + 40.0 / x) + h, h)
    f = np.exp(-x * (np.cosh(t) - 1.0)) * np.cosh(t)
    return math.exp(-x) * h * float(np.sum(f) - 0.5 * f[0])


def _cmd_selftest(parser, args) -> int:
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        if ok:
            print(f"PASS {name}: {detail}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    def work(est: Estimate) -> str:
        # the contour's one pass (the complete kernel takes no panels), or
        # the ladder's passes and whether its estimate or a gap stopped it
        return " ".join(f"{key}={value}" for key, value in est.work.items())

    g = incomplete_gamma_difference(0.0, 0.7, 1.4)
    ref = math.exp(-0.7) - math.exp(-1.4)
    check(
        "incomplete-gamma-exponential",
        abs(g.real - ref) <= 1e-12 * ref and abs(g.imag) <= 1e-13,
        f"Gamma(1, 0.7) - Gamma(1, 1.4) = {g.real!r} vs e^-0.7 - e^-1.4 = {ref!r}",
    )

    z = 1.0
    h = foxh_h11_incomplete(z)
    bessel = 2.0 * math.sqrt(z) * _bessel_k1(2.0 * math.sqrt(z))
    check(
        "contour-bessel-degenerate",
        abs(h.value - bessel) <= 1e-6 * bessel,
        f"H(z=1, b=0) = {h.value!r} vs 2 sqrt(z) K1 = {bessel!r}; {work(h)}",
    )

    def outage(method: str, rates, powers, **mc) -> Estimate:
        return evaluate("outage", "xp", method, rates, powers, **mc)

    rates = RateSchedule([1.0, 1.0])
    powers = PowerProfile([10.0, 10.0])
    p_rec = outage("exact", rates, powers).value
    p_foxh = outage_k2_via_foxh(rates, powers)
    check(
        "two-round-triangulation",
        abs(p_rec - p_foxh.value) <= 1e-6 * p_rec,
        f"recursion={p_rec!r} contour={p_foxh.value!r}; {work(p_foxh)}",
    )

    # the high-SNR limit of the outage recursion: at 120 dB xp_outage * gbar^3
    # is within O(1/gbar) of the coefficient hbar_{3,1}(1)
    r3 = RateSchedule([1.0, 1.0, 1.0])
    rec = hbar_eval(build_hbar_table(r3), 1, 1.0)
    gbar = 1e12
    limit = outage("exact", r3, PowerProfile([gbar] * 3)).value * gbar ** 3
    closed = 12.0 * math.log(2.0) ** 2 - 4.0 * math.log(2.0) + 1.0
    check(
        "hbar-recursion-vs-oracle",
        abs(rec - limit) <= 1e-8 * limit and abs(rec - closed) <= 1e-9 * closed,
        f"recursion={rec!r} xp_outage*gbar^3={limit!r} closed={closed!r}",
    )

    g3 = PowerProfile([10.0, 10.0, 10.0])
    low = outage("lower", r3, g3).value
    mid = outage("exact", r3, g3)
    up = outage("upper", r3, g3)
    check(
        "bound-sandwich",
        low <= mid.value <= up.value,
        f"lower={low!r} xp={mid.value!r} ({work(mid)}) upper={up.value!r} ({work(up)})",
    )

    e1 = outage("mc", rates, powers, trials=200_000, seed=7)
    e4 = outage("mc", rates, powers, trials=200_000, seed=7, workers=4)
    check(
        "mc-worker-determinism",
        e1.value == e4.value,
        f"workers=1 -> {e1.value!r}, workers=4 -> {e4.value!r}",
    )

    print("selftest:", "ok" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process at the first ``main`` call.

    The ``--method`` choices come from ``METHODS`` as it stands at that call.
    """
    parser = argparse.ArgumentParser(
        prog="xpharq",
        description="Outage and throughput of cross-packet HARQ over Rayleigh fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(quantity, help):
        p = sub.add_parser(quantity, help=help)
        methods = tuple(m for q, m in METHODS if q == quantity)
        p.add_argument("--scheme", choices=("xp", "inr"), default="xp")
        p.add_argument("--method", choices=methods, default=methods[0])
        p.add_argument("--rates", type=_float_list, required=True,
                       help="per-round rates, comma-separated (bits/channel-use)")
        p.add_argument("--snr-db", type=_float_list, required=True,
                       help="per-round average SNR in dB (single value broadcasts)")
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
        p.add_argument("--workers", type=int, default=1)
        return p

    add_point_args("outage", "single-point outage probability")
    add_point_args("throughput", "single-point throughput")

    p_sweep = sub.add_parser("sweep", help="config-driven CSV sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--gnuplot", default=None, metavar="PATH",
                         help="also write a gnuplot script that plots the CSV")

    p_hbar = sub.add_parser("hbar", help="dump the high-SNR coefficient table")
    p_hbar.add_argument("--rates", type=_float_list, required=True)
    p_hbar.add_argument("--x", type=float, default=1.0)

    sub.add_parser("selftest", help="run oracle cross-checks")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"outage": _cmd_point, "throughput": _cmd_point, "sweep": _cmd_sweep,
               "hbar": _cmd_hbar, "selftest": _cmd_selftest}[args.command]
    try:
        return command(parser, args)
    except XpharqError as exc:
        # a failure of the package's own computation, where bad input exits 2
        print(f"xpharq {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
