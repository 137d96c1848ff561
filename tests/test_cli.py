"""Command-line interface and sweep configuration round trips."""

import argparse
import concurrent.futures
import csv
import filecmp
import io
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xpharq import (
    ConfigError,
    ConvergenceError,
    Estimate,
    PowerProfile,
    RateSchedule,
    SimConfig,
    SweepConfig,
    estimate_outage,
    estimate_throughput,
    outage_lower,
    outage_upper_ir,
    parse_config,
    xp_outage,
)
from xpharq import cli, sweep
from xpharq.cli import main
from xpharq.simulate import _BLOCK
from xpharq.sweep import METHODS, evaluate, method_error

from oracles import throughput_oracle


def _field(output: str, name: str) -> str:
    m = re.search(rf"{name}=(\S+)", output)
    assert m is not None, f"{name!r} not in {output!r}"
    return m.group(1)


# ---------------------------------------------------------------------------
# point queries


def test_outage_exact_record(capsys):
    rc = main(["outage", "--rates", "1,1", "--snr-db", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("outage scheme=xp method=exact K=2 ")
    expected = xp_outage(RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))).value
    assert float(_field(out, "value")) == pytest.approx(expected, rel=1e-7)


def test_outage_lower_record(capsys):
    rc = main(["outage", "--rates", "1,1", "--snr-db", "10", "--method", "lower"])
    out = capsys.readouterr().out
    assert rc == 0
    expected = (-math.expm1(-0.1)) ** 2
    assert float(_field(out, "value")) == pytest.approx(expected, rel=1e-8)


def test_outage_upper_prints_bound_gap(capsys):
    rc = main(["outage", "--rates", "1,1,1", "--snr-db", "10", "--method", "upper"])
    out = capsys.readouterr().out
    assert rc == 0
    gap_line = [l for l in out.splitlines() if l.startswith("bound-gap ")]
    assert len(gap_line) == 1
    low = float(_field(gap_line[0], "lower"))
    up = float(_field(gap_line[0], "upper"))
    gap = float(_field(gap_line[0], "relative_gap"))
    assert low == pytest.approx(
        outage_lower(RateSchedule((1.0,) * 3), PowerProfile((10.0,) * 3)).value, rel=1e-8
    )
    assert gap == pytest.approx((up - low) / up, rel=1e-6)
    assert 0.0 < gap < 1.0
    # both bounds round to 1 and the lower one lands an ulp above the upper
    rc = main(["outage", "--rates", "600,400", "--snr-db", "10", "--method", "upper"])
    out = capsys.readouterr().out
    assert rc == 0
    gap_line = [l for l in out.splitlines() if l.startswith("bound-gap ")]
    assert _field(gap_line[0], "relative_gap") == "0"


def test_bound_gap_prints_a_real_crossing(monkeypatch, capsys):
    # only an ulp-sized crossing is rounding; a lower bound 1 % above the
    # upper one must show as a negative gap
    upper = outage_upper_ir(RateSchedule((1.0,) * 3), PowerProfile((10.0,) * 3)).value
    monkeypatch.setattr("xpharq.cli.outage_lower",
                        lambda rates, powers: Estimate(1.01 * upper, "lower-bound", 0.0))
    rc = main(["outage", "--rates", "1,1,1", "--snr-db", "10", "--method", "upper"])
    out = capsys.readouterr().out
    assert rc == 0
    gap_line = [l for l in out.splitlines() if l.startswith("bound-gap ")]
    assert float(_field(gap_line[0], "relative_gap")) == pytest.approx(-0.01, rel=1e-9)


def test_outage_broadcasts_single_snr(capsys):
    rc = main(["outage", "--rates", "1,2", "--snr-db", "10", "--method", "oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert _field(out, "snr_db") == "10,10"


def test_outage_at_rates_near_zero(capsys):
    # 2^{1e-12} is 1 to 7e-13: the recursion takes 2^R - 1 as expm1(R ln 2)
    rc = main(["outage", "--method", "oracle", "--rates", "1e-12,1e-12", "--snr-db", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert 0.0 < float(_field(out, "uncertainty")) <= 1e-9 * float(_field(out, "value"))


def test_usage_errors_exit_two(monkeypatch):
    for argv in (
        ["outage", "--rates", "1,1", "--snr-db", "10", "--scheme", "inr", "--method", "exact"],
        ["outage", "--rates", "1,-1", "--snr-db", "10"],
        ["outage", "--rates", "1,1", "--snr-db", "10,10,10"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--seed", "-1"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--workers", "0"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--trials", "0"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--trials", "-5"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--tol", "1e-10"],  # no such option
        ["outage", "--rates", "1,1", "--snr-db", "nan"],
        ["outage", "--rates", "1,1", "--snr-db", "inf"],
        ["sweep", "--config", "unused.cfg", "--seed", "-1"],
        ["outage", "--rates", "5000,1", "--snr-db", "10", "--method", "lower"],
        ["outage", "--rates", "1100,1", "--snr-db", "10", "--method", "oracle"],
        ["outage", "--rates", "1", "--snr-db", "10", "--method", "asymptotic"],
        ["hbar", "--rates", "1,1", "--x", "-1"],
        ["hbar", "--rates", "1,1", "--x", "nan"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
    monkeypatch.setenv("XPHARQ_SEED", "-3")
    with pytest.raises(SystemExit) as info:
        main(["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc"])
    assert info.value.code == 2


def test_outage_mc_rare_event_warning(capsys):
    # the warning names only methods that run for the scheme and K
    for scheme, rates, named in (("xp", "1,1", {"exact", "oracle", "asymptotic"}),
                                 ("xp", "1,1,1", {"exact", "oracle", "asymptotic"}),
                                 ("inr", "1,1", {"upper"})):
        rc = main([
            "outage", "--rates", rates, "--snr-db", "80", "--scheme", scheme,
            "--method", "mc", "--trials", "1000",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "rare-event" in captured.err
        assert "warning" in captured.err
        m = re.search(r"use --method (.+) here", captured.err)
        assert m is not None, captured.err
        methods = set(m.group(1).split(" or "))
        assert named <= methods and "mc" not in methods, (scheme, rates, methods)
        for method in methods:
            assert method_error("outage", scheme, method, rates.count(",") + 1) is None, method
        assert "outage events" in captured.err, captured.err
    # few successes are as rare as few outages: a few in 1e5 trials at
    # -10 dB and none at -30 dB both warn, and name the success as the rare
    # outcome, counted as the printed estimate implies
    for rates, db, trials in (("1", "-10", 100000), ("1,1", "-30", 50)):
        rc = main(["outage", "--rates", rates, "--snr-db", db, "--method", "mc",
                   "--trials", str(trials)])
        captured = capsys.readouterr()
        assert rc == 0
        value = float(re.search(r" value=(\S+)", captured.out).group(1))
        seen = round((1.0 - value) * trials)
        assert (seen == 0) == (db == "-30"), (db, seen)
        assert f"only {seen} success events" in captured.err, captured.err
        assert "rare-event" in captured.err and "use --method " in captured.err


def test_outage_mc_no_warning_in_bulk_regime(capsys):
    rc = main([
        "outage", "--rates", "1,1", "--snr-db", "5",
        "--method", "mc", "--trials", "20000",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""


def test_outage_asymptote_warning_outside_high_snr(capsys):
    argv = ["outage", "--rates", "600,400", "--snr-db", "10", "--method", "asymptotic"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert _field(captured.out, "value") == "4.45627902e+301"
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("warning:") and "high-SNR regime" in captured.err
    assert main(["outage", "--rates", "1,1", "--snr-db", "30", "--method", "asymptotic"]) == 0
    assert capsys.readouterr().err == ""


def test_seed_env_fallback_and_flag_override(capsys, monkeypatch):
    argv = ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc",
            "--trials", "20000"]
    monkeypatch.setenv("XPHARQ_SEED", "123")
    main(argv)
    from_env = _field(capsys.readouterr().out, "value")
    monkeypatch.delenv("XPHARQ_SEED")
    main(argv + ["--seed", "123"])
    from_flag = _field(capsys.readouterr().out, "value")
    assert from_env == from_flag
    monkeypatch.setenv("XPHARQ_SEED", "123")
    main(argv + ["--seed", "5"])
    overridden = _field(capsys.readouterr().out, "value")
    monkeypatch.delenv("XPHARQ_SEED")
    main(argv + ["--seed", "5"])
    assert overridden == _field(capsys.readouterr().out, "value")


def test_seed_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("XPHARQ_SEED", "abc")
    with pytest.raises(SystemExit):
        main(["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc",
              "--trials", "1000"])


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    argv = ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "lower"]
    assert main(argv) == 0
    assert built
    built.clear()
    assert main(argv) == 0
    assert built == []
    assert capsys.readouterr().out.count("value=") == 2


def test_seed_env_read_on_every_call(capsys, monkeypatch):
    argv = ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc",
            "--trials", "20000"]
    values = []
    for seed in ("5", "6"):
        monkeypatch.setenv("XPHARQ_SEED", seed)
        assert main(argv) == 0
        values.append(_field(capsys.readouterr().out, "value"))
    monkeypatch.delenv("XPHARQ_SEED")
    assert main(argv + ["--seed", "6"]) == 0
    assert values[1] == _field(capsys.readouterr().out, "value")
    assert values[0] != values[1]


def test_usage_error_after_a_successful_call(capsys):
    ok = ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "lower"]
    for argv, message in (
        (["outage", "--rates", "1", "--snr-db", "10", "--method", "asymptotic"],
         "xpharq: error: method asymptotic needs K >= 2, got K=1"),
        (["outage", "--rates", "1,1", "--snr-db", "10", "--method", "bogus"],
         "xpharq outage: error: argument --method: invalid choice"),
    ):
        assert main(ok) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
        assert len(errors) == 1 and errors[0].startswith(message), errors
    assert main(ok) == 0


def _readme_cli_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ xpharq ...`` line of README's CLI block with the lines it prints."""
    text = (_REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ xpharq "):
            examples.append((line[len("$ xpharq "):], []))
        elif line:
            examples[-1][1].append(line)
    return examples


def test_readme_cli_examples_are_current(capsys):
    examples = _readme_cli_examples()
    assert len(examples) == 3
    untimed = lambda line: [f for f in line.split() if not f.startswith("seconds=")]
    for command, printed in examples:
        assert main(shlex.split(command)) == 0, command
        out = capsys.readouterr().out.splitlines()
        assert [untimed(l) for l in out] == [untimed(l) for l in printed], command


def test_throughput_analytical_chain_provenance(capsys):
    # the printed value matches the chain formula, with a real uncertainty
    # and no outage chain on the line
    for scheme in ("xp", "inr"):
        rc = main(["throughput", "--scheme", scheme, "--rates", "1,1", "--snr-db", "10",
                   "--method", "analytical"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "chain=" not in out
        rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
        expected = throughput_oracle(scheme, rates, powers)
        assert float(_field(out, "value")) == pytest.approx(expected, rel=1e-8)
        assert 0.0 < float(_field(out, "uncertainty")) <= 1e-12


def test_throughput_mc_matches_analytical_loosely(capsys):
    main(["throughput", "--rates", "1,1", "--snr-db", "10", "--method", "mc",
          "--trials", "100000"])
    out = capsys.readouterr().out
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    expected = throughput_oracle("xp", rates, powers)
    assert float(_field(out, "value")) == pytest.approx(expected, abs=0.02)
    assert float(_field(out, "uncertainty")) > 0.0


def test_throughput_mc_without_outages_keeps_an_uncertainty(capsys):
    # with equal rates every XP success delivers one bit per slot, so a run
    # that sees no outage reads eta = 1 with a delta variance of 0; the unseen
    # outage still bounds the half-width from below
    for rates, db, trials in (("1,1", "30", "50000"), ("1,1,1", "20", "100000")):
        argv = ["throughput", "--scheme", "xp", "--rates", rates, "--snr-db", db]
        assert main(argv + ["--method", "mc", "--trials", trials, "--seed", "3"]) == 0
        captured = capsys.readouterr()
        value, half = float(_field(captured.out, "value")), float(_field(captured.out, "uncertainty"))
        assert value == 1.0, captured.out
        assert main(argv + ["--method", "analytical"]) == 0
        exact = float(_field(capsys.readouterr().out, "value"))
        assert half > 0.0 and half >= abs(value - exact), (rates, half, exact)


def test_hbar_dump(capsys):
    rc = main(["hbar", "--rates", "1,1,1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "K = 3" in out
    assert "c[k=1,i=0]" in out
    m = re.search(r"hbar\[K=3,k=1\]\(1\) = (\S+)", out)
    assert m is not None
    ln2 = math.log(2.0)
    assert float(m.group(1)) == pytest.approx(12 * ln2**2 - 4 * ln2 + 1, rel=1e-12)


def test_selftest_passes(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "selftest: ok" in out
    assert "FAIL" not in out
    assert out.count("PASS ") == 6
    # each contour line reports its one pass: nodes, and the kernel's
    # Gauss-Legendre panels (none for the closed-form complete kernel)
    lines = {line.split(":")[0]: line for line in out.splitlines()}
    assert lines["PASS contour-bessel-degenerate"].endswith("; nodes=183 kernel_panels=0")
    assert lines["PASS two-round-triangulation"].endswith("; nodes=340 kernel_panels=1")
    # both K = 3 recursions of the sandwich stop at their first pass, by its
    # own error estimate
    sandwich = lines["PASS bound-sandwich"]
    assert sandwich.count("(passes=1 stop=estimate)") == 2, sandwich


_REPO = Path(__file__).resolve().parents[1]
_LOWER_ARGV = ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "lower"]

# What the console-script launcher generated at install time does: load the
# declared entry point, name the process after the script, and exit with the
# callable's return value.
_LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
main = EntryPoint(name=name, value=value, group="console_scripts").load()
sys.argv[0:3] = [name]
sys.exit(main())
"""


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _run_declared_script(*argv: str) -> subprocess.CompletedProcess:
    tomllib = pytest.importorskip("tomllib")
    with open(_REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "xpharq" in scripts, "pyproject.toml declares no xpharq console script"
    return subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "xpharq", scripts["xpharq"], *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )


def test_entry_point_installed():
    proc = _run_declared_script(*_LOWER_ARGV)
    assert proc.returncode == 0, proc.stderr
    assert "value=" in proc.stdout
    bad = _run_declared_script("outage", "--rates", "1,1", "--snr-db", "10",
                               "--method", "bogus")
    assert bad.returncode == 2
    assert "xpharq outage: error:" in bad.stderr


_SCIPY_PROBE = """
import contextlib, io, sys
import xpharq
from xpharq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["selftest"]) == 0
xpharq.outage_k2_via_foxh(xpharq.RateSchedule((1.0, 1.0)), xpharq.PowerProfile((10.0, 10.0)))
xpharq.foxh_h11_incomplete(1.0)
cfg = xpharq.parse_config(sys.argv[1])
xpharq.write_csv(xpharq.run_sweep(cfg, workers=2), io.StringIO())
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test reference only: the selftest, the Mellin-Barnes
    # contour and a sweep with a process pool run on numpy alone
    config = _SWEEP_CONFIG.replace("trials = 20000", "trials = 2000")
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, config], capture_output=True, text=True,
        env=_src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_selftest_bessel_k1_against_scipy():
    # the selftest's reference for the degenerate contour, DLMF 10.32.9 by
    # the trapezoid rule, against scipy's K_1 over four decades of x
    from scipy.special import kv

    for x in np.geomspace(0.02, 200.0, 61):
        assert cli._bessel_k1(float(x)) == pytest.approx(float(kv(1, x)), rel=1e-14), x


def test_cli_import_leaves_multiprocessing_unloaded():
    # only a sweep that builds a process pool imports multiprocessing, and
    # only a run that builds a pool imports concurrent.futures
    probe = ("import sys, xpharq.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_package_import_starts_no_blas_helper():
    # xpharq's parallelism is its own; OpenBLAS gets one thread unless the
    # caller chose a count, and a caller's choice is left as it is
    probe = ("import os, xpharq; "
             "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = {k: v for k, v in _src_env().items() if k not in _BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**env, "OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "2"


def test_cli_import_builds_no_parser():
    # the parser is built at the first main call, not at import
    probe = (
        "import argparse\n"
        "built = []\n"
        "real = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(self)\n"
        "    real(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import xpharq.cli\n"
        "print(len(built))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_cli_import_builds_no_gauss_rule():
    # the recursion, the contour's kernel and the nested references read
    # one Gauss-Legendre table, core's, and each rule is built at its first
    # use, not at import
    probe = ("import numpy.polynomial.legendre as L\n"
             "built = []\n"
             "real = L.leggauss\n"
             "L.leggauss = lambda m: built.append(m) or real(m)\n"
             "import xpharq.cli\n"
             "from xpharq import bounds, core, exact, quadrature\n"
             "assert bounds._unit_gauss is exact._unit_gauss is quadrature._unit_gauss"
             " is core._unit_gauss\n"
             "print(len(built), core._unit_gauss.cache_info().currsize)\n"
             "nodes, weights = core._unit_gauss(16)\n"
             "assert core._unit_gauss(16)[0] is nodes and not weights.flags.writeable\n"
             "print(built)\n")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["0 0", "[16]"]


@pytest.mark.skipif(shutil.which("xpharq") is None,
                    reason="xpharq console script not installed")
def test_console_script_on_path(capsys):
    proc = subprocess.run(["xpharq", *_LOWER_ARGV], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert main(_LOWER_ARGV) == 0
    assert _field(proc.stdout, "value") == _field(capsys.readouterr().out, "value")


# ---------------------------------------------------------------------------
# sweep configs


_SWEEP_CONFIG = """\
# three-point outage sweep
quantity = outage
axis = snr_db
values = 0,5,10
rates = 1,1
methods = exact,mc
schemes = xp
trials = 20000
seed = 3
"""


def test_config_parse_reads_every_key():
    text = (
        "quantity = throughput\naxis = r1\nvalues = 0.5, 2.25\nrates = 1,2\n"
        "methods = analytical\nschemes = xp, inr\nsnr_db = 7.5\ntrials = 50000\nseed = 12\n"
    )
    assert parse_config(text) == SweepConfig(
        quantity="throughput",
        axis="r1",
        values=(0.5, 2.25),
        rates=(1.0, 2.0),
        methods=("analytical",),
        schemes=("xp", "inr"),
        snr_db=(7.5,),
        trials=50000,
        seed=12,
    )


def test_config_parse_errors_carry_line_numbers():
    bad = "quantity = outage\naxis = snr_db\nnot a key value pair\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(_SWEEP_CONFIG + "bogus = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(_SWEEP_CONFIG + "seed = 4\n")
    with pytest.raises(ConfigError):
        parse_config("quantity = outage\n")  # missing required keys
    with pytest.raises(ConfigError):
        parse_config(_SWEEP_CONFIG.replace("methods = exact,mc", "methods = exact,bogus"))


def test_config_rejects_incompatible_combinations():
    with pytest.raises(ConfigError, match="snr_db key"):
        # the snr_db axis sets every SNR, so an snr_db key would be ignored
        parse_config(_SWEEP_CONFIG.replace("values = 0,5,10", "values = 10\nsnr_db = 40"))
    with pytest.raises(ConfigError):
        # r1 axis needs a pinned SNR
        parse_config(_SWEEP_CONFIG.replace("axis = snr_db", "axis = r1"))
    with pytest.raises(ConfigError):
        parse_config(_SWEEP_CONFIG.replace("schemes = xp", "schemes = inr"))
    with pytest.raises(ConfigError):
        parse_config(_SWEEP_CONFIG.replace("values = 0,5,10", "values = 0,nan"))
    with pytest.raises(ConfigError):
        # the asymptote needs two rounds
        parse_config(_SWEEP_CONFIG.replace("rates = 1,1", "rates = 1")
                     .replace("methods = exact,mc", "methods = asymptotic"))
    r1_axis = _SWEEP_CONFIG.replace("axis = snr_db", "axis = r1")
    for bad in (
        # points whose SNR or 2^{R_K^sum} overflows a double
        _SWEEP_CONFIG.replace("values = 0,5,10", "values = 4000"),
        r1_axis.replace("values = 0,5,10", "values = 1\nsnr_db = 4000"),
        r1_axis.replace("values = 0,5,10", "values = 5000\nsnr_db = 10"),
    ):
        with pytest.raises(ConfigError):
            parse_config(bad)


@pytest.mark.parametrize("k_rounds", [5, 8])
def test_recursion_methods_have_no_round_cap(capsys, k_rounds):
    rates, powers = RateSchedule((1.0,) * k_rounds), PowerProfile((1.0,) * k_rounds)
    point = ["--rates", ",".join(["1"] * k_rounds), "--snr-db", "0"]
    for argv, estimate, scheme in (
        (["outage", "--method", "exact"], estimate_outage, "xp"),
        (["outage", "--method", "oracle"], estimate_outage, "xp"),
        (["outage", "--method", "upper"], estimate_outage, "inr"),
        (["throughput", "--method", "analytical"], estimate_throughput, "xp"),
        (["throughput", "--scheme", "inr", "--method", "analytical"], estimate_throughput, "inr"),
    ):
        assert main(argv + point) == 0
        value = float(_field(capsys.readouterr().out, "value"))
        mc = estimate(SimConfig(scheme=scheme, rates=rates, powers=powers,
                                trials=1_000_000, seed=k_rounds))
        assert abs(value - mc.value) <= 4.0 * mc.uncertainty / 1.96, (argv, value, mc)
    cfg = parse_config(
        _SWEEP_CONFIG.replace("rates = 1,1", "rates = 1,1,1,1,1")
        .replace("methods = exact,mc", "methods = exact,oracle,upper")
    )
    assert cfg.methods == ("exact", "oracle", "upper")


@pytest.mark.parametrize(
    "quantity,method,scheme",
    [(q, m, s) for (q, m), entry in METHODS.items() for s in entry.schemes],
)
def test_cli_and_sweep_agree_on_every_method(tmp_path, capsys, quantity, method, scheme):
    assert main([quantity, "--scheme", scheme, "--method", method, "--rates", "1,1",
                 "--snr-db", "10", "--trials", "20000", "--seed", "3"]) == 0
    value = _field(capsys.readouterr().out, "value")
    cfg_path = tmp_path / "point.cfg"
    cfg_path.write_text(
        f"quantity = {quantity}\naxis = snr_db\nvalues = 10\nrates = 1,1\n"
        f"methods = {method}\nschemes = {scheme}\ntrials = 20000\nseed = 3\n"
    )
    assert main(["sweep", "--config", str(cfg_path), "--out", "-"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [row["value"] for row in rows] == [value]


def test_numerical_failure_is_one_line_exit_one(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise ConvergenceError("IR outage: passes disagree")

    upper = ("outage", "upper")
    monkeypatch.setitem(METHODS, upper, replace(METHODS[upper], compute=fail))
    assert main(["outage", "--rates", "1,1", "--snr-db", "10", "--method", "upper"]) == 1
    cfg_path = tmp_path / "upper.cfg"
    cfg_path.write_text(_SWEEP_CONFIG.replace("methods = exact,mc", "methods = upper"))
    assert main(["sweep", "--config", str(cfg_path), "--out", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "xpharq outage: error: IR outage: passes disagree\n"
        "xpharq sweep: error: IR outage: passes disagree\n"
    )


def test_asymptote_overflow_is_one_line_exit_one(capsys):
    # the true outage underflows to 0 here, but hbar_{K,1}(1) overflows
    for rates in ("255,255,255,255", "1000,1,1,1"):
        argv = ["outage", "--rates", rates, "--snr-db", "3000", "--method", "asymptotic"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("xpharq outage: error: the asymptote overflows")
        assert "nan" not in captured.err


def test_hbar_overflow_is_one_line_exit_one(capsys):
    # at 255 bits a round the coefficients overflow; at 250 they do not, but
    # hbar_{4,1}(1e-308) does
    for argv, message in (
        (["hbar", "--rates", "255,255,255,255"], "the asymptote overflows a double"),
        (["hbar", "--rates", "250,250,250,250", "--x", "1e-308"], "hbar_{4,1}(1e-308) overflows"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"xpharq hbar: error: {message}"), captured.err


@pytest.mark.parametrize("quantity,method", list(METHODS))
def test_every_method_returns_an_estimate_with_a_bound(quantity, method):
    entry = METHODS[quantity, method]
    for scheme in entry.schemes:
        for k_rounds in range(entry.k_min, 4):
            rates = RateSchedule((1.0,) * k_rounds)
            powers = PowerProfile((10.0,) * k_rounds)
            est = evaluate(quantity, scheme, method, rates, powers, trials=2000, seed=1)
            where = (scheme, k_rounds, est)
            assert isinstance(est, Estimate), where
            assert math.isfinite(est.value) and est.uncertainty >= 0.0, where
            assert est.uncertainty > 0.0 or est.value <= 0.0, where


def test_sweep_csv_deterministic_across_workers(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    # three blocks: the mc rows run as one, two and three block shares
    cfg_path.write_text(_SWEEP_CONFIG.replace("trials = 20000", f"trials = {2 * _BLOCK + 999}"))
    out1 = tmp_path / "w1.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    for workers in ("2", "3"):
        out = tmp_path / f"w{workers}.csv"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out),
                     "--workers", workers]) == 0
        assert filecmp.cmp(out1, out, shallow=False), workers
    lines = out1.read_text().splitlines()
    assert lines[0] == "snr_db,K,R_csv,scheme,method,value,uncertainty,seed"
    assert len(lines) == 1 + 3 * 2  # header + values x methods


class _SerialPool:
    """Records (pool size, task count) of each map and maps in this process."""

    started = []

    def __init__(self, max_workers):
        self.size = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.started.append((self.size, len(items)))
        return map(fn, items)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands ``_SerialPool`` in for the process pool; yields its records."""
    # the sweep imports the pool class where it builds a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "started", [])
    return _SerialPool.started


@pytest.mark.parametrize("values, workers, pools", [
    ("0,5", 16, [2]),         # two rows: two processes, not sixteen
    ("0,5,10,15", 3, [3]),    # more rows than workers: the worker count
    ("0", 16, []),            # one row runs in this process
])
def test_sweep_pool_never_exceeds_row_count(serial_pool, values, workers, pools):
    cfg = parse_config(_SWEEP_CONFIG.replace("values = 0,5,10", f"values = {values}")
                       .replace("methods = exact,mc", "methods = lower"))
    serial = sweep.run_sweep(cfg)
    assert sweep.run_sweep(cfg, workers=workers) == serial
    assert [size for size, _ in serial_pool] == pools


@pytest.mark.parametrize("methods, blocks, workers, tasks", [
    ("mc", 1, 16, None),        # one block: one task, run in this process
    ("mc", 3, 16, (3, 3)),      # one share per block, not sixteen
    ("mc", 3, 2, (2, 2)),       # more blocks than workers: one share per worker
    ("upper,mc", 1, 2, (2, 7)), # one share, and a task per upper row
    ("upper,mc", 3, 8, (8, 9)), # three shares and six upper rows
])
def test_sweep_mc_rows_run_as_block_shares(serial_pool, methods, blocks, workers, tasks):
    # every axis value and scheme of the mc rows shares each block's draws
    cfg = parse_config(
        _SWEEP_CONFIG.replace("methods = exact,mc", f"methods = {methods}")
        .replace("trials = 20000", f"trials = {(blocks - 1) * _BLOCK + 777}")
        .replace("schemes = xp", "schemes = xp,inr")
    )
    serial = sweep.run_sweep(cfg)
    assert sweep.run_sweep(cfg, workers=workers) == serial
    assert serial_pool == ([] if tasks is None else [tasks])


@pytest.mark.parametrize("quantity", ["outage", "throughput"])
@pytest.mark.parametrize("axis", ["snr_db", "r1"])
def test_sweep_mc_rows_equal_point_evaluation(serial_pool, quantity, axis):
    # a group's rows are bit for bit the point queries at every worker count
    points = ("values = -5,10,25\n" if axis == "snr_db"
              else "values = 0.5,1.5,4\nsnr_db = 12,6\n")
    cfg = parse_config(
        f"quantity = {quantity}\naxis = {axis}\n{points}rates = 1,2\nmethods = mc\n"
        f"schemes = xp,inr\ntrials = {2 * _BLOCK + 3}\nseed = 41\n"
    )
    for workers in (1, 2, 3):
        rows = sweep.run_sweep(cfg, workers=workers)
        assert len(rows) == 6
        for row in rows:
            snr_db = ((row.snr_db,) * 2 if axis == "snr_db" else cfg.snr_db)
            powers = PowerProfile([10.0 ** (db / 10.0) for db in snr_db])
            est = evaluate(quantity, row.scheme, "mc", RateSchedule(row.rates), powers,
                           trials=cfg.trials, seed=41)
            assert (row.value, row.uncertainty) == (est.value, est.uncertainty), (workers, row)
    assert serial_pool == [(2, 2), (3, 3)]  # the three blocks split into two, then three shares


def test_sweep_rows_match_direct_evaluation(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_SWEEP_CONFIG)
    out = tmp_path / "rows.csv"
    main(["sweep", "--config", str(cfg_path), "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    exact_rows = [r for r in rows if r["method"] == "exact"]
    assert len(exact_rows) == 3
    for row in exact_rows:
        g = 10.0 ** (float(row["snr_db"]) / 10.0)
        want = xp_outage(RateSchedule((1.0, 1.0)), PowerProfile((g, g))).value
        assert float(row["value"]) == pytest.approx(want, rel=1e-7)
        assert row["R_csv"] == "1,1"
        assert row["K"] == "2"


def test_sweep_seed_override_changes_only_mc_rows(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_SWEEP_CONFIG)
    base, reseeded = tmp_path / "base.csv", tmp_path / "reseeded.csv"
    main(["sweep", "--config", str(cfg_path), "--out", str(base)])
    main(["sweep", "--config", str(cfg_path), "--out", str(reseeded), "--seed", "99"])

    def rows_of(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    for a, b in zip(rows_of(base), rows_of(reseeded)):
        if a["method"] == "exact":
            assert a["value"] == b["value"]
        else:
            assert a["value"] != b["value"]
            assert b["seed"] == "99"


def test_sweep_r1_axis(tmp_path):
    text = (
        "quantity = throughput\naxis = r1\nvalues = 0.5,1.5\nrates = 1,2\n"
        "methods = analytical\nschemes = xp,inr\nsnr_db = 10\n"
    )
    cfg_path = tmp_path / "r1.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "r1.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2  # axis values x schemes
    assert {r["scheme"] for r in rows} == {"xp", "inr"}
    for row in rows:
        assert row["snr_db"] == "10"
        assert row["R_csv"].split(",")[1] == "2"
        assert row["R_csv"].split(",")[0] in ("0.5", "1.5")


def test_sweep_to_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_SWEEP_CONFIG.replace("exact,mc", "exact"))
    rc = main(["sweep", "--config", str(cfg_path), "--out", "-"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("snr_db,K,R_csv,")


def test_sweep_gnuplot_script(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_SWEEP_CONFIG)
    out, plot = tmp_path / "data.csv", tmp_path / "plot.gp"
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(out),
               "--gnuplot", str(plot)])
    assert rc == 0
    script = plot.read_text()
    assert "plot" in script and str(out) in script
    assert "logscale y" in script  # outage quantity plots on a log axis
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(cfg_path), "--out", "-",
              "--gnuplot", str(plot)])
    assert info.value.code == 2


def test_sweep_malformed_config_is_usage_error(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("quantity = outage\nwhat = ever\n")
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(cfg_path), "--out", "-"])
    assert info.value.code == 2


@pytest.mark.parametrize("line,problem", [
    ("trials = 0", "trials must be at least 1"),
    ("seed = -1", "seed must fit in 64 bits"),
    ("seed = 18446744073709551616", "seed must fit in 64 bits"),
    ("rates = -1,1", "rates entries must be positive and finite, got -1.0"),
    ("rates = 1,nan", "rates entries must be positive and finite, got nan"),
    # a repeated entry would write each of its rows twice
    ("methods = exact,mc,exact", "methods lists 'exact' twice"),
    ("schemes = xp,xp", "schemes lists 'xp' twice"),
])
def test_config_field_errors_name_the_problem(tmp_path, capsys, line, problem):
    # each of these keys holds for all rows, so its error names no axis value
    key = line.split(" = ")[0]
    text = re.sub(rf"^{key} = .*$", line, _SWEEP_CONFIG, flags=re.M)
    assert line in text.splitlines()
    with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
        parse_config(text)
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(cfg_path), "--out", "-"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {problem}\n")


def test_r1_axis_blames_a_bad_fixed_rate_on_its_key_and_a_bad_value_on_itself():
    r1_axis = _SWEEP_CONFIG.replace("axis = snr_db", "axis = r1").replace(
        "values = 0,5,10", "values = 0.5,2\nsnr_db = 10")
    for old, new, problem in (
        ("rates = 1,1", "rates = 1,-1", "rates entries must be positive and finite, got -1.0"),
        ("values = 0.5,2", "values = 0.5,-2",
         "r1 = -2.0: rates entries must be positive and finite, got -2.0"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(problem)}$"):
            parse_config(r1_axis.replace(old, new))
    # the axis value replaces the first rate, which is never checked
    parse_config(r1_axis.replace("rates = 1,1", "rates = -1,1"))


def test_sweep_config_not_utf8_is_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "latin1.cfg"
    cfg_path.write_bytes(_SWEEP_CONFIG.encode() + b"# \xff\n")
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--config", str(cfg_path), "--out", "-"])
    assert info.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("xpharq: error: cannot read config: ")
    assert "0xff" in err[-1]


def test_sweep_unwritable_output_is_usage_error_before_the_sweep(tmp_path, capsys,
                                                                    monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep ran before its outputs were opened")

    monkeypatch.setattr(cli, "run_sweep", never)
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_SWEEP_CONFIG)
    good, bad = tmp_path / "data.csv", tmp_path / "no-such-dir" / "out"
    for argv in (["--out", str(bad)], ["--out", str(good), "--gnuplot", str(bad)]):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg_path), *argv])
        assert info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"xpharq: error: cannot write {bad}: No such file or directory"
    assert good.read_text() == ""  # no row was written


def test_sweep_with_huge_trials_and_no_mc_row_runs_in_bounded_memory(tmp_path):
    # the block count of 1e23 trials is only counted, never listed; the child
    # caps its own address space, so a regression fails here instead of
    # taking the machine's memory
    pytest.importorskip("resource")
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text("quantity = outage\naxis = snr_db\nvalues = 10\nrates = 1,1\n"
                        "methods = lower\ntrials = 99999999999999999999999\n")
    probe = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from xpharq.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, "sweep", "--config", str(cfg_path),
                           "--workers", "2"],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert [(row["method"], row["seed"]) for row in rows] == [("lower", "0")]
