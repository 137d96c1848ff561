"""Command-line interface and sweep configuration round trips."""

import argparse
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

import pytest

from xpharq import (
    ConfigError,
    ConvergenceError,
    PowerProfile,
    RateSchedule,
    SimConfig,
    SweepConfig,
    emit_config,
    estimate_outage,
    estimate_throughput,
    outage_k2_exact,
    outage_lower,
    outage_upper_ir,
    parse_config,
)
from xpharq import cli, quadrature, sweep
from xpharq.cli import main
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
    expected = outage_k2_exact(RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))).value
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
        outage_lower(RateSchedule((1.0,) * 3), PowerProfile((10.0,) * 3)), rel=1e-8
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
    monkeypatch.setattr("xpharq.cli.outage_lower", lambda rates, powers: 1.01 * upper)
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


def test_usage_errors_exit_two(monkeypatch):
    for argv in (
        ["outage", "--rates", "1,1,1", "--snr-db", "10", "--method", "exact"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--scheme", "inr", "--method", "exact"],
        ["outage", "--rates", "1,-1", "--snr-db", "10"],
        ["outage", "--rates", "1,1", "--snr-db", "10,10,10"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--seed", "-1"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--workers", "0"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--trials", "0"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--method", "mc", "--trials", "-5"],
        ["outage", "--rates", "1,1", "--snr-db", "10", "--tol", "0"],
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
                                 ("xp", "1,1,1", {"oracle", "asymptotic"}),
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
        (["outage", "--rates", "1,1,1", "--snr-db", "10", "--method", "exact"],
         "xpharq: error: method exact supports K <= 2, got K=3"),
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


def test_no_production_path_reaches_adaptive_quadrature(monkeypatch, capsys):
    # the adaptive engine is a reference: no table entry and no selftest
    # check may need it
    def forbidden(*args, **kwargs):
        raise AssertionError("integrate_adaptive called")

    real = quadrature.integrate_adaptive
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "xpharq":
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, forbidden)
    rates, powers = RateSchedule((1.0, 1.0)), PowerProfile((10.0, 10.0))
    for (quantity, method), entry in METHODS.items():
        for scheme in entry.schemes:
            if method_error(quantity, scheme, method, 2) is None:
                est = evaluate(quantity, scheme, method, rates, powers, trials=2000)
                assert math.isfinite(est.value), (quantity, scheme, method)
    assert main(["selftest"]) == 0
    assert "selftest: ok" in capsys.readouterr().out


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded only by the Mellin-Barnes contour and selftest
    probe = "import sys, xpharq.cli; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_config_parse_and_emit_round_trip():
    cfg = SweepConfig(
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
    assert parse_config(emit_config(cfg)) == cfg


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
    with pytest.raises(ConfigError):
        # exact closed form does not cover three rounds
        parse_config(_SWEEP_CONFIG.replace("rates = 1,1", "rates = 1,1,1"))
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
        .replace("methods = exact,mc", "methods = oracle,upper")
    )
    assert cfg.methods == ("oracle", "upper")


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


def test_sweep_csv_deterministic_across_workers(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(_SWEEP_CONFIG)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2),
                 "--workers", "3"]) == 0
    assert filecmp.cmp(out1, out2, shallow=False)
    lines = out1.read_text().splitlines()
    assert lines[0] == "snr_db,K,R_csv,scheme,method,value,uncertainty,seed"
    assert len(lines) == 1 + 3 * 2  # header + values x methods


@pytest.mark.parametrize("values, workers, pools", [
    ("0,5", 16, [2]),         # two rows: two processes, not sixteen
    ("0,5,10,15", 3, [3]),    # more rows than workers: the worker count
    ("0", 16, []),            # one row runs in this process
])
def test_sweep_pool_never_exceeds_row_count(monkeypatch, values, workers, pools):
    started = []

    class SerialPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    cfg = parse_config(_SWEEP_CONFIG.replace("values = 0,5,10", f"values = {values}")
                       .replace("methods = exact,mc", "methods = lower"))
    serial = sweep.run_sweep(cfg)
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    assert sweep.run_sweep(cfg, workers=workers) == serial
    assert started == pools


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
        want = outage_k2_exact(RateSchedule((1.0, 1.0)), PowerProfile((g, g))).value
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
