"""``tools/ab.py``'s summary of paired benchmark records, on synthetic records.

No real benchmark runs here: each record is the shape ``benchmarks/run.py``
prints, ``{"metrics": {name: {"value": v}}}``, with chosen values, and the
one series that runs does so on stub ``benchmarks/run.py`` scripts in
temporary trees.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

_METRICS = [{"name": "cpu_ms_p50", "better": "lower"}, {"name": "rate", "better": "higher"}]


def _records(cpu, rate):
    return [{"metrics": {"cpu_ms_p50": {"value": c}, "rate": {"value": r}}}
            for c, r in zip(cpu, rate)]


def test_summary_decides_a_clear_change_each_way():
    base = _records([10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3],
                    [5.0, 5.1, 4.9, 5.0, 5.2, 5.0, 4.8, 5.1])
    change = _records([7.5, 7.9, 7.4, 7.6, 7.8, 7.5, 7.7, 7.6],
                      [4.0, 4.2, 3.9, 4.1, 4.0, 4.1, 3.9, 4.0])
    out = ab.summarise(base, change, _METRICS)
    cpu, rate = out["cpu_ms_p50"], out["rate"]
    # lower is better for cpu, so a fall is an improvement; a fall in a
    # higher-is-better rate is worse
    assert cpu["verdict"] == "improved" and rate["verdict"] == "worse"
    assert cpu["favouring_change"] == 8 and rate["favouring_change"] == 0
    lo, hi = cpu["interval_95"]
    assert lo <= cpu["median_log_ratio"] <= hi < 0.0
    assert cpu["median_log_ratio"] == pytest.approx(math.log(7.6 / 10.1), abs=0.02)
    assert cpu["base_median"] == pytest.approx(10.05) and cpu["pairs"] == 8
    # the mirror image: the same pairs with the sides swapped
    back = ab.summarise(change, base, _METRICS)
    assert back["cpu_ms_p50"]["verdict"] == "worse" and back["rate"]["verdict"] == "improved"


def test_summary_leaves_noise_unresolved():
    noise = [0.03, -0.02, 0.05, -0.04, 0.01, -0.03, 0.02, -0.01, 0.04, -0.05]
    base = _records([10.0] * 10, [5.0] * 10)
    change = _records([10.0 * math.exp(e) for e in noise], [5.0 * math.exp(-e) for e in noise])
    out = ab.summarise(base, change, _METRICS)
    for name in ("cpu_ms_p50", "rate"):
        lo, hi = out[name]["interval_95"]
        assert lo < 0.0 < hi, name
        assert out[name]["verdict"] == "unresolved", name


def test_bootstrap_interval_is_reproducible_and_brackets_the_median():
    ratios = [0.1, -0.2, 0.05, 0.3, -0.1, 0.0, 0.2]
    lo, hi = ab.bootstrap_interval(ratios)
    assert (lo, hi) == ab.bootstrap_interval(ratios)
    assert min(ratios) <= lo <= 0.05 <= hi <= max(ratios)
    assert ab.bootstrap_interval([0.2] * 5) == (0.2, 0.2)


def test_a_broken_run_makes_every_verdict_incorrect():
    # the change is faster in every pair, but one of its runs reported a
    # wrong item: the numbers measured a broken program, so no metric can
    # be judged, and the count of such runs per side is kept
    base = _records([10.0, 10.4, 9.8, 10.1, 10.2, 9.9], [5.0, 5.1, 4.9, 5.0, 5.2, 5.0])
    change = _records([7.5, 7.9, 7.4, 7.6, 7.8, 7.5], [6.0, 6.2, 5.9, 6.1, 6.0, 6.1])
    assert ab.summarise(base, change, _METRICS)["cpu_ms_p50"]["verdict"] == "improved"
    for record in base:
        record["correct"] = True
    change[3]["correct"] = False
    assert (ab.failed_runs(base), ab.failed_runs(change)) == (0, 1)
    out = ab.summarise(base, change, _METRICS)
    assert {name: s["verdict"] for name, s in out.items()} == {
        "cpu_ms_p50": "incorrect", "rate": "incorrect"}
    assert out["cpu_ms_p50"]["favouring_change"] == 6


def test_a_run_that_exits_non_zero_is_kept_as_a_failed_run(tmp_path, monkeypatch):
    # the change tree's benchmark exits 3 before printing a record: each
    # such run is kept with its exit code, the series runs to its end, the
    # record is written, and every metric reads incorrect
    good, bad = tmp_path / "base", tmp_path / "change"
    record = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"cpu_ms_p50": {"value": 1.0}, "rate": {"value": 2.0}}}
    for tree, body in ((good, f"print('warming up')\nprint({json.dumps(record)!r})\n"),
                       (bad, "import sys\nprint('starting')\nsys.exit(3)\n")):
        (tree / "benchmarks").mkdir(parents=True)
        (tree / "benchmarks" / "run.py").write_text(body)
    assert ab.run_once(str(good), "w", 1, 0.1) == record
    failed = ab.run_once(str(bad), "w", 1, 0.1)
    assert (failed["correct"], failed["exit_code"]) == (False, 3)

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": _METRICS,
                                                         "run_seconds": 0.1}))
    monkeypatch.setattr(ab, "ROOT", str(tmp_path))
    assert ab.main([str(good), str(bad), "--workload", "w", "--pairs", "2", "--seed", "1",
                    "--label", "t"]) == 0
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["failed_runs"] == {"base": 0, "change": 2}
    assert [r["exit_code"] for r in out["change"]] == [3, 3]
    assert out["summary"] == {"cpu_ms_p50": {"verdict": "incorrect", "pairs": 0},
                              "rate": {"verdict": "incorrect", "pairs": 0}}
