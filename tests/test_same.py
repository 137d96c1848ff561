"""``tools/same.py``'s comparison of two trees, on stub trees.

Each stub tree holds only ``src/xpharq/cli.py``, whose ``main`` prints a
chosen line per query; no real query runs here.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "same", Path(__file__).resolve().parents[1] / "tools" / "same.py")
same = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same)

# A stand-in for the CLI: echoes the query with a clock reading that varies
# from run to run, and exits 2 on an inr exact query, as the real one does.
_STUB = """\
import sys, time


def main(argv):
    if argv[:5] == ["outage", "--scheme", "inr", "--method", "exact"]:
        print("xpharq: error: method exact supports scheme xp", file=sys.stderr)
        raise SystemExit(2)
    print(" ".join(argv[:5]) + f" value=0.25 seconds={time.perf_counter_ns()}")
    return 0
"""


def _tree(root: Path, name: str, stub: str) -> str:
    package = root / name / "src" / "xpharq"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(stub)
    return str(root / name)


def test_equal_trees_are_identical_whatever_their_clocks(tmp_path, capsys):
    base, change = _tree(tmp_path, "base", _STUB), _tree(tmp_path, "change", _STUB)
    assert same.main([base, change]) == 0
    assert capsys.readouterr().out == "identical\n"


def test_a_moved_value_an_exit_code_or_a_raise_is_a_diff(tmp_path, capsys):
    base = _tree(tmp_path, "base", _STUB)
    for name, stub, removed, added in (
        # the selftest's value moves in its last digit
        ("value", _STUB.replace("value=0.25", "value={0.2500001 if argv == ['selftest'] "
                                "else 0.25}"),
         "-selftest value=0.25", "selftest value=0.2500001"),
        # the inr exact query exits 1 where it exited 2
        ("exit", _STUB.replace("SystemExit(2)", "SystemExit(1)"),
         "-$ xpharq outage --scheme inr --method exact --rates 1,1 --snr-db 10  [exit 2]",
         "+$ xpharq outage --scheme inr --method exact --rates 1,1 --snr-db 10  [exit 1]"),
        # a traceback is a result too, named by its exception alone
        ("raise", _STUB.replace("return 0", "raise ValueError('no sweep') if argv[0] == "
                                "'sweep' else 0"),
         None, "[exit raised ValueError: no sweep]"),
    ):
        change = _tree(tmp_path, name, stub)
        assert same.main([base, change]) == 1, name
        diff = capsys.readouterr().out.splitlines()
        assert diff[0] == f"--- {base}" and diff[1] == f"+++ {change}", name
        assert removed is None or removed in diff, name
        assert any(line.startswith("+") and added in line for line in diff), name
        assert not any("seconds=" in line for line in diff), name


def test_the_query_set_covers_every_entry_scheme_and_sweep():
    argvs = same.queries("ref.cfg")
    points = [a for a in argvs if a[0] in ("outage", "throughput") and a[1] == "--scheme"]
    grid = [a for a in points if a[a.index("--snr-db") + 1] == "10"]
    # 8 entries x 2 schemes x K = 2, 3, 4, the two mc entries at 1 and 2
    # workers, then the two mc entries x 2 schemes at 5 and 65,535 trials
    assert len(grid) == (8 * 2 + 2 * 2) * 3 + 2 * 2 * 2
    assert {tuple(a[1:5]) for a in grid} == {
        ("--scheme", s, "--method", m) for _, m in same.ENTRIES for s in same.SCHEMES}
    mc = [a for a in grid if a[4] == "mc"]
    assert sorted({a[a.index("--trials") + 1] for a in mc}) == ["5", "65535", "65537"]
    # the 6 deterministic entries x 2 schemes at each corner
    for rates, snr_db in same.CORNERS:
        corner = [a for a in points if a[-4:] == ["--rates", rates, "--snr-db", snr_db]]
        assert len(corner) == 6 * 2 and all(a[4] != "mc" for a in corner), rates
    assert all(a in argvs for a in same.HIGH_SNR)
    assert ["selftest"] in argvs
    assert [a[-1] for a in argvs if a[0] == "sweep"] == ["1", "2", "3"]
