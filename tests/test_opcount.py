"""The opcode-count tool: its JSON line for a flop unit at r = 2 and for the
two seeded workloads, the same counts from a fresh interpreter and from this
one, and perfbench's gate as its verdict: a mutant that chowcalc's own
routes cannot see reads ``ok: false``."""

import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import chowcalc.chern as chern_mod
import chowcalc.flop as flop_mod

OPCOUNT = Path(__file__).resolve().parent.parent / "bench" / "opcount.py"


def _load_opcount():
    spec = importlib.util.spec_from_file_location("chowcalc_opcount", OPCOUNT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_opcount_prints_the_counts_of_one_unit():
    proc = subprocess.run(
        [sys.executable, str(OPCOUNT), "--r", "2"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    result = json.loads(line)
    assert list(result) == ["r", "python", "bytecodes", "calls", "ok"]
    assert result["r"] == 2 and result["ok"] is True
    assert result["python"] == platform.python_version()
    assert 0 < result["calls"] < result["bytecodes"]
    # counts depend on the source and the interpreter only
    hooks = sys.gettrace(), sys.getprofile()
    again = _load_opcount().count(2)
    assert (again["bytecodes"], again["calls"]) == (result["bytecodes"], result["calls"])
    assert (sys.gettrace(), sys.getprofile()) == hooks  # both restored


def test_opcount_rejects_a_rank_below_one():
    proc = subprocess.run(
        [sys.executable, str(OPCOUNT), "--r", "0"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2 and "--r must be >= 1" in proc.stderr


@pytest.mark.parametrize("workload", ["cli_all", "charclass_cold"])
def test_opcount_counts_a_seeded_workload_the_same_twice(workload):
    proc = subprocess.run(
        [sys.executable, str(OPCOUNT), "--workload", workload],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert list(result) == ["workload", "seed", "python", "bytecodes", "calls", "ok"]
    assert result["workload"] == workload and result["seed"] == 1 and result["ok"] is True
    again = _load_opcount().count(workload=workload)
    assert (again["bytecodes"], again["calls"]) == (result["bytecodes"], result["calls"])


def test_opcount_takes_a_rank_for_the_flop_only(capsys):
    with pytest.raises(SystemExit) as exc:
        _load_opcount().main(["--workload", "cli_all", "--r", "4"])
    assert exc.value.code == 2 and "--r applies to flop_formal only" in capsys.readouterr().err


def _todd_series_doubled(monkeypatch):
    log = chern_mod._log_unit_series
    monkeypatch.setattr(chern_mod, "_log_unit_series", lambda q: [2 * x for x in log(q)])


def _anchor_reworded(monkeypatch):
    monkeypatch.setitem(flop_mod.ANCHORS, "flop.homogeneity", "correction terms homogeneous")


def _symmetry_dropped(monkeypatch):
    verify = flop_mod.verify_foundations

    def without_symmetry(ctx):
        report = verify(ctx)
        report.checks = [c for c in report.checks if c.name != "foundations.symmetry"]
        return report

    monkeypatch.setattr(flop_mod, "verify_foundations", without_symmetry)


# (mutant, opcount's arguments, the start of a line the gate writes to
# stderr); None is unmutated
VERDICT_CASES = {
    "unmutated": (None, ["--r", "4"], None),
    "todd_series_doubled": (
        _todd_series_doubled, ["--workload", "charclass_cold"], "charclass: todd_universal(1)"),
    "anchor_reworded": (
        _anchor_reworded, ["--workload", "cli_all"], "cli: report differs from the golden copy"),
    "symmetry_dropped": (_symmetry_dropped, ["--r", "4"], "flop: check names"),
}


@pytest.mark.parametrize("case", list(VERDICT_CASES))
def test_opcount_verdict_is_the_perfbench_gate(monkeypatch, capsys, case):
    mutant, argv, problem = VERDICT_CASES[case]
    if mutant:
        mutant(monkeypatch)
    try:
        status = _load_opcount().main(argv)  # count() in this interpreter
    finally:  # no Todd polynomial a mutant computed outlives the test
        chern_mod.todd_universal.cache_clear()
    out, err = capsys.readouterr()
    assert json.loads(out)["ok"] is (mutant is None)
    if mutant is None:
        assert status == 0 and err == ""
    else:  # a failing count exits 1 and says why
        assert status == 1 and any(line.startswith(problem) for line in err.splitlines()), err
