"""The alternating-pairs tool, on a fake runner: the order of the sides in
each pair, the seeds, the quartiles, the pairs won and the gain rule, the
JSON it writes with the bytecode state and path length of each checkout, the
warning on unequal path lengths, and a failed run.
No perfbench run is started."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ROOT / "bench" / "pairs.py"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _load_pairs():
    spec = importlib.util.spec_from_file_location("chowcalc_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkouts(tmp_path) -> tuple[Path, Path]:
    sides = []
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        sides.append(tmp_path / name)
    return tuple(sides)


def test_pairs_alternate_sides_and_summarise(tmp_path, capsys):
    pairs = _load_pairs()
    parent, change = _checkouts(tmp_path)
    calls = []

    def fake(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, workload, seed, seconds))
        # the change is 10% lower, except in pair 3, where it loses
        ratio = 1.0 + seed / 100
        if side == "change":
            ratio *= 1.2 if seed == 4 else 0.9
        return {"verdict_ref_mean": ratio, "pass_ratio": 1.0}

    out = tmp_path / "pairs.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "cli_all",
            "--pairs", "10", "--out", str(out)]
    assert pairs.main(argv, runner=fake) == 0
    # pair i runs seed 1 + i; even pairs run the parent first, odd the change
    assert [c[2] for c in calls] == [s for s in range(1, 11) for _ in range(2)]
    assert [c[0] for c in calls[::2]] == ["parent", "change"] * 5
    # every run is as long as the benchmark's own runs
    assert {c[1] for c in calls} == {"cli_all"} and {c[3] for c in calls} == {RUN_SECONDS}

    result = json.loads(out.read_text())
    runs = result["workloads"]["cli_all"]["runs"]
    assert [r["first"] for r in runs] == ["parent", "change"] * 5
    summary = result["workloads"]["cli_all"]["summary"]
    verdict = summary["verdict_ref_mean"]
    assert verdict["better"] == "lower" and verdict["won"] == 9 and verdict["pairs"] == 10
    assert verdict["parent"]["median"] == pytest.approx(1.055)
    assert verdict["parent"]["q1"] == pytest.approx(1.0325)
    assert verdict["parent"]["q3"] == pytest.approx(1.0775)
    assert verdict["gain"]  # 9 of 10 won, and the gap tops the parent's spread
    # a tie is no win, and a higher-is-better metric is read that way
    assert summary["pass_ratio"]["better"] == "higher"
    assert summary["pass_ratio"]["won"] == 0 and not summary["pass_ratio"]["gain"]
    printed = capsys.readouterr().out
    assert "cli_all verdict_ref_mean: parent 1.055" in printed and "won 9/10 GAIN" in printed


@pytest.mark.parametrize("dont_write", [None, "", "1"])
def test_env_records_the_bytecode_state_of_each_checkout(tmp_path, monkeypatch, dont_write):
    pairs = _load_pairs()
    parent, change = _checkouts(tmp_path)
    (parent / "src" / "chowcalc" / "__pycache__").mkdir(parents=True)
    (change / "src" / "chowcalc").mkdir(parents=True)  # source, never compiled
    if dont_write is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", dont_write)

    def fake(checkout, workload, seed, seconds):
        return {"verdict_ref_mean": 1.0}

    out = tmp_path / "pairs.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workload", "charclass_cold",
            "--pairs", "1", "--out", str(out)]
    assert pairs.main(argv, runner=fake) == 0
    env = json.loads(out.read_text())["env"]
    assert env["parent"] == str(parent) and env["change"] == str(change)
    # an empty value does not stop Python writing bytecode
    written = dont_write == "1"
    assert env["bytecode"] == {"parent": {"pycache": True, "dont_write_bytecode": written},
                               "change": {"pycache": False, "dont_write_bytecode": written}}


@pytest.mark.parametrize("names", [("parent", "change"), ("parent", "changed")])
def test_env_records_the_path_length_of_each_checkout(tmp_path, capsys, names):
    pairs = _load_pairs()
    checkouts = []
    for name in names:
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        checkouts.append(tmp_path / name)

    def fake(checkout, workload, seed, seconds):
        return {"peak_rss_mb": 17.0}

    out = tmp_path / "pairs.json"
    argv = ["--parent", str(checkouts[0]), "--change", str(checkouts[1]),
            "--workload", "cli_all", "--pairs", "1", "--out", str(out)]
    assert pairs.main(argv, runner=fake) == 0
    lengths = json.loads(out.read_text())["env"]["path_length"]
    assert lengths == {side: len(str(path)) for side, path in zip(("parent", "change"), checkouts)}
    # a path one character longer is warned about, an equal one is not
    warned = "paths differ in length" in capsys.readouterr().err
    assert warned == (len(names[0]) != len(names[1]))


def test_too_few_wins_or_a_small_gap_is_no_gain():
    pairs = _load_pairs()
    better = {"verdict_ref_mean": "lower"}

    def rows(parent, change):
        return [{"parent": {"verdict_ref_mean": p}, "change": {"verdict_ref_mean": c}}
                for p, c in zip(parent, change)]

    # wins 8 of 10: no gain however large the gap
    few = pairs.summarise(rows([1.0] * 10, [0.5] * 8 + [1.5] * 2), better)
    assert few["verdict_ref_mean"]["won"] == 8 and not few["verdict_ref_mean"]["gain"]
    # wins 10 of 10 by less than the parent's interquartile distance
    spread = [1.0, 1.2] * 5
    small = pairs.summarise(rows(spread, [x - 0.01 for x in spread]), better)
    assert small["verdict_ref_mean"]["won"] == 10 and not small["verdict_ref_mean"]["gain"]
    # one pair: its value is every quartile
    one = pairs.summarise(rows([2.0], [1.0]), better)["verdict_ref_mean"]
    assert one["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}


def test_a_failed_run_stops_the_tool(tmp_path, capsys):
    pairs = _load_pairs()
    parent, change = _checkouts(tmp_path)

    def failing(checkout, workload, seed, seconds):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exit 2: boom")

    argv = ["--parent", str(parent), "--change", str(change), "--workload", "flop_formal"]
    assert pairs.main(argv, runner=failing) == 1
    assert "boom" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # a checkout without perfbench/run.py
        pairs.main(["--parent", str(tmp_path), "--change", str(change), "--workload", "x"])


def test_pairs_tool_imports_nothing_from_perfbench():
    tree = ast.parse(PAIRS.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported and not any("perfbench" in name or name in {"run", "spans", "workloads"}
                                for name in imported)
