"""Tests of the benchmark itself: python3 -m pytest perfbench

Small sizes (r = 4, Mukai degree 5) keep them fast; the gates, tracing and
result assembly are the same code the full-size runs use.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "flop_formal": lambda: workloads.FlopFormal(0, r=4),
    "cli_all": lambda: workloads.CliAll(3),
    "charclass_cold": lambda: workloads.CharclassCold(3, max_deg=5),
}


def output_match(wl) -> int:
    _, metrics, _ = run.run_timed(wl, workloads, seconds=0)
    return metrics["output_match"][0]


@pytest.fixture(autouse=True)
def one_unit(monkeypatch):
    monkeypatch.setattr(run, "MIN_UNITS", 1)
    monkeypatch.setattr(run, "SETUP_REPS", 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_identical(name):
    wl = SMALL[name]()
    values = [wl.in_process().value]
    if wl.subprocess_units:
        child = wl.unit()
        values.append(child.value)
        assert child.peak_rss_kb > 0
    tracer = Tracer()
    counts = []
    for _ in range(2):
        tracer.install()
        try:
            tracer.begin_unit()
            values.append(wl.in_process().value)
            counts.append(tracer.unit_counts())
        finally:
            tracer.uninstall()
    assert len(set(values)) == 1
    assert counts[0] == counts[1]
    assert counts[0]["rings.mul.calls"] > 0
    assert wl.gate(wl.in_process()) == []


def test_tracer_restores_every_patched_name():
    import chowcalc
    from chowcalc import chern, projbundle
    from chowcalc.rings import GradedElement

    before = (chern.segre_classes, projbundle.segre_classes,
              chowcalc.segre_classes, GradedElement.__mul__, GradedElement.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert projbundle.segre_classes is chern.segre_classes is not before[0]
        assert GradedElement.__rmul__ is GradedElement.__mul__ is not before[3]
    finally:
        tracer.uninstall()
    after = (chern.segre_classes, projbundle.segre_classes,
             chowcalc.segre_classes, GradedElement.__mul__, GradedElement.__rmul__)
    assert after == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_passes_on_current_code(name):
    assert output_match(SMALL[name]()) == 1


def test_flop_check_names_are_gated(monkeypatch):
    names = set(workloads.FLOP_CHECKS) - {"flop.t1_identity"} | {"flop.t1_renamed"}
    monkeypatch.setattr(workloads, "FLOP_CHECKS", frozenset(names))
    assert output_match(SMALL["flop_formal"]()) == 0


def test_flop_push_table_is_gated(monkeypatch):
    monkeypatch.setattr(workloads, "push_table_expected", lambda ctx, k: ctx.Pdual.one)
    assert output_match(SMALL["flop_formal"]()) == 0


def test_cli_golden_is_gated():
    wl = SMALL["cli_all"]()
    wl.golden["checks"][0]["status"] = "fail"
    assert output_match(wl) == 0


def test_cli_check_count_is_gated(monkeypatch):
    monkeypatch.setattr(workloads, "CLI_CHECK_COUNT", 77)
    assert output_match(SMALL["cli_all"]()) == 0


def test_hand_todd_polynomials_are_gated(monkeypatch):
    broken = dict(workloads.TODD_HAND)
    broken[4] = {**broken[4], (0, 2, 0, 0): Fraction(2, 720)}
    monkeypatch.setattr(workloads, "TODD_HAND", broken)
    assert output_match(SMALL["charclass_cold"]()) == 0


def test_mukai_square_is_gated(monkeypatch):
    series = list(workloads.TODD_SERIES_HAND)
    series[2] = Fraction(1, 6)
    monkeypatch.setattr(workloads, "TODD_SERIES_HAND", tuple(series))
    assert output_match(SMALL["charclass_cold"]()) == 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_known_false_probe_is_gated(monkeypatch, name):
    monkeypatch.setattr(workloads, "PROBE_SCALE", 1)  # nothing corrupted
    assert output_match(SMALL[name]()) == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flop_formal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_the_contract_keys(monkeypatch, capsys, trace, kind):
    monkeypatch.setattr(run, "MIN_TRACED", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "flop_formal", lambda seed: SMALL["flop_formal"]())
    assert run.main(["--workload", "flop_formal", "--seed", "2",
                     "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench[kind]}
    for metric in bench[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
