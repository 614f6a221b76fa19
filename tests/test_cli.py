import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chowcalc import cli
from chowcalc.cli import SuiteConfig, main, parse_config, run_suite
from chowcalc.errors import WITNESS_LIMIT, ConsistencyError
from chowcalc.report import Report


def strip_millis(report: dict) -> dict:
    return {
        **report,
        "checks": [
            {k: v for k, v in c.items() if k != "millis"} for c in report["checks"]
        ],
    }


def test_exit_zero_on_pass(capsys):
    assert main(["flop", "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_suite_is_positional_only(capsys):
    assert main(["--suite", "flop"]) == 2
    assert parse_config(["flop"]).suite == "flop"
    capsys.readouterr()


def test_usage_errors(capsys):
    assert main([]) == 2  # no suite
    assert main(["flop", "--r", "0"]) == 2
    assert main(["flop", "--mode", "numeric"]) == 2
    assert main(["projbundle", "--dim-bound", "-1"]) == 2
    assert main(["flop", "--r-max", "0"]) == 2
    capsys.readouterr()
    # an option the chosen suite does not read is rejected, not echoed
    for argv, flag in [
        (["flop", "--r", "1", "--case", "linear:3,0"], "--case"),
        (["charclass", "--case", "linear:3,0"], "--case"),
        (["flop", "--r", "1", "--dim-bound", "0"], "--dim-bound"),
        (["blowup", "--dim-bound", "0"], "--dim-bound"),
        (["binomial", "--dim-bound", "3"], "--dim-bound"),
    ]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == f"error: {flag} does not apply to the {argv[0]} suite\n"


def test_projbundle_passes_at_dim_bound_zero(capsys):
    assert main(["projbundle", "--dim-bound", "0"]) == 0
    capsys.readouterr()


def test_unknown_case_is_usage_error(capsys):
    assert main(["blowup", "--case", "weird:1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("case", ["linear:4,4", "linear:2,5", "linear:3,-1"])
def test_case_out_of_range_is_usage_error(case, capsys):
    assert main(["blowup", "--case", case]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad case {case!r}: ")
    assert "need 0 <= m < n" in captured.err  # linear_blowup's own message
    assert captured.out == ""


@pytest.mark.parametrize("case", ["linear:4", "linear:4,1,2", "linear:four,1", "linear:"])
def test_bad_case_syntax_names_the_case(case, capsys):
    with pytest.raises(ValueError, match=re.escape(f"bad case syntax {case!r}")):
        SuiteConfig(suite="blowup", case=case)
    assert main(["blowup", "--case", case]) == 2
    assert case in capsys.readouterr().err


# linear:4,1 (a line in P^4) as an embedding file
LINEAR_4_1 = """
[ambient]
generators: t:1
dim_bound: 4
[center]
generators: u:1
dim_bound: 1
[pull]
t = u
[push]
1 = t^3
u = t^4
[normal]
rank = 3
c1 = 3 * u
c2 = 0
c3 = 0
"""


def test_file_case_reports_as_its_linear_case(tmp_path, monkeypatch, capsys):
    import chowcalc.blowup as bl_mod

    path = tmp_path / "line-in-p4.txt"
    path.write_text(LINEAR_4_1)

    def reports():
        texts = []
        for case in ("linear:4,1", f"file:{path}"):
            main(["blowup", "--case", case, "--seed", "5", "--format", "json"])
            text = re.sub(r'"millis": [0-9.e+-]+', '"millis": 0', capsys.readouterr().out)
            texts.append(text.replace(json.dumps(case), json.dumps("CASE")))
        return texts

    first, second = reports()
    assert json.loads(first)["ok"] and first == second
    # with the ring laws broken, the witnesses come from the seeded draws
    orig = bl_mod.BlowupRing.mul

    def left_biased(self, a, b):
        return orig(self, a, self.pull(b.ambient.grade_component(0)))

    monkeypatch.setattr(bl_mod.BlowupRing, "mul", left_biased)
    first, second = reports()
    assert '"witness": "ambient: ' in first and first == second


@pytest.mark.parametrize(
    "old, new, token",
    [
        ("dim_bound: 4\n", "", "the ambient ring needs a dim_bound"),
        ("t = u", "t = v", "unknown generator 'v'"),
        ("c3 = 0", "", "has no 'c3' entry"),
        ("t = u", "t =", "[pull] entry 't': empty term in ''"),
    ],
    ids=["unbounded-ambient", "unknown-generator", "missing-chern-class", "empty-pull-entry"],
)
def test_bad_file_case_is_usage_error(old, new, token, tmp_path, capsys):
    path = tmp_path / "embedding.txt"
    path.write_text(LINEAR_4_1.replace(old, new, 1))
    case = f"file:{path}"
    with pytest.raises(ValueError, match=re.escape(token)):
        SuiteConfig(suite="blowup", case=case)
    assert main(["all", "--case", case]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: bad case {case!r}: ")
    assert token in captured.err and captured.out == ""


@pytest.mark.parametrize("name", ["missing.txt", "."], ids=["missing", "directory"])
def test_unreadable_file_case_names_the_path(name, tmp_path, capsys):
    case = f"file:{tmp_path / name}"
    with pytest.raises(ValueError, match=re.escape(case)):
        SuiteConfig(suite="blowup", case=case)
    assert main(["blowup", "--case", case]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_json_schema(capsys):
    assert main(["binomial", "--r-max", "3", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["suite"] == "binomial"
    assert isinstance(report["seed"], int)
    for check in report["checks"]:
        assert set(check) >= {"name", "anchor", "status", "millis"}
        assert check["status"] in ("pass", "fail")
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)


def test_json_deterministic_given_seed(capsys):
    argv = ["flop", "--r", "2", "--format", "json", "--seed", "11"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert strip_millis(first) == strip_millis(second)


@pytest.mark.parametrize("suite", ["binomial", "projbundle", "flop"])
def test_r_runs_one_rank_and_r_max_runs_one_to_n(suite):
    def ranks(**kw):
        _, report = run_suite(SuiteConfig(suite=suite, **kw))
        return {re.search(r"r(\d+)", c.name).group(1) for c in report.checks}

    assert ranks(r=2) == {"2"}
    assert ranks(r_max=2) == {"1", "2"}
    with pytest.raises(ValueError, match="--r and --r-max"):
        SuiteConfig(suite=suite, r=2, r_max=3)


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("# a comment\n\nsuite=flop\nr=1\n\nseed=5\nformat=json\n")
    cfg = parse_config(["--config", str(cfg_file)])
    assert (cfg.suite, cfg.r, cfg.seed, cfg.fmt) == ("flop", 1, 5, "json")
    # flags override the file
    cfg = parse_config(["--config", str(cfg_file), "--seed", "9"])
    assert cfg.seed == 9


def test_config_file_rejects_bad_lines(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    for text, token in [
        ("this is not a key value pair\n", "'this is not a key value pair'"),
        ("suite=flop\ncolour=red\n", "'colour'"),  # unknown key
        # options the suite does not read
        ("suite=flop\ncase=linear:3,0\n", "--case does not apply to the flop suite"),
        ("suite=blowup\ndim-bound=2\n", "--dim-bound does not apply to the blowup"),
        # a repeated key, under either spelling, is not silently overridden
        ("suite=flop\nr=1\nr=2\n", ":3: duplicate key 'r'"),
        ("suite=flop\nformat=json\nfmt=text\n", ":3: duplicate key 'fmt'"),
        # an integer option that does not parse names the file, line and key
        ("suite=flop\nr=abc\n", ":2: r must be an integer, got 'abc'"),
        ("seed=\nsuite=charclass\n", ":1: seed must be an integer, got ''"),
    ]:
        cfg_file.write_text(text)
        assert main(["--config", str(cfg_file)]) == 2
        assert token in capsys.readouterr().err


def test_unwritable_out_exits_before_any_check(tmp_path, monkeypatch, capsys):
    def no_run(cfg):
        raise AssertionError("the suite ran before --out was opened")

    monkeypatch.setattr(cli, "run_suite", no_run)
    assert main(["binomial", "--r-max", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["binomial", "--r-max", "2", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True


def test_run_suite_returns_failure_exit(monkeypatch):
    import chowcalc.flop as flop_mod

    orig = flop_mod.term_B

    def broken(ctx):
        return -orig(ctx)

    monkeypatch.setattr(flop_mod, "term_B", broken)
    status, report = run_suite(SuiteConfig(suite="flop", r=1))
    assert status == 1
    assert not report.ok


def test_suite_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(suite="nope")
    with pytest.raises(ValueError):
        SuiteConfig(suite="flop", trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(suite="flop", fmt="yaml")


def _raise_assertion():
    raise AssertionError("boom")


@pytest.mark.parametrize(
    "check, witness",
    [
        (lambda: 1 / 0, "ZeroDivisionError: division by zero"),
        (_raise_assertion, "AssertionError: boom"),
    ],
    ids=["ZeroDivisionError", "AssertionError"],
)
def test_unexpected_exception_becomes_failing_entry(check, witness):
    report = Report()
    assert report.run("demo.crash", "a check with a bug in it", check) is None
    [result] = report.checks
    assert result.status == "fail"
    assert result.witness == witness


def test_a_consistency_witness_is_bounded_where_it_is_built():
    witness = ConsistencyError("m", witness="x" * 10_000).witness
    assert witness == "x" * WITNESS_LIMIT + " ... (8000 more characters)"


def test_a_long_exception_text_is_bounded_like_a_witness():
    def check():
        raise ValueError("y" * 10_000)

    report = Report()
    report.run("demo.long", "an exception with a long message", check)
    [result] = report.checks
    text = "ValueError: " + "y" * 10_000
    assert result.status == "fail"
    tail = f" ... ({len(text) - WITNESS_LIMIT} more characters)"
    assert result.witness == text[:WITNESS_LIMIT] + tail


def test_crashing_check_gives_failure_exit(monkeypatch):
    import chowcalc.flop as flop_mod

    def crash(ctx):
        raise ZeroDivisionError("injected")

    # the T1 table's build fails its own check and, read again, its reader
    monkeypatch.setattr(flop_mod.FlopContext, "t1_sums", property(crash))
    status, report = run_suite(SuiteConfig(suite="flop", r=1))
    assert status == 1
    failed = [(c.name, c.witness) for c in report.checks if c.status == "fail"]
    missing = "prerequisite terms missing: ['B']"
    assert sorted(failed) == [
        ("r1.flop.final_cancellation", missing),
        ("r1.flop.homogeneity", missing),
        ("r1.flop.t1_identity", "ZeroDivisionError: injected"),
        ("r1.flop.term_B_routes", "ZeroDivisionError: injected"),
    ]


def test_route_failure_carries_the_difference(monkeypatch, capsys):
    import chowcalc.blowup as bl_mod

    orig = bl_mod.BlowupRing.push

    def off_by_one(self, a):
        return orig(self, a) + self.data.ambient.one

    monkeypatch.setattr(bl_mod.BlowupRing, "push", off_by_one)
    status, report = run_suite(SuiteConfig(suite="blowup"))
    assert status == 1
    failed = [(c.name, c.witness) for c in report.checks if c.status == "fail"]
    assert failed == [("blowup.pull_push_identity", "1")]
    # the witness reaches both output formats
    assert main(["blowup", "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["witness"]) for c in checks if "witness" in c] == failed
    assert main(["blowup"]) == 1
    text = capsys.readouterr().out
    assert "FAIL blowup.pull_push_identity" in text
    assert "\n     witness: 1\n" in text


def test_noncommutative_product_fails_ring_laws(monkeypatch):
    import chowcalc.blowup as bl_mod

    orig = bl_mod.BlowupRing.mul

    def left_biased(self, a, b):
        # a times the degree-0 part of b: associative but not commutative, so
        # only the comparison of a * b with a separately computed b * a fails
        return orig(self, a, self.pull(b.ambient.grade_component(0)))

    monkeypatch.setattr(bl_mod.BlowupRing, "mul", left_biased)
    data = bl_mod.linear_blowup(4, 1)
    bl = bl_mod.BlowupRing(data)
    rng = random.Random(0)

    def sample():
        eps = bl.E.random_element(rng, 4)
        return bl.exc_push(eps) + bl.pull(data.ambient.random_element(rng, 4))

    a, b, c = sample(), sample(), sample()
    assert (a * b) * c == a * (b * c)
    assert a * b != b * a
    status, report = run_suite(SuiteConfig(suite="blowup"))
    assert status == 1
    failed = {c.name: c.witness for c in report.checks if c.status == "fail"}
    assert list(failed) == ["blowup.ring_laws"]
    assert failed["blowup.ring_laws"] not in (None, "", "0")


def test_binomial_failure_lists_the_bad_sums(monkeypatch):
    import chowcalc.projbundle as pb_mod

    orig = pb_mod.binomial

    def off_by_one(a, b):
        return orig(a, b) + (a == b == 1)  # C(1, 1) = 2

    monkeypatch.setattr(pb_mod, "binomial", off_by_one)
    status, report = run_suite(SuiteConfig(suite="binomial", r=3))
    assert status == 1
    failed = [(c.name, c.witness) for c in report.checks if c.status == "fail"]
    # the first three of five failing sums
    witness = str([
        "T^3_{3,1} = -2 != T^3_{2,0} = 1",
        "T^3_{3,2} = 0 != T^3_{2,1} = -1",
        "T^3_{3,0} = 5 != -1",
    ])
    assert failed == [("binomial.identity_r3", witness)]


def test_charclass_failure_carries_the_difference(monkeypatch):
    import chowcalc.chern as chern_mod

    orig = chern_mod.chern_character

    def plus_one_on_rank_five(F, max_deg):
        ch = orig(F, max_deg)
        return ch + chern_mod.CharClass(F.ring.one, max_deg) if F.rank == 5 else ch

    monkeypatch.setattr(chern_mod, "chern_character", plus_one_on_rank_five)
    status, report = run_suite(SuiteConfig(suite="charclass"))
    assert status == 1
    failed = [(c.name, c.witness) for c in report.checks if c.status == "fail"]
    assert failed == [("charclass.ch_additive", "CharClass(value=<1>, max_deg=6)")]


def test_report_records_case_and_dim_bound(capsys):
    reports = {}
    for case in ("linear:3,0", "linear:5,2"):
        assert main(["blowup", "--case", case, "--format", "json"]) == 0
        reports[case] = strip_millis(json.loads(capsys.readouterr().out))
        assert reports[case]["case"] == case
    assert reports["linear:3,0"] != reports["linear:5,2"]
    argv = ["projbundle", "--r-max", "1", "--dim-bound", "0", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["dim_bound"] == 0
    # "all" runs suites that read each option, so it takes and echoes both
    argv = ["all", "--case", "linear:3,0", "--dim-bound", "0", "--format", "json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["case"], report["dim_bound"]) == ("linear:3,0", 0)


def test_charclass_runs_at_dim_bound_zero(monkeypatch):
    import chowcalc.cli as cli_mod

    real_ring = cli_mod.GradedRing
    bounds = []

    def recording_ring(gens, dim_bound=None):
        bounds.append(dim_bound)
        return real_ring(gens, dim_bound=dim_bound)

    monkeypatch.setattr(cli_mod, "GradedRing", recording_ring)
    status, _ = run_suite(SuiteConfig(suite="charclass", dim_bound=0))
    assert status == 0
    assert bounds == [0]


ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["projbundle", "--dim-bound", "-1"],
        ["flop", "--r", "0"],
        ["flop", "--trials", "0"],
        ["blowup", "--case", "linear:4,4"],
        ["--config", "BAD_CONFIG"],
        ["binomial", "--r-max", "1", "--out", "TMP_DIR"],
        ["flop", "--r", "2", "--r-max", "3"],
        ["flop", "--r", "1", "--case", "linear:3,0"],
        ["blowup", "--dim-bound", "0"],
    ],
    ids=[
        "dim-bound", "r", "trials", "case", "config", "out", "r-and-r-max",
        "case-unread", "dim-bound-unread",
    ],
)
def test_child_process_usage_error_exits_two(argv, tmp_path):
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("this is not a key value pair\n")
    argv = [str(bad_config) if a == "BAD_CONFIG" else a for a in argv]
    argv = [str(tmp_path) if a == "TMP_DIR" else a for a in argv]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "chowcalc.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
