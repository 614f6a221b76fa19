import json

import pytest

from chowcalc.cli import SuiteConfig, main, parse_config, run_suite
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


def test_positional_and_flag_suite_agree():
    cfg = parse_config(["--suite", "flop", "--r", "1"])
    assert cfg.suite == "flop"
    with pytest.raises(ValueError):
        parse_config(["binomial", "--suite", "flop"])


def test_usage_errors(capsys):
    assert main([]) == 2  # no suite
    assert main(["flop", "--r", "0"]) == 2
    assert main(["flop", "--mode", "bogus"]) == 2
    capsys.readouterr()


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
    assert captured.err.startswith("error: ")
    assert case in captured.err
    assert captured.out == ""


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


def test_numeric_mode_runs_trials(capsys):
    assert main(
        ["flop", "--r", "2", "--mode", "numeric", "--trials", "2",
         "--seed", "3", "--format", "json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 3  # seed echoed for reproducibility
    assert any("trial1" in c["name"] for c in report["checks"])


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "suite.cfg"
    cfg_file.write_text("suite=flop\nr=1\nseed=5\nformat=json\n")
    cfg = parse_config(["--config", str(cfg_file)])
    assert (cfg.suite, cfg.r, cfg.seed, cfg.fmt) == ("flop", 1, 5, "json")
    # flags override the file
    cfg = parse_config(["--config", str(cfg_file), "--seed", "9"])
    assert cfg.seed == 9


def test_config_file_rejects_bad_lines(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("this is not a key value pair\n")
    assert main(["--config", str(cfg_file)]) == 2


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    assert main(["binomial", "--r-max", "2", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True


def test_run_suite_returns_failure_exit(monkeypatch):
    import chowcalc.flop as flop_mod

    orig = flop_mod.term_B

    def broken(ctx, sa, sb):
        return -orig(ctx, sa, sb)

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


def test_unexpected_exception_becomes_failing_entry():
    report = Report()
    result = report.run("demo.crash", "a check with a bug in it", lambda: 1 / 0)
    assert report.checks == [result]
    assert result.status == "fail"
    assert result.witness == "ZeroDivisionError: division by zero"


def test_crashing_check_gives_failure_exit(monkeypatch):
    import chowcalc.flop as flop_mod

    def crash(ctx, j, q):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(flop_mod, "t1_check", crash)
    status, report = run_suite(SuiteConfig(suite="flop", r=1))
    assert status == 1
    failed = [(c.name, c.witness) for c in report.checks if c.status == "fail"]
    assert failed == [("r1.flop.t1_identity", "ZeroDivisionError: injected")]
