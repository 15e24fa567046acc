"""Driver behavior: exit codes, report streams, golden files, config-file
layering, and byte-level determinism."""

import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import elliptic_poisson
from elliptic_poisson import cli
from elliptic_poisson.casimirs import IntegrityError, casimirs
from elliptic_poisson.cli import main, parse_tau, parse_window
from elliptic_poisson.cli import UsageError
from elliptic_poisson.weierstrass import NearSingularError, PoleProximityError


def run_cli(args, tmp_path, name="out.jsonl"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def parse_reports(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# -- flag parsing -------------------------------------------------------------

def test_parse_tau_forms():
    assert parse_tau("i") == 1j
    assert parse_tau("0.3+1.1i") == 0.3 + 1.1j
    assert parse_tau("-0.5+2j") == -0.5 + 2j
    assert parse_tau("2.5i") == 2.5j
    with pytest.raises(UsageError):
        parse_tau("nonsense")


def test_parse_window_forms():
    assert parse_window("0..4") == [0, 1, 2, 3, 4]
    assert parse_window("F5") == [0, 2, 3, 4, 5]
    assert parse_window("0,2,3") == [0, 2, 3]
    with pytest.raises(UsageError):
        parse_window("bad")
    with pytest.raises(UsageError):
        parse_window("5..2")


# Each command's settings, as parse_args returns them with no flag given:
# the flags it reads, with its own defaults, and --config/--out/--format.
COMMAND_SETTINGS = {
    "bracket-table": {"window": "0..6", "n": "formal"},
    "verify-jacobi": {"window": "F10", "n": "formal", "bracket": "elliptic", "force": False},
    "verify-closure": {"n": "2..10", "bracket": "all"},
    "verify-elliptic": {"n": None, "tau": "i", "seed": 20240915, "samples": 20, "tol": 1e-6},
    "casimir-build": {"n": None},
    "casimir-verify": {"n": None},
    "involution": {"n": None},
    "leaves-verify": {"n": None, "p": None, "tau": "i", "seed": 20240915, "samples": 10,
                      "tol": 1e-6},
    "all": {"seed": 20240915, "samples": 20},
}
ALL_FLAGS = ("n", "formal-n", "p", "window", "tau", "seed", "samples", "tol", "bracket",
             "formal-lambda", "force")


@pytest.mark.parametrize("command", COMMAND_SETTINGS)
def test_each_command_takes_only_the_flags_it_reads(command, monkeypatch, capsys):
    # every command took all 14 flags and ignored the ones it does not read
    monkeypatch.delenv("ELLIPTIC_POISSON_SEED", raising=False)
    assert vars(cli.parse_args([command])) == {
        "command": command, "config": None, "out": None, "format": "json",
        **COMMAND_SETTINGS[command]}
    aliases = {"formal-n": "n", "formal-lambda": "bracket"}
    for flag in ALL_FLAGS:
        if aliases.get(flag, flag) in COMMAND_SETTINGS[command]:
            continue
        assert main([command, f"--{flag}=1"]) == 2, flag
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --{flag}=1" in captured.err


@pytest.mark.parametrize("command", COMMAND_SETTINGS)
def test_help_names_each_flag_with_its_default(command, monkeypatch, capsys):
    # every command's help came from one string per flag: verify-closure did
    # not show its default bracket `all`, and --n promised every command
    # 'formal' and ranges
    monkeypatch.delenv("ELLIPTIC_POISSON_SEED", raising=False)
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    settings = {"config": None, "out": "stdout", "format": "json", **COMMAND_SETTINGS[command]}
    if "seed" in settings:
        settings["seed"] = "$ELLIPTIC_POISSON_SEED, else 20240915"
    for flag, default in settings.items():
        assert f"--{flag} " in text, flag
        if default not in (None, False):
            assert f"(default: {default})" in text, flag
    if command in ("casimir-build", "casimir-verify", "involution", "leaves-verify"):
        assert "formal" not in text and "range" not in text


@pytest.mark.parametrize("command, takes_all", [("verify-closure", True),
                                                ("verify-jacobi", False)])
def test_bracket_help_lists_the_values_of_its_command(command, takes_all, capsys):
    # both commands shared one text, which named `all` only as
    # verify-closure's default, while verify-jacobi does not take it
    assert main([command, "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    values = re.search(r"--bracket BRACKET (.*?) \(default:", text).group(1).split(" | ")
    assert [v.split()[0] for v in values] == ["all"] * takes_all + [
        "elliptic", "1", "2", "3", "lambda", "custom:a,b,c"]


def test_parser_builds_only_the_flags_of_its_command(capsys):
    # build_parser added all 53 (command, flag) pairs for every command line
    parser = cli.build_parser("all")
    assert "{" + ",".join(COMMAND_SETTINGS) + "}" in parser.format_usage()
    assert vars(parser.parse_args(["all", "--samples", "3"]))["samples"] == 3
    with pytest.raises(SystemExit):
        parser.parse_args(["casimir-build", "--n", "3"])
    assert "unrecognized arguments: --n 3" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["all --tol 1e-30 --tau 5i",
                                  "casimir-build --n 3 --tau 5i --window 0..2 --tol 5"])
def test_flag_the_command_does_not_read_exits_2(line, capsys):
    # both ran with the flags ignored and exited 0 with a passing summary
    assert main(line.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --t" in captured.err


@pytest.mark.parametrize("flags, n, bracket", [
    (["--n", "5", "--formal-n"], "formal", "(1, g2, g3)"),
    (["--formal-n", "--n", "5"], "5", "(1, g2, g3)"),
    (["--bracket", "2", "--formal-lambda"], "formal", "(l1, l2, l3)"),
    (["--formal-lambda", "--bracket", "2"], "formal", "(0, 1, 0)"),
])
def test_formal_switch_and_its_flag_last_wins(flags, n, bracket, tmp_path):
    # --formal-n and --formal-lambda used to win wherever they stood
    code, text = run_cli(["verify-jacobi", "--window", "0..3", *flags], tmp_path)
    assert code == 0
    params = parse_reports(text)[0]["parameters"]
    assert (params["n"], params["bracket"]) == (n, bracket)


# -- exit codes ---------------------------------------------------------------

def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_malformed_window_exits_2(tmp_path):
    code, _ = run_cli(["verify-jacobi", "--window", "bad"], tmp_path)
    assert code == 2


def test_malformed_tau_exits_2(tmp_path):
    code, _ = run_cli(["verify-elliptic", "--tau", "zz", "--n", "2"], tmp_path)
    assert code == 2


def test_unknown_bracket_exits_2(tmp_path, capsys):
    code, text = run_cli(["verify-jacobi", "--window", "0..3", "--bracket", "nope"], tmp_path)
    assert code == 2
    assert text == ""
    assert "error: unknown bracket 'nope'" in capsys.readouterr().err


def test_empty_tau_exits_2(tmp_path, capsys):
    code, text = run_cli(["verify-elliptic", "--tau=", "--n", "3"], tmp_path)
    assert code == 2
    assert text == ""
    assert "error: empty tau" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, text = run_cli(["verify-closure", "--n", "3", "--config",
                          str(tmp_path / "missing.cfg")], tmp_path)
    assert code == 2
    assert text == ""
    assert "error: cannot read config file" in capsys.readouterr().err


def test_guardrail_requires_force(tmp_path):
    code, _ = run_cli(["verify-jacobi", "--window", "0..50"], tmp_path)
    assert code == 2


@pytest.mark.parametrize("flag", [["--format", "text"], ["--out", "x.jsonl"],
                                  ["--config", "run.cfg"]])
def test_flags_before_subcommand_exit_2(flag, capsys):
    # flags follow the subcommand; before it they used to be ignored silently
    assert main(flag + ["verify-closure", "--n", "3"]) == 2
    assert capsys.readouterr().out == ""


def test_casimir_build_needs_n(tmp_path):
    code, _ = run_cli(["casimir-build"], tmp_path)
    assert code == 2


def test_unwritable_out_exits_2(tmp_path, capsys):
    # an --out path that cannot be opened is a usage error, like --config
    code = main(["verify-closure", "--n", "3", "--out", str(tmp_path / "no" / "x.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report file")
    assert "internal error" not in err


def _broken_casimirs(n):  # the crash of casimir-verify
    raise IntegrityError(f"even n={n}: cancellation failed")


STOPPED_RUNS = [(["casimir-build"], 2), (["verify-closure", "--n", "1"], 2),
                (["casimir-verify", "--n", "4"], 3)]


@pytest.mark.parametrize("args, code", STOPPED_RUNS)
def test_stopped_run_leaves_out_file_unchanged(args, code, tmp_path, monkeypatch):
    # --out was opened with "w" before the command ran, so a usage error or
    # a crash inside the command left an existing file empty
    monkeypatch.setattr(cli, "casimirs", _broken_casimirs)
    out = tmp_path / "keep.jsonl"
    out.write_text("kept\n", encoding="utf-8")
    assert main(args + ["--out", str(out)]) == code
    assert out.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("args, code", STOPPED_RUNS)
def test_stopped_run_removes_the_out_file_it_created(args, code, tmp_path, monkeypatch):
    # the run created --out before the command ran and left it at 0 bytes
    monkeypatch.setattr(cli, "casimirs", _broken_casimirs)
    out = tmp_path / "new.jsonl"
    assert main(args + ["--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("command", [["verify-closure", "--n", "3"], ["casimir-build", "--n", "4"]])
def test_out_file_is_replaced_and_dev_null_taken(command, tmp_path, capsys):
    assert main(command) == 0
    expected = capsys.readouterr().out
    out = tmp_path / "out.jsonl"
    out.write_text("stale\n" * 1000, encoding="utf-8")
    assert main(command + ["--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    assert main(command + ["--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("command", ["verify-elliptic", "leaves-verify"])
def test_certification_failure_is_a_failed_check(command, tmp_path):
    # lattice_init rejects tau = 5i by its own Legendre check: a numerics
    # failure, reported as a failing check (exit 1), not as a usage error
    code, text = run_cli([command, "--tau", "5i"], tmp_path)
    assert code == 1
    rep, summ = parse_reports(text)
    assert rep["check"] == "lattice-certification"
    assert rep["status"] == "fail"
    assert rep["parameters"] == {"tau": "5i"}
    assert rep["failures"] == [{"witness": "tau=5i",
                                "residual-text": "Legendre relation residual 4.23e-08"}]
    assert summ["check"] == "summary"
    assert summ["failures"] == [{"witness": "lattice-certification"}]


@pytest.mark.parametrize("tau", ["120i", "250i", "1e300i"])
def test_underflowing_nome_is_a_failed_check(tau, tmp_path):
    # q = exp(2 pi i tau) underflowed to 0 and log(0) was reported as a
    # usage error (exit 2); it is a lattice the numerics cannot certify
    code, text = run_cli(["verify-elliptic", "--tau", tau], tmp_path)
    assert code == 1
    rep, summ = parse_reports(text)
    assert rep["check"] == "lattice-certification"
    assert rep["failures"] == [{"witness": f"tau={tau}",
                                "residual-text": "nome q = exp(2 pi i tau) underflows to 0"}]
    assert summ["failures"] == [{"witness": "lattice-certification"}]


def test_overflowing_functional_residual_is_a_failed_check(tmp_path):
    # a term of the two-point bracket past the float range made abs() raise
    # OverflowError, a crash (exit 3); the sample now fails with residual inf.
    # The other failing samples of this check have NaN residuals, and a NaN
    # residual makes the worst residual NaN
    code, text = run_cli(["verify-elliptic", "--n", "1e300", "--samples", "3"], tmp_path)
    assert code == 1
    selftest, identity5, functional, summ = parse_reports(text)
    assert selftest["status"] == identity5["status"] == "pass"
    assert functional["status"] == "fail"
    assert functional["max_residual"] == "nan"  # JSON has no NaN (report.Report.to_dict)
    assert sorted({f["residual-text"] for f in functional["failures"]}) == ["inf", "nan"]
    assert summ["failures"] == [{"witness": functional["check"]}]


def test_nan_functional_residual_is_a_failed_check(tmp_path):
    # every failing residual of this check is NaN, which max() passed over:
    # the failing check reported max_residual 0.0, below its tolerance
    code, text = run_cli(["verify-elliptic", "--n", "1.7e308", "--samples", "3"], tmp_path)
    assert code == 1
    functional = parse_reports(text)[2]
    assert functional["status"] == "fail"
    assert functional["max_residual"] == "nan"
    assert "nan" in [f["residual-text"] for f in functional["failures"]]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("n", ["1e300", "1.7e308"])
def test_non_finite_residual_reports_are_strict_json(n, capsys):
    # json.dumps wrote a NaN or infinite worst residual as the bare tokens
    # NaN and Infinity, which RFC 8259 does not allow; every stdout line of
    # the two runs above must parse without them
    assert main(["verify-elliptic", "--n", n, "--samples", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    reports = [json.loads(line, parse_constant=reject_constant) for line in lines]
    assert reports[2]["max_residual"] == "nan"


@pytest.mark.parametrize("args", [["verify-elliptic", "--n", "abc"],
                                  ["leaves-verify", "--n", "abc", "--p", "2"],
                                  ["leaves-verify", "--n", "5/2", "--p", "2"]])
def test_usage_error_not_masked_by_certification(args, tmp_path, capsys):
    # --n is checked before the lattice, whose certification fails at 5i
    code, text = run_cli(args + ["--tau", "5i"], tmp_path)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("via_config", [False, True])
def test_bad_p_not_masked_by_certification(via_config, tmp_path, capsys):
    # --p was checked only after the lattice: --tau 5i reported a failing
    # lattice-certification and exited 1
    if via_config:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=0\ntau=5i\nn=5\n", encoding="utf-8")
        args = ["leaves-verify", "--config", str(cfg)]
    else:
        args = ["leaves-verify", "--tau", "5i", "--n", "5", "--p", "0"]
    code, text = run_cli(args, tmp_path)
    assert code == 2
    assert text == ""
    assert "error: p must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["2.5", "-1i"])
def test_degenerate_tau_exits_2(tau, tmp_path, capsys):
    # "--tau=-1i": "--tau -1i" would already fail in argparse (a flag-like value)
    code, text = run_cli(["verify-elliptic", f"--tau={tau}"], tmp_path)
    assert code == 2
    assert text == ""
    assert "degenerate periods" in capsys.readouterr().err


def test_negative_real_tau_needs_equals_form(tmp_path, capsys):
    # "--tau -0.4+1.2i" stops in argparse: the value looks like a flag
    assert main(["verify-elliptic", "--tau", "-0.4+1.2i", "--n", "3"]) == 2
    assert "expected one argument" in capsys.readouterr().err
    code, text = run_cli(["verify-elliptic", "--tau=-0.4+1.2i", "--n", "3",
                          "--samples", "6"], tmp_path)
    assert code == 0
    checks = [r["check"] for r in parse_reports(text)]
    assert checks == ["weierstrass-selftest", "identity5", "functional-n3", "summary"]


def test_empty_closure_range_exits_2(tmp_path, capsys):
    code, text = run_cli(["verify-closure", "--n", "5..3"], tmp_path)
    assert code == 2
    assert text == ""
    assert "empty range" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--n", "5"], ["--p", "2"]])
def test_leaves_verify_lone_n_or_p_exits_2(flag, tmp_path, capsys):
    # one of the two used to be dropped silently for the default matrix
    code, text = run_cli(["leaves-verify"] + flag, tmp_path)
    assert code == 2
    assert text == ""
    assert "both --n and --p" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(tol, tmp_path, capsys):
    # nan failed every residual and inf passed every finite one
    code, text = run_cli(["verify-elliptic", "--n", "3", "--tol", tol], tmp_path)
    assert code == 2
    assert text == ""
    assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    # a construction that breaks its own promise is a crash, not a failed check
    def broken(n):
        raise IntegrityError(f"even n={n}: cancellation failed")
    monkeypatch.setattr(cli, "casimirs", broken)
    code, _ = run_cli(["casimir-verify", "--n", "4"], tmp_path)
    assert code == 3
    assert "internal error: IntegrityError: even n=4" in capsys.readouterr().err


@pytest.mark.parametrize("command, n", [("casimir-build", "7/2"), ("casimir-verify", "9/2"),
                                        ("involution", "11/2"), ("verify-closure", "5/2"),
                                        ("leaves-verify", "5/2")])
def test_fractional_degree_exits_2(command, n, tmp_path, capsys):
    # the degree was truncated: casimir-build --n 7/2 built n=3 and exited 0
    extra = ["--p", "2"] if command == "leaves-verify" else []
    code, text = run_cli([command, "--n", n] + extra, tmp_path)
    assert code == 2
    assert text == ""
    assert f"needs an integer n, got '{n}'" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["verify-closure", "--n", "1"], "closure check needs n >= 2, got 1"),
    (["verify-closure", "--n", "0..3"], "closure check needs n >= 2, got 0"),
    (["casimir-verify", "--n", "2"], "casimir construction needs n >= 3, got 2"),
    (["involution", "--n", "2"], "involution check needs n >= 3, got 2"),
    (["leaves-verify", "--n", "0", "--p", "1"], "leaves-verify needs n >= 1, got 0"),
    (["leaves-verify", "--n", "5", "--p", "0"], "p must be a positive integer"),
    (["verify-elliptic", "--n", "3", "--samples", "0"], "count must be positive"),
    (["all", "--samples", "0"], "count must be positive"),
    (["bracket-table", "--window", "F0"], "empty window 'F0'"),
    (["verify-elliptic", "--n", "1e400"], "n '1e400' is beyond the float range"),
    (["verify-elliptic", "--tau", "1e400i"],
     "degenerate periods: omega2 = infj must be nonzero and finite"),
])
def test_out_of_range_input_exits_2(args, message, tmp_path, capsys):
    code, text = run_cli(args, tmp_path)
    assert code == 2
    assert text == ""
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("error", [PoleProximityError("z within the exclusion radius"),
                                   NearSingularError("x - y near the lattice"),
                                   ValueError("math domain error"), KeyError("g2")])
def test_numeric_error_in_a_check_exits_3(error, tmp_path, monkeypatch, capsys):
    # an exception that escapes a check is a crash, not a usage error
    def broken(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "identity5_sweep", broken)
    code, text = run_cli(["verify-elliptic", "--n", "3", "--samples", "2"], tmp_path)
    assert code == 3
    assert text == ""
    assert f"internal error: {type(error).__name__}: " in capsys.readouterr().err


# -- command behavior ---------------------------------------------------------

def test_verify_jacobi_passes(tmp_path):
    code, text = run_cli(
        ["verify-jacobi", "--window", "0..6", "--formal-n", "--formal-lambda"],
        tmp_path)
    assert code == 0
    reports = parse_reports(text)
    assert reports[0]["check"] == "jacobi"
    assert reports[0]["status"] == "pass"
    assert reports[0]["max_residual"] == "exact-zero"
    assert reports[-1]["check"] == "summary"


def test_verify_jacobi_custom_bracket(tmp_path):
    code, text = run_cli(["verify-jacobi", "--window", "0..4", "--bracket", "custom:1,2,3"],
                         tmp_path)
    assert code == 0
    reports = parse_reports(text)
    assert reports[0]["parameters"]["bracket"] == "(1, 2, 3)"
    assert reports[0]["status"] == "pass"


def test_golden_casimir_check_fails_on_a_perturbed_build(monkeypatch):
    real = cli.casimir_lines
    monkeypatch.setattr(cli, "casimir_lines", lambda cs: real(cs)[:-1] + ["C1 = 0"])
    rep = cli.golden_casimir_check(4)
    assert rep.status == "fail"
    (failure,) = rep.failures
    assert failure["witness"] == "casimir n=4"
    built, golden = failure["residual-text"].split("\ngolden:\n")
    assert built.startswith("built:\n") and built.endswith("\nC1 = 0\n")
    assert golden.startswith("C0 = ") and "\nC1 = 0\n" not in golden


def test_verify_closure_range(tmp_path):
    code, text = run_cli(["verify-closure", "--n", "2..4"], tmp_path)
    assert code == 0
    reports = parse_reports(text)
    # three n values, four bracket specs, plus the summary
    assert len(reports) == 13


def test_bracket_table_content(tmp_path):
    out = tmp_path / "table.txt"
    code = main(["bracket-table", "--window", "0,2,3", "--out", str(out)])
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "{e[2], e[3]}_1 = (n - 3)*e[2]*e[4] + (-1/2*n + 2)*e[3]*e[3]" in text
    assert "{e[2], e[3]}_elliptic" in text
    # even-even rows vanish for brackets 2 and 3
    assert "{e[0], e[2]}_2 = 0" in text


def test_bracket_table_empty_window(tmp_path):
    from elliptic_poisson.cli import bracket_table
    rep, lines = bracket_table([], None)
    assert rep.passed and lines == []
    out = tmp_path / "table.txt"
    code = main(["bracket-table", "--window", "7,7", "--out", str(out)])
    assert code == 0


def test_casimir_build_matches_golden(tmp_path):
    from importlib import resources
    out = tmp_path / "cas.txt"
    code = main(["casimir-build", "--n", "4", "--format", "text", "--out", str(out)])
    assert code == 0
    body = out.read_text(encoding="utf-8")
    golden = (resources.files("elliptic_poisson")
              .joinpath("golden/v1/casimir_n4.txt").read_text(encoding="utf-8"))
    assert body.startswith(golden)


@pytest.mark.parametrize("n", [4, 7])
def test_casimir_build_builds_once(n, tmp_path, monkeypatch):
    # the lines and the report used to come from two separate builds
    built = []

    def counting(degree):
        built.append(degree)
        return casimirs(degree)
    monkeypatch.setattr(cli, "casimirs", counting)
    code, text = run_cli(["casimir-build", "--n", str(n), "--format", "text"], tmp_path)
    assert code == 0
    assert built == [n]
    assert text.startswith("C0 = " if n % 2 == 0 else "C = ")
    assert f"casimir-build-n{n}" in text


def test_casimir_verify(tmp_path):
    code, text = run_cli(["casimir-verify", "--n", "4"], tmp_path)
    assert code == 0
    checks = {r["check"] for r in parse_reports(text)}
    assert "centrality-n4" in checks
    assert "rank1-g-n4" in checks


def test_involution_command(tmp_path):
    code, text = run_cli(["involution", "--n", "4"], tmp_path)
    assert code == 0


def test_leaves_verify_single_case(tmp_path):
    code, text = run_cli(
        ["leaves-verify", "--n", "4", "--p", "1", "--samples", "4",
         "--tau", "i", "--seed", "7", "--tol", "1e-6"], tmp_path)
    assert code == 0
    checks = [r["check"] for r in parse_reports(text)]
    assert any(c.startswith("homomorphism") for c in checks)
    assert any(c.startswith("kernel") for c in checks)
    assert any(c.startswith("nondegeneracy") for c in checks)


def test_verify_elliptic_small(tmp_path):
    code, text = run_cli(
        ["verify-elliptic", "--n", "3", "--samples", "6", "--tau", "0.3+1.1i"],
        tmp_path)
    assert code == 0
    checks = [r["check"] for r in parse_reports(text)]
    assert checks[0].startswith("weierstrass-selftest")
    assert checks[1].startswith("identity5")


def test_text_format(tmp_path):
    out = tmp_path / "table.txt"
    code = main(["verify-closure", "--n", "3", "--format", "text", "--out", str(out)])
    assert code == 0
    body = out.read_text(encoding="utf-8")
    assert "PASS" in body and "check" in body


def test_all_builds_each_even_pair_once(tmp_path, monkeypatch):
    # casimir_odd(n) takes its pair through the casimirs memo
    module = importlib.import_module("elliptic_poisson.casimirs")
    built = []
    real = module.casimir_even

    def counting(n):
        built.append(n)
        return real(n)

    casimirs.cache_clear()
    monkeypatch.setattr(module, "casimir_even", counting)
    code, _ = run_cli(["all", "--seed", "20240915"], tmp_path)
    casimirs.cache_clear()
    assert code == 0
    assert sorted(built) == [4, 6, 8]


# -- config file --------------------------------------------------------------

def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=0..3\n", encoding="utf-8")
    out = tmp_path / "a.jsonl"
    code = main(["verify-jacobi", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rep = parse_reports(out.read_text(encoding="utf-8"))[0]
    assert rep["parameters"]["window"] == [0, 1, 2, 3]
    # flag wins over config
    out2 = tmp_path / "b.jsonl"
    code = main(["verify-jacobi", "--config", str(cfg), "--window", "0..4",
                 "--out", str(out2)])
    assert code == 0
    rep2 = parse_reports(out2.read_text(encoding="utf-8"))[0]
    assert rep2["parameters"]["window"] == [0, 1, 2, 3, 4]


def test_config_file_formal_flags(tmp_path):
    # formal-n and formal-lambda used to be read from the flags only
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=0..4\nformal-lambda=true\nformal_n=yes\n", encoding="utf-8")
    code, text = run_cli(["verify-jacobi", "--config", str(cfg)], tmp_path)
    assert code == 0
    rep = parse_reports(text)[0]
    assert rep["parameters"]["bracket"] == "(l1, l2, l3)"
    assert rep["parameters"]["n"] == "formal"
    cfg.write_text("window=0..4\nformal-lambda=false\nformal-n=0\nn=5\n", encoding="utf-8")
    code, text = run_cli(["verify-jacobi", "--config", str(cfg)], tmp_path)
    assert code == 0
    rep = parse_reports(text)[0]
    assert rep["parameters"]["bracket"] == "(1, g2, g3)"
    assert rep["parameters"]["n"] == "5"


def test_config_file_skips_blank_and_comment_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\n   \n  # indented = comment\nwindow=0..3\n\n",
                   encoding="utf-8")
    code, text = run_cli(["verify-jacobi", "--config", str(cfg)], tmp_path)
    assert code == 0
    assert parse_reports(text)[0]["parameters"]["window"] == [0, 1, 2, 3]


def test_config_file_unknown_key(tmp_path, capsys):
    # seed is a flag, but not one that verify-closure reads
    cfg = tmp_path / "run.cfg"
    for key in ("sampels", "seed"):
        cfg.write_text(f"n=5\n{key}=1\n", encoding="utf-8")
        code, text = run_cli(["verify-closure", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert text == ""
        assert f"error: {cfg}:2: unknown key '{key}'" in capsys.readouterr().err


def test_config_file_malformed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("windows without equals\n", encoding="utf-8")
    code, _ = run_cli(["verify-jacobi", "--config", str(cfg)], tmp_path)
    assert code == 2


@pytest.mark.parametrize("command", ["verify-closure", "verify-elliptic"])
def test_config_value_checked_like_its_flag(command, tmp_path, capsys):
    # a config value was parsed only by a command that read it, so
    # verify-closure, which draws no samples, ran with seed=abc and exited 0;
    # verify-closure takes no --seed, so the key itself is the error
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=2\nseed=abc\n", encoding="utf-8")
    code, text = run_cli([command, "--config", str(cfg)], tmp_path)
    assert code == 2
    assert text == ""
    assert (f"{cfg}:2: unknown key 'seed'" if command == "verify-closure"
            else "argument --seed: invalid int value: 'abc'") in capsys.readouterr().err


@pytest.mark.parametrize("value, on", [("1", True), ("TRUE", True), ("yes", True),
                                       ("0", False), ("false", False), ("No", False)])
def test_config_switch_values(value, on, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"force = {value}\n", encoding="utf-8")
    assert cli.parse_args(["verify-jacobi", "--config", str(cfg)]).force is on


def test_config_switch_needs_a_boolean(tmp_path, capsys):
    # force=ture silently meant false
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=0..3\nforce=ture\n", encoding="utf-8")
    code, text = run_cli(["verify-jacobi", "--config", str(cfg)], tmp_path)
    assert code == 2
    assert text == ""
    assert f"{cfg}:2: force is a switch" in capsys.readouterr().err


# -- determinism --------------------------------------------------------------

def command_reports(argv):
    """The reports of one command, summary included, as the CLI builds them."""
    args = cli.parse_args(argv)
    reports, _ = cli._COMMANDS[args.command][0](args)
    return reports + [cli.summary(reports)]


@pytest.mark.parametrize("argv", [["all"], *([name] + (
    ["--samples", "3"] if name in ("verify-elliptic", "leaves-verify") else []) + (
    ["--n", "4"] if name == "casimir-build" else []) for name in cli._COMMANDS if name != "all")],
    ids=lambda argv: argv[0])
def test_reports_hold_json_values(argv):
    # to_dict returns the fields as the checks build them, so every check
    # must build lists, string keys and JSON scalars: a tuple, a Fraction or
    # an int key would serialize but not read back equal
    for rep in command_reports(argv):
        assert json.loads(rep.to_json()) == rep.to_dict(), rep.check


def test_reports_deterministic(tmp_path):
    args = ["leaves-verify", "--n", "5", "--p", "2", "--samples", "4", "--seed", "31"]
    _, first = run_cli(args, tmp_path, "run1.jsonl")
    _, second = run_cli(args, tmp_path, "run2.jsonl")
    assert first == second and first


# SHA-256 of the stdout of `all --seed 20240915`, as pinned by the benchmark
# gate; a numeric change that moves one last bit of a report changes it.
ALL_STDOUT_SHA256 = "0cc6cd3ee5a2bf2bf6b8987dc9697fc30c0311f12d5ae7ebff368619351d9cd5"


def test_all_stdout_bytes_pinned(capsys):
    assert main(["all", "--seed", "20240915"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ALL_STDOUT_SHA256


# SHA-256 of the stdout of each subcommand invocation, recorded before `all`
# and the subcommands shared their acceptance blocks; the default seed is used
# where no --seed is given.
SUBCOMMAND_STDOUT_SHA256 = {
    "verify-jacobi": "f837eddf58053d8e1730daece9647b3d95a22fc2f82e00ba3d482d685990e3d6",
    "verify-jacobi --window 0..6 --formal-n --formal-lambda":
        "1ccc95fd406709a268c256dc3345a76047ea9873f6ab6d384b9fc6a83f796a7d",
    "verify-closure": "7acfc92cbffe4ea00e981f6d91cb35c9a3c616f5b7cae4d9a663467882517195",
    "verify-elliptic --samples 4":
        "9e8c34dc94d49e23760433e728f1abccb64866e36b49f69d6b1d2049f547dc39",
    "verify-elliptic --tau=-0.4+1.2i --n 3 --samples 6":
        "57991adb5c6e5adee899d7f559c1a2895046c9dabaafd8771c9caaf446e4f2fa",
    "casimir-build --n 6": "6098178c43099eb25b1de62c5f4b692ac1da80e525f85947faad8ac91780f030",
    "casimir-verify --n 8": "26e551d5fdaf1a90775a1955412d2df35184957f09db36bd7454f7e195dce3b3",
    "involution": "85e5e9cfbb75046f47b7b57ce0a51d283b7092473245454ca46e11d152767e73",
    "leaves-verify --samples 3":
        "b374fdbf48511d743e596f3beb9ef73e91939e8bd8f4c931bc01d9f8675b427e",
    "leaves-verify --n 5 --p 2 --samples 10 --tau i --seed 7 --tol 1e-6":
        "0c5ad34b78009c361436e33943666986719e62d73192ad97fee9e82cf956b47f",
    "leaves-verify --tau=0.3+1.1i --samples 3":
        "6ed6493d44c5470f9dd58bddb04b37c2665d2d5e4b3d6267637b6a53f239665f",
    "leaves-verify --tau=-0.4+1.2i --n 7 --p 3 --samples 4 --seed 11":
        "1990d2547481ff4bf7cfa8b6b3775a1c5e2b625cffd1ed53b706b7365633c418",
    "leaves-verify --tau 2i --n 9 --p 4 --samples 2":
        "a07b7b303a129dec7924596c76c0a2b2a7cce7158a883268d38fb30eef9f2bb1",
    "bracket-table": "0a61cb3c30d0666b8ce039ce4c54c9baf55972d83bc2fe87d18ff605cd3260b8",
}


@pytest.mark.parametrize("line", SUBCOMMAND_STDOUT_SHA256)
def test_subcommand_stdout_pinned(line, capsys, monkeypatch):
    monkeypatch.delenv("ELLIPTIC_POISSON_SEED", raising=False)
    assert main(line.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SUBCOMMAND_STDOUT_SHA256[line]


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ELLIPTIC_POISSON_SEED", "123")
    out = tmp_path / "env.jsonl"
    code = main(["leaves-verify", "--n", "4", "--p", "1", "--samples", "3",
                 "--out", str(out)])
    assert code == 0
    rep = parse_reports(out.read_text(encoding="utf-8"))[0]
    assert rep["parameters"]["seed"] == 123


@pytest.mark.parametrize("command", ["all", "leaves-verify", "casimir-build"])
def test_malformed_seed_env(command, monkeypatch, capsys):
    # read only by the commands that take --seed
    monkeypatch.setenv("ELLIPTIC_POISSON_SEED", "12x")
    if command == "casimir-build":
        assert main([command, "--n", "3"]) == 0
        return
    assert main([command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: bad ELLIPTIC_POISSON_SEED value '12x'" in captured.err


def test_console_entry_point(tmp_path):
    # The child imports the package this suite imported, installed or not.
    src = str(Path(elliptic_poisson.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "elliptic_poisson.cli", "casimir-build", "--n", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "C = " in proc.stdout


# -- README ---------------------------------------------------------------------

def readme_cli_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme.read_text(encoding="utf-8"),
                      re.M | re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_exit_0(line, capsys):
    assert main(shlex.split(line, comments=True)[1:]) == 0
    assert capsys.readouterr().out


def config_text(flags):
    """The config file that names ``flags``: ``--key value`` and
    ``--key=value`` become ``key=value``, and a bare switch ``key=true``."""
    lines = []
    for k, token in enumerate(flags):
        if token.startswith("--"):
            key, eq, value = token[2:].partition("=")
            if not eq:
                following = flags[k + 1] if k + 1 < len(flags) else "--"
                value = "true" if following.startswith("--") else following
            lines.append(f"{key}={value}\n")
    return "".join(lines)


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_examples_read_from_config(line, tmp_path, capsys, monkeypatch):
    # a config line is read as the flag it names, so the same run from a
    # config file prints the same bytes; a frozen clock fixes the seconds
    # column of --format text
    monkeypatch.setattr(elliptic_poisson.report.time, "monotonic", lambda: 0.0)
    command, *flags = shlex.split(line, comments=True)[1:]
    assert main([command, *flags]) == 0
    expected = capsys.readouterr().out
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(flags), encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == expected
