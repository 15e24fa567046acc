"""Driver behavior: exit codes, report streams, golden files, config-file
layering, and byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import elliptic_poisson
from elliptic_poisson.cli import main, parse_tau, parse_window
from elliptic_poisson.cli import UsageError


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


# -- exit codes ---------------------------------------------------------------

def test_unknown_command_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_malformed_window_exits_2(tmp_path):
    code, _ = run_cli(["verify-jacobi", "--window", "bad"], tmp_path)
    assert code == 2


def test_malformed_tau_exits_2(tmp_path):
    code, _ = run_cli(["verify-elliptic", "--tau", "zz", "--n", "2"], tmp_path)
    assert code == 2


def test_guardrail_requires_force(tmp_path):
    code, _ = run_cli(["verify-jacobi", "--window", "0..50"], tmp_path)
    assert code == 2


def test_casimir_build_needs_n(tmp_path):
    code, _ = run_cli(["casimir-build"], tmp_path)
    assert code == 2


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


# -- config file --------------------------------------------------------------

def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window=0..3\nseed=99\n", encoding="utf-8")
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


def test_config_file_malformed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("windows without equals\n", encoding="utf-8")
    code, _ = run_cli(["verify-jacobi", "--config", str(cfg)], tmp_path)
    assert code == 2


# -- determinism --------------------------------------------------------------

def test_reports_deterministic(tmp_path):
    args = ["leaves-verify", "--n", "5", "--p", "2", "--samples", "4", "--seed", "31"]
    _, first = run_cli(args, tmp_path, "run1.jsonl")
    _, second = run_cli(args, tmp_path, "run2.jsonl")
    assert first == second and first


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ELLIPTIC_POISSON_SEED", "123")
    out = tmp_path / "env.jsonl"
    code = main(["leaves-verify", "--n", "4", "--p", "1", "--samples", "3",
                 "--out", str(out)])
    assert code == 0
    rep = parse_reports(out.read_text(encoding="utf-8"))[0]
    assert rep["parameters"]["seed"] == 123


def test_console_entry_point(tmp_path):
    # The child imports the package this suite imported, installed or not.
    src = str(Path(elliptic_poisson.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "elliptic_poisson.cli", "casimir-build", "--n", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "C = " in proc.stdout
