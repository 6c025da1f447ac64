"""Command-line interface: parsing, report formats, exit codes, reproducibility."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ellvar import RiskReport, StudentParams, risk_report, student_quantile
from ellvar.cli import main


@pytest.fixture
def one_factor(tmp_path):
    path = tmp_path / "book.csv"
    path.write_text("idx,1.0\n")
    return str(path)


@pytest.fixture
def two_factor(tmp_path):
    path = tmp_path / "book2.csv"
    path.write_text("id,delta\neq,1.0\nrates,1.0\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_var_student_reference_value(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "5",
         "--alpha", "0.05"],
    )
    assert code == 0
    assert "2.01505" in out
    assert out.splitlines()[0].split()[2] == "var"


def test_var_alpha_001(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "5",
         "--alpha", "0.01"],
    )
    assert code == 0
    assert "3.36493" in out


def test_es_leads_with_es_column(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["es", "--portfolio", one_factor, "--model", "student", "--nu", "5",
         "--alpha", "0.05", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model,alpha,es,var,quantile,mean,volatility"
    assert lines[1].split(",")[2] == "2.89013"


def test_json_round_trips_to_risk_report(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "5",
         "--alpha", "0.05", "--format", "json"],
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    report = RiskReport.from_dict(rows[0])
    params = StudentParams(nu=5.0, mu=np.zeros(1), sigma=np.eye(1))
    assert report == risk_report(params, np.array([1.0]), 0.05)


def test_default_alphas_give_three_rows(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [r.split(",")[1] for r in lines[1:]] == ["0.01", "0.025", "0.05"]


def test_sigma_interpretation_covariance(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "5",
         "--alpha", "0.05", "--sigma-interpretation", "covariance"],
    )
    assert code == 0
    assert "1.56085" in out  # 2.01505 * sqrt(3/5)


def test_model_file_moments(two_factor, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"mu": [0.0, 0.0], "sigma": [[4.0, 0.0], [0.0, 1.0]]}
    ))
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", two_factor, "--model", "student", "--nu", "5",
         "--model-file", str(model), "--alpha", "0.05", "--format", "json"],
    )
    assert code == 0
    row = json.loads(out)[0]
    want = student_quantile(0.05, 5.0) * math.sqrt(5.0)
    assert row["var"] == pytest.approx(want, rel=1e-12)


def test_mixture_spec(two_factor, tmp_path, capsys):
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps({
        "components": [
            {"beta": 0.8},
            {"beta": 0.2, "nu": 5},
        ]
    }))
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", two_factor, "--model", "mixture",
         "--mixture-spec", str(spec), "--alpha", "0.05", "--format", "json"],
    )
    assert code == 0
    row = json.loads(out)[0]
    assert row["model"] == "mixture(0.8*gaussian, 0.2*student(nu=5))"
    assert row["es"] > row["var"] > 0.0


def test_returns_estimation(two_factor, tmp_path, capsys):
    rng = np.random.default_rng(71)
    history = rng.normal(scale=0.01, size=(250, 2))
    lines = ["eq,rates"] + [f"{a:.8f},{b:.8f}" for a, b in history]
    returns = tmp_path / "returns.csv"
    returns.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", two_factor, "--model", "student", "--nu", "6",
         "--returns", str(returns), "--alpha", "0.05", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)[0]["var"] > 0.0


def test_returns_id_mismatch_exits_3(two_factor, tmp_path, capsys):
    returns = tmp_path / "returns.csv"
    returns.write_text("eq,fx\n0.01,0.02\n-0.01,0.00\n")
    code, _, err = run_cli(
        capsys,
        ["var", "--portfolio", two_factor, "--model", "student", "--nu", "6",
         "--returns", str(returns)],
    )
    assert code == 3
    assert err.startswith("error: kind=DimensionError")


def test_ragged_returns_exit_2_with_line_number(two_factor, tmp_path, capsys):
    returns = tmp_path / "returns.csv"
    returns.write_text("eq,rates\n0.01,0.02\n-0.01\n0.00,0.01\n")
    code, _, err = run_cli(
        capsys,
        ["var", "--portfolio", two_factor, "--returns", str(returns)],
    )
    assert code == 2
    assert ":3:" in err


def test_bad_portfolio_value_exit_2(tmp_path, capsys):
    book = tmp_path / "book.csv"
    book.write_text("id,delta\neq,1.0\nrates,oops\n")
    code, _, err = run_cli(capsys, ["var", "--portfolio", str(book)])
    assert code == 2
    assert ":3:" in err and "delta" in err


def test_missing_portfolio_file_exit_2(capsys):
    code, _, err = run_cli(capsys, ["var", "--portfolio", "/nonexistent.csv"])
    assert code == 2
    assert err.startswith("error: kind=FileNotFoundError")


def test_non_positive_definite_model_file_exit_4(two_factor, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(
        {"mu": [0.0, 0.0], "sigma": [[1.0, 2.0], [2.0, 1.0]]}
    ))
    code, _, err = run_cli(
        capsys,
        ["var", "--portfolio", two_factor, "--model-file", str(model)],
    )
    assert code == 4
    assert err.startswith("error: kind=NotPositiveDefiniteError")


def test_student_requires_nu(one_factor, capsys):
    code, _, err = run_cli(
        capsys, ["var", "--portfolio", one_factor, "--model", "student"]
    )
    assert code == 2
    assert "--nu" in err


def test_alpha_out_of_range_exit_2(one_factor, capsys):
    code, _, err = run_cli(
        capsys, ["var", "--portfolio", one_factor, "--alpha", "0.6"]
    )
    assert code == 2
    assert "alpha" in err


def test_numerical_error_line_keeps_diagnostics(one_factor, capsys):
    code, _, err = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "3",
         "--alpha", "1e-300"],
    )
    assert code == 5
    line = err.strip()
    assert "\n" not in line
    assert line.startswith(
        "error: kind=BracketError detail=tail probability never fell below alpha"
    )
    assert " alpha=1e-300 " in line
    assert float(line.rsplit(" upper=", 1)[1]) > 1e19


def test_table_default_grid(capsys):
    code, out, _ = run_cli(capsys, ["table"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17  # header + 16 nu rows
    assert "14.0712" in lines[1]  # es_mult(0.01) at nu=2
    assert lines[1].split()[0] == "2"
    assert lines[-1].split()[0] == "1000"


def test_table_compare_reference_flags_known_misprints(capsys):
    code, out, _ = run_cli(capsys, ["table", "--compare-reference"])
    assert code == 0
    flagged = [line for line in out.splitlines() if line.startswith("  alpha=")]
    assert sorted(flagged) == sorted([
        "  alpha=0.05 nu=9: reference 1.81246, computed 1.83311",
        "  alpha=0.05 nu=10: reference 1.66023, computed 1.81246",
        "  alpha=0.01 nu=200: reference 2.34135, computed 2.34514",
        "  alpha=0.01 nu=250: reference 2.34514, computed 2.34136",
    ])
    starred = [line for line in out.splitlines() if "*" in line]
    assert len(starred) == 5  # 4 flagged cells over 4 distinct rows + legend


def test_table_single_cell_matches_reference(capsys):
    code, out, _ = run_cli(
        capsys, ["table", "--nu", "300", "--alpha", "0.01", "--compare-reference"]
    )
    assert code == 0
    assert "2.33884" in out
    assert "all cells match" in out


def test_table_rejects_nu_at_or_below_one(capsys):
    code, _, err = run_cli(capsys, ["table", "--nu", "1.0"])
    assert code == 2
    assert "nu" in err


def test_mc_validate_small_run_passes(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["mc-validate", "--portfolio", one_factor, "--paths", "20000",
         "--alpha", "0.05", "--seed", "4"],
    )
    assert code == 0
    assert out.rstrip().endswith("(paths=20000, seed=4)")
    assert "PASS" in out


def test_mc_validate_seed_env(one_factor, capsys, monkeypatch):
    monkeypatch.setenv("ELLVAR_SEED", "123")
    code, out, _ = run_cli(
        capsys,
        ["mc-validate", "--portfolio", one_factor, "--paths", "20000",
         "--alpha", "0.05"],
    )
    assert code == 0
    assert "seed=123" in out


def test_mc_validate_bad_seed_env(one_factor, capsys, monkeypatch):
    monkeypatch.setenv("ELLVAR_SEED", "not-a-number")
    code, _, err = run_cli(
        capsys,
        ["mc-validate", "--portfolio", one_factor, "--paths", "20000",
         "--alpha", "0.05"],
    )
    assert code == 2
    assert "ELLVAR_SEED" in err


def test_mc_validate_reproducible_across_workers(one_factor):
    argv = ["mc-validate", "--portfolio", one_factor, "--paths", "20000",
            "--alpha", "0.05", "--seed", "9", "--batch-size", "4096"]
    outs = []
    for workers in ("1", "3", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "ellvar.cli", *argv, "--workers", workers],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_console_script_is_installed():
    proc = subprocess.run(
        ["ellvar", "table", "--nu", "5", "--alpha", "0.05"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "2.01505" in proc.stdout
