"""Command-line interface: parsing, report formats, exit codes, reproducibility."""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from ellvar import RiskReport, StudentParams, risk_report, student_quantile
from ellvar.cli import main
from ellvar.mc import DEFAULT_ALPHAS


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
    assert row["var"] == pytest.approx(want, rel=1e-12, abs=0.0)


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


MALFORMED_FILES = {
    "beta_text": ("--mixture-spec", {"components": [{"beta": "x"}]}, "beta"),
    "beta_null": ("--mixture-spec", {"components": [{"beta": None}]}, "beta"),
    "nu_text": ("--mixture-spec", {"components": [{"beta": 1.0, "nu": "abc"}]}, "nu"),
    "mu_text": ("--model-file", {"mu": ["a", 0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}, "mu"),
    "sigma_ragged": ("--model-file", {"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0]]}, "sigma"),
    # JSON true and "1.0" are no numbers, though numpy would convert both
    "mu_bool": ("--model-file", {"mu": [True, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}, "mu"),
    "mu_numeric_text": (
        "--model-file", {"mu": ["1.0", 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}, "mu",
    ),
    "beta_bool": ("--mixture-spec", {"components": [{"beta": True}]}, "beta"),
    "nu_numeric_text": ("--mixture-spec", {"components": [{"beta": 1.0, "nu": "5"}]}, "nu"),
    # a field with the wrong number of axes is malformed input, not a dimension mismatch
    "mu_scalar": ("--model-file", {"mu": 5, "sigma": [[1.0, 0.0], [0.0, 1.0]]}, "mu"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_model_file_field_exit_2(case, two_factor, tmp_path, capsys):
    option, doc, field = MALFORMED_FILES[case]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    argv = ["var", "--portfolio", two_factor, option, str(path)]
    if option == "--mixture-spec":
        argv += ["--model", "mixture"]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: kind=DomainError")
    assert str(path) in err and repr(field) in err


_BOOK = "a,1.0\n"
_MODEL = json.dumps({"mu": [0.0], "sigma": [[1.0]]})
_SPEC = json.dumps({"components": [{"beta": 1.0}]})
_RETURNS = "a\n0.01\n-0.02\n"

# case: (files to write, which default to the one-position book; `var`
# arguments after --portfolio, where a file's name stands for its path;
# a fragment of the error line)
BAD_INPUTS = {
    "book empty": ({"book": ""}, [], ": no rows"),
    "book of one column": ({"book": "a\n"}, [], "expected 2 or 3 columns (id,delta or id,shares,price), got 1"),
    "book of four columns": ({"book": "a,1,2,3\n"}, [], "expected 2 or 3 columns (id,delta or id,shares,price), got 4"),
    "book header only": ({"book": "id,delta\n"}, [], ": header only, no positions"),
    "price zero": ({"book": "id,shares,price\na,2,0\n"}, [], ":2: price must be positive, got 0.0"),
    "price negative": ({"book": "a,2,-1.5\n"}, [], ":1: price must be positive, got -1.5"),
    "returns of one observation": (
        {"returns": "a\n0.01\n"}, ["--returns", "returns"], "need a header and at least 2 observation rows",
    ),
    "model invalid JSON": ({"model": "{"}, ["--model-file", "model"], ": invalid JSON: "),
    "model a JSON array": ({"model": "[1.0]"}, ["--model-file", "model"], ": expected a JSON object"),
    "model without sigma": (
        {"model": '{"mu": [0.0]}'}, ["--model-file", "model"], ": expected fields 'mu' and 'sigma'",
    ),
    "mixture without components": (
        {"spec": '{"components": []}'}, ["--model", "mixture", "--mixture-spec", "spec"],
        ": expected a nonempty 'components' list",
    ),
    "mixture component without beta": (
        {"spec": '{"components": [{"nu": 5}]}'}, ["--model", "mixture", "--mixture-spec", "spec"],
        ": component 0: expected an object with 'beta'",
    ),
    "nu with normal": ({}, ["--nu", "5"], "--nu only applies to --model student"),
    "mixture spec with student": (
        {"spec": _SPEC}, ["--model", "student", "--nu", "5", "--mixture-spec", "spec"],
        "--mixture-spec only applies to --model mixture",
    ),
    "mixture without spec": ({}, ["--model", "mixture"], "--model mixture requires --mixture-spec"),
    "mixture with model file": (
        {"spec": _SPEC, "model": _MODEL},
        ["--model", "mixture", "--mixture-spec", "spec", "--model-file", "model"],
        "mixture components carry their own moments; drop --model-file/--returns",
    ),
    "model file with returns": (
        {"model": _MODEL, "returns": _RETURNS}, ["--model-file", "model", "--returns", "returns"],
        "give either --model-file or --returns, not both",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    files, options, fragment = BAD_INPUTS[case]
    paths = {}
    for name, text in {"book": _BOOK, **files}.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    argv = ["var", "--portfolio", str(paths["book"])]
    argv += [str(paths.get(option, option)) for option in options]
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: kind=DomainError detail=")
    assert fragment in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_csv_cell_names_its_file_and_line(cell, tmp_path, capsys):
    book = tmp_path / "book.csv"
    book.write_text(f"id,delta\na,1.0\nb,{cell}\n")
    code, _, err = run_cli(capsys, ["var", "--portfolio", str(book)])
    assert code == 2
    assert err == f"error: kind=DomainError detail={book}:3: column 'delta' is not a number: {cell!r}\n"

    two = tmp_path / "two.csv"
    two.write_text("a,1.0\nb,1.0\n")
    returns = tmp_path / "returns.csv"
    returns.write_text(f"a,b\n0.01,0.02\n0.03,{cell}\n-0.01,0.0\n")
    code, _, err = run_cli(capsys, ["var", "--portfolio", str(two), "--returns", str(returns)])
    assert code == 2
    assert err == f"error: kind=DomainError detail={returns}:3: column 'b' is not a number: {cell!r}\n"


def test_shares_and_prices_book_reports_as_its_deltas(tmp_path, capsys):
    priced = tmp_path / "priced.csv"
    priced.write_text("id,shares,price\na,2,3.5\nb,-4,0.25\n")
    deltas = tmp_path / "deltas.csv"
    deltas.write_text("a,7.0\nb,-1.0\n")
    argv = ["var", "--model", "student", "--nu", "5", "--format", "json"]
    from_priced = run_cli(capsys, [*argv, "--portfolio", str(priced)])
    from_deltas = run_cli(capsys, [*argv, "--portfolio", str(deltas)])
    assert from_priced == from_deltas
    assert from_priced[0] == 0


def test_student_nu_floor_is_the_generators_for_model_and_mixture(one_factor, tmp_path, capsys):
    # --model student and every mixture component are built alike, so both take nu > 1
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps({"components": [{"beta": 1.0, "nu": 1.5}]}))
    tail = ["--alpha", "0.01", "--format", "json"]
    student = run_cli(capsys, ["var", "--portfolio", one_factor, "--model", "student",
                               "--nu", "1.5", *tail])
    mixed = run_cli(capsys, ["var", "--portfolio", one_factor, "--model", "mixture",
                             "--mixture-spec", str(spec), *tail])
    assert student == mixed
    assert student[0] == 0
    assert json.loads(student[1])[0]["var"] == pytest.approx(
        stats.t.isf(0.01, 1.5), rel=1e-12, abs=0.0
    )


def test_student_covariance_needs_nu_above_two(one_factor, capsys):
    # a t with nu <= 2 has no covariance to rescale
    code, out, err = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "1.5",
         "--sigma-interpretation", "covariance"],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: kind=DomainError") and "nu" in err


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


@pytest.mark.parametrize(
    "options, detail",
    [
        (["--portfolio", "BOOK", "--alpha", "abc"], "argument --alpha: invalid float value: 'abc'"),
        ([], "the following arguments are required: --portfolio"),
    ],
    ids=["alpha not a number", "no portfolio"],
)
def test_usage_error_exits_2_with_one_error_line(options, detail, one_factor, capsys):
    argv = ["var", *(one_factor if option == "BOOK" else option for option in options)]
    assert run_cli(capsys, argv) == (2, "", f"error: kind=ArgumentError detail={detail}\n")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["var", "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ellvar var ")


@pytest.mark.parametrize("command", ["var", "es", "table"])
def test_alpha_help_names_the_default_levels(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"(default: {' '.join(str(a) for a in DEFAULT_ALPHAS)})" in help_text


def test_numerical_error_line_keeps_diagnostics(one_factor, tmp_path, capsys):
    # the mixture root is bracketed by its components' VaRs, and stdtrit gives
    # -inf for the t3 component's quantile at 1e-300
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps({
        "components": [
            {"beta": 0.5},
            {"beta": 0.5, "nu": 3},
        ]
    }))
    code, _, err = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "mixture",
         "--mixture-spec", str(spec), "--alpha", "1e-300"],
    )
    assert code == 5
    line = err.strip()
    assert "\n" not in line
    assert line.startswith(
        "error: kind=NumericalError detail=quantile left a relative tail residual above tolerance"
    )
    assert " alpha=1e-300 " in line
    assert line.endswith(" quantile=-inf residual=inf")


@pytest.mark.parametrize("command", ("var", "es"))
def test_a_risk_number_past_the_double_range_exits_5_with_its_unit_value(
    command, tmp_path, capsys
):
    # the 1e308 book's VaR at 1e-12 is 3.91 units of 2^1024
    book = tmp_path / "big.csv"
    book.write_text("idx,1e308\n")
    code, out, err = run_cli(capsys, [command, "--portfolio", str(book), "--alpha", "1e-12"])
    assert (code, out) == (5, "")
    line = err.strip()
    assert line.startswith(
        "error: kind=NumericalError detail=result is past the double range unit_value=3."
    )
    assert line.endswith(" exponent=1024")


def test_student_var_deep_tail_is_exact_or_numerical_error(one_factor, capsys):
    code, out, _ = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "3",
         "--alpha", "1e-30", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)[0]["var"] == pytest.approx(stats.t.isf(1e-30, 3.0), rel=1e-12, abs=0.0)
    # stdtrit gives -inf here; the closed form must fail its residual check
    code, _, err = run_cli(
        capsys,
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "3",
         "--alpha", "1e-300"],
    )
    assert code == 5
    line = err.strip()
    assert line.startswith("error: kind=NumericalError ")
    assert " alpha=1e-300 " in line


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


def test_table_compare_reference_counts_the_cells_it_compared(capsys):
    # neither nu = 11 nor alpha = 0.02 is on the published grid
    code, out, _ = run_cli(
        capsys, ["table", "--nu", "11", "--alpha", "0.02", "--compare-reference"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "no quantile cell is on the reference grid, so none was compared"
    assert "match" not in out
    code, out, _ = run_cli(
        capsys,
        ["table", "--nu", "5", "--nu", "11", "--alpha", "0.01", "--alpha", "0.02",
         "--compare-reference"],
    )
    assert code == 0
    assert out.splitlines()[-1] == (
        "1 of 4 quantile cells are on the reference grid and were compared; "
        "each matches it within 0.0005"
    )
    assert "all cells match" not in out
    # a flagged cell keeps its line, and the count follows
    code, out, _ = run_cli(
        capsys, ["table", "--nu", "9", "--nu", "11", "--alpha", "0.05", "--compare-reference"]
    )
    assert code == 0
    assert out.splitlines()[-2:] == [
        "  alpha=0.05 nu=9: reference 1.81246, computed 1.83311",
        "1 of 2 quantile cells are on the reference grid and were compared",
    ]


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


def test_mc_validate_default_seed_is_zero(one_factor, capsys, monkeypatch):
    monkeypatch.delenv("ELLVAR_SEED", raising=False)
    code, out, _ = run_cli(
        capsys,
        ["mc-validate", "--portfolio", one_factor, "--paths", "20000",
         "--alpha", "0.05"],
    )
    assert code == 0
    assert out.rstrip().endswith("(paths=20000, seed=0)")


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


def test_python_m_ellvar_runs_the_cli(one_factor):
    # the two entry points print the same bytes
    runs = []
    for module in ("ellvar", "ellvar.cli"):
        for argv in (
            ["var", "--portfolio", one_factor, "--model", "student", "--nu", "5",
             "--alpha", "0.05"],
            ["var", "--portfolio", one_factor, "--alpha", "0.7"],
            ["table", "--nu", "3", "--alpha", "0.01"],
        ):
            proc = subprocess.run([sys.executable, "-m", module, *argv], capture_output=True)
            runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[:3] == runs[3:]
    assert runs[0][0] == 0 and b"2.01505" in runs[0][1]
    assert runs[1][0] == 2 and b"error: kind=DomainError" in runs[1][2]
    assert runs[2][0] == 0 and b"4.5407" in runs[2][1]


def test_console_script_is_installed():
    proc = subprocess.run(
        ["ellvar", "table", "--nu", "5", "--alpha", "0.05"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "2.01505" in proc.stdout


def test_closed_form_runs_never_load_the_quadrature_stack():
    # scipy.integrate, with the scipy.optimize and scipy.linalg it loads, comes
    # with the first integral; a closed-form table needs none of them (it reads
    # the scalar kernels of scipy.special.cython_special)
    script = (
        "import sys, ellvar, ellvar.cli\n"
        "assert ellvar.cli.main(['table', '--nu', '5', '--alpha', '0.05']) == 0\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "2.01505" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


def test_mixture_runs_never_load_the_root_finder_or_quadrature(two_factor, tmp_path):
    # a mixture's VaR is a root solve, which the package does itself: reports,
    # Euler contributions, a simulation and the CLI load neither scipy module
    spec = tmp_path / "mix.json"
    spec.write_text(json.dumps(
        {"components": [{"beta": 0.5}, {"beta": 0.3, "nu": 5}, {"beta": 0.2, "nu": 3}]}
    ))
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from ellvar import (EllipticModel, MixtureModel, SimulationSpec, gaussian_generator,\n"
        "    incremental_var, risk_report, student_generator, validate_model)\n"
        "from ellvar.cli import main\n"
        "gens = (gaussian_generator(3), student_generator(3, 5.0), student_generator(3, 3.0))\n"
        "mix = MixtureModel(components=[(w, EllipticModel(mu=np.full(3, m), sigma=s * np.eye(3),\n"
        "    generator=g)) for w, g, m, s in zip((0.5, 0.3, 0.2), gens, (0.0, 0.1, -0.2),\n"
        "    (1.0, 2.0, 0.5))])\n"
        "d = np.array([1.0, -0.5, 2.0])\n"
        "risk_report(mix, d, 0.01)\n"
        "incremental_var(mix, d, 0.01)\n"
        "validate_model(mix, d, spec=SimulationSpec(paths=20_000, seed=3))\n"
        f"assert main(['var', '--portfolio', {two_factor!r}, '--model', 'mixture',\n"
        f"    '--mixture-spec', {str(spec)!r}, '--alpha', '0.01']) == 0\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.linalg')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "mixture(0.5*gaussian" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


def test_one_parser_serves_every_call_in_a_process(one_factor, capsys):
    # main keeps its parser across calls: a usage error leaves nothing behind,
    # and each call prints the bytes a fresh process prints
    calls = (
        ["var", "--portfolio", one_factor, "--bogus"],
        ["var", "--portfolio", one_factor, "--model", "student", "--nu", "5", "--alpha", "0.05"],
        ["table", "--nu", "3", "--alpha", "0.01"],
    )
    in_process = [run_cli(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "ellvar", *argv], capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert in_process[0][0] == 2 and "kind=ArgumentError" in in_process[0][2]
