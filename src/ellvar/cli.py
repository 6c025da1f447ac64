"""Command-line front end: read a portfolio, bind a return model, report tail risk.

Four subcommands: ``var`` and ``es`` print risk reports per tail level,
``table`` prints the Student quantile and ES multipliers over a grid of
degrees of freedom, and ``mc-validate`` checks the analytic numbers
against a seeded simulation.

Exit codes: 0 success, 1 a validation comparison failed, 2 malformed
input or configuration, 3 dimension mismatch, 4 covariance not positive
definite, 5 numerical failure.  Every error prints a single
machine-parseable line ``error: kind=<type> detail=<message>`` to
stderr; a numerical failure appends its diagnostics to the message as
`` key=value`` pairs.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .elliptic import EllipticModel
from .errors import (
    DimensionError,
    DomainError,
    EllvarError,
    NotPositiveDefiniteError,
    NumericalError,
)
from .linalg import estimate_moments
from .mc import SimulationSpec, validate_model
from .mixture import MixtureModel
from .portfolio import risk_report
from .student import (
    StudentParams,
    dispersion_from_covariance,
    gaussian_generator,
    student_es_multiplier,
    student_generator,
    student_quantile,
)

DEFAULT_ALPHAS = (0.01, 0.025, 0.05)

# Published reference values for the Student quantile multiplier q_{alpha,nu},
# used by `table --compare-reference`.  Four cells are known misprints in the
# source table: (0.05, 9) and (0.05, 10) shifted a column, and the pair
# (0.01, 200) / (0.01, 250) swapped.
REFERENCE_NUS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 200, 250, 275, 300, 400, 1000)
REFERENCE_QUANTILES = {
    0.01: (6.96456, 4.54056, 3.74695, 3.36493, 3.14267, 2.99795, 2.89646, 2.8214,
           2.76377, 2.36422, 2.34135, 2.34514, 2.33998, 2.33884, 2.33571, 2.33008),
    0.025: (4.3026, 3.18244, 2.77644, 2.57058, 2.44691, 2.36462, 2.3060, 2.26216,
            2.22814, 1.98397, 1.97189, 1.96949, 1.96862, 1.9679, 1.96591, 1.96234),
    0.05: (2.91999, 2.35336, 2.13185, 2.01505, 1.94318, 1.89458, 1.85955, 1.81246,
           1.66023, 1.66023, 1.65251, 1.65097, 1.65041, 1.64995, 1.64867, 1.64638),
}


def reference_quantile(alpha: float, nu: float) -> float | None:
    """Published q_{alpha,nu} if the cell is on the reference grid."""
    row = REFERENCE_QUANTILES.get(alpha)
    if row is None:
        return None
    try:
        return row[REFERENCE_NUS.index(nu)]
    except ValueError:
        return None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_table(header: list[str], rows: list[list]) -> str:
    cells = [list(header)] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(header))]
    lines = []
    for row in cells:
        first = row[0].ljust(widths[0])
        rest = [row[j].rjust(widths[j]) for j in range(1, len(row))]
        lines.append("  ".join([first] + rest).rstrip())
    return "\n".join(lines)


def _parse_float(text: str, path: str, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(
            f"{path}:{line}: column {column!r} is not a number: {text!r}"
        ) from None


def read_portfolio(path: str) -> tuple[list[str], np.ndarray]:
    """Positions from CSV rows `id,delta` or `id,shares,price`.

    A leading header row is skipped when its numeric columns do not
    parse.  Returns the instrument ids and the delta vector.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not raw:
        raise DomainError(f"{path}: no rows")
    width = len(raw[0][1])
    if width not in (2, 3):
        raise DomainError(
            f"{path}:{raw[0][0]}: expected 2 or 3 columns (id,delta or "
            f"id,shares,price), got {width}"
        )
    try:
        for cell in raw[0][1][1:]:
            float(cell)
    except ValueError:
        raw = raw[1:]
        if not raw:
            raise DomainError(f"{path}: header only, no positions") from None

    ids: list[str] = []
    deltas: list[float] = []
    for line, row in raw:
        if len(row) != width:
            raise DomainError(
                f"{path}:{line}: expected {width} columns, got {len(row)}"
            )
        ids.append(row[0].strip())
        if width == 2:
            deltas.append(_parse_float(row[1], path, line, "delta"))
        else:
            shares = _parse_float(row[1], path, line, "shares")
            price = _parse_float(row[2], path, line, "price")
            if price <= 0.0:
                raise DomainError(f"{path}:{line}: price must be positive, got {price!r}")
            deltas.append(shares * price)
    return ids, np.array(deltas, dtype=np.float64)


def read_returns(path: str) -> tuple[list[str], np.ndarray]:
    """Return history from CSV: header of instrument ids, one observation per row."""
    with open(path, newline="", encoding="utf-8") as fh:
        raw = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if len(raw) < 3:
        raise DomainError(f"{path}: need a header and at least 2 observation rows")
    ids = [c.strip() for c in raw[0][1]]
    rows = []
    for line, row in raw[1:]:
        if len(row) != len(ids):
            raise DomainError(
                f"{path}:{line}: expected {len(ids)} columns, got {len(row)}"
            )
        rows.append([_parse_float(c, path, line, ids[j]) for j, c in enumerate(row)])
    return ids, np.array(rows, dtype=np.float64)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DomainError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: expected a JSON object")
    return doc


def _as_moments(doc: dict, path: str) -> tuple[np.ndarray, np.ndarray]:
    if "mu" not in doc or "sigma" not in doc:
        raise DomainError(f"{path}: expected fields 'mu' and 'sigma'")
    mu = np.asarray(doc["mu"], dtype=np.float64)
    sigma = np.asarray(doc["sigma"], dtype=np.float64)
    if mu.ndim != 1 or sigma.ndim != 2:
        raise DomainError(f"{path}: 'mu' must be a vector and 'sigma' a matrix")
    return mu, sigma


def read_mixture_spec(path: str, dimension: int, interpretation: str) -> MixtureModel:
    """Mixture from JSON {components: [{beta, nu, mu, sigma}]}.

    A component without a ``nu`` field is normal.  ``mu`` defaults to
    zeros and ``sigma`` to the identity at the portfolio dimension.
    """
    doc = _read_json(path)
    entries = doc.get("components")
    if not isinstance(entries, list) or not entries:
        raise DomainError(f"{path}: expected a nonempty 'components' list")
    components = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "beta" not in entry:
            raise DomainError(f"{path}: component {i}: expected an object with 'beta'")
        beta = float(entry["beta"])
        mu = np.asarray(entry.get("mu", np.zeros(dimension)), dtype=np.float64)
        sigma = np.asarray(entry.get("sigma", np.eye(dimension)), dtype=np.float64)
        if mu.ndim != 1 or sigma.ndim != 2:
            raise DomainError(
                f"{path}: component {i}: 'mu' must be a vector and 'sigma' a matrix"
            )
        nu = entry.get("nu")
        if nu is None:
            generator = gaussian_generator(mu.shape[0])
        else:
            nu = float(nu)
            if interpretation == "covariance":
                sigma = dispersion_from_covariance(sigma, nu)
            generator = student_generator(mu.shape[0], nu)
        components.append((beta, EllipticModel(mu=mu, sigma=sigma, generator=generator)))
    return MixtureModel(components=components)


def build_model(args, ids: list[str], dimension: int):
    """Bind the model named on the command line to the portfolio dimension.

    Moments come from --model-file, or are estimated from --returns
    (yielding a covariance, always converted to dispersion for Student
    models), or default to mu = 0, sigma = identity.  A file-supplied
    sigma is read per --sigma-interpretation.
    """
    if args.model != "student" and args.nu is not None:
        raise DomainError("--nu only applies to --model student")
    if args.model != "mixture" and args.mixture_spec is not None:
        raise DomainError("--mixture-spec only applies to --model mixture")

    if args.model == "mixture":
        if args.mixture_spec is None:
            raise DomainError("--model mixture requires --mixture-spec")
        if args.model_file is not None or args.returns is not None:
            raise DomainError(
                "mixture components carry their own moments; drop "
                "--model-file/--returns"
            )
        return read_mixture_spec(args.mixture_spec, dimension, args.sigma_interpretation)

    if args.model == "student" and args.nu is None:
        raise DomainError("--model student requires --nu")
    if args.model_file is not None and args.returns is not None:
        raise DomainError("give either --model-file or --returns, not both")

    estimated = False
    if args.model_file is not None:
        mu, sigma = _as_moments(_read_json(args.model_file), args.model_file)
    elif args.returns is not None:
        ret_ids, history = read_returns(args.returns)
        if ret_ids != ids:
            raise DimensionError(
                f"returns columns {ret_ids} do not match portfolio ids {ids}"
            )
        mu, sigma = estimate_moments(history, ridge=args.ridge)
        estimated = True
    else:
        mu = np.zeros(dimension)
        sigma = np.eye(dimension)

    if args.model == "normal":
        return EllipticModel(mu=mu, sigma=sigma, generator=gaussian_generator(mu.shape[0]))
    if estimated or args.sigma_interpretation == "covariance":
        sigma = dispersion_from_covariance(sigma, args.nu)
    return StudentParams(nu=args.nu, mu=mu, sigma=sigma)


def _resolve_alphas(args) -> list[float]:
    alphas = args.alpha if args.alpha else list(DEFAULT_ALPHAS)
    for a in alphas:
        if not 0.0 < a < 0.5:
            raise DomainError(f"alpha must lie in (0, 0.5), got {a!r}")
    return alphas


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("ELLVAR_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"ELLVAR_SEED must be an integer, got {raw!r}") from None


_REPORT_FIELDS = ("model", "alpha", "var", "es", "quantile", "mean", "volatility")


def _emit_reports(reports, fmt: str, lead: str) -> None:
    fields = list(_REPORT_FIELDS)
    fields.remove(lead)
    fields.insert(2, lead)
    if fmt == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fields)
        for r in reports:
            writer.writerow([_fmt(getattr(r, f)) for f in fields])
    else:
        rows = [[getattr(r, f) for f in fields] for r in reports]
        print(_render_table(fields, rows))


def cmd_report(args, lead: str) -> int:
    ids, delta = read_portfolio(args.portfolio)
    model = build_model(args, ids, delta.shape[0])
    alphas = _resolve_alphas(args)
    reports = [risk_report(model, delta, a) for a in alphas]
    _emit_reports(reports, args.format, lead)
    return 0


def cmd_table(args) -> int:
    alphas = _resolve_alphas(args)
    nus = args.nu if args.nu else list(REFERENCE_NUS)
    for nu in nus:
        if nu <= 1.0:
            raise DomainError(f"table requires nu > 1, got {nu!r}")

    header = ["nu"]
    header += [f"q({a:g})" for a in alphas]
    header += [f"es_mult({a:g})" for a in alphas]
    rows = []
    flagged = []
    for nu in nus:
        quantiles = [student_quantile(a, nu) for a in alphas]
        mults = [student_es_multiplier(a, nu, quantile=q) for a, q in zip(alphas, quantiles)]
        cells: list = [f"{nu:g}"]
        for a, q in zip(alphas, quantiles):
            cell = _fmt(q)
            if args.compare_reference:
                ref = reference_quantile(a, nu)
                if ref is not None and abs(q - ref) > 5e-4:
                    cell += "*"
                    flagged.append((a, nu, ref, q))
            cells.append(cell)
        cells.extend(_fmt(m) for m in mults)
        rows.append(cells)

    print(_render_table(header, rows))
    if args.compare_reference:
        if flagged:
            print()
            print("* differs from the reference table by more than 0.0005:")
            for a, nu, ref, q in flagged:
                print(f"  alpha={a:g} nu={nu:g}: reference {ref:g}, computed {q:.6g}")
        else:
            print()
            print("all cells match the reference table within 0.0005")
    return 0


def cmd_mc_validate(args) -> int:
    ids, delta = read_portfolio(args.portfolio)
    model = build_model(args, ids, delta.shape[0])
    alphas = _resolve_alphas(args)
    spec = SimulationSpec(
        paths=args.paths,
        seed=_resolve_seed(args.seed),
        batch_size=args.batch_size,
        antithetic=args.antithetic,
        workers=args.workers,
    )
    rows = validate_model(model, delta, alphas, spec)
    header = [
        "alpha", "var", "mc_var", "var_se", "var_check",
        "es", "mc_es", "es_se", "es_check",
    ]
    table = [
        [
            r.alpha, r.analytic_var, r.mc_var, r.var_se,
            "PASS" if r.var_ok else "FAIL",
            r.analytic_es, r.mc_es, r.es_se,
            "PASS" if r.es_ok else "FAIL",
        ]
        for r in rows
    ]
    print(_render_table(header, table))
    ok = all(r.var_ok and r.es_ok for r in rows)
    print(f"mc-validate: {'PASS' if ok else 'FAIL'} "
          f"(paths={spec.paths}, seed={spec.seed})")
    return 0 if ok else 1


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--portfolio", required=True, metavar="CSV",
        help="positions, one per row: 'id,delta' or 'id,shares,price' "
             "(a header row is skipped if present)",
    )
    parser.add_argument(
        "--model", choices=("normal", "student", "mixture"), default="normal",
        help="return distribution family (default: normal)",
    )
    parser.add_argument(
        "--nu", type=float, metavar="NU",
        help="Student degrees of freedom, must be > 2 (with --model student)",
    )
    parser.add_argument(
        "--mixture-spec", metavar="JSON",
        help="mixture description {components: [{beta, nu, mu, sigma}]}; "
             "a component without nu is normal (with --model mixture)",
    )
    parser.add_argument(
        "--model-file", metavar="JSON",
        help="location and scale as {mu: [...], sigma: [[...]]}",
    )
    parser.add_argument(
        "--returns", metavar="CSV",
        help="return history: header row of instrument ids, one observation "
             "per row; moments are estimated from it",
    )
    parser.add_argument(
        "--ridge", type=float, default=0.0, metavar="EPS",
        help="diagonal loading added to an estimated covariance (default: 0)",
    )
    parser.add_argument(
        "--sigma-interpretation", choices=("dispersion", "covariance"),
        default="dispersion",
        help="how to read a file-supplied sigma for Student models: as the "
             "dispersion matrix (default) or as the covariance, which is "
             "rescaled by (nu-2)/nu; moments estimated from --returns are "
             "covariances and are always rescaled",
    )
    parser.add_argument(
        "--alpha", type=float, action="append", metavar="A",
        help="tail level in (0, 0.5); repeat for several "
             "(default: 0.01 0.025 0.05)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellvar",
        description="Value-at-risk and expected shortfall for linear "
                    "portfolios under elliptic return models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, lead, text in (
        ("var", "var", "value-at-risk report per tail level"),
        ("es", "es", "expected-shortfall report per tail level"),
    ):
        p = sub.add_parser(name, help=text)
        _add_model_arguments(p)
        p.add_argument(
            "--format", choices=("table", "json", "csv"), default="table",
            help="output format (default: table); json keeps full precision",
        )
        p.set_defaults(func=lambda a, lead=lead: cmd_report(a, lead))

    p = sub.add_parser(
        "table", help="Student quantile and ES multipliers over a nu grid",
    )
    p.add_argument(
        "--alpha", type=float, action="append", metavar="A",
        help="tail level in (0, 0.5); repeatable (default: 0.01 0.025 0.05)",
    )
    p.add_argument(
        "--nu", type=float, action="append", metavar="NU",
        help="degrees of freedom, > 2; repeatable (default: the reference grid)",
    )
    p.add_argument(
        "--compare-reference", action="store_true",
        help="mark quantile cells that differ from the published reference "
             "values by more than 5e-4",
    )
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "mc-validate", help="check analytic VaR/ES against a seeded simulation",
    )
    _add_model_arguments(p)
    p.add_argument("--paths", type=int, default=1_000_000,
                   help="simulated paths (default: 1000000)")
    p.add_argument("--seed", type=int, default=None,
                   help="PRNG seed (default: $ELLVAR_SEED, else 0)")
    p.add_argument("--batch-size", type=int, default=262_144,
                   help="paths per batch substream (default: 262144)")
    p.add_argument("--antithetic", action="store_true",
                   help="mirror the normals within consecutive path pairs")
    p.add_argument("--workers", type=int, default=1,
                   help="batch worker threads; results do not depend on this")
    p.set_defaults(func=cmd_mc_validate)
    return parser


_EXIT_CODES = (
    (DimensionError, 3),
    (NotPositiveDefiniteError, 4),
    (NumericalError, 5),
    (EllvarError, 2),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: kind={type(exc).__name__} detail={exc}", file=sys.stderr)
        return 2
    except EllvarError as exc:
        detail = str(exc)
        if isinstance(exc, NumericalError):
            detail += "".join(f" {key}={value}" for key, value in exc.diagnostics.items())
        print(f"error: kind={type(exc).__name__} detail={detail}", file=sys.stderr)
        for kind, code in _EXIT_CODES:
            if isinstance(exc, kind):
                return code
        return 2


if __name__ == "__main__":
    sys.exit(main())
