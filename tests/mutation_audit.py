"""Mutation audit: does some test fail when one operator or constant of a module changes?

Usage (from the repository root; not collected by pytest, since a full
audit takes far longer than the suite)::

    python tests/mutation_audit.py src/ellvar/portfolio.py tests/test_portfolio.py \
        [more test files ...]

Each mutant changes one site of the module, found with ``ast`` and edited
by its source span, so comments and formatting (the ``# noqa ... wrapped
by bench/tracing.py`` comments among them) stay as they are:

* a comparison swaps < and <=, > and >=, == and !=;
* an arithmetic operator swaps + and -, * and /;
* a numeric constant moves: an int by +1, a float by x1.5 (0.0 to 1.5).

A mutant runs the given test files first and, if they all pass, the whole
suite; it is killed when a test fails that passes on the unmutated tree,
or when a run exceeds ``_TIMEOUT`` or breaks off (a pytest exit code
above 1).  Survivors are printed with their line and the text of the
change.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

_COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
            ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
_ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
# seconds per pytest run: the whole suite takes under a minute, a mutant
# that loops does not end
_TIMEOUT = 150.0


def _offsets(source: bytes) -> list[int]:
    """Byte offset of the start of each line; ast columns are utf-8 byte offsets."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


_OPERATOR = re.compile(r"<=|>=|==|!=|\*\*|//|[-+*/]=|[-+*/<>]")


def _operator_span(source: bytes, lo: int, hi: int, token: str) -> tuple[int, int] | None:
    """The span of the one operator ``token`` in source[lo:hi], the gap between two operands.

    The gap holds the operator, brackets, blanks and perhaps comments.
    """
    gap = source[lo:hi].decode()
    # blank out comments, keeping offsets
    gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)
    found = [m for m in _OPERATOR.finditer(gap) if m.group() == token]
    if len(found) != 1:
        return None
    start = lo + len(gap[: found[0].start()].encode())
    return start, start + len(token.encode())


def mutants(source: bytes) -> list[tuple[int, int, bytes, int, str]]:
    """(start, end, replacement, line, description) for every site of the module."""
    tree = ast.parse(source)
    starts = _offsets(source)

    def at(line: int, col: int) -> int:
        return starts[line - 1] + col

    out = []

    def operator(left: ast.AST, right: ast.AST, pair: tuple[str, str], line: int) -> None:
        span = _operator_span(
            source, at(left.end_lineno, left.end_col_offset), at(right.lineno, right.col_offset),
            pair[0],
        )
        if span is not None:
            out.append((*span, pair[1].encode(), line, f"{pair[0]} -> {pair[1]}"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in _COMPARE:
                    operator(left, right, _COMPARE[type(op)], node.lineno)
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
            operator(node.left, node.right, _ARITH[type(node.op)], node.lineno)
        elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH:
            old, new = _ARITH[type(node.op)]
            operator(node.target, node.value, (old + "=", new + "="), node.lineno)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            # a float of 0 moves to 1.5, as x1.5 would leave it as it is
            value = node.value + 1 if isinstance(node.value, int) else node.value * 1.5 or 1.5
            start = at(node.lineno, node.col_offset)
            end = at(node.end_lineno, node.end_col_offset)
            old = source[start:end].decode()
            out.append((start, end, repr(value).encode(), node.lineno, f"{old} -> {value!r}"))
    return sorted(out)


def _failures(root: Path, tests: list[str]) -> set[str] | None:
    """The failing test ids of one pytest run in root; None if it timed out or broke off."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=root, env=env, capture_output=True, text=True, timeout=_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None
    # exit code 0: all passed, 1: some failed; anything else did not run the tests through
    if run.returncode > 1:
        return None
    return {line.split()[1] for line in run.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module")
    parser.add_argument("tests", nargs="+")
    args = parser.parse_args(argv)

    repo = Path(__file__).resolve().parent.parent
    work = Path(tempfile.mkdtemp(prefix="mutation-"))
    for part in ("src", "tests", "pyproject.toml", "README.md", "bench"):
        src = repo / part
        if src.is_dir():
            shutil.copytree(src, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        elif src.exists():
            shutil.copy2(src, work / part)
    target = work / args.module
    original = target.read_bytes()
    sites = mutants(original)
    survivors = []
    try:
        base_own = _failures(work, args.tests)
        base_all = _failures(work, [])
        if base_own is None or base_all is None:
            print("the unmutated suite timed out or broke off", file=sys.stderr)
            return 2
        for i, (start, end, new, line, what) in enumerate(sites, 1):
            target.write_bytes(original[:start] + new + original[end:])
            own = _failures(work, args.tests)
            killed = own is None or bool(own - base_own)
            if not killed:
                every = _failures(work, [])
                killed = every is None or bool(every - base_all)
            print(f"[{i}/{len(sites)}] line {line}: {what}: "
                  f"{'killed' if killed else 'SURVIVED'}", flush=True)
            if not killed:
                text = original.splitlines()[line - 1].decode().strip()
                survivors.append(f"line {line}: {what}: {text}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(sites)} mutants, {len(survivors)} survived", *survivors, sep="\n  ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
