"""The suite's own tolerances: every relative ``pytest.approx`` also says its absolute part."""

from __future__ import annotations

import ast
from pathlib import Path


def _rel_only_approx(source: str) -> list[int]:
    """Lines of the ``approx(..., rel=...)`` calls in source that give no ``abs=``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keywords = {k.arg for k in node.keywords}
            if name == "approx" and "rel" in keywords and "abs" not in keywords:
                lines.append(node.lineno)
    return lines


def test_the_scan_finds_rel_only_calls():
    source = (
        "a = pytest.approx(1.0, rel=1e-9)\n"
        "b = approx(\n    2.0, rel=1e-9\n)\n"
        "c = pytest.approx(1.0, rel=1e-9, abs=0.0)\n"
        "d = pytest.approx(1.0, abs=1e-3)\n"
        "e = pytest.approx(1.0)\n"
    )
    assert _rel_only_approx(source) == [1, 2]


def test_no_approx_call_in_the_suite_is_relative_only():
    """``approx(x, rel=r)`` keeps its default ``abs=1e-12``, so below about 1e-12 / r it
    checks little or nothing: each call gives ``abs=0.0`` or a tolerance tied to its scale."""
    found = {
        path.name: lines
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if (lines := _rel_only_approx(path.read_text(encoding="utf-8")))
    }
    assert found == {}
