"""Every name a package module imports is used there or listed in its ``__all__``.

A name that is neither is left over from a deletion.  The imports the
package keeps only for ``bench/tracing.py`` to wrap end in the tracer's
marker and are exempt; ``tests/test_bench_bindings.py`` checks that the
tracer lists each of them.  The check reads the source with ``ast`` alone.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ellvar"
TRACED_MARK = "# noqa: F401  wrapped by bench/tracing.py"


def _unused_imports(source: str) -> list[str]:
    """'line N: name' for each imported name the source neither reads nor exports."""
    lines = source.splitlines()
    imported, read, exported = {}, set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if not future and not lines[node.end_lineno - 1].endswith(TRACED_MARK):
                for alias in node.names:
                    if alias.name != "*":  # a star import has no name of its own to read
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)):
            names = {target.id for target in node.targets if isinstance(target, ast.Name)}
            if "__all__" in names:
                exported.update(ast.literal_eval(node.value))
    unused = [(line, name) for name, line in imported.items() if name not in read | exported]
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_leftover_import_is_found():
    source = (
        "import math\n"
        "from .elliptic import _binary_exponent, _check_alpha\n"
        f"from .linalg import cholesky  {TRACED_MARK}\n"
        "__all__ = ['run']\n"
        "def run(alpha):\n"
        "    return _check_alpha(alpha)\n"
    )
    assert _unused_imports(source) == ["line 1: math", "line 2: _binary_exponent"]
