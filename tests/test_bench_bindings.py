"""Every binding the benchmark's tracer wraps still names a callable in the package.

``bench/tracing.py`` patches module attributes by name, so renaming or
deleting one of them under ``src/`` would otherwise only surface as a
failed ``bench/run.py --trace 1`` run.  The tracer module is loaded from
its file as it stands.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

import ellvar.elliptic
import ellvar.specfun

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"
PACKAGE = ROOT / "src" / "ellvar"
TRACED_MARK = "# noqa: F401  wrapped by bench/tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
BINDINGS = sorted(
    {b for table in (tracing.SPANS, tracing.COUNTERS) for names in table.values() for b in names}
)


@pytest.mark.parametrize("binding", BINDINGS)
def test_traced_binding_resolves(binding):
    owner, attr = tracing._resolve(binding)
    assert callable(getattr(owner, attr))


def test_tracer_module_hooks_exist():
    # installed by Tracer.install next to the span bindings
    assert callable(ellvar.specfun.integrate.quad)
    assert isinstance(ellvar.elliptic._quantile_cache, dict)


def _traced_imports():
    """'ellvar.<module>:<name>' for every import the package keeps only for the tracer."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.parse(source).body:
            marked = lines[node.end_lineno - 1].endswith(TRACED_MARK)
            if marked and isinstance(node, ast.ImportFrom):
                names = (alias.asname or alias.name for alias in node.names)
                found += [f"ellvar.{path.stem}:{name}" for name in names]
    return found


def test_traced_imports_are_listed_by_the_tracer():
    imports = _traced_imports()
    assert len(imports) >= 10  # the marker is found at all
    assert sorted(set(imports) - set(BINDINGS)) == []
