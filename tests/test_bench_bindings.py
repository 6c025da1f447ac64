"""Every binding the benchmark's tracer wraps still names a callable in the package.

``bench/tracing.py`` patches module attributes by name, so renaming or
deleting one of them under ``src/`` would otherwise only surface as a
failed ``bench/run.py --trace 1`` run.  The tracer module is loaded from
its file as it stands.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import ellvar.elliptic
import ellvar.specfun

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
