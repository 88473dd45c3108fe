"""The benchmark's tracer attaches to slab by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing()


@pytest.mark.parametrize("name", [f"{mod}.{fn}" for mod, fns in
                                  TRACING_MODULE.SPANNED.items()
                                  for fn in fns])
def test_spanned_attach_point_resolves(name):
    # Tracer.install wraps each of these with getattr/setattr; a refactor
    # that renames or drops one breaks the traced benchmark run
    mod, _, path = name.partition(".")
    owner = importlib.import_module(f"slab.{mod}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_symbol_attach_points_resolve():
    symbols = importlib.import_module("slab.symbols")
    for attr in TRACING_MODULE.SYMBOL_METHODS:
        assert callable(getattr(symbols.HomogeneousSymbol, attr))
    assert callable(symbols.minimize)
