"""perfbench/tracing.py finds the functions it measures by name, so every
name in its LAYERS and HOOKS must resolve to a spherelab callable; a
deleted or renamed function would otherwise break ``--trace 1`` silently."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items() for fn in fns]
    for name in names + list(tracing.HOOKS):
        mod, fn = name.split(".")
        module = importlib.import_module(f"spherelab.{mod}")
        assert callable(getattr(module, fn, None)), name
