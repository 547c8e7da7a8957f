"""perfbench/tracing.py finds the functions it measures by name, so every
name in its LAYERS and HOOKS must resolve to a spherelab callable; a
deleted or renamed function would otherwise break ``--trace 1`` silently.
Its work counters are derived from those calls' arguments and results, so
a change of route can zero one silently too."""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_callables():
    tracing = _load("tracing")
    names = [f"{mod}.{fn}" for mod, fns in tracing.LAYERS.items() for fn in fns]
    for name in names + list(tracing.HOOKS):
        mod, fn = name.split(".")
        module = importlib.import_module(f"spherelab.{mod}")
        assert callable(getattr(module, fn, None)), name


def test_transfer_requests_reach_their_work_counters(tmp_path):
    # the first five requests of a round: one d=5 truncation identity and
    # four ratio tables.  Both take their averages from one shell_averages
    # table, so the counters derived from the per-shell route
    # (auto_spherical_average and its exact_multiplier_many) read 0, while
    # the identity's lattice side still enumerates its shells
    tracing, workloads = _load("tracing"), _load("workloads")
    workload = workloads.Transfer(seed=9401, scratch=tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        for req in workload.round(0)[:5]:
            workload.execute(req)
    for name in ("lattice.shell_points", "ncmax.newton_steps"):
        assert tracer.tally[name] > 0, name
    for name in ("transfer.orbit_points", "arcs.exact_terms"):
        assert tracer.tally[name] == 0, name
