"""Per-layer tracing of spherelab from outside the program.

The tracer replaces each measured public function with a wrapper in every
namespace that binds it: the defining module and every module that took
it with ``from .x import f`` (``arcs`` calls ``gauss_sum``, ``cutoff`` and
``j_main`` that way, ``transfer`` calls ``ncmax_norm``, ``sphere_shell``
and ``schatten_norm``).  Patching only the defining module would miss
those calls.

Each wrapped call is one span: name, start, end, parent span, request id.
Spans are kept in flat in-memory arrays and written out when the run ends.
Self time is a span's duration minus the time its child calls take, and
is accumulated on the fly from a span stack.  A child call counts from
its wrapper's entry to its exit, so the tracer's own bookkeeping lands in
no function's self time (it shows in ``trace.overhead_s``) beyond one
extra Python call per wrapped call.  Work counters are computed
from the arguments and return values at the same boundaries.

There is one process, one client and no queue, so no layer ever waits for
another: wait time is zero by construction and is not reported.
"""

from __future__ import annotations

import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Measured public functions, by layer.  Module names are the spherelab
# module names and double as layer names in the metric names.
LAYERS = {
    "arcs": ("approx_total", "approx_arc_multiplier", "exact_multiplier_many",
             "arc_multiplier"),
    "gauss": ("gauss_sum_1d", "gauss_sum", "gauss_sum_1d_all", "gauss_dft"),
    "cutoff": ("cutoff",),
    "sphere": ("j_main", "unit_sphere_ft", "sphere_ft_quadrature"),
    "lattice": ("sphere_shell", "rep_counts"),
    "cache": ("load_or_enumerate", "read_shell", "write_shell"),
    "farey": ("farey_sequence", "major_arcs", "locate_arc"),
    "heat": ("heat_direct_batch", "heat_multiplier_poisson"),
    "ncmax": ("ncmax_norm", "schatten_norm"),
    "transfer": ("maximal_ratio_experiment", "auto_spherical_average",
                 "orbit_truncation", "truncation_identity_check"),
    "torus": ("spherical_convolve",),
}

# Work counters: name -> unit.  Ratios are derived at the end from the
# raw tallies kept in Tracer.tally.
COUNTERS = {
    "arcs.pairs": "count",
    "arcs.active_pair_frac": "ratio",
    "arcs.exact_terms": "count",
    "arcs.arc_nodes": "count",
    "gauss.table_entries": "count",
    "cutoff.zero_frac": "ratio",
    "sphere.quad_nodes": "count",
    "lattice.shell_points": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_read": "B",
    "cache.bytes_written": "B",
    "farey.fractions": "count",
    "heat.theta_terms": "count",
    "heat.poisson_images": "count",
    "ncmax.newton_steps": "count",
    "ncmax.unconverged": "count",
    "transfer.orbit_points": "count",
    "torus.roll_sites": "count",
}

OVERHEAD = {
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_s"] = "s"
    units.update(COUNTERS)
    for mod in LAYERS:
        units[f"{mod}.raised"] = "count"
    units.update(OVERHEAD)
    return units


# ---------------------------------------------------------------------------
# counters computed from arguments and return values
#
# Each hook is hook(tally, args, kwargs, result, parent) where parent is the
# qualified name of the enclosing span (or None at request level).


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _approx_arc(tally, args, kwargs, result, parent):
    tally["arcs.pairs"] += 1
    if result != 0:
        tally["arcs.active_pairs"] += 1


def _exact_many(tally, args, kwargs, result, parent):
    shell, xis = args[0], _arg(args, kwargs, 1, "xis")
    tally["arcs.exact_terms"] += shell.count * len(xis)


def _table(tally, args, kwargs, result, parent):
    q = _arg(args, kwargs, 1, "q")
    tally["gauss.table_entries"] += q * q


def _cutoff(tally, args, kwargs, result, parent):
    if isinstance(result, float):
        tally["cutoff.evals"] += 1
        tally["cutoff.zeros"] += result == 0.0
    else:
        tally["cutoff.evals"] += result.size
        tally["cutoff.zeros"] += int(np.count_nonzero(result == 0.0))


def _quadrature(tally, args, kwargs, result, parent):
    d = args[0]
    n_polar = _arg(args, kwargs, 2, "n_polar", 32)
    n_azimuth = _arg(args, kwargs, 3, "n_azimuth", 96)
    tally["sphere.quad_nodes"] += n_polar ** (d - 2) * n_azimuth


def _shell(tally, args, kwargs, result, parent):
    tally["lattice.shell_points"] += result.count
    if parent == "transfer.auto_spherical_average":
        tally["transfer.orbit_points"] += result.count


def _read_shell(tally, args, kwargs, result, parent):
    tally["cache.bytes_read"] += os.path.getsize(args[0])
    if parent == "cache.load_or_enumerate":
        tally["cache.hits"] += 1


def _write_shell(tally, args, kwargs, result, parent):
    tally["cache.bytes_written"] += os.path.getsize(args[1])
    if parent == "cache.load_or_enumerate":
        tally["cache.misses"] += 1


def _farey(tally, args, kwargs, result, parent):
    tally["farey.fractions"] += len(result)


def _theta(tally, args, kwargs, result, parent):
    s_count = np.atleast_1d(args[1]).size
    d = np.asarray(args[2]).shape[0]
    tally["heat.theta_terms"] += s_count * d * (2 * result.radius + 1)
    if parent == "arcs.arc_multiplier":
        # arc_multiplier evaluates its kernel once, at every panel node
        tally["arcs.arc_nodes"] += s_count


def _images(tally, args, kwargs, result, parent):
    # per-axis image window is about 2 * radius + 1 (radius = reach * q + 1)
    d = np.asarray(args[1]).shape[-1]
    tally["heat.poisson_images"] += d * (2 * result.radius + 1)


def _newton(tally, args, kwargs, result, parent):
    tally["ncmax.newton_steps"] += result.newton_steps
    tally["ncmax.unconverged"] += not result.converged


def _rolls(tally, args, kwargs, result, parent):
    shell, f = args[0], args[1]
    tally["torus.roll_sites"] += shell.count * f.values.size


HOOKS = {
    "arcs.approx_arc_multiplier": _approx_arc,
    "arcs.exact_multiplier_many": _exact_many,
    "gauss.gauss_sum_1d_all": _table,
    "cutoff.cutoff": _cutoff,
    "sphere.sphere_ft_quadrature": _quadrature,
    "lattice.sphere_shell": _shell,
    "cache.read_shell": _read_shell,
    "cache.write_shell": _write_shell,
    "farey.farey_sequence": _farey,
    "heat.heat_direct_batch": _theta,
    "heat.heat_multiplier_poisson": _images,
    "ncmax.ncmax_norm": _newton,
    "torus.spherical_convolve": _rolls,
}


class Tracer:
    """Span recorder and per-function accumulators for one traced phase."""

    def __init__(self):
        self.names: list[str] = [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.raised = {mod: 0 for mod in LAYERS}
        self.tally = {name: 0 for name in COUNTERS}
        self.tally.update({"arcs.active_pairs": 0, "cutoff.evals": 0, "cutoff.zeros": 0})
        self.request_id = 0
        # span columns
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("I")
        # stack entries: [span index, name id, time covered by child calls]
        self._stack: list[list] = []

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        module = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        stack = self._stack
        calls, self_s, tally, raised = self.calls, self.self_s, self.tally, self.raised
        names = self.names
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_request = self.span_parent, self.span_request
        tracer = self

        def traced(*args, **kwargs):
            enter = perf_counter()
            parent = stack[-1] if stack else None
            idx = len(s_end)
            s_name.append(name_id)
            s_parent.append(parent[0] if parent else -1)
            s_request.append(tracer.request_id)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, name_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                if parent is None or not names[parent[1]].startswith(module + "."):
                    raised[module] += 1
                raise
            else:
                end = perf_counter()
                if hook is not None:
                    hook(tally, args, kwargs, result,
                         names[parent[1]] if parent is not None else None)
            finally:
                stack.pop()
                s_start[idx] = start
                s_end[idx] = end
                self_s[name_id] += end - start - frame[2]
                calls[name_id] += 1
                if parent is not None:
                    # the whole call, bookkeeping and hook included, is the
                    # parent's child time, so no wrapper cost is self time
                    parent[2] += perf_counter() - enter
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    @contextmanager
    def installed(self):
        """Patch every namespace binding a measured function; restore on exit."""
        namespaces = [vars(m) for name, m in list(sys.modules.items())
                      if name == "spherelab" or name.startswith("spherelab.")]
        originals = {}
        for name_id, name in enumerate(self.names):
            mod, fn_name = name.split(".")
            orig = getattr(sys.modules[f"spherelab.{mod}"], fn_name)
            originals[id(orig)] = (orig, self._wrap(name_id, orig))
        patched = []
        for ns in namespaces:
            for attr, value in list(ns.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[attr] = hit[1]
                    patched.append((ns, attr, value))
        try:
            yield self
        finally:
            for ns, attr, value in patched:
                ns[attr] = value

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        units = metric_units()
        out = {}
        for name_id, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[name_id]
            out[f"{name}.self_s"] = self.self_s[name_id]
        t = self.tally
        for name in COUNTERS:
            out[name] = t[name]
        out["arcs.active_pair_frac"] = t["arcs.active_pairs"] / max(t["arcs.pairs"], 1)
        out["cutoff.zero_frac"] = t["cutoff.zeros"] / max(t["cutoff.evals"], 1)
        for mod, count in self.raised.items():
            out[f"{mod}.raised"] = count
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        out["trace.spans"] = len(self.span_end)
        return {name: {"value": out[name], "unit": unit} for name, unit in units.items()}

    def write_spans(self, path) -> None:
        """Write the span table (one row per wrapped call) as an .npz file."""
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 request=np.frombuffer(self.span_request, dtype=np.uint32))
