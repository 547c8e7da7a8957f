"""One benchmark process: set up, run one workload's request stream, check.

Started by run.py in a fresh interpreter, from the root of a spherelab
checkout, with ``src`` on PYTHONPATH and BLAS/OpenMP threads capped.  It
prints ``READY`` once imports and round-0 input generation are done (the
end of set-up), then one ``RESULT <json>`` line when the run is over.

Untraced (``--trace 0``): requests are issued one after another (a closed
loop with one client) until ``--seconds`` have passed and at least
MIN_REQUESTS have completed, and, for a workload whose rounds are short,
the round under way is done; each request's latency covers only its calls
into spherelab.  Between requests the reference kernel of calibrate.py is
timed every 50 ms or so, and each latency is scaled by NOMINAL_S over the
median kernel time within half a second of it (calibrate.Sampler); the
metrics are these scaled times.  Every process, set-up-only ones too,
also times the kernel right after set-up and prints the set-up time's
scale factor (the ``SCALE`` line) for run.py.

Traced (``--trace 1``): the stream runs untraced for a third of
``--seconds``; each of those requests is then run twice more, back to
back, once with every measured public function wrapped (see tracing.py)
and once untraced, the traced run going first for every other request.
Per-layer metrics come from the traced runs, and the tracing overhead is
their summed latency minus that of the untraced ones (both run warm);
pairing each request with itself cancels the machine's drift, which two
separate replays would carry.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import calibrate
import tracing
from workloads import WORKLOADS

MIN_REQUESTS = 100      # so that >= 10 samples lie beyond p90
SETUP_CAL_REPS = 25     # kernel runs after set-up, for scaling the set-up time
OUT_DIR = Path(__file__).resolve().parent / "out"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_stream(workload, requests, seconds=None, min_requests=0, sampler=None):
    """Issue requests in order until the budget is spent or the list ends.

    With ``workload.whole_rounds`` the stream stops only between rounds.
    Returns (done, wall) with done a list of (request, result, error,
    latency); a request that raises records the error and the run goes on.
    With a calibrate.Sampler, it is told of each request as it returns.
    """
    done = []
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    for req in requests:
        if deadline is not None and len(done) >= min_requests \
                and perf_counter() >= deadline \
                and not (workload.whole_rounds and req.key[0] == done[-1][0].key[0]):
            break
        t0 = perf_counter()
        try:
            result, error = workload.execute(req), None
        except Exception as exc:  # recorded as a failed request
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        done.append((req, result, error, latency))
        if sampler is not None:
            sampler.after(t0)
    return done, perf_counter() - start


def check_all(workload, done) -> list[str]:
    """Oracle check of every request; returns the failures."""
    results = {req.key: result for req, result, error, _ in done if error is None}
    failures = []
    for req, result, error, _ in done:
        if error is None:
            try:
                error = workload.check(req, result, results)
            except Exception as exc:  # a check that cannot run has failed
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{req.kind} {req.key}: {error}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, scratch)
    first = workload.round(0)
    print("READY", flush=True)
    print(f"SCALE {calibrate.NOMINAL_S / calibrate.median_kernel(SETUP_CAL_REPS)!r}",
          flush=True)
    if args.setup_only:
        return 0

    def stream():
        yield from first
        r = 1
        while True:
            yield from workload.round(r)
            r += 1

    OUT_DIR.mkdir(exist_ok=True)
    try:
        if not args.trace:
            workload.scratch = scratch / "timed"
            sampler = calibrate.Sampler()
            done, wall = run_stream(workload, stream(), args.seconds, MIN_REQUESTS, sampler)
            phases = [("timed", done)]
        else:
            workload.scratch = scratch / "first"
            sampler = calibrate.Sampler()
            done, wall = run_stream(workload, stream(), args.seconds / 3, 1, sampler)
            tracer = tracing.Tracer()
            traced, untraced = [], []
            for i, (req, *_) in enumerate(done):
                tracer.request_id = i
                for with_tracer in ((True, False) if i % 2 == 0 else (False, True)):
                    workload.scratch = scratch / ("traced" if with_tracer else "untraced")
                    if with_tracer:
                        with tracer.installed():
                            traced += run_stream(workload, [req])[0]
                    else:
                        untraced += run_stream(workload, [req])[0]
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}.npz")
            traced_wall = sum(lat for *_, lat in traced)
            untraced_wall = sum(lat for *_, lat in untraced)
            phases = [("first", done), ("traced", traced), ("untraced", untraced)]
        failures = []
        for sub, phase in phases:
            workload.scratch = scratch / sub
            failures += check_all(workload, phase)
        gates = workload.finish({req.key: result for req, result, error, _ in done
                                 if error is None})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures += [f"gate {name}: {err}" for name, err in gates if err is not None]

    raw = np.array([lat for *_, lat in done])
    latencies = raw * np.array(sampler.scales())
    p50, p90 = np.percentile(latencies, [50, 90])
    raw_p50, raw_p90 = np.percentile(raw, [50, 90])
    out = {
        "attempted": sum(len(p) for _, p in phases) + len(gates),
        "failed": len(failures),
        "failures": failures[:20],
        "requests": len(done),
        "wall_s": wall,
        "items_per_s": len(done) / latencies.sum(),
        "item_p50_ms": 1e3 * p50,
        "item_p90_ms": 1e3 * p90,
        "beyond_p90": int((latencies > p90).sum()),
        "raw_items_per_s": len(done) / wall,
        "raw_item_p50_ms": 1e3 * raw_p50,
        "raw_item_p90_ms": 1e3 * raw_p90,
        "nominal_kernel_ms": 1e3 * calibrate.NOMINAL_S,
        "kernel_ms": 1e3 * sampler.median_time(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        out["per_layer"] = tracer.metrics(traced_wall, untraced_wall)
        out["traced_wall_s"] = traced_wall
        out["untraced_wall_s"] = untraced_wall
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
