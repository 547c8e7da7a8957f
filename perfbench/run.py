"""spherelab benchmark entry point.

Run from the root of a spherelab checkout:

    python3 perfbench/run.py --workload decay --seed 1 --seconds 25 --trace 0

Workloads are ``decay``, ``transfer`` and ``oracle-mix`` (see README.md
beside this file).  Each run starts fresh worker processes (worker.py)
with ``src`` on PYTHONPATH and BLAS/OpenMP threads capped at the number of
usable CPUs, so every run starts with cold in-process caches, as every
``spherelab`` invocation does.

With ``--trace 0`` the run reports the end-to-end metrics; set-up time is
the median over SETUP_SAMPLES fresh processes, each timed from launch to
the end of imports and input generation; half of the set-up-only ones run
before the measuring worker and half after it, so that the median spans
the whole run.  Every time is scaled to a nominal machine speed by the
reference kernel of calibrate.py, timed in the same process beside it
(after each request, and once after set-up); the lines before the result
give the unscaled times too.
With ``--trace 1`` it reports the per-layer metrics of tracing.py.  The last line of standard output is
one JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for a reader, with
units and sample counts.  Traces and scratch files go to ``perfbench/out``.

Exit status is non-zero, with no result line, when the checkout has no
spherelab source tree or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

WORKLOADS = ("decay", "transfer", "oracle-mix")
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9          # the main worker's set-up is one of them
RUN_LIMIT_S = 170.0        # kill the workers if a run would exceed this

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


def launch(args, env, root: Path, deadline: float, setup_only: bool):
    """Run one worker; return (scaled set-up seconds, unscaled, parsed RESULT or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise WorkerError("time limit reached before the worker started")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    try:
        ready = None
        scale = None
        result = None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = perf_counter() - start
            elif line.startswith("SCALE "):
                scale = float(line[len("SCALE "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or scale is None or (result is None and not setup_only):
        raise WorkerError(f"worker exited with status {code}")
    return ready * scale, ready, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that launch() kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    root = Path.cwd()
    if not (root / "src" / "spherelab" / "__init__.py").is_file():
        print(f"perfbench: no spherelab source tree under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    env = worker_env(root)
    deadline = monotonic() + RUN_LIMIT_S
    try:
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [launch(args, env, root, deadline, setup_only=True)[:2]
                  for _ in range(extra // 2)]
        *setup, res = launch(args, env, root, deadline, setup_only=False)
        setups.append(setup)
        setups += [launch(args, env, root, deadline, setup_only=True)[:2]
                   for _ in range(extra - extra // 2)]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    env_line = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} {env_line}")
    n = res["requests"]
    if args.trace:
        metrics = res["per_layer"]
        print(f"# {n} requests run twice: {res['traced_wall_s']:.3f} s traced, "
              f"{res['untraced_wall_s']:.3f} s untraced")
    else:
        values = {
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "items_per_s": res["items_per_s"],
            "item_p50_ms": res["item_p50_ms"],
            "item_p90_ms": res["item_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        samples = {
            "setup_s": f"median of {len(setups)} processes; "
                       f"{statistics.median(raw for _, raw in setups):.4f} unscaled",
            "items_per_s": f"{n} requests in {res['wall_s']:.3f} s, 1 client, closed loop; "
                           f"{res['raw_items_per_s']:.4f} unscaled",
            "item_p50_ms": f"{n} samples; {res['raw_item_p50_ms']:.4f} unscaled",
            "item_p90_ms": f"{n} samples, {res['beyond_p90']} beyond; "
                           f"{res['raw_item_p90_ms']:.4f} unscaled",
            "peak_rss_mb": "ru_maxrss of the run's process",
        }
    for name, m in metrics.items():
        note = f"  ({samples[name]})" if not args.trace else ""
        print(f"{name} = {m['value']!r} {m['unit']}{note}")
    if not args.trace:
        print(f"# times scaled to a {res['nominal_kernel_ms']} ms reference kernel; "
              f"it took {res['kernel_ms']:.4f} ms (median) in this run")
    print(f"failed_frac = {res['failed'] / res['attempted']!r} ratio  "
          f"({res['failed']} of {res['attempted']} operations)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
