"""Golden capture: the bytes a behaviour-preserving change must keep.

Writes one text file with four sections:

* ``[verify]``: the ``spherelab verify`` lines and exit code, wall times
  masked;
* ``[details]``: the ``repr`` of every detail of every criterion;
* ``[runners]``: the report and CSV bytes of fixed configs covering every
  runner kind;
* ``[cli]``: stdout, stderr and exit code of a fixed list of CLI calls.

Run it in two checkouts and diff the files:

    python tools/golden_capture.py golden.txt

It imports and runs the ``src/`` next to it, takes about a minute, and is
not part of the test suite.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from spherelab.acceptance import run_criteria, summary_line  # noqa: E402
from spherelab.experiments import parse_config, run_experiment  # noqa: E402

PROBLEM = "2 2 2\n1 0\n0 -2\n\n-3 0\n0 1\n"
PROBLEM_3X3 = "3 2 1.5\n2 1 0\n1 0 1j\n0 -1j 1\n\n0 0 1\n0 1 0\n1 0 -1\n"
NAN_PROBLEM = "2 1 2\nnan 0\n0 1\n"
SHORT_PROBLEM = "2 1 2\n1 0\n"

RUNNER_CONFIGS = (
    "kind = farey\nLambda = 6\n",
    "kind = gauss\nd = 3\nq_max = 6\nL = 5\nseed = 1\n",
    "kind = poisson_check\nd = 3\nL = 4\nseed = 2\n",
    "kind = decay\nq_max = 10\nLambda = 3\n",
    "kind = sphere_ft\nd = 3\nL = 2000\nseed = 3\n",
    "kind = ncmax\ninput = {tmp}/fam.txt\n",
    "kind = ncmax\ninput = {tmp}/fam3.txt\ntol = 1e-9\n",
    "kind = ncmax\ninput = {tmp}/fam.txt\np = inf\n",
    "kind = transfer\nK = 9\n",
    "kind = transfer\ntheta = 1/3,1/5,1/7\nd = 3\nK = 4\nJ = 3\n",
    "kind = transfer\nn = 3\nd = 2\nK = 4\nJ = 2\n",
    "kind = transfer\nfamily = permutation\nK = 4\np = 1.5\n",
    "kind = transfer\nfamily = trivial\nn = 3\nK = 4\n",
    "kind = reconstruct\nd = 5\nK = 2\nL = 3\n",
)

CLI_CALLS = (
    ("rd", "--d", "5", "--max-k", "6"),
    ("shell", "--d", "3", "--k", "2", "--cache", "{tmp}/cache"),
    ("shell", "--d", "5", "--k", "40", "--budget", "100"),
    ("farey", "--order", "4"),
    ("gauss", "--a", "1", "--q", "3", "--ell", "0,0,0,0,0"),
    ("gauss", "--a", "5", "--q", "12", "--d", "3"),
    ("gauss", "--a", "2", "--q", "4"),
    ("gauss", "--a", "1", "--q", "3", "--ell", "1.5,0.9"),
    ("mult", "--d", "5", "--k", "2", "--xi", "0.5,0,0,0,0", "--xi", "0.1,0.2,0,0,0"),
    ("mult", "--d", "1", "--k", "2", "--xi", "0.1"),
    ("approx", "--k", "9", "--q-max", "8", "--xi", "0.5,0.1,0,0,0"),
    ("approx", "--d", "3", "--k", "4", "--xi", "0,0,0"),
    ("approx", "--k", "9", "--q-max", "1000001", "--xi", "0.5,0.1,0,0,0"),
    ("ncmax", "--input", "{tmp}/fam.txt"),
    ("ncmax", "--input", "{tmp}/fam.txt", "--p", "inf"),
    ("ncmax", "--input", "{tmp}/fam3.txt", "--tol", "1e-9"),
    ("ncmax", "--input", "{tmp}/nan.txt"),
    ("ncmax", "--input", "{tmp}/short.txt"),
    ("ncmax", "--input", "{tmp}/fam.txt", "--tol", "0"),
    ("transfer", "--cap", "3", "--J", "4"),
    ("transfer", "--theta", "0,0,0,0,0", "--cap", "2", "--J", "3"),
    ("transfer", "--n", "3", "--theta", "1/3,1/5,1/7", "--cap", "2", "--p", "inf"),
    ("transfer", "--J", "3"),
    ("transfer", "--theta", "1/3,x"),
    ("verify", "--suite", "nope"),
    ("experiment", "run", "{tmp}/farey.cfg"),
    ("experiment", "run", "{tmp}/ncmax.cfg"),
    ("experiment", "run", "{tmp}/bad.cfg"),
    ("experiment", "run", "{tmp}/reconstruct500.cfg"),
    ("transfer", "--cap", "300"),
    ("experiment", "run", "{tmp}/ratio90000.cfg"),
    ("experiment", "run", "{tmp}/ptwo.cfg"),
    ("experiment", "run", "{tmp}/sphere_d1.cfg"),
    ("--seed", "-1", "transfer"),
)

_WALL = re.compile(r"\(\d+\.\ds\)|wall_time = \d+\.\d+s")


def _cli(argv, tmp):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "spherelab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=600)
    out = _WALL.sub("<wall>", proc.stdout).replace(tmp, "<tmp>")
    err = _WALL.sub("<wall>", proc.stderr).replace(tmp, "<tmp>")
    return proc.returncode, out, err


def capture(tmp: str) -> list[str]:
    files = {"fam.txt": PROBLEM, "fam3.txt": PROBLEM_3X3,
             "nan.txt": NAN_PROBLEM, "short.txt": SHORT_PROBLEM,
             "farey.cfg": "kind = farey\nLambda = 5\n",
             "ncmax.cfg": f"kind = ncmax\ninput = {tmp}/fam.txt\n",
             "bad.cfg": "kind = farey\nLambda = nope\n",
             "reconstruct500.cfg": "kind = reconstruct\nd = 5\nK = 500\n"
                                   "Lambda = 2\nL = 1\n",
             "ratio90000.cfg": "kind = transfer\nK = 90000\n",
             "ptwo.cfg": "kind = transfer\np = two\n",
             "sphere_d1.cfg": "kind = sphere_ft\nd = 1\n"}
    for name, text in files.items():
        Path(tmp, name).write_text(text)
    lines = ["[verify]"]
    code, out, err = _cli(("verify",), tmp)
    lines += [out + err, f"exit = {code}", "[details]"]
    for res in run_criteria():
        lines.append(_WALL.sub("<wall>", summary_line(res)))
        lines += [f"  {k} = {v!r}" for k, v in res.summary.items()]
    lines.append("[runners]")
    for i, text in enumerate(RUNNER_CONFIGS):
        cfg = parse_config(text.format(tmp=tmp) + f"out = {tmp}/run{i}.csv\n")
        run_experiment(cfg)
        lines.append(f"--- {text.strip().replace(tmp, '<tmp>')}")
        for path in (cfg.output, cfg.output.with_suffix(".report.txt")):
            lines.append(repr(path.read_bytes()).replace(tmp, "<tmp>"))
    lines.append("[cli]")
    for argv in CLI_CALLS:
        code, out, err = _cli([a.format(tmp=tmp) for a in argv], tmp)
        lines += [f"--- {' '.join(argv)}", f"exit = {code}",
                  f"stdout = {out!r}", f"stderr = {err!r}"]
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: python tools/golden_capture.py OUT")
    with tempfile.TemporaryDirectory() as tmp:
        lines = capture(tmp)
    Path(argv[0]).write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
