"""Plain-text persistence for sphere shells.

Format: a header line ``d k count``, then ``count`` lines of d integers one
space apart, which write_shell formats with one ``%d`` template and writes
through a temporary file in the target directory and an atomic rename, so
readers never observe a partial file.  Reads validate the header against
the counting table, every line against the claimed squared radius, and the
order of the lines: each point must come strictly after the one before it
in lexicographic order.  So the points are distinct, and r_d(k) distinct
points on the sphere are the whole shell, in lattice.sphere_shell's order,
given in shell_dtype(k).  A file in write_shell's form is parsed in bulk,
any other line by line, which accepts it or names the line at fault.
"""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import CacheFormatError, ShellCountMismatchError
from .lattice import DEFAULT_POINT_BUDGET, SphereShell, rep_count, shell_dtype, sphere_shell


def shell_path(cache_dir, d: int, k: int) -> Path:
    return Path(cache_dir) / f"shell_d{d}_k{k}.txt"


def write_shell(shell: SphereShell, path) -> None:
    path = Path(path)
    row = " ".join(["%d"] * shell.dimension) + "\n"
    body = (row * shell.count) % tuple(shell.points.ravel().tolist())
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{shell.dimension} {shell.k} {shell.count}\n" + body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_shell(path) -> SphereShell:
    with open(path) as fh:
        fields = fh.readline().split()
        if len(fields) != 3:
            raise CacheFormatError("expected header 'd k count'", line=1)
        try:
            d, k, count = (int(f) for f in fields)
        except ValueError:
            raise CacheFormatError("non-integer header field", line=1) from None
        if d < 1 or k < 0 or count < 0:
            raise CacheFormatError("header values out of range", line=1)
        expected = rep_count(d, k)
        if count != expected:
            raise ShellCountMismatchError(
                f"header says {count} points for d={d} k={k}, "
                f"counting table says {expected}")
        body = fh.read()
    # Bulk parse first; any anomaly falls back to the row loop, which exists
    # only to pin an exact line number on the failure.  Coordinates within
    # isqrt(k) fit shell_dtype(k) and square there without overflow.
    flat = _bulk_coordinates(body, d, count)
    r = math.isqrt(k)
    if flat is not None and ((flat >= -r) & (flat <= r)).all():
        points = flat.astype(shell_dtype(k)).reshape(count, d)
        if not ((points * points).sum(axis=1) != k).any() and _increasing(points):
            return SphereShell(dimension=d, k=k, points=points)
    lines = body.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    return _read_rows(lines, d, k, count)


def _bulk_coordinates(body: str, d: int, count: int):
    """The int64 coordinates of body if it is in write_shell's form, else
    None: the separators (the bytes up to the space) run d - 1 spaces and a
    newline on each line, each after a digit.  np.fromstring alone would
    skip tabs and runs of spaces and read a lone "-" as 0."""
    raw = body.encode()
    codes = np.frombuffer(raw, dtype=np.uint8)
    at = np.flatnonzero(codes <= 32)
    before = codes[at - 1]  # a separator at 0 wraps to the last byte, no digit
    if at.size == count * d and raw[-1:] in (b"", b"\n") \
            and ((before >= 48) & (before <= 57)).all() \
            and (codes[at].reshape(count, d) == [32] * (d - 1) + [10]).all():
        try:
            return np.fromstring(raw, dtype=np.int64, sep=" ")
        except ValueError:  # a byte other than a digit or a sign
            pass
    return None


def _increasing(points: np.ndarray) -> bool:
    """Whether each row comes strictly after the one before it in lexicographic
    order: its first nonzero step from there is positive (a repeated row has
    none).  Steps of coordinates within isqrt(k) fit shell_dtype(k)."""
    step = np.sign(points[1:] - points[:-1])
    return bool((step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all())


def _read_rows(lines, d: int, k: int, count: int) -> SphereShell:
    points = np.empty((count, d), dtype=shell_dtype(k))
    for row in range(count):
        lineno = row + 2
        if row >= len(lines):
            raise CacheFormatError("file ends before the declared count", line=lineno)
        parts = lines[row].split()
        if len(parts) != d:
            raise CacheFormatError(f"expected {d} coordinates, got {len(parts)}",
                                   line=lineno)
        try:
            pt = [int(p) for p in parts]
        except ValueError:
            raise CacheFormatError("non-integer coordinate", line=lineno) from None
        if sum(v * v for v in pt) != k:
            raise CacheFormatError(f"point has squared norm != {k}", line=lineno)
        if row and pt <= points[row - 1].tolist():
            raise CacheFormatError("point does not come after the previous one "
                                   "in lexicographic order", line=lineno)
        points[row] = pt
    for extra, tail in enumerate(lines[count:]):
        if tail.strip():
            raise CacheFormatError("trailing data after the declared count",
                                   line=count + 2 + extra)
    return SphereShell(dimension=d, k=k, points=points)


def load_or_enumerate(d: int, k: int, cache_dir,
                      budget: int = DEFAULT_POINT_BUDGET) -> SphereShell:
    """Read the cached shell if present, else enumerate and persist it."""
    Path(cache_dir).mkdir(parents=True, exist_ok=True)
    path = shell_path(cache_dir, d, k)
    if path.exists():
        return read_shell(path)
    shell = sphere_shell(d, k, point_budget=budget)
    write_shell(shell, path)
    return shell
