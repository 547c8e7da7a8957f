"""Plain-text persistence for sphere shells.

Format: a header line ``d k count`` followed by ``count`` lines of d
integers each.  Writes go through a temporary file in the target directory
and an atomic rename, so readers never observe a partial file.  Reads
validate the header against the counting table, every line against the
claimed squared radius, and the order of the lines: each point must come
strictly after the one before it in lexicographic order.  So the points are
distinct, and r_d(k) distinct points on the sphere are the whole shell, in
lattice.sphere_shell's order.  They are given in shell_dtype(k), as
sphere_shell does.
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
    lines = [f"{shell.dimension} {shell.k} {shell.count}\n"]
    lines.extend(" ".join(str(int(v)) for v in pt) + "\n" for pt in shell.points)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_shell(path) -> SphereShell:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline()
        fields = header.split()
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
    lines = body.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    # Bulk parse first; any anomaly falls back to the row loop, which exists
    # only to pin an exact line number on the failure.  Coordinates within
    # isqrt(k) fit shell_dtype(k) and square there without overflow.
    if len(lines) == count:
        try:
            flat = np.array(body.split(), dtype=np.int64)
        except (ValueError, OverflowError):
            flat = None
        r = math.isqrt(k)
        if flat is not None and flat.size == count * d and \
                ((flat >= -r) & (flat <= r)).all():
            points = flat.astype(shell_dtype(k)).reshape(count, d)
            if not ((points * points).sum(axis=1) != k).any() and _increasing(points):
                return SphereShell(dimension=d, k=k, points=points)
    return _read_rows(lines, d, k, count)


def _increasing(points: np.ndarray) -> bool:
    """Whether every row comes strictly after the one before it in
    lexicographic order: compare each pair of consecutive rows at the first
    coordinate where they differ (a repeated row differs nowhere)."""
    before, after = points[:-1], points[1:]
    differ = before != after
    first = differ.argmax(axis=1)
    pairs = np.arange(len(first))
    return bool((differ[pairs, first]
                 & (after[pairs, first] > before[pairs, first])).all())


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
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = shell_path(cache_dir, d, k)
    if path.exists():
        return read_shell(path)
    shell = sphere_shell(d, k, point_budget=budget)
    write_shell(shell, path)
    return shell
