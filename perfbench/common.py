"""State shared by one benchmark run: the work directory, the check
counter, per-layer samples and small measurement helpers."""

from __future__ import annotations

import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .tracing import Tracer


class Checker:
    """Counts correctness checks; each one is an operation that can fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)
        return ok


class Samples:
    """Per-layer observations by metric name; a metric's value is the
    median of its samples."""

    def __init__(self):
        self.units: dict[str, str] = {}
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.units[name] = unit
        self.values.setdefault(name, []).append(float(value))

    def has(self, name: str) -> bool:
        return name in self.values

    def metrics(self) -> dict[str, dict]:
        return {
            n: {"value": statistics.median(v), "unit": self.units[n]}
            for n, v in self.values.items()
        }


@dataclass
class Ctx:
    work: str  # this run's scratch directory
    seed: int
    seconds: float
    pages: int  # corpus size
    tr: Tracer
    chk: Checker = field(default_factory=Checker)
    lay: Samples = field(default_factory=Samples)
    notes: dict = field(default_factory=dict)  # human-readable summary

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def pct(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    return float(v[max(0, int(np.ceil(q / 100 * len(v))) - 1)])


def tree_bytes(path: str, suffix: str = "") -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(suffix):
                total += os.path.getsize(os.path.join(root, f))
    return total


def file_states(path: str, suffix: str = ".parquet") -> dict[str, tuple]:
    """(size, mtime, inode) of every ``suffix`` file under ``path``."""
    out = {}
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(suffix):
                p = os.path.join(root, f)
                st = os.stat(p)
                out[p] = (st.st_size, st.st_mtime_ns, st.st_ino)
    return out


def bytes_written(before: dict, after: dict) -> int:
    """Bytes of files that are new or rewritten between two snapshots."""
    return sum(s[0] for p, s in after.items() if before.get(p) != s)


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def ranking_ok(ids, scores, k: int, exclude=None) -> bool:
    """At most k results, scores never increasing, equal scores in
    ascending docID order, no duplicate and no excluded docID."""
    ids = np.asarray(ids, dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if len(ids) > k or len(ids) != len(s) or len(np.unique(ids)) != len(ids):
        return False
    if len(ids) > 1:
        ds = np.diff(s)
        if (ds > 0).any() or ((ds == 0) & (np.diff(ids) <= 0)).any():
            return False
    return exclude is None or not exclude[ids].any()
