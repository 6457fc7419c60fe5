"""Benchmark-side span recording and the statistics the report needs.

Spans are recorded by the benchmark around its calls into the
program's public functions, never inside the program.  A recorder is
created per run and passed to the workload; a disabled recorder costs
one attribute test per call.  Spans are kept in memory and written out
as JSON when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Spans:
    """An in-memory span log: ``(name, op_id, parent, start_s, end_s)``.

    ``op_id`` ties together the spans of one batch, round or request;
    ``parent`` is the index of the enclosing span (or -1), so the log
    can be rebuilt into a tree and self times derived from it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[tuple[str, int, int, float, float]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int):
        """Record the duration of the enclosed block under ``name``."""
        if not self.enabled:
            yield
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append((name, op_id, parent, 0.0, 0.0))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[index] = (name, op_id, parent, start, end)

    def add(self, name: str, op_id: int, start: float, end: float) -> None:
        """Record a span measured elsewhere (e.g. in another thread)."""
        if self.enabled:
            self.records.append((name, op_id, -1, start, end))

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in milliseconds."""
        return [(e - s) * 1e3 for n, _, _, s, e in self.records if n == name]

    def write(self, path: Path) -> None:
        """Write the log as JSON (one object per span, times in µs)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": n,
                "op": op,
                "parent": p,
                "start_us": round(s * 1e6, 3),
                "dur_us": round((e - s) * 1e6, 3),
            }
            for n, op, p, s, e in self.records
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty.

    A layer the workload does not exercise has no samples; the report
    states such a layer as 0 rather than omitting the metric.
    """
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def geomean(values) -> float:
    """Geometric mean of positive values (0.0 when empty)."""
    if len(values) == 0:
        return 0.0
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def shape_p50_geomean(values, shapes) -> float:
    """Each shape's median value, averaged geometrically over the shapes.

    ``shapes[i]`` names the shape of ``values[i]``.  A workload mixing a
    few shapes has a latency distribution with one cluster per shape,
    and the median over all operations falls in a gap between clusters,
    where a small shift of one cluster's tail moves it far.  The median
    within each shape stays inside its cluster.  When every shape occurs
    once this is the geometric mean of the values.
    """
    groups: dict = {}
    for v, s in zip(values, shapes):
        groups.setdefault(s, []).append(v)
    return geomean([float(np.median(g)) for g in groups.values()])
