"""In-memory spans around the benchmark's calls into raywin, and the
per-operator numbers Ray Data keeps for each executed Dataset.

Spans are recorded only by the benchmark's own code, around public calls
(or by temporarily wrapping a module attribute that a public call looks up);
nothing inside raywin is instrumented.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Spans with name, start, end and parent, kept in memory and written
    out once at the end of the run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def wrapped(self, fn, name: str, on_result=None):
        """`fn` with a span around every call; `on_result(args, kwargs,
        result, span)` may attach counts to the span."""

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result, rec)
            return result

        return inner

    @contextlib.contextmanager
    def patched(self, owner, attr: str, name: str, on_result=None):
        """Temporarily replace owner.attr with a span-wrapped version."""
        orig = getattr(owner, attr)
        setattr(owner, attr, self.wrapped(orig, name, on_result))
        try:
            yield
        finally:
            setattr(owner, attr, orig)

    def self_times(self, spans=None) -> dict[str, float]:
        """Per span name: total duration minus the part its direct children
        cover (children of one span never overlap: calls are sequential)."""
        spans = self.spans if spans is None else spans
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            if s["end"] is not None:
                out[s["name"]] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(out)

    def total(self, name: str, spans=None) -> float:
        spans = self.spans if spans is None else spans
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name and s["end"])

    def since(self, mark: int) -> list[dict]:
        return self.spans[mark:]

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "self_time_s": self.self_times(), **extra}, f)


def _sum(d) -> float:
    if isinstance(d, dict):
        return float(d.get("sum", 0.0) or 0.0)
    return float(d or 0.0)


def dataset_operators(ds) -> list[dict]:
    """Per-operator numbers of an executed Dataset, upstream (materialized
    parent) stages included: remote wall, CPU and UDF time, output rows and
    bytes, tasks, per-block row max/mean and the busy interval."""
    summary = ds._plan.stats().to_summary()
    ops: list[dict] = []

    def walk(s):
        for p in s.parents:
            walk(p)
        for op in s.operators_stats:
            rows = op.output_num_rows or {}
            task_rows = getattr(op, "task_rows", None) or {}
            ops.append({
                "name": op.operator_name,
                "wall_s": _sum(op.wall_time),
                "cpu_s": _sum(op.cpu_time),
                "udf_s": _sum(op.udf_time),
                "rows": int(_sum(rows)),
                "bytes": int(_sum(op.output_size_bytes)),
                "tasks": int(task_rows.get("count", 0) or 0),
                "block_rows_max": float(rows.get("max", 0) or 0),
                "block_rows_mean": float(rows.get("mean", 0) or 0),
                "start": op.earliest_start_time,
                "end": op.latest_end_time,
            })

    walk(summary)
    return ops


def _merged(ops: list[dict]) -> list[tuple[float, float]]:
    """The operators' busy intervals, merged where they overlap."""
    iv = sorted(
        (o["start"], o["end"]) for o in ops
        if o["start"] is not None and o["end"] is not None and o["end"] > o["start"]
    )
    out: list[list[float]] = []
    for s, e in iv:
        if out and s <= out[-1][1]:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def busy_union_s(ops: list[dict]) -> float:
    """Length of the union of the operators' busy intervals."""
    return sum(e - s for s, e in _merged(ops))


def busy_minus_s(ops: list[dict], others: list[dict]) -> float:
    """Length of the union of the busy intervals of `ops` outside those of
    `others`."""
    theirs = _merged(others)
    overlap = sum(
        max(0.0, min(e, oe) - max(s, os_)) for s, e in _merged(ops) for os_, oe in theirs
    )
    return busy_union_s(ops) - overlap
