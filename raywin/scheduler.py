"""Workflow DAG scheduler: named steps with dependencies, deterministic
topological execution, per-step resume markers.

Re-expresses the reference's orchestration surface
(api/py/ai/chronon/scheduler/interfaces/{flow,node,orchestrator}.py and
adapters/airflow_adapter.py:1-37): a Flow of nodes with dependencies that an
orchestrator adapter turns into a runnable DAG.  The built-in orchestrator
here runs steps in-process on the driver — each step is a Python callable
that launches Ray Data pipelines on the already-running cluster, so data
parallelism comes from Ray's streaming executor while INDEPENDENT steps can
run on concurrent driver threads (``max_parallel``).  Completed steps leave
a lineage-stamped marker so a re-run of the same flow skips them (the same
resume idea as ``state/manifest.py``, at step granularity).
"""

from __future__ import annotations

import json
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Step:
    """One schedulable unit: a callable plus the names of the steps whose
    success it requires.  ``settings`` is free-form metadata an adapter may
    map onto its runtime (queue, retries, resources)."""

    name: str
    fn: Callable[[], Any]
    deps: tuple[str, ...] = ()
    settings: dict = field(default_factory=dict)


class Flow:
    """A named DAG of Steps."""

    def __init__(self, name: str):
        self.name = name
        self._steps: dict[str, Step] = {}

    def add_step(self, name: str, fn: Callable[[], Any], deps=(), **settings) -> Step:
        if name in self._steps:
            raise ValueError(f"duplicate step {name!r} in flow {self.name!r}")
        step = Step(name, fn, tuple(deps), settings)
        self._steps[name] = step
        return step

    def find_step(self, name: str) -> Optional[Step]:
        return self._steps.get(name)

    @property
    def steps(self) -> list[Step]:
        return list(self._steps.values())

    def topo_order(self) -> list[str]:
        """Kahn's algorithm, lexicographic among ready steps so the order is
        deterministic run-to-run.  Raises on cycles and unknown deps."""
        for s in self._steps.values():
            for d in s.deps:
                if d not in self._steps:
                    raise ValueError(f"step {s.name!r} depends on unknown {d!r}")
        remaining = {n: set(s.deps) for n, s in self._steps.items()}
        order: list[str] = []
        while remaining:
            ready = sorted(n for n, deps in remaining.items() if not deps)
            if not ready:
                raise ValueError(f"cycle among steps: {sorted(remaining)}")
            for n in ready:
                order.append(n)
                del remaining[n]
            for deps in remaining.values():
                deps.difference_update(ready)
        return order

    def visualize(self) -> str:
        """Indented dependency tree (roots = steps nothing depends on),
        mirroring the reference Flow.visualize's output shape."""
        dependents = {n: [] for n in self._steps}
        for s in self._steps.values():
            for d in s.deps:
                dependents[d].append(s.name)
        roots = sorted(n for n, kids in dependents.items() if not kids)
        lines: list[str] = []

        def walk(name: str, level: int):
            lines.append("    " * level + f"- {name}")
            for d in sorted(self._steps[name].deps):
                walk(d, level + 1)

        for r in roots:
            walk(r, 0)
        return "\n".join(lines)


@dataclass
class StepResult:
    status: str  # ok | resumed | failed | upstream_failed
    seconds: float = 0.0
    value: Any = None
    error: str | None = None


class LocalOrchestrator:
    """Runs a Flow in-process.  ``state_dir`` enables resume: each completed
    step writes ``<state_dir>/<flow>/<step>.json`` carrying the ``lineage``
    token; a later run with the same lineage skips the step (status
    "resumed"), a different lineage recomputes it.  ``max_parallel`` > 1 runs
    dependency-independent steps on concurrent driver threads."""

    def __init__(self, state_dir: str | None = None, max_parallel: int = 1):
        self.state_dir = state_dir
        self.max_parallel = max(1, max_parallel)

    def _marker(self, flow: Flow, step: str) -> str | None:
        if not self.state_dir:
            return None
        return os.path.join(self.state_dir, flow.name, f"{step}.json")

    def _is_done(self, flow: Flow, step: str, lineage: str | None) -> bool:
        p = self._marker(flow, step)
        if not p or not os.path.exists(p):
            return False
        try:
            with open(p) as f:
                return json.load(f).get("lineage") == lineage
        except (json.JSONDecodeError, OSError):
            return False

    def _mark(self, flow: Flow, step: str, lineage: str | None, seconds: float):
        p = self._marker(flow, step)
        if not p:
            return
        os.makedirs(os.path.dirname(p), exist_ok=True)
        tmp = p + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"lineage": lineage, "wall_sec": round(seconds, 3),
                       "completed_at": time.time()}, f)
        os.replace(tmp, p)

    @staticmethod
    def _preload_lazy_imports():
        """Python imports are not atomic across threads: two concurrent
        ``read_parquet`` calls can race on fsspec's lazily-imported
        filesystem modules and one sees a half-initialized module
        (ImportError: cannot import name 'HTTPFileSystem').  Import them
        once on the orchestrator thread before fanning out."""
        for mod in ("fsspec.implementations.http", "fsspec.implementations.local"):
            try:
                __import__(mod)
            except Exception:
                pass

    def run(self, flow: Flow, lineage: str | None = None) -> dict[str, StepResult]:
        order = flow.topo_order()
        results: dict[str, StepResult] = {}

        def runnable(name: str) -> bool:
            return all(
                results[d].status in ("ok", "resumed") for d in flow.find_step(name).deps
            )

        def execute(name: str) -> StepResult:
            if self._is_done(flow, name, lineage):
                return StepResult("resumed")
            step = flow.find_step(name)
            attempts = 1 + int(step.settings.get("retries", 0))
            t0 = time.perf_counter()
            for attempt in range(attempts):
                try:
                    value = step.fn()
                except Exception:
                    if attempt + 1 < attempts:
                        continue
                    return StepResult(
                        "failed", time.perf_counter() - t0,
                        error=traceback.format_exc(),
                    )
                dt = time.perf_counter() - t0
                self._mark(flow, name, lineage, dt)
                return StepResult("ok", dt, value=value)

        pending = list(order)
        if self.max_parallel == 1:
            for name in pending:
                if not runnable(name):
                    results[name] = StepResult("upstream_failed")
                    continue
                results[name] = execute(name)
            return results

        self._preload_lazy_imports()
        with ThreadPoolExecutor(max_workers=self.max_parallel) as pool:
            futures = {}
            while pending or futures:
                progressed = True
                while progressed:
                    progressed = False
                    for name in list(pending):
                        deps = flow.find_step(name).deps
                        if not all(d in results for d in deps):
                            continue  # a dep is still running or queued
                        pending.remove(name)
                        progressed = True
                        if runnable(name):
                            futures[pool.submit(execute, name)] = name
                        else:
                            results[name] = StepResult("upstream_failed")
                if futures:
                    done, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for fut in done:
                        results[futures.pop(fut)] = fut.result()
        return results


def flow_from_backfill(
    group_by,
    left_ds_fn,
    output_dir: str,
    start_ds: str,
    end_ds: str,
    step_days: int = 1,
    **kwargs,
) -> Flow:
    """validate -> one INDEPENDENT step per day-partition range, each calling
    the manifest-resumable backfill for just its range — so an orchestrator
    with ``max_parallel`` > 1 overlaps ranges, and both the step markers and
    the partition manifests survive a crash."""
    from .analyzer import validate_group_by
    from .pipelines.backfill import backfill_temporal, day_partitions

    flow = Flow(f"backfill__{group_by.name}")

    def _validate():
        errs = validate_group_by(group_by, check_tables=True)
        if errs:
            raise ValueError(f"invalid group_by config: {errs}")
        return True

    flow.add_step("validate", _validate)
    for label, lo, hi in day_partitions(start_ds, end_ds, step_days):
        import pandas as pd

        step_start = pd.Timestamp(lo, unit="ms").strftime("%Y-%m-%d")
        step_end = pd.Timestamp(hi - 1, unit="ms").strftime("%Y-%m-%d")

        def _run(a=step_start, b=step_end):
            return backfill_temporal(
                group_by, left_ds_fn, output_dir,
                start_ds=a, end_ds=b, step_days=step_days, **kwargs,
            )

        # one retry: partition work is idempotent (manifest-guarded), and a
        # retry absorbs transient worker-side import/startup flakes
        flow.add_step(f"partition_{label}", _run, deps=("validate",), retries=1)
    return flow
