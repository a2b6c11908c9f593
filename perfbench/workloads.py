"""The three workloads.  Each one drives raywin through its public entry
points with default arguments, keeps the first (warm-up) output as the
reference the oracle checks, and compares every timed output against it.

Per-layer numbers are taken only in traced iterations: spans the benchmark
opens around raywin calls, and Ray Data's per-operator stats of the
datasets those calls return.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import oracles
from .inputs import read_meta
from .metrics import MIN_TAIL_SAMPLES, median
from .tracing import busy_minus_s, busy_union_s, dataset_operators

ORACLE_SAMPLE_KEYS = 40


@dataclass
class Iteration:
    """One timed iteration: fixed work, so iterations are comparable."""

    wall_s: float  # timed wall of the iteration's public calls
    rows: int  # feature rows produced
    op_s: list  # latency of each operation
    attempted: int
    failed: int
    layers: dict = field(default_factory=dict)  # traced iterations only
    put_s: float = 0.0
    put_rows: int = 0
    errors: list = field(default_factory=list)
    cpu_s: float = 0.0  # CPU time of the benchmark process and Ray workers
    ref_s: float = 0.0  # CPU time of the reference job around the iteration


def _span(tracer, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _has(name: str, *needles) -> bool:
    return any(n in name for n in needles)


# All-to-all sub-operators Ray Data reports for the co-partition exchange.
_EXCHANGE = ("Sort", "Shuffle", "Repartition", "Aggregate")
_KERNELS = ("PartitionKernel", "UploadKernel")


def _is_exchange(op: dict) -> bool:
    return _has(op["name"], *_EXCHANGE) and not _has(op["name"], *_KERNELS)


def _timed(ops: list[dict]) -> list[dict]:
    return [o for o in ops if o["start"] and o["end"] and o["end"] >= o["start"]]


def exchange_windows(ops: list[dict]) -> list[dict]:
    """The wall an exchange holds one executed Dataset's pipeline: from the
    last end of the operators before it (its barrier's input is complete)
    to the first start of the operators after it (its output is ready), or
    its own last end when nothing follows.  `ops` in the execution order
    dataset_operators gives."""
    idx = [i for i, o in enumerate(ops) if _is_exchange(o)]
    ex = _timed(ops[idx[0]:idx[-1] + 1]) if idx else []
    if not ex:
        return []
    first, last = min(o["start"] for o in ex), max(o["end"] for o in ex)
    before, after = _timed(ops[:idx[0]]), _timed(ops[idx[-1] + 1:])
    return [{
        "start": min(max((o["end"] for o in before), default=first), first),
        "end": max(min((o["start"] for o in after), default=last), last),
    }]


def busy_s(ops: list[dict]) -> float:
    """Union of one executed Dataset's operator busy time and its exchange
    windows."""
    return busy_union_s(ops + exchange_windows(ops))


def ray_layers(datasets: list[list[dict]]) -> dict:
    """Per-layer figures from the Ray Data operator stats of one or more
    executed Datasets (remote wall and CPU, rows, bytes, tasks, busy
    intervals).  The exchange's time is its window (exchange_windows), so
    the scheduling gaps around its sample, map and reduce rounds count,
    minus any part the kernel is busy in.  Bucket skew is max/mean output
    rows per block of the exchange's last (reduce) sub-operator.  Ray fuses
    the parquet write into the kernel operator; the write's share of that
    operator is its remote wall minus its UDF time, and is taken out of the
    kernel's CPU."""
    ops = [o for d in datasets for o in d]
    windows = [w for d in datasets for w in exchange_windows(d)]
    read = [o for o in ops if "ReadParquet" in o["name"]]
    decode = [o for o in ops if "DecodeFeatures" in o["name"]]
    exch = [o for o in ops if _is_exchange(o)]
    kern = [o for o in ops if _has(o["name"], *_KERNELS)]
    write = [o for o in ops if "Write" in o["name"]]
    write_s = sum(
        o["wall_s"] - o["udf_s"] if _has(o["name"], *_KERNELS) else o["wall_s"] for o in write
    )
    reduce = exch[-1] if exch else None
    return {
        "sources.read_s": sum(o["wall_s"] for o in read),
        "sources.rows_read": sum(o["rows"] for o in read),
        "sources.bytes_read": sum(o["bytes"] for o in read),
        "stages.images.decode_cpu_s": sum(o["cpu_s"] for o in decode),
        "stages.images.rows_decoded": sum(o["rows"] for o in decode),
        "stages.shuffle.exchange_s": busy_minus_s(windows, kern),
        "stages.shuffle.rows": reduce["rows"] if reduce else 0,
        "stages.shuffle.bytes": reduce["bytes"] if reduce else 0,
        "stages.shuffle.tasks": sum(o["tasks"] for o in exch),
        "stages.shuffle.bucket_skew": (
            reduce["block_rows_max"] / reduce["block_rows_mean"]
            if reduce and reduce["block_rows_mean"] else 0.0
        ),
        "aggregator.kernel_cpu_s": sum(o["cpu_s"] for o in kern)
        - sum(o["wall_s"] - o["udf_s"] for o in kern if "Write" in o["name"]),
        "aggregator.rows_in": reduce["rows"] if reduce else 0,
        "pipelines.tasks": sum(o["tasks"] for o in ops),
        "state.write_s": write_s,
    }


def _time_call(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _kernel_us_per_query_row(key_col, parts, events: pa.Table, queries: pa.Table,
                             tie_breaker=None) -> float:
    """In-process PartitionAggregator.aggregate_tables on one fixed bucket
    (the keys whose rank among the distinct keys is 0 mod 32, as one of 32
    co-partition buckets would hold)."""
    from raywin.aggregator.kernel import PartitionAggregator

    uniq = np.unique(events[key_col].to_numpy(zero_copy_only=False))
    pick = pa.array(uniq[::32])
    ev = events.filter(pc.is_in(events[key_col], pick))
    q = queries.filter(pc.is_in(queries[key_col], pick))
    agg = PartitionAggregator([key_col], parts, tie_breaker=tie_breaker, dedupe_queries=True)
    return _time_call(lambda: agg.aggregate_tables(ev, q)) / max(q.num_rows, 1) * 1e6


class Workload:
    """Defaults: Ray stays up for the timed loop, which runs at least three
    iterations; no set-up calls beyond starting Ray."""

    ray_in_loop = True
    min_iterations = 3
    setup_layers: dict = {}

    def setup(self, tracer=None) -> None:
        pass

    def microbench(self) -> dict:
        return {}

    def close(self) -> None:
        pass


class ImgBackfill(Workload):
    """Flagship image_feature_backfill over the mixed-codec image table."""

    name = "img_backfill"
    keys = ["image_id", "ts"]

    def __init__(self, inputs: str, seed: int, work: str):
        self.path = os.path.join(inputs, "events")
        self.truth = self.path + "_truth"
        self.seed = seed
        self.ref = None

    def iterate(self, tracer=None) -> Iteration:
        import ray

        from raywin.pipelines.images import image_feature_backfill

        layers = {}
        try:
            t0 = time.perf_counter()
            with _span(tracer, "pipelines.images.image_feature_backfill"):
                ds = image_feature_backfill(self.path)
            t1 = time.perf_counter()
            with _span(tracer, "ray.data.execute"):
                out = pa.concat_tables(ray.get(ds.to_arrow_refs()))
            t2 = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            return Iteration(0.0, 0, [], 1, 1, errors=[repr(e)])
        if tracer is not None:
            ops = dataset_operators(ds)
            layers = ray_layers([ops])
            layers["pipelines.plan_s"] = t1 - t0
            layers["pipelines.sched_overhead_s"] = max((t2 - t1) - busy_s(ops), 0.0)
        failed = 0
        if self.ref is None:
            self.ref = out
        elif not oracles.tables_match(out, self.ref, self.keys):
            failed = 1
        return Iteration(t2 - t0, out.num_rows, [t2 - t0], 1, failed, layers)

    def check_reference(self) -> list[str]:
        """Oracle: sampled image ids against the DuckDB recompute, and no
        feature row may count an event at or after its query ts."""
        import duckdb

        if self.ref is None:
            return ["no reference output"]
        problems = []
        ids = np.unique(self.ref["image_id"].to_numpy(zero_copy_only=False))
        rng = np.random.default_rng([self.seed, 99])
        sample = rng.choice(ids, min(ORACLE_SAMPLE_KEYS, len(ids)), replace=False)
        with duckdb.connect() as con:
            exp = oracles.img_oracle(con, self.truth, sample.tolist())
            n_queries = con.sql(
                f"SELECT count(*) FROM (SELECT DISTINCT image_id, ts "
                f"FROM read_parquet('{self.truth}/*.parquet'))"
            ).fetchone()[0]
        if self.ref.num_rows != n_queries:
            problems.append(f"{self.ref.num_rows} output rows, {n_queries} distinct queries")
        got = self.ref.filter(pc.is_in(self.ref["image_id"], pa.array(sample)))
        incl = exp.select(["image_id", "ts", "views_count_7d_incl"])
        exp = exp.drop_columns(["views_count_7d_incl"])
        bad = oracles.compare_keyed(got, exp, self.keys)
        if bad:
            problems.append(f"{len(bad)} sampled rows differ from the oracle, e.g. {bad[0]}")
        got_k = oracles.keyed(got, self.keys)
        leaks = sum(
            1 for r in incl.to_pylist()
            if (g := got_k.get((r["image_id"], r["ts"]))) is not None
            and g["views_count_7d"] == r["views_count_7d_incl"]
        )
        if leaks:
            problems.append(f"{leaks} rows count an event at or after the query ts")
        return problems

    def microbench(self) -> dict:
        from raywin.pipelines.images import image_feature_group_by
        from raywin.stages.images import DecodeFeatures

        batch = pq.read_table(os.path.join(self.path, "part-0000.parquet")).slice(0, 2048)
        dec = DecodeFeatures()
        truth = pq.read_table(self.truth)
        queries = truth.select(["image_id", "ts"])
        parts = image_feature_group_by(self.path).agg_parts()
        return {
            "stages.images.decode_us_per_row":
                _time_call(lambda: dec(batch)) / batch.num_rows * 1e6,
            "aggregator.us_per_query_row": _kernel_us_per_query_row(
                "image_id", parts, truth, queries, tie_breaker="phash"
            ),
        }


def numeric_group_by(table: str):
    """The GroupBy of oracles.NUMERIC_PARTS over a numeric event table."""
    from raywin.api import (
        Accuracy, Aggregation, EventSource, GroupBy, Operation, Query, TimeUnit, Window,
    )

    return GroupBy(
        sources=[EventSource(table=table, query=Query())],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "amount",
                        windows=[Window(1, TimeUnit.DAYS), Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "clicks", windows=[Window(6, TimeUnit.HOURS)]),
            Aggregation(Operation.AVERAGE, "amount", windows=[Window(3, TimeUnit.DAYS)]),
            Aggregation(Operation.MAX, "clicks", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.SUM, "clicks"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="events",
    )


def _ds(ts_ms: int) -> str:
    return time.strftime("%Y-%m-%d", time.gmtime(ts_ms // 1000))


class EventsBackfill(Workload):
    """backfill_temporal in multi-day steps, each step writing its parquet
    partition and manifest into a fresh output directory."""

    name = "events_backfill"
    keys = ["user_id", "ts"]

    def __init__(self, inputs: str, seed: int, work: str):
        self.meta = read_meta(inputs)
        self.events = os.path.join(inputs, "events")
        self.queries = os.path.join(inputs, "queries")
        self.out_root = os.path.join(work, "out", f"{self.name}-{os.getpid()}")
        self.seed = seed
        self.gb = numeric_group_by(self.events)
        self.start_ds = _ds(self.meta["query_lo"])
        self.end_ds = _ds(self.meta["query_hi"] - 1)
        self.steps = -(-self.meta["query_days"] // self.meta["step_days"])
        self.ref = None
        self._n = 0

    def _backfill(self, out_dir: str):
        import ray.data

        from raywin.pipelines.backfill import backfill_temporal

        return backfill_temporal(
            self.gb, lambda: ray.data.read_parquet(self.queries), out_dir,
            self.start_ds, self.end_ds, step_days=self.meta["step_days"],
        )

    def iterate(self, tracer=None) -> Iteration:
        import raywin.pipelines.backfill as bf
        import raywin.state.manifest as mf

        self._n += 1
        out_dir = os.path.join(self.out_root, f"iter-{self._n}")
        shutil.rmtree(out_dir, ignore_errors=True)
        feats = []
        layers = {}
        try:
            if tracer is None:
                t0 = time.perf_counter()
                done = self._backfill(out_dir)
                t1 = time.perf_counter()
            else:
                mark = len(tracer.spans)
                keep = lambda args, kwargs, result, rec: feats.append(result)  # noqa: E731
                with tracer.patched(bf, "features_for_queries",
                                    "pipelines.group_by.features_for_queries", keep), \
                        tracer.patched(mf, "write_manifest", "state.manifest.write_manifest"):
                    t0 = time.perf_counter()
                    with tracer.span("pipelines.backfill.backfill_temporal"):
                        done = self._backfill(out_dir)
                    t1 = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            return Iteration(0.0, 0, [], 1, 1, errors=[repr(e)])
        rows = sum(m["rows"] for _, m in done)
        if tracer is not None:
            spans = tracer.since(mark)
            steps = [dataset_operators(ds._write_ds) for ds in feats]
            busy = sum(busy_s(ops) for ops in steps)
            layers = ray_layers(steps)
            plan = tracer.total("pipelines.group_by.features_for_queries", spans)
            manifest = tracer.total("state.manifest.write_manifest", spans)
            data_bytes = sum(
                os.path.getsize(os.path.join(dp, f))
                for dp, _, fs in os.walk(out_dir) for f in fs if f.endswith(".parquet")
            )
            layers.update({
                "pipelines.plan_s": plan,
                "pipelines.sched_overhead_s": max((t1 - t0) - plan - manifest - busy, 0.0),
                "state.manifest_s": manifest,
                "state.bytes_per_row": data_bytes / rows if rows else 0.0,
                "state.partitions_written": len(done),
            })
        errors = self._check_output(out_dir, done)
        shutil.rmtree(os.path.join(self.out_root, f"iter-{self._n - 1}"), ignore_errors=True)
        return Iteration(t1 - t0, rows, [t1 - t0], 1, 1 if errors else 0, layers,
                         errors=errors)

    def _check_output(self, out_dir: str, done) -> list[str]:
        """Manifest row counts equal the rows written, a re-run resumes with
        nothing to do, and the output equals the reference's."""
        import pyarrow.dataset as pads

        from raywin.state import manifest as mf

        errors = []
        if len(done) != self.steps:
            errors.append(f"{len(done)} partitions computed, {self.steps} expected")
        tables = []
        for label, m in done:
            d = mf.data_dir(out_dir, label)
            t = pads.dataset(d, format="parquet").to_table() if os.listdir(d) else None
            n = t.num_rows if t is not None else 0
            if n != m["rows"]:
                errors.append(f"{label}: manifest says {m['rows']} rows, {n} written")
            if t is not None:
                tables.append(t)
        if self._backfill(out_dir):
            errors.append("re-invoking on the finished output recomputed partitions")
        out = pa.concat_tables(tables) if tables else None
        if self.ref is None:
            self.ref = out
        elif out is None or not oracles.tables_match(out, self.ref, self.keys):
            errors.append("output differs from the oracle-checked reference")
        return errors

    def check_reference(self) -> list[str]:
        """Oracle: sampled users against a DuckDB as-of recompute, and the row
        count against the distinct queries in range."""
        import duckdb

        if self.ref is None:
            return ["no reference output"]
        lo, hi = self.meta["query_lo"], self.meta["query_hi"]
        q_glob = f"{self.queries}/*.parquet"
        users = np.unique(self.ref["user_id"].to_numpy())
        rng = np.random.default_rng([self.seed, 99])
        sample = rng.choice(users, min(ORACLE_SAMPLE_KEYS, len(users)), replace=False)
        with duckdb.connect() as con:
            exp = oracles.numeric_oracle(con, f"{self.events}/*.parquet", q_glob,
                                         sample, lo, hi)
            n_queries = con.sql(
                f"SELECT count(*) FROM (SELECT DISTINCT user_id, ts FROM "
                f"read_parquet('{q_glob}') WHERE ts >= {lo} AND ts < {hi})"
            ).fetchone()[0]
        problems = []
        if self.ref.num_rows != n_queries:
            problems.append(f"{self.ref.num_rows} output rows, {n_queries} distinct queries")
        got = self.ref.filter(pc.is_in(self.ref["user_id"], pa.array(sample)))
        bad = oracles.compare_keyed(got, exp, self.keys)
        if bad:
            problems.append(f"{len(bad)} sampled rows differ from the oracle, e.g. {bad[0]}")
        return problems

    def microbench(self) -> dict:
        events = pq.read_table(self.events)
        queries = pq.read_table(self.queries)
        return {
            "aggregator.us_per_query_row": _kernel_us_per_query_row(
                "user_id", self.gb.agg_parts(), events, queries
            ),
        }

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)


class OnlineFetch(Workload):
    """Single-client closed loop over an in-process Fetcher: put_events
    micro-batches interleaved with Zipf-keyed fetch_batch requests.  Ray is
    used only in setup (group_by_upload + load_upload)."""

    name = "online_fetch"
    ray_in_loop = False
    # every CHECK_EVERY-th request's answer is checked against the fold
    CHECK_EVERY = 10

    def __init__(self, inputs: str, seed: int, work: str):
        self.meta = read_meta(inputs)
        self.batch_end = self.meta["batch_end"]
        self.batch_dir = os.path.join(inputs, "batch")
        self.gb = numeric_group_by(self.batch_dir)
        stream = pq.read_table(os.path.join(inputs, "stream.parquet"))
        mb = self.meta["micro_batch_rows"]
        df = stream.to_pandas()
        self.micro_batches = [df.iloc[i:i + mb].reset_index(drop=True)
                              for i in range(0, len(df), mb)]
        reqs = pq.read_table(os.path.join(inputs, "requests.parquet")).to_pandas()
        self.requests = [  # (micro_batch, request frame)
            (int(g["micro_batch"].iloc[0]), g[["user_id", "ts"]].reset_index(drop=True))
            for _, g in reqs.groupby("req", sort=True)
        ]
        self.by_batch = {}
        for i, (m, _) in enumerate(self.requests):
            self.by_batch.setdefault(m, []).append(i)
        seen, repeats = set(), 0
        for _, r in self.requests:
            for k in r["user_id"]:
                repeats += k in seen
                seen.add(k)
        self.repeat_key_share = repeats / len(reqs)
        self.fold = oracles.NumericFold(pa.concat_tables([pq.read_table(self.batch_dir), stream]))
        self.checked = list(range(0, len(self.requests), self.CHECK_EVERY))
        # enough untraced requests per run for the p99 to have MIN_TAIL_SAMPLES above it
        self.min_iterations = -(-100 * MIN_TAIL_SAMPLES // len(self.requests))
        self.expected = None
        self.blob_map = None
        self.setup_layers = {}

    def setup(self, tracer=None) -> None:
        from raywin.online import group_by_upload, load_upload

        t0 = time.perf_counter()
        with _span(tracer, "online.upload.group_by_upload"):
            upload = group_by_upload(self.gb, self.batch_end)
        t1 = time.perf_counter()
        with _span(tracer, "online.upload.load_upload"):
            self.blob_map = load_upload(upload, self.gb.key_columns)
        t2 = time.perf_counter()
        if tracer is not None:
            try:
                ops = dataset_operators(upload)
            except (AttributeError, TypeError):  # the plan kept no stats snapshot
                ops = []
            n = len(self.blob_map)
            self.setup_layers = {
                **ray_layers([ops]),
                "pipelines.plan_s": t1 - t0,
                "online.upload.build_s": t2 - t0,
                "online.upload.keys": n,
                "online.upload.ir_bytes_per_key": (
                    sum(len(b) for b in self.blob_map.values()) / n if n else 0.0
                ),
            }

    def _expected(self) -> dict:
        if self.expected is None:
            self.expected = {
                i: [self.fold.features(u, int(t))
                    for u, t in zip(self.requests[i][1]["user_id"], self.requests[i][1]["ts"])]
                for i in self.checked
            }
        return self.expected

    def iterate(self, tracer=None) -> Iteration:
        from raywin.online import Fetcher

        fetcher = Fetcher(self.gb, self.batch_end, upload=self.blob_map)
        folded = [0, 0]  # stream events visible to the lambda, query rows

        def count_folded(args, kwargs, result, rec):
            stream_ts, qts = args[1], args[3]
            if stream_ts is not None and len(stream_ts):
                folded[0] += int(np.searchsorted(stream_ts, qts, side="left").sum())
            folded[1] += len(qts)

        if tracer is not None:
            fetcher.agg.lambda_aggregate_many = tracer.wrapped(
                fetcher.agg.lambda_aggregate_many, "online.serving.lambda_aggregate_many",
                count_folded,
            )
        mark = len(tracer.spans) if tracer is not None else 0
        answers, lat, errors = {}, [], []
        put_s = 0.0
        attempted = failed = lookups = misses = 0
        checked = set(self.checked)
        t_start = time.perf_counter()
        for m, mb in enumerate(self.micro_batches):
            attempted += 1
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    fetcher.put_events(mb)
                    put_s += time.perf_counter() - t0
                else:
                    with tracer.span("online.serving.put_events") as rec:
                        fetcher.put_events(mb)
                    put_s += rec["end"] - rec["start"]
            except Exception as e:  # noqa: BLE001 - counted, not fatal
                failed += 1
                errors.append(repr(e))
            for i in self.by_batch.get(m, ()):
                req = self.requests[i][1]
                attempted += 1
                before = len(fetcher._cache) if tracer is not None else 0
                try:
                    if tracer is None:
                        t0 = time.perf_counter()
                        res = fetcher.fetch_batch(req)
                        lat.append(time.perf_counter() - t0)
                    else:
                        with tracer.span("online.serving.fetch_batch") as rec:
                            res = fetcher.fetch_batch(req)
                        lat.append(rec["end"] - rec["start"])
                except Exception as e:  # noqa: BLE001 - counted, not fatal
                    failed += 1
                    errors.append(repr(e))
                    continue
                if tracer is not None:
                    lookups += req["user_id"].nunique()
                    misses += len(fetcher._cache) - before
                if i in checked:
                    answers[i] = res
        wall = time.perf_counter() - t_start
        exp = self._expected()
        for i, res in answers.items():
            cols = list(exp[i][0])
            got = [{c: res[c][j] for c in cols} for j in range(len(exp[i]))]
            if any(oracles.rows_mismatch(g, e, cols) for g, e in zip(got, exp[i])):
                failed += 1
                errors.append(f"request {i} differs from the brute-force fold")
        layers = {}
        if tracer is not None:
            spans = tracer.since(mark)
            fetch = tracer.total("online.serving.fetch_batch", spans)
            lam = tracer.total("online.serving.lambda_aggregate_many", spans)
            layers = {
                "online.serving.lambda_s": lam,
                "online.serving.frame_s": fetch - lam,
                "online.serving.put_s": put_s,
                "online.serving.events_folded_per_row": folded[0] / folded[1] if folded[1] else 0.0,
                "online.serving.ir_cache_hit_ratio": 1 - misses / lookups if lookups else 0.0,
            }
        rows = sum(len(r) for _, r in self.requests)
        return Iteration(wall, rows, lat, attempted, failed, layers, put_s=put_s,
                         put_rows=sum(len(mb) for mb in self.micro_batches), errors=errors)

    def check_reference(self) -> list[str]:
        # every iteration's checked answers are compared with the fold itself
        return [] if self.blob_map else ["upload produced no keys"]


WORKLOADS = {w.name: w for w in (ImgBackfill, EventsBackfill, OnlineFetch)}
