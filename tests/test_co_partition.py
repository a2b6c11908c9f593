"""co_partition, the engine's one key exchange (stages/shuffle.py): random
multi-column keys (null ints included) over 1-3 sides with different column
sets, each cut into 1-7 blocks — every key's rows from every side reach
exactly one fn call, SIDE_COL is the side's list index, HASH_COL never
reaches fn or the output, and the output rows are the input rows.  Plus: a
null in an int key column does not move that column's other keys, the
kernel matches NaiveOracle at one exchange partition and at several, an
empty side changes nothing, the kernel operator keeps its name, a plan over
static side schemas never probes Dataset.schema, a block the sort hands
back as pandas still reaches an Arrow fn with the declared types,
co_partition is the only keyed exchange, Arrow only, and every map stage
runs as tasks, never as an actor pool."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raywin.stages.shuffle import (
    HASH_COL, SIDE_COL, co_partition, declare_schema, pad_to_schema, stable_hash,
)

KEY_POOL = {"k_int": st.one_of(st.none(), st.integers(-3, 3)), "k_str": st.sampled_from(["a", "b", "c", ""])}


def _side_frame(draw, key_cols, side):
    n = draw(st.integers(0, 25))
    cols = {k: [draw(KEY_POOL[k]) for _ in range(n)] for k in key_cols}
    cols["rid"] = [side * 1000 + i for i in range(n)]
    # each side carries its own payload column; odd sides share one more
    cols[f"v{side}"] = [float(draw(st.integers(0, 9))) for _ in range(n)]
    if side % 2:
        cols["shared"] = [draw(st.integers(0, 9)) for _ in range(n)]
    schema = pa.schema(
        [(k, pa.int64() if k == "k_int" else pa.string()) for k in key_cols]
        + [("rid", pa.int64()), (f"v{side}", pa.float64())]
        + ([("shared", pa.int64())] if side % 2 else [])
    )
    return pa.Table.from_pydict(cols, schema=schema)


@st.composite
def exchanges(draw):
    key_cols = draw(st.sampled_from([["k_int"], ["k_str"], ["k_int", "k_str"], ["k_str", "k_int"]]))
    n_sides = draw(st.integers(1, 3))
    tables = [_side_frame(draw, key_cols, i) for i in range(n_sides)]
    return key_cols, tables, draw(st.sampled_from([1, 3, 7]))


def _blocks(t: pa.Table, n: int):
    """t as a Dataset of n blocks (some empty when t has fewer rows)."""
    import ray.data

    cuts = np.linspace(0, len(t), n + 1).astype(int)
    ds = ray.data.from_arrow([t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])
    return declare_schema(ds, t.schema)


def _tag_call(group: pa.Table) -> pa.Table:
    assert HASH_COL not in group.column_names
    call = uuid.uuid4().int >> 65  # one id per fn call
    return group.append_column("call", pa.array(np.full(len(group), call, dtype=np.int64)))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(exchanges())
def test_co_partition_routes_every_key_to_one_call(ray_session, exchange_block_rows, case):
    key_cols, tables, n_blocks = case
    exchange_block_rows(4)  # several exchange partitions from these few rows
    sides = [_blocks(t, n_blocks) for t in tables]
    arg = sides if len(sides) > 1 else sides[0]
    out = co_partition(arg, key_cols, _tag_call).to_pandas()

    assert HASH_COL not in out.columns
    # output rows == input rows (rid is unique across sides); with no input
    # row fn never runs, so there is no output schema to check
    want = pd.concat([t.to_pandas() for t in tables], ignore_index=True)
    if want.empty:
        assert out.empty
        return
    assert sorted(out["rid"]) == sorted(want["rid"])
    got = out.set_index("rid").sort_index()
    want = want.set_index("rid").sort_index()
    pd.testing.assert_frame_equal(
        got[want.columns], want, check_dtype=False, check_like=True
    )
    if len(tables) > 1:
        assert (got[SIDE_COL].to_numpy() == got.index.to_numpy() // 1000).all()
    else:
        assert SIDE_COL not in out.columns
    # every key's rows, whatever their side, came from exactly one call
    calls = out.groupby(key_cols, dropna=False)["call"].nunique()
    assert (calls == 1).all(), calls


def test_stable_hash_keeps_key_hashes_across_nulls():
    """to_numpy turns an int column holding a null into float64 and a bool
    one into objects; the key hash must not change with them."""
    for typ, vals in [(pa.int64(), [5, -3]), (pa.int32(), [5, -3]), (pa.bool_(), [True, False])]:
        plain = stable_hash([pa.array(vals, typ)])
        with_null = stable_hash([pa.chunked_array([pa.array(vals + [None], typ)])])
        assert (with_null[:2] == plain).all(), typ
        assert with_null[2] == stable_hash([pa.array([None], pa.string())])[0]


def test_null_in_int_key_column_keeps_keys_in_one_call(ray_session):
    """REGRESSION: a 40-row left side against a 70,001-row right side whose
    last row has a null key.  The exchange hashes 32k-row batches; the
    batch holding the null used to hash its int keys as float64, so those
    keys' rows reached other fn calls than the same keys' rows elsewhere."""
    rng = np.random.default_rng(0)
    left_t = pa.table({"k": pa.array(np.arange(40), pa.int64()), "rid": np.arange(40)})
    right_t = pa.table({
        "k": pa.array(list(rng.integers(0, 40, 70_000)) + [None], pa.int64()),
        "rid": np.arange(1000, 71_001),
    })
    # 7 right blocks: the exchange bundles them into several 32k-row inputs
    out = co_partition([_blocks(left_t, 1), _blocks(right_t, 7)], ["k"], _tag_call).to_pandas()
    assert len(out) == 70_041
    calls = out.groupby("k", dropna=False)["call"].nunique()
    assert out["call"].nunique() > 1  # the exchange really has several partitions
    assert (calls == 1).all(), calls[calls > 1]


def _oracle_case(seed=3, n_events=600, n_queries=120, n_keys=9):
    from raywin.api import Accuracy, Aggregation, EventSource, GroupBy, Operation, Query, TimeUnit, Window

    rng = np.random.default_rng(seed)
    day = 86_400_000
    events = pa.table({
        "k": pa.array(rng.integers(0, n_keys, n_events), pa.int64()),
        "ts": pa.array(rng.integers(0, 20 * day, n_events), pa.int64()),
        "v": rng.normal(0, 1, n_events),
    })
    queries = pa.table({
        "k": pa.array(rng.integers(0, n_keys + 2, n_queries), pa.int64()),
        "ts": pa.array(rng.integers(0, 22 * day, n_queries), pa.int64()),
        "qid": np.arange(n_queries),
    })
    gb = GroupBy(
        sources=[EventSource(table="unused.parquet", query=Query(selects={"k": "k", "v": "v"}, time_column="ts"))],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "v", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.MAX, "v", windows=[Window(3, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="oracle",
    )
    return gb, events, queries


@pytest.mark.parametrize("block_rows", [1 << 30, 64])
def test_features_for_queries_match_oracle_at_any_partition_count(
    ray_session, exchange_block_rows, block_rows
):
    """The kernel behind co_partition against NaiveOracle, with every key in
    one exchange partition and spread over several."""
    import ray.data

    from raywin.aggregator.windowing import FiveMinuteResolution, NaiveOracle
    from raywin.pipelines.group_by import features_for_queries

    gb, events, queries = _oracle_case()
    exchange_block_rows(block_rows)
    left, right = _blocks(queries, 3), _blocks(events, 3)
    out = features_for_queries(gb, left, right_ds=right).materialize()
    assert (out.num_blocks() == 1) == (block_rows > len(events) + len(queries))
    got = out.to_pandas().sort_values("qid").reset_index(drop=True)
    assert got["qid"].tolist() == list(range(len(queries)))

    parts = gb.agg_parts()
    by_key: dict = {}
    for row in events.to_pylist():
        by_key.setdefault(row["k"], []).append(row)
    oracle = NaiveOracle(parts, FiveMinuteResolution)
    for k, ts, i in zip(got["k"], got["ts"], got.index):
        want = oracle.aggregate(by_key.get(int(k), []), [int(ts)])[0]
        for col, w in want.items():
            g = got.at[i, col]
            if w is None:
                assert g is None or pd.isna(g), (col, k, ts, g)
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-12), (col, k, ts, g, w)


@pytest.mark.parametrize("empty_via", ["filter_expr", "pandas_udf"])
def test_co_partition_empty_side_changes_nothing(ray_session, exchange_block_rows, empty_via):
    """A side filtered to zero rows: map_batches never calls its UDF on a
    zero-row block and passes the block on with no schema; the exchange
    must still return the other side's rows in the declared schema."""
    import ray.data

    exchange_block_rows(64)
    rng = np.random.default_rng(5)
    left_t = pa.table({"k": rng.integers(0, 20, 300), "ts": np.arange(300, dtype=np.int64)})
    right_t = pa.table({"k": rng.integers(0, 20, 300), "ts": np.arange(300, dtype=np.int64),
                        "v": rng.random(300)})
    left = ray.data.from_arrow([left_t.slice(0, 150), left_t.slice(150)])
    right = ray.data.from_arrow([right_t.slice(0, 150), right_t.slice(150)])
    if empty_via == "filter_expr":
        empty = right.filter(expr="ts < 0")
    else:
        empty = right.map_batches(lambda df: df[df["ts"] < 0], batch_format="pandas")
    declare_schema(empty, right_t.schema)
    declare_schema(left, left_t.schema)

    def left_rows(group: pa.Table) -> pa.Table:
        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        return group.filter(pa.array(side == 0)).select(["k", "ts"])

    with_empty = co_partition([left, empty], ["k"], left_rows).materialize()
    alone = co_partition(left, ["k"], lambda g: g).materialize()
    assert with_empty.schema().base_schema == alone.schema().base_schema == left_t.schema
    got = with_empty.to_pandas().sort_values("ts").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, left_t.to_pandas())
    pd.testing.assert_frame_equal(got, alone.to_pandas().sort_values("ts").reset_index(drop=True))


def _tiny_group_by(table="unused.parquet"):
    from raywin.api import Accuracy, Aggregation, EventSource, GroupBy, Operation, Query

    return GroupBy(
        sources=[EventSource(table=table, query=Query(selects={"k": "k", "v": "v"}, time_column="ts"))],
        key_columns=["k"],
        aggregations=[Aggregation(Operation.SUM, "v")],
        accuracy=Accuracy.TEMPORAL,
        name="tiny",
    )


def _tiny_sides():
    import ray.data

    events = pa.table({"k": [1, 1, 2], "ts": [10, 20, 30], "v": [1.0, 2.0, 3.0]})
    queries = pa.table({"k": [1, 2], "ts": [25, 40]})
    right, left = ray.data.from_arrow(events), ray.data.from_arrow(queries)
    return declare_schema(left, queries.schema), declare_schema(right, events.schema)


def test_kernel_operator_keeps_its_name(ray_session):
    from raywin.pipelines.group_by import features_for_queries

    left, right = _tiny_sides()
    out = features_for_queries(_tiny_group_by(), left, right_ds=right).materialize()
    assert sorted(out.to_pandas()["v_sum"]) == [3.0, 3.0]
    names = []

    def walk(s):
        for p in s.parents:
            walk(p)
        names.extend(op.operator_name for op in s.operators_stats)

    walk(out._plan.stats().to_summary())
    assert any(n.startswith("MapBatches(PartitionKernel)") for n in names), names


def test_co_partition_never_probes_static_schemas(ray_session, monkeypatch, tmp_path):
    import pyarrow.parquet as pq
    import ray.data

    from raywin.online import group_by_upload
    from raywin.pipelines.group_by import features_for_queries

    left, right = _tiny_sides()
    path = str(tmp_path / "events.parquet")
    pq.write_table(pa.table({"k": [1, 1, 2], "ts": [10, 20, 30], "v": [1.0, 2.0, 3.0]}), path)
    schema = ray.data.Dataset.schema

    def no_probe(self, fetch_if_missing=True):
        # Ray's own groupby asks with fetch_if_missing=False, which never runs
        assert not fetch_if_missing, "Dataset.schema() probed a lazy pipeline"
        return schema(self, fetch_if_missing=False)

    monkeypatch.setattr(ray.data.Dataset, "schema", no_probe)
    co_partition([left, right], ["k"], lambda g: g)
    features_for_queries(_tiny_group_by(), left, right_ds=right)
    # a single side past two filter(expr) seams: no static schema of its own
    group_by_upload(_tiny_group_by(path), batch_end_ts=25)


def bucket_of(*sides: pa.Table) -> pa.Table:
    """One co-partitioned bucket as co_partition hands it to fn: each side
    tagged with its SIDE_COL index and padded to the sides' union schema."""
    fields: dict = {}
    for t in sides:
        for f in t.schema:
            fields.setdefault(f.name, f)
    schema = pa.schema(list(fields.values()) + [pa.field(SIDE_COL, pa.int8())])
    return pa.concat_tables([
        pad_to_schema(t.append_column(SIDE_COL, pa.array(np.full(len(t), i, dtype=np.int8))), schema)
        for i, t in enumerate(sides)
    ])


@pytest.mark.parametrize("block_type", ["pandas", "arrow"])
def test_pandas_bucket_reaches_fn_with_declared_types(block_type):
    """Ray's sort reducer converts a block to pandas when pandas blocks
    win its block-type vote (an empty pandas block rides map_batches
    untouched).  Map, list and nullable-int64 columns do not survive pandas
    inference, so the per-partition adapter rebuilds the block against the
    declared schema: fn gets the same Arrow table either way, without
    HASH_COL."""
    from ray.data.block import BlockAccessor

    from raywin.stages.shuffle import _per_partition

    want = bucket_of(
        pa.table({"k": ["a", "b"], "ts": pa.array([5, 6], pa.int64()),
                  "n": pa.array([7, None], pa.int64())}),
        pa.table({
            "k": ["a", None, "b"],
            "ts": pa.array([1, 2, 3], pa.int64()),
            "m": pa.array([[("x", 1)], None, []], pa.map_(pa.string(), pa.int64())),
            "l": pa.array([[1.5, None], [], None], pa.list_(pa.float64())),
        }),
    )
    block = want.append_column(HASH_COL, pa.array(np.full(len(want), 3, dtype=np.int64)))
    if block_type == "pandas":
        block = BlockAccessor.for_block(block).to_pandas()  # the reducer's conversion
        assert block["n"].dtype == np.float64  # inference alone would lose int64
    got = []
    _per_partition(got.append, want.schema)(block)
    assert isinstance(got[0], pa.Table)
    assert got[0].schema == want.schema
    assert got[0].equals(want)


def test_one_arrow_exchange_call():
    """co_partition is the one keyed exchange and hands fn Arrow only: it
    takes no batch_format, and no Ray groupby().map_groups() exchange is
    left under raywin/."""
    import inspect
    import pathlib

    import raywin

    assert "batch_format" not in inspect.signature(co_partition).parameters
    root = pathlib.Path(raywin.__file__).parent
    users = [str(p.relative_to(root)) for p in root.rglob("*.py") if ".map_groups(" in p.read_text()]
    assert users == []


def test_every_map_stage_runs_as_tasks():
    """No ``map_batches`` under raywin/ builds an actor pool: none passes a
    class (only a function or a constructed instance), ``concurrency=``,
    ``compute=`` or constructor arguments.  A pool holds its CPUs for the
    stage's whole run, so at a small CPU count it can starve the tasks that
    feed it."""
    import ast
    import pathlib

    import raywin

    root = pathlib.Path(raywin.__file__).parent
    trees = {str(p.relative_to(root)): ast.parse(p.read_text()) for p in root.rglob("*.py")}
    classes = {n.name for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.ClassDef)}
    pool_kwargs = {"concurrency", "compute", "fn_constructor_args", "fn_constructor_kwargs"}
    bad = []
    for path, tree in trees.items():
        for n in ast.walk(tree):
            if not (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "map_batches"):
                continue
            fn = n.args[0] if n.args else None
            named = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
            if named in classes or pool_kwargs & {k.arg for k in n.keywords}:
                bad.append(f"{path}:{n.lineno}")
    assert bad == []
