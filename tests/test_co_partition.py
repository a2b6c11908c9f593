"""co_partition, the engine's one hash-bucket exchange (stages/shuffle.py):
random multi-column keys over 1-3 sides with different column sets — every
key's rows from every side reach exactly one fn call, SIDE_COL is the side's
list index, BUCKET_COL never reaches fn or the output, and the output rows
are the input rows.  Plus: an empty side changes nothing, the kernel
operator keeps its name, a plan over static side schemas never probes
Dataset.schema, and a bucket the sort hands back as pandas still reaches an
Arrow fn with the declared types."""

import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raywin.stages.shuffle import BUCKET_COL, SIDE_COL, co_partition, pad_to_schema

KEY_POOL = {"k_int": st.integers(-3, 3), "k_str": st.sampled_from(["a", "b", "c", ""])}


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
    return key_cols, tables, draw(st.sampled_from([1, 3, 16]))


def _tag_call(group: pa.Table) -> pa.Table:
    assert BUCKET_COL not in group.column_names
    call = uuid.uuid4().int >> 65  # one id per fn call
    return group.append_column("call", pa.array(np.full(len(group), call, dtype=np.int64)))


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(exchanges())
def test_co_partition_routes_every_key_to_one_call(ray_session, case):
    import ray.data

    key_cols, tables, num_buckets = case
    sides = [ray.data.from_arrow(t) for t in tables]
    for ds, t in zip(sides, tables):
        ds._raywin_schema = t.schema
    arg = sides if len(sides) > 1 else sides[0]
    out = co_partition(arg, key_cols, _tag_call, num_buckets=num_buckets).to_pandas()

    assert BUCKET_COL not in out.columns
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


@pytest.mark.parametrize("empty_via", ["filter_expr", "pandas_udf"])
def test_co_partition_empty_side_changes_nothing(ray_session, empty_via):
    """A side filtered to zero rows: map_batches never calls its UDF on a
    zero-row block and passes the block on with no schema; the exchange
    must still return the other side's rows in the declared schema."""
    import ray.data

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
    empty._raywin_schema = right_t.schema
    left._raywin_schema = left_t.schema

    def left_rows(group: pa.Table) -> pa.Table:
        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        return group.filter(pa.array(side == 0)).select(["k", "ts"])

    with_empty = co_partition([left, empty], ["k"], left_rows, num_buckets=4).materialize()
    alone = co_partition(left, ["k"], lambda g: g, num_buckets=4).materialize()
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
    right._raywin_schema, left._raywin_schema = events.schema, queries.schema
    return left, right


def test_kernel_operator_keeps_its_name(ray_session):
    from raywin.pipelines.group_by import features_for_queries

    left, right = _tiny_sides()
    out = features_for_queries(_tiny_group_by(), left, num_buckets=2, right_ds=right).materialize()
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
    co_partition([left, right], ["k"], lambda g: g, num_buckets=3)
    features_for_queries(_tiny_group_by(), left, num_buckets=2, right_ds=right)
    # a single side past two filter(expr) seams: no static schema of its own
    group_by_upload(_tiny_group_by(path), batch_end_ts=25, num_buckets=2)


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
    """Ray's sort reducer converts a bucket to pandas when pandas blocks
    win its block-type vote (an empty pandas block rides map_batches
    untouched).  Map, list and nullable-int64 columns do not survive pandas
    inference, so the per-bucket adapter rebuilds the block against the
    declared schema: fn gets the same Arrow table either way, without
    BUCKET_COL."""
    from ray.data.block import BlockAccessor

    from raywin.stages.shuffle import _per_bucket

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
    block = want.append_column(BUCKET_COL, pa.array(np.full(len(want), 3, dtype=np.int32)))
    if block_type == "pandas":
        block = BlockAccessor.for_block(block).to_pandas()  # the reducer's conversion
        assert block["n"].dtype == np.float64  # inference alone would lose int64
    got = []
    _per_bucket(got.append, "pyarrow", want.schema)(block)
    assert isinstance(got[0], pa.Table)
    assert got[0].schema == want.schema
    assert got[0].equals(want)
