"""Config validator + analyzer (reference repo/validator.py:318-522,
Analyzer.scala:116-190)."""

import pytest

from raywin.analyzer import analyze_group_by, validate_group_by, validate_join
from raywin.api import (
    Accuracy,
    Aggregation,
    Derivation,
    EntitySource,
    EventSource,
    GroupBy,
    Join,
    JoinPart,
    Model,
    ModelTransform,
    ModelTransforms,
    Operation,
    Query,
    TimeUnit,
    Window,
)

SF = "/root/testdata/sf0.001"


def _events_src(selects=None):
    return EventSource(
        table=f"{SF}/events.parquet",
        query=Query(
            selects=selects or {"user_id": "user_id", "value": "value"},
            time_column="epoch_ms(ts)",
        ),
    )


def _good_gb(**kw):
    defaults = dict(
        sources=[_events_src()],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="ok",
    )
    defaults.update(kw)
    return GroupBy(**defaults)


def test_valid_group_by_passes():
    assert validate_group_by(_good_gb()) == []


def test_group_by_failures():
    assert any("no sources" in e for e in validate_group_by(
        GroupBy(sources=[], key_columns=["k"], name="x")))

    gb = _good_gb(key_columns=["nope"])
    assert any("key column 'nope'" in e for e in validate_group_by(gb))

    gb = _good_gb(aggregations=[Aggregation(Operation.SUM, "missing_col")])
    assert any("'missing_col' not in source" in e for e in validate_group_by(gb))

    gb = _good_gb(aggregations=[Aggregation(
        Operation.AVERAGE, "etype")],
        sources=[_events_src({"user_id": "user_id", "etype": "event_type"})])
    assert any("non-numeric" in e for e in validate_group_by(gb))

    gb = _good_gb(aggregations=[Aggregation(Operation.SUM, "value", windows=[Window(0, TimeUnit.DAYS)])])
    assert any("window length" in e for e in validate_group_by(gb))

    gb = _good_gb(aggregations=[Aggregation(Operation.TOP_K, "value", arg_map={"k": 0})])
    assert any("must be positive" in e for e in validate_group_by(gb))

    # no-agg over events is not the passthrough form
    gb = _good_gb(aggregations=None)
    assert any("passthrough" in e for e in validate_group_by(gb))

    # TEMPORAL entities need mutations
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=f"{SF}/events.parquet")],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.SUM, "value")],
        accuracy=Accuracy.TEMPORAL,
        name="ent",
    )
    assert any("mutation_table" in e for e in validate_group_by(gb))

    # cumulative events need a time column
    gb = _good_gb(sources=[EventSource(table=f"{SF}/events.parquet", is_cumulative=True)])
    assert any("time_column" in e for e in validate_group_by(gb))

    # mixed source models
    gb = _good_gb(sources=[_events_src(), EntitySource(snapshot_table=f"{SF}/events.parquet")])
    assert any("mixes source types" in e for e in validate_group_by(gb))


def test_duplicate_output_columns_reported():
    """Two parts with one output name are a validation error naming the
    column, not a failure later in the plan's column selection."""
    src = _events_src({"user_id": "user_id", "value": "value", "etype": "event_type"})
    gb = _good_gb(sources=[src], aggregations=[
        Aggregation(Operation.BOUNDED_UNIQUE_COUNT, "etype", arg_map={"k": 3}),
        Aggregation(Operation.BOUNDED_UNIQUE_COUNT, "etype", arg_map={"k": 5}),
    ])
    errs = validate_group_by(gb, check_tables=False)
    assert errs == ["group_by 'ok': two aggregation parts both output column "
                    "'etype_bounded_unique_count'"]

    # an element-wise and an exploded AVERAGE of one list column
    gb = _good_gb(aggregations=[
        Aggregation(Operation.AVERAGE, "emb", element_wise=True),
        Aggregation(Operation.AVERAGE, "emb"),
        Aggregation(Operation.SUM, "emb", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
    ])
    errs = validate_group_by(gb, check_tables=False)
    assert [e for e in errs if "emb_" in e] == [
        "group_by 'ok': two aggregation parts both output column 'emb_average'"
    ]


def test_derivation_validation():
    gb = _good_gb(derivations=[Derivation("renamed", "not_a_column")])
    assert any("not found in pre-derived" in e for e in validate_group_by(gb))
    gb = _good_gb(derivations=[Derivation("d", "value_sum_7d * 2")])
    assert validate_group_by(gb) == []


def test_join_validation():
    left = _events_src({"event_id": "event_id", "user_id": "user_id"})
    good = Join(left=left, join_parts=[JoinPart(group_by=_good_gb())], name="j")
    assert validate_join(good) == []

    # key_mapping to a non-key
    j = Join(left=left, join_parts=[JoinPart(group_by=_good_gb(), key_mapping={"user_id": "bogus"})], name="j2")
    assert any("not a key of group_by" in e for e in validate_join(j))

    # group_by key missing on the left entirely
    gb2 = _good_gb(key_columns=["value"], name="vkey")
    j = Join(left=left, join_parts=[JoinPart(group_by=gb2)], name="j3")
    assert any("has no left column" in e for e in validate_join(j))

    # duplicate output columns (same group_by twice, no prefix)
    j = Join(left=left, join_parts=[JoinPart(group_by=_good_gb()), JoinPart(group_by=_good_gb())], name="j4")
    assert any("duplicate output column" in e for e in validate_join(j))
    # prefixes disambiguate
    j = Join(left=left, join_parts=[JoinPart(group_by=_good_gb(), prefix="a"),
                                    JoinPart(group_by=_good_gb(), prefix="b")], name="j5")
    assert validate_join(j) == []

    # model transforms / bootstrap need row_ids
    j = Join(left=left, join_parts=[JoinPart(group_by=_good_gb())], name="j6",
             model_transforms=ModelTransforms(transforms=[
                 ModelTransform(model=Model("m", "linear", {"weights": {}}))]))
    assert any("row_ids" in e for e in validate_join(j))

    # underlying group_by errors surface with context
    j = Join(left=left, join_parts=[JoinPart(group_by=_good_gb(key_columns=["nope"]))], name="j7")
    assert any("underlying" in e for e in validate_join(j))


def test_analyze_group_by(ray_session):
    rep = analyze_group_by(_good_gb())
    assert rep["errors"] == []
    assert rep["output_schema"] == {"value_sum_7d": "double"}
    assert "value" in rep["input_schema"]
    assert "hot_keys" in rep or "hot_keys_error" in rep


def test_explain_plan_shuffle_accounting():
    from raywin.analyzer import explain_plan
    from raywin.api import (
        Accuracy, Aggregation, BootstrapPart, EntitySource, EventSource,
        GroupBy, Join, JoinPart, Operation, Query, TimeUnit, Window,
    )

    gb = GroupBy(
        sources=[EventSource(table="/tmp/x.parquet", query=Query())],
        key_columns=["k"],
        aggregations=[Aggregation(Operation.SUM, "v", windows=[Window(7, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="g",
    )
    plan = explain_plan(gb)
    assert plan["shuffles"] == 1
    assert any("SHUFFLE" in s for s in plan["stages"])

    ent = GroupBy(
        sources=[EntitySource(snapshot_table="/tmp/s", mutation_table="/tmp/m", query=Query())],
        key_columns=["k"],
        aggregations=[Aggregation(Operation.SUM, "v")],
        accuracy=Accuracy.TEMPORAL,
        name="e",
    )
    assert explain_plan(ent)["shuffles"] == 1

    join = Join(
        left=EventSource(table="/tmp/x.parquet", query=Query()),
        join_parts=[JoinPart(group_by=gb)],
        row_ids=["id"],
        bootstrap_parts=[
            BootstrapPart(table="/tmp/b1.parquet", semantic_hash="h1"),
            BootstrapPart(table="/tmp/b2.parquet", semantic_hash="h2"),
        ],
        name="j",
    )
    plan = explain_plan(join)
    # 2 same-key bootstrap tables fuse into ONE shuffle + 1 part kernel pass
    assert plan["shuffles"] == 2
    assert any("fused into 1 same-key run" in s for s in plan["stages"])
    assert plan["broadcasts"]
