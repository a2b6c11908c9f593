"""ModelTransform batch scoring (reference ModelTransformBatchJob.scala /
ModelTransformsTest.scala — the MockModelBackend role is played by the
deterministic built-in backends)."""

import numpy as np
import pandas as pd
import pytest

from raywin.api import Model, ModelTransform, ModelTransforms
from raywin.stages.models import (
    HashEmbeddingModel,
    LinearModel,
    apply_model_transforms,
    register_model_backend,
)


def test_linear_model_links_and_imputation():
    m = LinearModel({"a": 2.0, "b": -1.0}, bias=0.5, link="identity")
    out = m.predict({"a": np.array([1.0, np.nan]), "b": np.array([3.0, 2.0])})["score"]
    assert np.allclose(out, [0.5 + 2.0 - 3.0, 0.5 + 0.0 - 2.0])

    s = LinearModel({"a": 1.0}, link="sigmoid").predict({"a": np.array([0.0, 100.0])})["score"]
    assert np.allclose(s, [0.5, 1.0])

    b = LinearModel({"a": 1.0}, bias=-2.0, link="binary").predict(
        {"a": np.array([1.0, 3.0])}
    )["score"]
    assert list(b) == [False, True]


def test_hash_embedding_deterministic_unit_norm():
    m = HashEmbeddingModel(dim=8, seed=3)
    texts = np.array(["the quick brown fox", "hello world", "", "hello world"], dtype=object)
    e1 = m.predict({"text": texts})["embedding"]
    e2 = HashEmbeddingModel(dim=8, seed=3).predict({"text": texts})["embedding"]
    assert all(np.array_equal(a, b) for a, b in zip(e1, e2))
    assert np.array_equal(e1[1], e1[3])  # same text -> same embedding
    assert np.allclose(np.linalg.norm(e1[0]), 1.0)
    assert np.allclose(e1[2], np.zeros(8))  # empty text -> zero vector
    assert not np.array_equal(e1[0], HashEmbeddingModel(dim=8, seed=4).predict(
        {"text": texts})["embedding"][0])  # seed matters


def test_end_to_end_scoring(ray_session, tmp_path):
    import ray.data

    df = pd.DataFrame(
        {
            "id": np.arange(100),
            "f1": np.linspace(-5, 5, 100),
            "f2": np.ones(100),
            "note": ["doc %d words here" % i for i in range(100)],
        }
    )
    ds = ray.data.from_pandas(df)
    mts = ModelTransforms(
        transforms=[
            ModelTransform(
                model=Model("m1", "linear", {"weights": {"x": 2.0}, "bias": 1.0}),
                input_mappings={"x": "f1"},
                output_mappings={"s": "score"},
                prefix="p",
            ),
            ModelTransform(
                model=Model("m2", "hash_embedding", {"dim": 4, "input": "note"}),
            ),
        ],
        passthrough_fields=["f2"],
    )
    out = apply_model_transforms(ds, mts, row_ids=["id"]).to_pandas().sort_values("id")
    assert sorted(out.columns) == ["embedding", "f2", "id", "p_s"]
    assert np.allclose(out["p_s"], 2.0 * df["f1"] + 1.0)
    assert all(len(e) == 4 for e in out["embedding"])


def test_object_ref_weights_and_registry(ray_session):
    import ray
    import ray.data

    big_weights = {"f1": 0.25}
    ref = ray.put(big_weights)
    ds = ray.data.from_pandas(pd.DataFrame({"id": [1, 2], "f1": [4.0, 8.0]}))
    mts = ModelTransforms(
        transforms=[
            ModelTransform(model=Model("m", "linear", {"weights": ref}))
        ]
    )
    out = apply_model_transforms(ds, mts, row_ids=["id"]).to_pandas().sort_values("id")
    assert np.allclose(out["score"], [1.0, 2.0])

    class Doubler:
        input_names = ["f1"]

        def predict(self, inputs):
            return {"twice": inputs["f1"] * 2}

    register_model_backend("doubler", lambda: Doubler())
    mts2 = ModelTransforms(transforms=[ModelTransform(model=Model("d", "doubler"))])
    out2 = apply_model_transforms(ds, mts2, row_ids=["id"]).to_pandas().sort_values("id")
    assert np.allclose(out2["twice"], [8.0, 16.0])

    with pytest.raises(Exception, match="not registered"):
        apply_model_transforms(
            ds,
            ModelTransforms(transforms=[ModelTransform(model=Model("x", "nope"))]),
            row_ids=["id"],
        ).materialize()


def test_join_with_model_transforms(ray_session, exchange_block_rows):
    """Join.model_transforms composes with backfill_join (row_ids required)."""
    from raywin.api import (
        Accuracy,
        Aggregation,
        EventSource,
        GroupBy,
        Join,
        JoinPart,
        Operation,
        Query,
        TimeUnit,
        Window,
    )
    from raywin.pipelines.join import backfill_join

    exchange_block_rows(512)
    sf = "/root/testdata/sf0.001"
    gb = GroupBy(
        sources=[EventSource(table=f"{sf}/events.parquet",
                             query=Query(selects={"user_id": "user_id", "value": "value"},
                                         time_column="epoch_ms(ts)"))],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.COUNT, "value", windows=[Window(7, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="u",
    )
    join = Join(
        left=EventSource(table=f"{sf}/events.parquet",
                         query=Query(selects={"event_id": "event_id", "user_id": "user_id"},
                                     time_column="epoch_ms(ts)")),
        join_parts=[JoinPart(group_by=gb)],
        row_ids=["event_id"],
        model_transforms=ModelTransforms(
            transforms=[ModelTransform(
                model=Model("m", "linear",
                            {"weights": {"u_value_count_7d": 1.0}, "bias": 0.0}),
                input_mappings={"u_value_count_7d": "u_value_count_7d"},
                output_mappings={"cnt_score": "score"},
            )],
        ),
        name="scored",
    )
    out = backfill_join(join).to_pandas()
    assert sorted(out.columns) == ["cnt_score", "event_id"]
    assert len(out) == 1000

    join.row_ids = None
    with pytest.raises(ValueError, match="row_ids"):
        backfill_join(join)
