"""External sources: registry semantics + offline resolution paths
(reference ExternalSourceRegistry.scala, Join.scala padExternalFields)."""

import numpy as np
import pyarrow as pa
import pytest

from raywin.api import ContextualSource, ExternalPart, ExternalSource, Join, Query, EventSource
from raywin.stages.external import ExternalSourceRegistry, enrich_external

SF = "/root/testdata/sf0.001"


def _left_ds():
    import ray.data

    return ray.data.read_parquet(
        f"{SF}/events.parquet", columns=["event_id", "user_id"]
    )


def test_registry_rejects_duplicates():
    reg = ExternalSourceRegistry()
    reg.add("a", lambda k: k, pure=True)
    with pytest.raises(ValueError):
        reg.add("a", lambda k: k)


def test_impure_handler_not_replayed_offline(ray_session):
    """A handler not marked pure must NOT be replayed offline — the part
    null-pads instead (offline truth would have to come from logs)."""
    reg = ExternalSourceRegistry()
    reg.add("rng", lambda keys: pa.table({"v": np.ones(len(keys))}), pure=False)
    join = Join(
        left=None,
        join_parts=[],
        online_external_parts=[
            ExternalPart(ExternalSource("rng", {"user_id": "long"}, {"v": "double"}))
        ],
        name="t",
    )
    out, names = enrich_external(
        _left_ds(), join, ["event_id", "user_id"], registry=reg
    )
    assert names == ["event_id", "user_id", "ext_rng_v"]
    df = out.to_pandas()
    assert df["ext_rng_v"].isna().all()


def test_pure_handler_replayed(ray_session):
    reg = ExternalSourceRegistry()
    reg.add(
        "sq",
        lambda keys: pa.table({"sq": keys["uid"].to_numpy() ** 2}),
        pure=True,
    )
    join = Join(
        left=None,
        join_parts=[],
        online_external_parts=[
            ExternalPart(
                ExternalSource("sq", {"uid": "long"}, {"sq": "long"}),
                key_mapping={"user_id": "uid"},  # left user_id -> source uid
            )
        ],
        name="t",
    )
    out, names = enrich_external(
        _left_ds(), join, ["event_id", "user_id"], registry=reg
    )
    assert names[-1] == "ext_sq_sq"
    df = out.to_pandas()
    assert (df["ext_sq_sq"] == df["user_id"] ** 2).all()


def test_missing_key_raises_but_contextual_null_fills(ray_session):
    join = Join(
        left=None,
        join_parts=[],
        online_external_parts=[
            ExternalPart(ExternalSource("x", {"nope": "long"}, {"v": "long"}))
        ],
        name="t",
    )
    reg = ExternalSourceRegistry()
    with pytest.raises(KeyError):
        enrich_external(_left_ds(), join, ["event_id", "user_id"], registry=reg)

    # contextual with a missing key: null-fill (Extensions.scala:719-722)
    join2 = Join(
        left=None,
        join_parts=[],
        online_external_parts=[ExternalPart(ContextualSource({"nope": "long"}))],
        name="t2",
    )
    out, names = enrich_external(
        _left_ds(), join2, ["event_id", "user_id"], registry=reg
    )
    assert names[-1] == "ext_contextual_nope"
    assert out.to_pandas()["ext_contextual_nope"].isna().all()
