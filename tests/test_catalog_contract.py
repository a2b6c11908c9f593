"""The catalog's ordering contract (module docstring of
raywin/pipelines/catalog.py), read from the source: no Ray run."""

import inspect
import re

from raywin.api import Operation
from raywin.pipelines import catalog
from raywin.pipelines.images import image_feature_group_by


def _registered_source() -> str:
    """The source of every registered query function, plus the flagship's
    GroupBy, which image_backfill builds through image_feature_backfill."""
    fns = {fn for fn, _sql in catalog.ORACLE_QUERIES.values()}
    return "\n".join(inspect.getsource(fn) for fn in fns) + inspect.getsource(
        image_feature_group_by
    )


def test_one_literal_of_at_most_50_flagship_first():
    module = inspect.getsource(catalog)
    assert module.count("ORACLE_QUERIES = {") == 1
    assert re.search(r"ORACLE_QUERIES(\.update|\[)", module) is None
    names = list(catalog.ORACLE_QUERIES)
    assert len(names) <= 50
    assert names[:2] == ["image_backfill", "image_backfill_skew"]


def test_every_operator_family_in_a_registered_group_by():
    src = _registered_source()
    missing = [op.name for op in Operation if not re.search(rf"Operation\.{op.name}\b", src)]
    assert missing == []
    assert "buckets=" in src
    assert "element_wise=True" in src
