"""Bootstrap parts + covering sets (reference Join.scala:464-558,136-217,
tested like spark/src/test/.../bootstrap/):

- rows fully covered by a bootstrap part keep bootstrap values verbatim and
  skip the part's kernel,
- partially covered rows compute, then coalesce bootstrap over computed,
- uncovered rows compute normally,
- the matched-hashes metadata column never reaches the output.
"""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raywin.api import (
    Accuracy,
    Aggregation,
    BootstrapPart,
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

BASE = 1_600_000_000_000
HOUR = 3600 * 1000
DAY = 24 * HOUR

SUM_COL = "p1_usersum_value_sum_7d"
CNT_COL = "p1_usersum_value_count_7d"


@pytest.fixture(scope="module")
def fixture_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bootstrap")
    rng = np.random.default_rng(5)
    n = 400
    ev = pd.DataFrame(
        {
            "row_id": np.arange(n, dtype=np.int64),
            "user": rng.integers(0, 8, n).astype(str),
            "ts": BASE + rng.integers(0, 20 * DAY, n),
            "value": np.round(rng.normal(50, 20, n), 2),
        }
    )
    events = str(root / "events.parquet")
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False), events)

    # bootstrap A: covers BOTH part outputs for row_id % 3 == 0
    a = ev[ev["row_id"] % 3 == 0][["row_id"]].copy()
    a[SUM_COL] = -1000.0 - a["row_id"]
    a[CNT_COL] = (10_000 + a["row_id"]).astype("int64")
    bs_a = str(root / "bs_a.parquet")
    pq.write_table(pa.Table.from_pandas(a, preserve_index=False), bs_a)

    # bootstrap B: provides ONLY the sum for row_id % 3 == 1 (not covering)
    b = ev[ev["row_id"] % 3 == 1][["row_id"]].copy()
    b[SUM_COL] = -5000.0 - b["row_id"]
    bs_b = str(root / "bs_b.parquet")
    pq.write_table(pa.Table.from_pandas(b, preserve_index=False), bs_b)
    return events, bs_a, bs_b, ev


def _join(events, bs_a, bs_b):
    gb = GroupBy(
        sources=[
            EventSource(
                table=events,
                query=Query(selects={"user": "user", "value": "value"}, time_column="ts"),
            )
        ],
        key_columns=["user"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "value", windows=[Window(7, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="usersum",
    )
    return Join(
        left=EventSource(
            table=events,
            query=Query(
                selects={"row_id": "row_id", "user": "user"}, time_column="ts"
            ),
        ),
        join_parts=[JoinPart(group_by=gb, prefix="p1")],
        row_ids=["row_id"],
        bootstrap_parts=[
            BootstrapPart(table=bs_a, semantic_hash="bsA"),
            BootstrapPart(table=bs_b, semantic_hash="bsB"),
        ],
        name="bootstrap_join",
    )


def test_bootstrap_covering(ray_session, exchange_block_rows, fixture_dirs):
    exchange_block_rows(128)
    events, bs_a, bs_b, ev = fixture_dirs
    out = backfill_join(_join(events, bs_a, bs_b)).to_pandas()
    assert len(out) == len(ev)
    assert "__matched_hashes" not in out.columns

    con = duckdb.connect()
    con.execute(f"CREATE VIEW e AS SELECT * FROM '{events}'")
    oracle = con.execute(
        f"""
        SELECT l.row_id,
          CAST(sum(CAST(round(r.value*100) AS BIGINT)) FILTER (
            WHERE r.ts < l.ts AND r.ts >= (l.ts - {7 * DAY})//{HOUR}*{HOUR}
          ) AS DOUBLE)/100.0 AS sum7,
          nullif(count(r.value) FILTER (
            WHERE r.ts < l.ts AND r.ts >= (l.ts - {7 * DAY})//{HOUR}*{HOUR}
          ), 0) AS cnt7
        FROM e l LEFT JOIN e r ON r.user = l.user
        GROUP BY l.row_id, l.ts
        """
    ).df().set_index("row_id")

    got = out.set_index("row_id")
    for rid in ev["row_id"]:
        g_sum, g_cnt = got.loc[rid, SUM_COL], got.loc[rid, CNT_COL]
        o_sum, o_cnt = oracle.loc[rid, "sum7"], oracle.loc[rid, "cnt7"]
        if rid % 3 == 0:  # fully covered: bootstrap verbatim
            assert g_sum == -1000.0 - rid
            assert g_cnt == 10_000 + rid
        elif rid % 3 == 1:  # partial: bootstrap sum wins, count computed
            assert g_sum == -5000.0 - rid
            assert (pd.isna(g_cnt) and pd.isna(o_cnt)) or g_cnt == o_cnt
        else:  # uncovered: computed
            assert (pd.isna(g_sum) and pd.isna(o_sum)) or g_sum == pytest.approx(
                o_sum, abs=1e-9
            )
            assert (pd.isna(g_cnt) and pd.isna(o_cnt)) or g_cnt == o_cnt


def test_bootstrap_requires_row_ids(fixture_dirs):
    events, bs_a, _, _ = fixture_dirs
    j = _join(events, bs_a, bs_a)
    j.row_ids = None
    from raywin.pipelines.bootstrap import _part_keys

    with pytest.raises(ValueError):
        _part_keys(j.bootstrap_parts[0], j)
