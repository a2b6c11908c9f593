"""Worker-death fault injection: Ray's task lineage must re-execute a stage
whose worker dies mid-run, and the retried pipeline's output must be EXACTLY
the output of a clean run (deterministic stages, so lineage reconstruction
is invisible).  This is the single-node stand-in for the north rule's
multi-node resilience: a lost node kills tasks the same way os._exit does —
system failure, retried by Ray's default task retry, unlike application
exceptions which fail the dataset."""

import os

import pandas as pd
import pyarrow as pa

SF_DIR = "/root/testdata/sf0.001"


class _DieOnce:
    """map_batches fn whose FIRST task attempt (across all worker processes,
    coordinated by an O_EXCL marker file on the shared single-node fs) kills
    its worker with os._exit — a real worker death, not an exception."""

    def __init__(self, marker: str):
        self.marker = marker

    def __call__(self, batch: pa.Table) -> pa.Table:
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)  # first attempt only: marker now exists for retries
        except FileExistsError:
            pass
        return batch


def _asof_pipeline(flaky_marker: str | None):
    import ray.data

    from raywin.api import Accuracy, Aggregation, EventSource, GroupBy, Operation, Query, TimeUnit, Window
    from raywin.pipelines.group_by import features_for_queries, scan_source

    gb = GroupBy(
        sources=[
            EventSource(
                table=f"{SF_DIR}/events.parquet",
                query=Query(
                    selects={"user_id": "user_id", "value": "value"},
                    time_column="epoch_ms(ts)",
                ),
            )
        ],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "value", windows=[Window(7, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="ft_features",
    )
    left = ray.data.read_parquet(
        f"{SF_DIR}/events.parquet", columns=["user_id", "ts"]
    ).map_batches(
        lambda df: df.assign(ts=df["ts"].astype("int64") // 1000).drop_duplicates(),
        batch_format="pandas",
    )
    right = scan_source(gb.sources[0])
    if flaky_marker is not None:
        right = right.map_batches(_DieOnce(flaky_marker), batch_format="pyarrow")
    return features_for_queries(gb, left, right_ds=right)


def test_worker_death_is_invisible(ray_session, exchange_block_rows, tmp_path):
    exchange_block_rows(256)
    clean = (
        _asof_pipeline(None)
        .to_pandas()
        .sort_values(["user_id", "ts"])
        .reset_index(drop=True)
    )
    marker = str(tmp_path / "die_once")
    retried = (
        _asof_pipeline(marker)
        .to_pandas()
        .sort_values(["user_id", "ts"])
        .reset_index(drop=True)
    )
    assert os.path.exists(marker), "fault was never injected"
    pd.testing.assert_frame_equal(clean, retried)
