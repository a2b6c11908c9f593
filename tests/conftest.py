import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def exchange_block_rows(monkeypatch):
    """Set the rows per co_partition input block for one test.  The
    exchange's sort has one output partition, and so one fn call, per input
    block: a huge value forces every key into one call; a small one cuts
    the sort's input into blocks of that many rows, so the keys spread over
    several calls however few blocks the sides arrive in."""
    from ray.data import Dataset

    from raywin.stages import shuffle

    sort = Dataset.sort

    def reblocked_sort(ds, key, *args, **kwargs):
        if key == shuffle.HASH_COL:
            ds = ds.repartition(target_num_rows_per_block=shuffle._BUNDLE_ROWS)
        return sort(ds, key, *args, **kwargs)

    def set_rows(rows):
        monkeypatch.setattr(shuffle, "_BUNDLE_ROWS", rows)
        monkeypatch.setattr(Dataset, "sort", reblocked_sort)

    return set_rows


@pytest.fixture
def count_executions(monkeypatch):
    """Record every Ray Data execution the test starts, as the list of its
    DAG's operator names (upstream first).  A schema probe is a DAG that
    ends in a ``limit=1`` operator."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    runs = []
    execute = StreamingExecutor.execute

    def names(op):
        return [n for dep in op.input_dependencies for n in names(dep)] + [op.name]

    def recording_execute(self, dag, *args, **kwargs):
        runs.append(names(dag))
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording_execute)
    return runs
