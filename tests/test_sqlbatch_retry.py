"""SqlBatch retries a DuckDB "Query interrupted" error on a fresh
connection.  Ray cancels an abandoned execution's tasks with SIGINT; in a
reused worker the signal can land while the next task is mid-query, and
DuckDB reports it as an interrupt (or Python raises KeyboardInterrupt).
These tests drive ``SqlBatch.__call__`` and a sharded StagingQuery's
statements in-process over stub connections from ``get_duckdb``, so they
fail if the retry loop is removed or the staging shards bypass it."""

import pyarrow as pa
import pytest

from raywin.stages import query

BATCH = pa.table({"x": [1, 2, 3]})
INTERRUPT = RuntimeError("INTERRUPT Error: Query interrupted")


class _Result:
    def __init__(self, table):
        self.table = table

    def fetch_arrow_table(self):
        return self.table


class _Con:
    """One stub connection: each execute takes the next outcome of the
    shared script, raising it if it is an exception."""

    def __init__(self, script):
        self.script = script
        self.executed = 0

    def register(self, name, table):
        pass

    def unregister(self, name):
        pass

    def execute(self, sql):
        self.executed += 1
        outcome = self.script.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return _Result(outcome)


@pytest.fixture
def stub_duckdb(monkeypatch):
    """Set the script of outcomes; returns the connections SqlBatch opens."""
    conns = []

    def install(*script):
        script = list(script)

        class _Module:
            @staticmethod
            def connect(path):
                conns.append(_Con(script))
                return conns[-1]

        monkeypatch.setattr(query, "get_duckdb", lambda: _Module)
        return conns

    return install


@pytest.mark.parametrize("first", [INTERRUPT, KeyboardInterrupt()], ids=["interrupted", "keyboard"])
def test_interrupt_retried_on_fresh_connection(stub_duckdb, first):
    answer = pa.table({"y": [6]})
    conns = stub_duckdb(first, answer)
    out = query.SqlBatch("SELECT sum(x) AS y FROM batch")(BATCH)
    assert out is answer
    assert len(conns) == 2, "the retry must open a fresh connection"
    assert [c.executed for c in conns] == [1, 1]


def test_other_error_raises_without_retry(stub_duckdb):
    conns = stub_duckdb(RuntimeError("Binder Error: column y not found"), pa.table({"y": [6]}))
    with pytest.raises(RuntimeError, match="Binder Error"):
        query.SqlBatch("SELECT y FROM batch")(BATCH)
    assert len(conns) == 1 and conns[0].executed == 1


def test_three_interrupts_propagate(stub_duckdb):
    conns = stub_duckdb(INTERRUPT, INTERRUPT, INTERRUPT, pa.table({"y": [6]}))
    with pytest.raises(RuntimeError, match="interrupted"):
        query.SqlBatch("SELECT sum(x) AS y FROM batch")(BATCH)
    assert len(conns) == 3


def test_staging_shard_retried_on_fresh_connection(stub_duckdb):
    """A sharded StagingQuery runs each date slice through SqlBatch: an
    interrupted statement re-opens the connection, which re-creates the
    table views before the statement runs again."""
    from raywin.pipelines.staging import StagingQuery, _shard_runner

    answer = pa.table({"n": [1]})
    view = pa.table({})
    conns = stub_duckdb(view, INTERRUPT, view, answer)
    sq = StagingQuery(query="SELECT count(*) AS n FROM t WHERE d BETWEEN '{{ start_date }}' AND '{{ end_date }}'")
    run = _shard_runner(sq, {"t": "t.parquet"})
    out = run(pa.table({"start": ["1995-01-01"], "end": ["1995-01-07"]}))
    assert out is answer
    assert [c.executed for c in conns] == [2, 2]
