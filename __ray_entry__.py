"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``       — flagship image feature backfill on a deterministic
                      synthetic image+caption event table (BASELINE shape)
                      plus the sf0.001 as-of core features.
- ``queries()``     — one callable per implemented operator/pipeline.
- ``oracle_sql()``  — matching DuckDB SQL for the SQL-expressible ones.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from raywin.pipelines import catalog


def entry() -> Any:
    """Flagship pipeline: point-in-time image feature backfill (decode +
    invariant checks + sawtooth temporal aggregation), small deterministic
    input; returns a ray.data.Dataset."""
    return catalog.image_backfill_small("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    return {name: fn for name, (fn, _sql) in catalog.ORACLE_QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    # entries may be lazy (callables returning SQL) when the SQL embeds
    # fixture paths that must exist first
    return {
        name: (sql() if callable(sql) else sql)
        for name, (_fn, sql) in catalog.ORACLE_QUERIES.items()
    }
