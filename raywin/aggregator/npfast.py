"""Prefix-sum and range helpers.

Historical note: this environment's page faults on fresh mmap regions are
~0.5-1 ms/page, which made every big numpy temporary (including cumsum
outputs) look catastrophically slow.  The real fix is the mallopt tuning in
``raywin/__init__`` (keep big allocations on the reusable brk heap); with
that in place numpy's native accumulate is fast, and these helpers are thin
wrappers kept as a single seam in case a platform needs polars/blocked
implementations again.
"""

from __future__ import annotations

import numpy as np


def cumsum1d(a: np.ndarray, dtype=None) -> np.ndarray:
    a = np.asarray(a)
    if a.dtype == bool:
        a = a.astype(np.int64 if dtype is None else dtype)
    elif dtype is not None and a.dtype != dtype:
        a = a.astype(dtype)
    return np.cumsum(a)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray, step: int = 1) -> np.ndarray:
    """concatenate(starts[i] + step * arange(lengths[i]) for every i): one
    arange over the output plus each range's base repeated over its length,
    which covers descending ranges (step=-1) too."""
    ends = lengths.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(0, step * total, step) + (starts - step * (ends - lengths)).repeat(lengths)
