"""Scalar (row-at-a-time) aggregator contract: prepare/update/merge/finalize,
optional delete for abelian-group ops.

These are the reference-parity semantics (reference
aggregator/src/main/scala/ai/chronon/aggregator/base/SimpleAggregators.scala and
TimedAggregators.scala), used by the brute-force oracle, the object-IR hop-tile
engine for non-vectorizable ops, and property tests.  The offline kernel
(``kernel.py``) picks its vectorized engine for a part from what its op
declares (``timed``, ``ufunc``); these classes define ground truth.

Semantics notes (verified against the reference):
  * empty IR is ``None``; finalize(None) -> None (NaiveAggregator initializes
    results to null and only updates on window match).
  * AVERAGE finalize = sum / count (SimpleAggregators.scala:146-147).
  * VARIANCE is the population variance m2 / n via Welford
    (SimpleAggregators.scala:196-247).
  * SKEW = sqrt(n) * m3 / m2^1.5, NaN when n < 3 or m2 == 0; KURTOSIS =
    n * m4 / m2^2 - 3, NaN when n < 4 or m2 == 0
    (SimpleAggregators.scala:977-983).
  * LAST_K output is ordered most-recent-first; FIRST_K oldest-first
    (TimedAggregators.scala:117-183).
  * BOUNDED_UNIQUE_COUNT saturates at k and reports k
    (SimpleAggregators.scala:603-708).
  * HISTOGRAM counts per string key; delete decrements and drops zeros
    (SimpleAggregators.scala:250-322).
"""

from __future__ import annotations

import copy
import json
import math
from typing import NamedTuple

import numpy as np

from ..api import AggregationPart, Operation


class Segments(NamedTuple):
    """The groups of one part's scan (ScalarOp.scan_segments, scan_parts).
    Group g merges heads[collapsed[g]] (when collapsed[g] >= 0), then
    heads[tile[g]:tile[g] + n_tiles[g]] in that order, then folds the
    values from vals[ev_start[g]] on.  q_group is each stop's group,
    non-decreasing, and every group has a stop; a group's stops are
    non-decreasing counts of its values folded, as in ScalarOp.scan."""

    collapsed: np.ndarray
    tile: np.ndarray
    n_tiles: np.ndarray
    ev_start: np.ndarray
    q_group: np.ndarray


class Fold(NamedTuple):
    """One running fold of a part's groups (ScalarOp.folds): ufunc (np.add,
    np.minimum or np.maximum) along each group's row of heads, then vals,
    both 1-D arrays of one dtype.  (ufunc, dtype) is the fold's channel:
    scan_parts runs every part's folds of one channel in one pass."""

    ufunc: np.ufunc
    heads: np.ndarray
    vals: np.ndarray


class ScalarOp:
    """prepare/update/merge/finalize contract. IRs are plain Python values."""

    deletable = False
    timed = False  # update receives (ir, value, ts)
    # True when merge results depend on merge ORDER/grouping (lossy sketches:
    # a different fold shape yields a different — equally valid — sketch).
    # Engines that reorder merges for speed must keep these on a fixed
    # ascending fold so results are reproducible run to run.
    order_sensitive = False
    # np.add for the sums (a window is a prefix difference), np.minimum or
    # np.maximum for the extrema (a window is a SegTree query); None when
    # the IR is not one running ufunc
    ufunc = None

    def prepare(self, v, ts=None):
        raise NotImplementedError

    def update(self, ir, v, ts=None):
        raise NotImplementedError

    def merge(self, ir1, ir2):
        raise NotImplementedError

    def finalize(self, ir):
        return ir

    def delete(self, ir, v, ts=None):
        raise NotImplementedError(f"{type(self).__name__} is not deletable")

    def clone(self, ir):
        """A copy of ir that merge/update may mutate without touching ir."""
        return copy.deepcopy(ir)

    def scan(self, acc, vals, ts, stops):
        """Finalized values after folding the first stops[i] of (vals, ts)
        onto acc, for a non-decreasing int array stops.  vals are non-null and
        ts-ascending; acc may be None and is never mutated.  This default is
        the sequential prepare/update fold; overrides must return the same
        values bit for bit."""
        out = []
        j = 0
        if acc is not None and len(stops) and stops[-1] > 0:
            acc = self.clone(acc)
        for stop in stops:
            while j < stop:
                v = vals[j]
                t = int(ts[j])
                j += 1
                acc = self.prepare(v, t) if acc is None else self.update(acc, v, t)
            if acc is None:
                out.append(None)
            else:
                r = self.finalize(acc)
                if r is acc:  # finalize aliases the live IR (Sum/TopK/...)
                    r = copy.copy(r)
                out.append(r)
        return out

    def ir_array(self, irs):
        """irs as the array folds() reads, or None when the IRs must be
        merged one by one (this default)."""
        return None

    def folds(self, heads, vals, stops):
        """The Folds whose runs answer scan_segments(heads, vals, ts, segs,
        stops) (answer() turns them into values), or None when heads and
        vals do not fold exactly as numpy arrays of one dtype, as with this
        default: scan_segments then answers."""
        return None

    def answer(self, runs, ok):
        """The answers from the runs of folds() at every stop: ok marks the
        stops that folded anything, None elsewhere."""
        return _answers(runs[0], ok)

    def scan_segments(self, heads, vals, ts, segs: Segments, stops):
        """scan for many groups at once: per group (see Segments), the
        finalized fold at each of its stops, starting from the merge of its
        heads.  heads holds IRs (or the rows of an ir_array) and is never
        mutated.  Returns the answers aligned with stops.  It merges clones
        of each group's heads and runs scan on it; scan_parts calls it for
        the parts it cannot fold as numpy channels."""
        out = []
        qb = np.searchsorted(segs.q_group, np.arange(len(segs.ev_start) + 1)).tolist()
        for g, (c, t0, nt, e0) in enumerate(zip(
                segs.collapsed.tolist(), segs.tile.tolist(), segs.n_tiles.tolist(),
                segs.ev_start.tolist())):
            acc = None if c < 0 else self.clone(heads[c])
            for i in range(t0, t0 + nt):
                piece = self.clone(heads[i])
                acc = piece if acc is None else self.merge(acc, piece)
            st = stops[qb[g]:qb[g + 1]]
            e1 = e0 + int(st[-1])
            out.extend(self.scan(acc, vals[e0:e1], ts[e0:e1], st))
        return out

    def fold_segments(self, vals, ts, starts):
        """IRs of the contiguous non-empty segments [starts[i], starts[i+1])
        of (vals, ts): non-null rows only, ts-ascending within a segment.
        This default is the sequential prepare/update fold; the vectorized
        overrides (segmented ``ufunc.reduceat``) sum floats pairwise, so
        they may differ from it in the last ulp."""
        out = []
        for s, e in zip(starts.tolist(), np.append(starts[1:], len(vals)).tolist()):
            ir = self.prepare(vals[s], int(ts[s]))
            for i in range(s + 1, e):
                ir = self.update(ir, vals[i], int(ts[i]))
            out.append(ir)
        return out


def _seg_ok(vals) -> bool:
    return isinstance(vals, np.ndarray) and vals.dtype.kind in "fiub"


# dtypes whose numpy arithmetic is the same IEEE/int64 operation, in the
# same order, as the sequential Python fold over their elements
_SCAN_DTYPES = (np.dtype(np.float64), np.dtype(np.int64))


def _accumulate(ufunc, acc, vals, stops, same_dtype=False):
    """ufunc.accumulate over [acc] + vals[:stops[-1]] (acc omitted when
    None), or None when the dtypes do not make it exact: the caller then
    runs the sequential fold.  same_dtype: acc must share vals' dtype (a
    selection, unlike an addition, keeps its operand's type)."""
    if not (isinstance(vals, np.ndarray) and vals.dtype in _SCAN_DTYPES):
        return None
    head = vals[: int(stops[-1]) if len(stops) else 0]
    if acc is not None:
        a = np.asarray(acc)
        if a.dtype not in _SCAN_DTYPES or (same_dtype and a.dtype != vals.dtype):
            return None
        head = np.concatenate((a[None], head))
    return ufunc.accumulate(head)


def _at_stops(acc, run, stops):
    """Scan output from run[i] = fold of acc (if any) and the first i+1
    values: stop 0 is acc itself."""
    off = 0 if acc is None else 1
    return [acc if s == 0 else run[s - 1 + off] for s in stops.tolist()]


def _signed_zeros(run) -> bool:
    """True when run mixes 0.0 and -0.0, the one case where np.minimum/
    np.maximum can keep a different zero than the fold's strict comparison
    (the first such step leaves both zeros in run)."""
    if run is None or run.dtype.kind != "f":
        return False
    z = run[run == 0]
    return len(z) > 1 and np.signbit(z).any() and not np.signbit(z).all()


def _scalar_array(irs):
    """Scalar IRs as one float64 or int64 array, or None when they are not
    all floats or all ints that fit int64 (a fold over mixed or other
    types is not the same arithmetic)."""
    kinds = set(map(type, irs))
    if kinds <= {float, np.float64}:
        return np.array(irs, dtype=np.float64)
    if kinds <= {int, np.int64}:
        try:
            return np.array(irs, dtype=np.int64)
        except OverflowError:
            return None
    return None


def _row_dtype(heads, vals, stops):
    """The one dtype of the heads and the values a scan folds, or None when
    they are not all one of _SCAN_DTYPES (the caller then takes the default
    path).  An accumulate over one float64 or int64 row is the same
    sequential arithmetic as the fold."""
    dtype = None
    if len(heads):
        # a list of IRs has no dtype (and None == np.dtype(float64) holds)
        if not isinstance(heads, np.ndarray) or heads.dtype not in _SCAN_DTYPES:
            return None
        dtype = heads.dtype
    if len(stops) and stops.max() > 0:
        if vals.dtype not in _SCAN_DTYPES or dtype not in (None, vals.dtype):
            return None
        dtype = vals.dtype
    return np.dtype(np.float64) if dtype is None else dtype


# A segmented scan pads its rows into matrices of at most twice their real
# cells, or of this many cells when that is more (a few more padded cells
# cost less than another matrix)
_DENSE_CELLS = 4096
# and keeps a matrix within this many cells (one row at least)
_MAX_CELLS = 1 << 20


def _row_bins(n_tiles, n_events):
    """The matrices a segmented scan pads its rows into: [(groups, tiles
    width, events width)], groups None for all of them.  A row is a cell
    for the collapsed IR, then tile cells, then event cells.  One matrix
    when its cells stay within max(2x the real cells, _DENSE_CELLS); else,
    longest rows first, a matrix takes the next row while that holds for
    its own rows and it stays within _MAX_CELLS (one row at least), so
    padding never costs more than twice the real cells plus _DENSE_CELLS
    per matrix."""
    size = 1 + n_tiles + n_events
    tw, ew = int(n_tiles.max(initial=0)), int(n_events.max(initial=0))
    if len(size) * (1 + tw + ew) <= max(2 * int(size.sum()), _DENSE_CELLS):
        return [(None, tw, ew)]
    order = (-size).argsort(kind="stable")
    ts, es = n_tiles[order].tolist(), n_events[order].tolist()
    bins, i = [], 0
    while i < len(ts):
        tw = ew = real = 0
        j = i
        while j < len(ts):
            t, e = max(tw, ts[j]), max(ew, es[j])
            cells = (j - i + 1) * (1 + t + e)
            if j > i and cells > min(max(2 * (real + 1 + ts[j] + es[j]), _DENSE_CELLS), _MAX_CELLS):
                break
            tw, ew, real, j = t, e, real + 1 + ts[j] + es[j], j + 1
        bins.append((order[i:j], tw, ew))
        i = j
    return bins


def _identity(ufunc, dtype):
    """The value ufunc folds to a no-op, bit for bit: -0.0 (not 0.0) for a
    float sum (an int64 sum takes _prefix_sums), the extreme of the dtype
    for min and max."""
    if ufunc is np.add:
        return -0.0
    if dtype.kind == "f":
        return np.inf if ufunc is np.minimum else -np.inf
    return np.iinfo(dtype).max if ufunc is np.minimum else np.iinfo(dtype).min


def scan_parts(parts) -> list:
    """op.scan_segments(heads, vals, ts, segs, stops) for each (op, heads,
    vals, ts, segs, stops) of parts, bit for bit.  The Folds of all parts
    that share a channel run as one: their rows are stacked into one
    _scan_rows pass, or one pass of prefix sums for an int64 sum (int64
    addition wraps associatively, so its order does not change a bit).
    Rows are independent, so stacking changes no answer.  A part without
    folds, or with one in a channel that fails its check, is answered by
    its scan_segments."""
    folds = [op.folds(h, v, st) for op, h, v, _, _, st in parts]
    channels = {}
    for i, fs in enumerate(folds):
        for j, f in enumerate(fs or ()):
            channels.setdefault((f.ufunc, f.heads.dtype), []).append((i, j))
    runs = [[None] * len(fs) if fs else None for fs in folds]
    oks = [None] * len(parts)
    for (ufunc, dtype), members in channels.items():
        heads, vals, segs, stops = _stack([(folds[i][j], *parts[i][4:]) for i, j in members])
        if ufunc is np.add and dtype == np.int64:
            run = _prefix_sums(heads, vals, segs, stops)
        else:
            run = _scan_rows(ufunc, heads, vals, segs, stops,
                             signed_zeros=dtype.kind == "f" and ufunc is not np.add)
        if run is None:
            for i, _ in members:
                runs[i] = None
            continue
        ok = ((segs.collapsed >= 0) | (segs.n_tiles > 0))[segs.q_group] | (stops > 0)
        at = 0
        for i, j in members:
            n = len(parts[i][5])
            if runs[i] is not None:
                runs[i][j], oks[i] = run[at:at + n], ok[at:at + n]
            at += n
    return [op.scan_segments(h, v, ts, segs, stops) if r is None else op.answer(r, ok)
            for (op, h, v, ts, segs, stops), r, ok in zip(parts, runs, oks)]


def _stack(items):
    """One channel's (Fold, Segments, stops) items as one: their heads and
    values one after another (a values array several folds read is taken
    once), each item's segments moved to its rows and its groups numbered
    after the previous items'."""
    if len(items) == 1:
        f, segs, stops = items[0]
        return f.heads, f.vals, segs, stops
    vals, at = [], {}
    offsets, n_groups, n_stops = [], [], []  # per item: heads, values, groups before it
    n_h = n_v = n_g = 0
    for f, segs, stops in items:
        if id(f.vals) not in at:
            at[id(f.vals)] = n_v
            vals.append(f.vals)
            n_v += len(f.vals)
        offsets.append((n_h, at[id(f.vals)], n_g))
        n_groups.append(len(segs.ev_start))
        n_stops.append(len(stops))
        n_h += len(f.heads)
        n_g += n_groups[-1]
    offsets = np.array(offsets)
    h_off, v_off = offsets[:, :2].repeat(n_groups, axis=0).T
    collapsed, tile, n_tiles, ev_start, q_group = (
        np.concatenate(c) for c in zip(*(segs for _, segs, _ in items)))
    return (
        np.concatenate([f.heads for f, _, _ in items]), np.concatenate(vals),
        Segments(np.where(collapsed >= 0, collapsed + h_off, -1), tile + h_off, n_tiles,
                 ev_start + v_off, q_group + offsets[:, 2].repeat(n_stops)),
        np.concatenate([stops for _, _, stops in items]),
    )


def _prefix_sums(heads, vals, segs, stops):
    """An int64 sum at every stop: the group's heads plus its values up to
    the stop, each a difference of prefix sums."""
    h = np.concatenate(([0], heads.cumsum()))
    v = np.concatenate(([0], vals.cumsum()))
    base = (h[segs.tile + segs.n_tiles] - h[segs.tile]
            + np.where(segs.collapsed >= 0, h[segs.collapsed + 1] - h[segs.collapsed], 0))
    # a fold whose stops are all 0 may read no values (then ev_start
    # points past them)
    e0 = np.minimum(segs.ev_start[segs.q_group], len(vals))
    return base[segs.q_group] + v[e0 + stops] - v[e0]


def _scan_rows(ufunc, heads, vals, segs, stops, signed_zeros=False):
    """ufunc.accumulate along every group's row: its collapsed IR, its
    tiles, then its values up to its last stop.  heads and vals are 1-D
    arrays of one dtype.  Rows go into _row_bins matrices of [collapsed |
    tiles | values] blocks, missing cells are the fold's identity, and a
    query's answer is the cell after its stop.  Returns the run at each
    query, or None when signed_zeros is set and a row's run mixes 0.0 and
    -0.0."""
    dtype = heads.dtype
    ident = _identity(ufunc, dtype)
    n_groups, q_group = len(segs.ev_start), segs.q_group
    has_c = segs.collapsed >= 0
    last = stops[q_group.searchsorted(np.arange(1, n_groups + 1)) - 1]
    out = np.zeros(len(stops), dtype=dtype)

    def block(src, starts, width, counts):
        # rows of src[starts + j] for j < width; cells at j >= counts are
        # the identity (counts None: left as read, never used)
        if not (width and len(src)):
            return np.full((len(starts), width), ident, dtype=dtype)
        j = np.arange(width)
        m = src.take(starts[:, None] + j, mode="clip")
        return m if counts is None else np.where(j < counts[:, None], m, ident)

    for gs, t_width, e_width in _row_bins(segs.n_tiles, last):
        qi, qg, sub = slice(None), q_group, slice(None)
        if gs is not None:
            rank = np.full(n_groups, -1, dtype=np.int64)
            rank[gs] = np.arange(len(gs))
            qi = (rank[q_group] >= 0).nonzero()[0]
            qg, sub = rank[q_group[qi]], gs
        cs = segs.collapsed[sub]
        c = heads[cs] if len(heads) else np.zeros(len(cs), dtype=dtype)
        m = np.concatenate((
            np.where(has_c[sub], c, ident)[:, None],
            block(heads, segs.tile[sub], t_width, segs.n_tiles[sub]),
            block(vals, segs.ev_start[sub], e_width, last[sub] if signed_zeros else None),
        ), axis=1)
        run = ufunc.accumulate(m, axis=1)
        if signed_zeros:
            z = run == 0
            if z.any():
                neg = z & np.signbit(run)
                if (neg.any(axis=1) & (z & ~neg).any(axis=1)).any():
                    return None
        out[qi] = run[qg, t_width + stops[qi]]
    return out


def _typed(heads, dtype):
    """heads as an array: an empty one of dtype when there are none (heads
    may then be an empty list)."""
    return heads if len(heads) else np.zeros(0, dtype=dtype)


def _as(vals, dtype):
    """The values a fold of dtype reads: vals, or none when they have
    another dtype (_row_dtype allows that only when no stop reads one)."""
    return vals if vals.dtype == dtype else np.zeros(0, dtype=dtype)


def _answers(run, ok):
    """Object array of run's values where ok, None elsewhere."""
    out = np.empty(len(ok), dtype=object)  # all None
    out[ok] = run[ok]
    return out


class Sum(ScalarOp):
    deletable = True
    ufunc = np.add

    def prepare(self, v, ts=None):
        return v

    def update(self, ir, v, ts=None):
        return ir + v

    def merge(self, ir1, ir2):
        return ir1 + ir2

    def delete(self, ir, v, ts=None):
        return ir - v

    def clone(self, ir):
        return ir

    def scan(self, acc, vals, ts, stops):
        # accumulate is a strictly sequential fold: bitwise equal to
        # acc + v0 + v1 + ... (reduceat and prefix-sum differences are not)
        run = _accumulate(np.add, acc, vals, stops)
        if run is None:
            return super().scan(acc, vals, ts, stops)
        return _at_stops(acc, run, stops)

    def ir_array(self, irs):
        return _scalar_array(irs)

    def folds(self, heads, vals, stops):
        dt = _row_dtype(heads, vals, stops)
        return None if dt is None else [Fold(self.ufunc, _typed(heads, dt), _as(vals, dt))]

    def fold_segments(self, vals, ts, starts):
        if not _seg_ok(vals):
            return super().fold_segments(vals, ts, starts)
        return list(np.add.reduceat(vals, starts)) if len(vals) else []


class Count(ScalarOp):
    deletable = True
    ufunc = np.add

    def prepare(self, v, ts=None):
        return 1

    def update(self, ir, v, ts=None):
        return ir + 1

    def merge(self, ir1, ir2):
        return ir1 + ir2

    def delete(self, ir, v, ts=None):
        return ir - 1

    def clone(self, ir):
        return ir

    def scan(self, acc, vals, ts, stops):
        return [acc if s == 0 else (s if acc is None else acc + s) for s in stops.tolist()]

    def ir_array(self, irs):
        arr = _scalar_array(irs)
        return arr if arr is not None and arr.dtype == np.int64 else None

    def folds(self, heads, vals, stops):
        # a count sums its heads and a 1 per value
        if len(heads) and not (isinstance(heads, np.ndarray) and heads.dtype == np.int64):
            return None
        return [Fold(self.ufunc, _typed(heads, np.int64), np.ones(len(vals), dtype=np.int64))]

    def fold_segments(self, vals, ts, starts):
        if not len(starts):
            return []
        ends = np.append(starts[1:], len(vals))
        return (ends - starts).tolist()


class Average(ScalarOp):
    deletable = True
    ufunc = np.add

    def prepare(self, v, ts=None):
        return [float(v), 1]

    def update(self, ir, v, ts=None):
        ir[0] += v
        ir[1] += 1
        return ir

    def merge(self, ir1, ir2):
        ir1[0] += ir2[0]
        ir1[1] += ir2[1]
        return ir1

    def finalize(self, ir):
        return ir[0] / ir[1]

    def delete(self, ir, v, ts=None):
        ir[0] -= v
        ir[1] -= 1
        return ir

    def clone(self, ir):
        return list(ir)

    def scan(self, acc, vals, ts, stops):
        if acc is None:
            if not len(stops) or stops[-1] == 0:
                return [None] * len(stops)
            # prepare makes v0 a float: scan the rest from that IR
            rest = self.scan(self.prepare(vals[0]), vals[1:], ts[1:], np.maximum(stops - 1, 0))
            return [None if s == 0 else r for s, r in zip(stops.tolist(), rest)]
        sums = _accumulate(np.add, acc[0], vals, stops)
        if sums is None:
            return super().scan(acc, vals, ts, stops)
        return _at_stops(self.finalize(acc), sums / (acc[1] + np.arange(len(sums))), stops)

    def ir_array(self, irs):
        # [sum, count] rows: float sums, and counts exact in float64
        if (set(map(type, irs)) <= {list} and all(len(ir) == 2 for ir in irs)
                and {type(ir[0]) for ir in irs} <= {float, np.float64}):
            return np.array(irs, dtype=np.float64).reshape(-1, 2)
        return None

    def folds(self, heads, vals, stops):
        # the sums and the counts of the (sum, count) rows: prepare makes a
        # value a float, so float64 sums of the values fold exactly as
        # update does, and a count sums its heads and a 1 per value
        if len(heads) and not (isinstance(heads, np.ndarray) and heads.ndim == 2):
            return None
        read = len(stops) and stops.max() > 0
        if read and vals.dtype not in _SCAN_DTYPES:
            return None
        heads = heads if len(heads) else np.zeros((0, 2))
        return [
            Fold(self.ufunc, heads[:, 0], vals.astype(np.float64, copy=False) if read else np.zeros(0)),
            Fold(self.ufunc, heads[:, 1].astype(np.int64), np.ones(len(vals), dtype=np.int64)),
        ]

    def answer(self, runs, ok):
        sums, counts = runs
        return _answers(sums / np.where(ok, counts, 1), ok)

    def fold_segments(self, vals, ts, starts):
        if not _seg_ok(vals):
            return super().fold_segments(vals, ts, starts)
        if not len(vals):
            return []
        sums = np.add.reduceat(vals.astype(np.float64, copy=False), starts)
        ends = np.append(starts[1:], len(vals))
        return [[float(s), int(c)] for s, c in zip(sums, ends - starts)]


class _Extremum(ScalarOp):
    """Min/Max: a scalar IR, scanned with the subclass' ``ufunc``
    (np.minimum / np.maximum)."""

    def clone(self, ir):
        return ir

    def scan(self, acc, vals, ts, stops):
        run = _accumulate(self.ufunc, acc, vals, stops, same_dtype=True)
        if run is None or _signed_zeros(run):
            return super().scan(acc, vals, ts, stops)
        return _at_stops(acc, run, stops)

    def ir_array(self, irs):
        return _scalar_array(irs)

    def folds(self, heads, vals, stops):
        dt = _row_dtype(heads, vals, stops)
        return None if dt is None else [Fold(self.ufunc, _typed(heads, dt), _as(vals, dt))]


class Min(_Extremum):
    ufunc = np.minimum

    def prepare(self, v, ts=None):
        return v

    def update(self, ir, v, ts=None):
        return v if v < ir else ir

    def merge(self, ir1, ir2):
        return ir2 if ir2 < ir1 else ir1

    def fold_segments(self, vals, ts, starts):
        if not _seg_ok(vals):
            return super().fold_segments(vals, ts, starts)
        return list(np.minimum.reduceat(vals, starts)) if len(vals) else []


class Max(_Extremum):
    ufunc = np.maximum

    def prepare(self, v, ts=None):
        return v

    def update(self, ir, v, ts=None):
        return v if v > ir else ir

    def merge(self, ir1, ir2):
        return ir2 if ir2 > ir1 else ir1

    def fold_segments(self, vals, ts, starts):
        if not _seg_ok(vals):
            return super().fold_segments(vals, ts, starts)
        return list(np.maximum.reduceat(vals, starts)) if len(vals) else []


class Variance(ScalarOp):
    """Welford IR [count, mean, m2]; finalize = m2/count (population)."""

    def prepare(self, v, ts=None):
        return [1, float(v), 0.0]

    def update(self, ir, v, ts=None):
        ir[0] += 1
        delta = v - ir[1]
        ir[1] += delta / ir[0]
        ir[2] += delta * (v - ir[1])
        return ir

    def merge(self, a, b):
        n = a[0] + b[0]
        delta = b[1] - a[1]
        mean = (a[0] * a[1] + b[0] * b[1]) / n
        m2 = a[2] + b[2] + delta * (delta / n) * a[0] * b[0]
        return [n, mean, m2]

    def finalize(self, ir):
        return ir[2] / ir[0]


class _Moments(ScalarOp):
    """4-moment IR [n, m1, m2, m3, m4] (SimpleAggregators.scala:872-975)."""

    def prepare(self, v, ts=None):
        return self.update([0.0, 0.0, 0.0, 0.0, 0.0], v)

    def update(self, ir, x, ts=None):
        n1, m1, m2, m3, m4 = ir
        n = n1 + 1
        delta = x - m1
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        m1 += delta_n
        m4 += term1 * delta_n2 * (n * n - 3 * n + 3) + 6 * delta_n2 * m2 - 4 * delta_n * m3
        m3 += term1 * delta_n * (n - 2) - 3 * delta_n * m2
        m2 += term1
        return [n, m1, m2, m3, m4]

    def merge(self, a, b):
        an, am1, am2, am3, am4 = a
        bn, bm1, bm2, bm3, bm4 = b
        n = an + bn
        delta = bm1 - am1
        d2, d3, d4 = delta * delta, delta**3, delta**4
        m1 = (an * am1 + bn * bm1) / n
        m2 = am2 + bm2 + d2 * an * bn / n
        m3 = am3 + bm3 + d3 * an * bn * (an - bn) / (n * n) + 3.0 * delta * (an * bm2 - bn * am2) / n
        m4 = (
            am4
            + bm4
            + d4 * an * bn * (an * an - an * bn + bn * bn) / (n**3)
            + 6.0 * d2 * (an * an * bm2 + bn * bn * am2) / (n * n)
            + 4.0 * delta * (an * bm3 - bn * am3) / n
        )
        return [n, m1, m2, m3, m4]


class Skew(_Moments):
    def finalize(self, ir):
        n, _, m2, m3, _ = ir
        if n < 3 or m2 == 0:
            return float("nan")
        return math.sqrt(n) * m3 / m2**1.5


class Kurtosis(_Moments):
    def finalize(self, ir):
        n, _, m2, _, m4 = ir
        if n < 4 or m2 == 0:
            return float("nan")
        return n * m4 / (m2 * m2) - 3


class First(ScalarOp):
    timed = True

    def prepare(self, v, ts=None):
        return (ts, v)

    def update(self, ir, v, ts=None):
        return (ts, v) if ts < ir[0] else ir

    def merge(self, ir1, ir2):
        return ir2 if ir2[0] < ir1[0] else ir1

    def finalize(self, ir):
        return ir[1]

    def fold_segments(self, vals, ts, starts):
        # rows are ts-ascending (stable) per segment: strict < keeps the
        # first-processed row, i.e. the segment's first element
        return [(int(ts[s]), vals[s]) for s in starts] if len(starts) else []


class Last(ScalarOp):
    """Equal-ts ties: the LATER-processed row wins (>=).  Rows reach every
    engine in (ts, tie_breaker)-ascending order, so this makes ts ties
    deterministic ("tie breaker refines ts") and matches the position
    engine's vals[r-1].  The reference's strict > keeps the first-processed
    row instead — nondeterministic under Spark's undefined row order, so
    the deterministic refinement is the intended divergence.  (First needs
    no change: strict < already keeps the earliest-processed row.)"""

    timed = True

    def prepare(self, v, ts=None):
        return (ts, v)

    def update(self, ir, v, ts=None):
        return (ts, v) if ts >= ir[0] else ir

    def merge(self, ir1, ir2):
        return ir2 if ir2[0] >= ir1[0] else ir1

    def finalize(self, ir):
        return ir[1]

    def fold_segments(self, vals, ts, starts):
        # >= keeps the latest-processed row on ts ties: the segment's last
        # element under the stable ts-ascending order
        if not len(starts):
            return []
        ends = np.append(starts[1:], len(vals))
        return [(int(ts[e - 1]), vals[e - 1]) for e in ends]


class LastK(ScalarOp):
    """k most recent (ts, value); finalize -> values most-recent-first.

    Equal-ts ties follow Last's convention: the LATER-processed row is the
    more recent one.  The IR is kept ts-ASCENDING with a stable sort (ties
    keep processing order, update appends after, merge places ir1=older
    before ir2=newer — the engines' merge convention), so "last k" is the
    tail slice and finalize reverses — exactly the kernel position engine's
    vals[r-k:r] reversed, keeping last1 == LAST on ties."""

    timed = True

    def __init__(self, k: int):
        self.k = k

    def prepare(self, v, ts=None):
        return [(ts, v)]

    def update(self, ir, v, ts=None):
        ir.append((ts, v))
        ir.sort(key=lambda t: t[0])
        if len(ir) > self.k:
            del ir[: len(ir) - self.k]
        return ir

    def merge(self, ir1, ir2):
        out = sorted(ir1 + ir2, key=lambda t: t[0])
        return out[len(out) - self.k :] if len(out) > self.k else out

    def finalize(self, ir):
        return [v for _, v in reversed(ir)]


class FirstK(ScalarOp):
    timed = True

    def __init__(self, k: int):
        self.k = k

    def prepare(self, v, ts=None):
        return [(ts, v)]

    def update(self, ir, v, ts=None):
        ir.append((ts, v))
        ir.sort(key=lambda t: t[0])
        del ir[self.k :]
        return ir

    def merge(self, ir1, ir2):
        return sorted(ir1 + ir2, key=lambda t: t[0])[: self.k]

    def finalize(self, ir):
        return [v for _, v in ir]


class TopK(ScalarOp):
    def __init__(self, k: int):
        self.k = k

    def prepare(self, v, ts=None):
        return [v]

    def update(self, ir, v, ts=None):
        ir.append(v)
        ir.sort(reverse=True)
        del ir[self.k :]
        return ir

    def merge(self, ir1, ir2):
        return sorted(ir1 + ir2, reverse=True)[: self.k]


class BottomK(ScalarOp):
    def __init__(self, k: int):
        self.k = k

    def prepare(self, v, ts=None):
        return [v]

    def update(self, ir, v, ts=None):
        ir.append(v)
        ir.sort()
        del ir[self.k :]
        return ir

    def merge(self, ir1, ir2):
        return sorted(ir1 + ir2)[: self.k]


class UniqueCount(ScalarOp):
    def prepare(self, v, ts=None):
        return {v}

    def update(self, ir, v, ts=None):
        ir.add(v)
        return ir

    def merge(self, ir1, ir2):
        ir1 |= ir2
        return ir1

    def finalize(self, ir):
        return len(ir)


_SENTINEL = "__SENTINEL__"


class BoundedUniqueCount(ScalarOp):
    """Exact distinct up to k, then saturates and reports k."""

    def __init__(self, k: int = 8):
        self.k = k

    def prepare(self, v, ts=None):
        return {v}

    def update(self, ir, v, ts=None):
        if ir is _SENTINEL or len(ir) >= self.k:
            return _SENTINEL
        ir.add(v)
        return ir

    def merge(self, ir1, ir2):
        if ir1 is _SENTINEL or ir2 is _SENTINEL:
            return _SENTINEL
        ir1 |= ir2
        return _SENTINEL if len(ir1) >= self.k else ir1

    def finalize(self, ir):
        return self.k if ir is _SENTINEL else len(ir)


class Histogram(ScalarOp):
    """Exact map[str -> count]; optional top-k truncation at finalize (k arg)."""

    deletable = True

    def __init__(self, k: int = 0):
        self.k = k

    def prepare(self, v, ts=None):
        return {str(v): 1}

    def update(self, ir, v, ts=None):
        key = str(v)
        ir[key] = ir.get(key, 0) + 1
        return ir

    def merge(self, ir1, ir2):
        for k, c in ir2.items():
            nc = ir1.get(k, 0) + c
            if nc == 0:
                ir1.pop(k, None)
            else:
                ir1[k] = nc
        return ir1

    def delete(self, ir, v, ts=None):
        key = str(v)
        nc = ir.get(key, 0) - 1
        if nc == 0:
            ir.pop(key, None)
        else:
            ir[key] = nc
        return ir

    def finalize(self, ir):
        if self.k and len(ir) > self.k:
            top = sorted(ir.items(), key=lambda kv: (-kv[1], kv[0]))[: self.k]
            return dict(top)
        return dict(ir)


class ApproxHistogramK(ScalarOp):
    """Hybrid exact->frequent-items histogram with BOUNDED IR memory
    (reference ApproxHistogram, SimpleAggregators.scala:459-601: exact
    HashMap while <= mapSize keys, converted to an ItemsSketch once the map
    would exceed mapSize).

    IR = ("E", {item: count}) exact, or ("S", {item: [est, err]}) sketch.
    The sketch is deterministic space-saving (Metwally et al., "Efficient
    computation of frequent and top-k elements in data streams"): at most
    ``capacity`` retained counters; on overflow the minimum-estimate counter
    (ties broken by key, ascending) is evicted and the newcomer inherits its
    estimate as guaranteed error.  Guarantees: est >= true count and
    est - err <= true count; any item with true count > n/capacity is
    retained.  capacity = 4 * mapSize rounded up to a power of two (the
    ItemsSketch sizing convention).

    Exact mode finalizes to the full map (reference toOutputMap — no
    truncation); sketch mode finalizes to the NO_FALSE_NEGATIVES-style
    estimate map {item: est} of all retained counters.
    """

    order_sensitive = True  # space-saving evictions depend on merge order

    def __init__(self, map_size: int = 8):
        self.map_size = max(1, int(map_size))
        cap = 1
        while cap < 4 * self.map_size:
            cap *= 2
        self.capacity = cap

    def prepare(self, v, ts=None):
        return ("E", {str(v): 1})

    def _sketch_update(self, d, key, w):
        if key in d:
            d[key][0] += w
        elif len(d) < self.capacity:
            d[key] = [w, 0]
        else:
            evict = min(d, key=lambda k: (d[k][0], k))
            m = d.pop(evict)[0]
            d[key] = [m + w, m]
        return d

    def _to_ir(self, hist):
        if len(hist) <= self.map_size:
            return ("E", hist)
        d = {}
        for k in sorted(hist):
            self._sketch_update(d, k, hist[k])
        return ("S", d)

    def update(self, ir, v, ts=None):
        tag, d = ir
        key = str(v)
        if tag == "E":
            d[key] = d.get(key, 0) + 1
            return self._to_ir(d)
        return ("S", self._sketch_update(d, key, 1))

    def merge(self, ir1, ir2):
        t1, d1 = ir1
        t2, d2 = ir2
        if t1 == "E" and t2 == "E":
            for k, c in d2.items():
                d1[k] = d1.get(k, 0) + c
            return self._to_ir(d1)
        if t1 == "E":
            t1, d1, t2, d2 = t2, d2, t1, d1
        if t2 == "E":  # fold exact histogram into the sketch (weighted updates)
            for k in sorted(d2):
                self._sketch_update(d1, k, d2[k])
            return ("S", d1)
        # sketch + sketch: sum estimates/errors, keep top-capacity counters
        for k, (est, err) in d2.items():
            if k in d1:
                d1[k][0] += est
                d1[k][1] += err
            else:
                d1[k] = [est, err]
        if len(d1) > self.capacity:
            keep = sorted(d1, key=lambda k: (-d1[k][0], k))[: self.capacity]
            d1 = {k: d1[k] for k in keep}
        return ("S", d1)

    def finalize(self, ir):
        tag, d = ir
        if tag == "E":
            return dict(d)
        return {k: int(est) for k, (est, err) in sorted(d.items())}


class ApproxUniqueCount(ScalarOp):
    """HLL-style distinct-count sketch (stands in for the reference's CPC,
    SimpleAggregators.scala:716-760; same IR contract: binary-mergeable)."""

    def __init__(self, lgk: int = 8):
        from .sketches import HllSketch

        self.lgk = lgk
        self._cls = HllSketch

    def prepare(self, v, ts=None):
        sk = self._cls(self.lgk)
        sk.add(v)
        return sk

    def update(self, ir, v, ts=None):
        ir.add(v)
        return ir

    def merge(self, ir1, ir2):
        ir1.merge_in(ir2)
        return ir1

    def finalize(self, ir):
        return int(round(ir.estimate()))

    def clone(self, ir):
        return self._cls(ir.lgk, ir.registers.copy())

    def fold_segments(self, vals, ts, starts):
        # one hash64 call over the column equals each value's own
        # hash64([v]) for int and float arrays and all-str object arrays;
        # a mixed object array would hash its numbers as strings
        import pandas as pd

        from .sketches import hash64, hll_slots

        if not isinstance(vals, np.ndarray) or not (
            vals.dtype.kind in "iuf"
            or (vals.dtype == object and pd.api.types.infer_dtype(vals, skipna=False) == "string")
        ):
            return super().fold_segments(vals, ts, starts)
        idx, rank = hll_slots(hash64(vals), self.lgk)
        seg = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(vals))))
        regs = np.zeros((len(starts), 1 << self.lgk), dtype=np.uint8)
        np.maximum.at(regs, (seg, idx), rank)
        return [self._cls(self.lgk, row) for row in regs]


class ApproxPercentile(ScalarOp):
    """Mergeable quantile sketch (stands in for KLL,
    SimpleAggregators.scala:762-802); percentiles arg defaults to [0.5].
    Upload and serving fold it; the offline kernel answers these parts
    exactly and reads no ``k``."""

    order_sensitive = True  # compactor promotions depend on merge order

    def __init__(self, k: int = 128, percentiles=(0.5,)):
        from .sketches import QuantileSketch

        self.k = k
        self.percentiles = list(percentiles)
        self._cls = QuantileSketch

    def prepare(self, v, ts=None):
        sk = self._cls(self.k)
        sk.add(float(v))
        return sk

    def update(self, ir, v, ts=None):
        ir.add(float(v))
        return ir

    def merge(self, ir1, ir2):
        ir1.merge_in(ir2)
        return ir1

    def finalize(self, ir):
        return [ir.quantile(p) for p in self.percentiles]


def make_scalar_op(part: AggregationPart) -> ScalarOp:
    op = part.operation
    k = part.arg("k")
    if op is Operation.SUM:
        return Sum()
    if op is Operation.COUNT:
        return Count()
    if op is Operation.AVERAGE:
        return Average()
    if op is Operation.MIN:
        return Min()
    if op is Operation.MAX:
        return Max()
    if op is Operation.VARIANCE:
        return Variance()
    if op is Operation.SKEW:
        return Skew()
    if op is Operation.KURTOSIS:
        return Kurtosis()
    if op is Operation.FIRST:
        return First()
    if op is Operation.LAST:
        return Last()
    if op is Operation.FIRST_K:
        return FirstK(int(k))
    if op is Operation.LAST_K:
        return LastK(int(k))
    if op is Operation.TOP_K:
        return TopK(int(k))
    if op is Operation.BOTTOM_K:
        return BottomK(int(k))
    if op is Operation.UNIQUE_COUNT:
        return UniqueCount()
    if op is Operation.BOUNDED_UNIQUE_COUNT:
        return BoundedUniqueCount(int(k) if k else 8)
    if op is Operation.HISTOGRAM:
        return Histogram(int(k) if k else 0)
    if op is Operation.APPROX_HISTOGRAM_K:
        return ApproxHistogramK(int(k) if k else 8)
    if op is Operation.APPROX_UNIQUE_COUNT:
        lgk = part.arg("lgk")
        return ApproxUniqueCount(int(lgk) if lgk else 8)
    if op is Operation.APPROX_PERCENTILE:
        pct = part.arg("percentiles")
        if isinstance(pct, str):
            pct = json.loads(pct)
        return ApproxPercentile(int(k) if k else 128, pct or (0.5,))
    raise ValueError(f"unsupported operation: {op}")
