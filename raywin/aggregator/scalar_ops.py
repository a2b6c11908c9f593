"""Scalar (row-at-a-time) aggregator contract: prepare/update/merge/finalize,
optional delete for abelian-group ops.

These are the reference-parity semantics (reference
aggregator/src/main/scala/ai/chronon/aggregator/base/SimpleAggregators.scala and
TimedAggregators.scala), used by the brute-force oracle, the object-IR hop-tile
engine for non-vectorizable ops, and property tests.  The hot path uses the
vectorized engines in ``vector.py``; these classes define ground truth.

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

import numpy as np

from ..api import AggregationPart, Operation


class ScalarOp:
    """prepare/update/merge/finalize contract. IRs are plain Python values."""

    deletable = False
    timed = False  # update receives (ir, value, ts)
    # True when merge results depend on merge ORDER/grouping (lossy sketches:
    # a different fold shape yields a different — equally valid — sketch).
    # Engines that reorder merges for speed must keep these on a fixed
    # ascending fold so results are reproducible run to run.
    order_sensitive = False

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


class Sum(ScalarOp):
    deletable = True

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

    def fold_segments(self, vals, ts, starts):
        if not _seg_ok(vals):
            return super().fold_segments(vals, ts, starts)
        return list(np.add.reduceat(vals, starts)) if len(vals) else []


class Count(ScalarOp):
    deletable = True

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

    def fold_segments(self, vals, ts, starts):
        if not len(starts):
            return []
        ends = np.append(starts[1:], len(vals))
        return (ends - starts).tolist()


class Average(ScalarOp):
    deletable = True

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

    def fold_segments(self, vals, ts, starts):
        if not _seg_ok(vals):
            return super().fold_segments(vals, ts, starts)
        if not len(vals):
            return []
        sums = np.add.reduceat(vals.astype(np.float64, copy=False), starts)
        ends = np.append(starts[1:], len(vals))
        return [[float(s), int(c)] for s, c in zip(sums, ends - starts)]


class _Extremum(ScalarOp):
    """Min/Max: a scalar IR, scanned with the subclass' ``_running``
    ufunc (np.minimum / np.maximum)."""

    def clone(self, ir):
        return ir

    def scan(self, acc, vals, ts, stops):
        run = _accumulate(self._running, acc, vals, stops, same_dtype=True)
        if run is None or _signed_zeros(run):
            return super().scan(acc, vals, ts, stops)
        return _at_stops(acc, run, stops)


class Min(_Extremum):
    _running = np.minimum

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
    _running = np.maximum

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


class ApproxPercentile(ScalarOp):
    """Mergeable quantile sketch (stands in for KLL,
    SimpleAggregators.scala:762-802); percentiles arg defaults to [0.5]."""

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
