"""User-facing configuration model for the raywin feature engine.

Python-native dataclasses (JSON-serializable) standing in for the reference's
Thrift IR (reference: /root/reference/api/thrift/api.thrift:7-372 — Query /
Source / GroupBy / Join / Aggregation / Window).  This is a from-scratch
re-expression, not a Thrift port: configs here feed Ray Data pipelines.

Conventions shared with the reference:
  * ``ts`` is event time in epoch **milliseconds** (int64)
    (reference Constants.scala:22-27, GroupBy.scala:492-499).
  * Output column naming ``{input}_{op}[_{N}{h|d}][_by_{bucket}]``
    (reference api/src/main/scala/ai/chronon/api/Extensions.scala:168-181).
  * Unspecified windows mean one unbounded window; agg parts are the
    cartesian product buckets x windows (Extensions.scala:187-210).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Any, Optional

MILLIS_HOUR = 3600 * 1000
MILLIS_DAY = 24 * MILLIS_HOUR
MILLIS_5MIN = 5 * 60 * 1000


class TimeUnit(str, Enum):
    HOURS = "HOURS"
    DAYS = "DAYS"

    @property
    def millis(self) -> int:
        return MILLIS_HOUR if self is TimeUnit.HOURS else MILLIS_DAY

    @property
    def short(self) -> str:
        return "h" if self is TimeUnit.HOURS else "d"


@dataclass(frozen=True)
class Window:
    """Sliding window length. length <= 0 or None means unbounded."""

    length: int
    time_unit: TimeUnit = TimeUnit.DAYS

    @property
    def unbounded(self) -> bool:
        return self.length is None or self.length <= 0 or self.length == (1 << 31) - 1

    @property
    def millis(self) -> int:
        if self.unbounded:
            return 1 << 62
        return self.length * self.time_unit.millis

    @property
    def suffix(self) -> str:
        return "" if self.unbounded else f"_{self.length}{self.time_unit.short}"


UNBOUNDED = Window(-1, TimeUnit.DAYS)


class Operation(str, Enum):
    # abelian groups (deletable) — reference api.thrift:156-167
    COUNT = "count"
    SUM = "sum"
    AVERAGE = "average"
    HISTOGRAM = "histogram"
    # monoids (non-deletable)
    MIN = "min"
    MAX = "max"
    FIRST = "first"
    LAST = "last"
    FIRST_K = "first_k"
    LAST_K = "last_k"
    TOP_K = "top_k"
    BOTTOM_K = "bottom_k"
    UNIQUE_COUNT = "unique_count"
    APPROX_UNIQUE_COUNT = "approx_unique_count"
    BOUNDED_UNIQUE_COUNT = "bounded_unique_count"
    # exact map below k keys, top-k-truncated above (the reference's hybrid
    # exact->ItemsSketch APPROX_HISTOGRAM_K, SimpleAggregators.scala:459-601;
    # here the IR stays an exact map and truncation happens at finalize)
    APPROX_HISTOGRAM_K = "approx_histogram_k"
    VARIANCE = "variance"
    SKEW = "skew"
    KURTOSIS = "kurtosis"
    APPROX_PERCENTILE = "approx_percentile"


@dataclass(frozen=True)
class AggregationPart:
    """One output column: (operation, input, window, bucket) fully unpacked."""

    operation: Operation
    input_column: str
    window: Window = UNBOUNDED
    arg_map: tuple = ()  # tuple of (key, value) pairs, hashable
    bucket: Optional[str] = None
    element_wise: bool = False

    def arg(self, key: str, default=None):
        for k, v in self.arg_map:
            if k == key:
                return v
        return default

    @property
    def op_suffix(self) -> str:
        op = self.operation
        if op in (Operation.LAST_K, Operation.FIRST_K, Operation.TOP_K, Operation.BOTTOM_K):
            k = self.arg("k")
            return f"{op.value.split('_')[0]}{k}"
        return op.value

    @property
    def output_column(self) -> str:
        # reference Extensions.scala:168-181
        bucket_suffix = f"_by_{self.bucket}" if self.bucket else ""
        return f"{self.input_column}_{self.op_suffix}{self.window.suffix}{bucket_suffix}"


@dataclass
class Aggregation:
    """User-level aggregation; unpacks to one AggregationPart per bucket x window
    (reference Extensions.scala:187-210)."""

    operation: Operation
    input_column: str
    windows: Optional[list[Window]] = None
    arg_map: dict = field(default_factory=dict)
    buckets: Optional[list[str]] = None
    element_wise: bool = False

    def unpack(self) -> list[AggregationPart]:
        windows = self.windows if self.windows else [UNBOUNDED]
        buckets = self.buckets if self.buckets else [None]
        args = tuple(sorted(self.arg_map.items()))
        return [
            AggregationPart(self.operation, self.input_column, w, args, b, self.element_wise)
            for b in buckets
            for w in windows
        ]


@dataclass
class Query:
    """Projection/filter over a source table, one expression dialect (DuckDB SQL)
    everywhere (reference api.thrift:7-17, QueryUtils.scala:1-57).

    selects: {alias: sql_expr}; wheres: list of sql boolean exprs (ANDed);
    time_column: sql expr producing epoch-millis int64 ``ts``.
    """

    selects: Optional[dict[str, str]] = None
    wheres: Optional[list[str]] = None
    time_column: Optional[str] = None
    start_partition: Optional[str] = None
    end_partition: Optional[str] = None
    mutation_time_column: Optional[str] = None
    reversal_column: Optional[str] = None
    # SQL setup statements (UDF macros etc.) run once per worker connection
    # before select/where evaluation (reference api.thrift:46-48 `setups`)
    setups: Optional[list[str]] = None


@dataclass
class EventSource:
    """Immutable timestamped fact table (reference api.thrift:56-76)."""

    table: str  # path to parquet/lance dir or file
    query: Query = field(default_factory=Query)
    is_cumulative: bool = False
    topic: Optional[str] = None


@dataclass
class EntitySource:
    """Mutable dimension rows: snapshots + optional CDC mutations
    (reference api.thrift:86-106)."""

    snapshot_table: str
    query: Query = field(default_factory=Query)
    mutation_table: Optional[str] = None


@dataclass
class JoinSource:
    """Output of one Join feeding another GroupBy (reference api.thrift:144-147)."""

    join: "Join"
    query: Query = field(default_factory=Query)


Source = Any  # EventSource | EntitySource | JoinSource


class Accuracy(str, Enum):
    TEMPORAL = "TEMPORAL"  # features as of the exact query millisecond
    SNAPSHOT = "SNAPSHOT"  # features as of last midnight


@dataclass
class GroupBy:
    """Windowed aggregation of one or more sources keyed by entity columns
    (reference api.thrift:202-275)."""

    sources: list[Source]
    key_columns: list[str]
    aggregations: Optional[list[Aggregation]] = None  # None => keyed passthrough
    accuracy: Optional[Accuracy] = None  # None => inferred (see inferred_accuracy)
    name: str = "group_by"
    derivations: Optional[list["Derivation"]] = None
    tie_breaker: Optional[str] = None  # column for deterministic ts-tie ordering

    @property
    def inferred_accuracy(self) -> Accuracy:
        """Explicit accuracy wins; otherwise a streaming source (event topic /
        CDC mutation feed) implies TEMPORAL, batch-only implies SNAPSHOT
        (reference Extensions.scala:478-487 inferredAccuracy)."""
        if self.accuracy is not None:
            return self.accuracy
        for s in self.sources:
            if getattr(s, "topic", None) or getattr(s, "mutation_table", None):
                return Accuracy.TEMPORAL
        return Accuracy.SNAPSHOT

    def agg_parts(self) -> list[AggregationPart]:
        parts: list[AggregationPart] = []
        for agg in self.aggregations or []:
            parts.extend(agg.unpack())
        return parts

    def output_columns(self) -> list[str]:
        return [p.output_column for p in self.agg_parts()]


@dataclass
class JoinPart:
    """One GroupBy attached to a Join's left side (reference api.thrift:352-361)."""

    group_by: GroupBy
    key_mapping: Optional[dict[str, str]] = None  # left col -> group_by key col
    prefix: Optional[str] = None

    @property
    def full_prefix(self) -> str:
        pfx = f"{self.prefix}_" if self.prefix else ""
        return f"{pfx}{self.group_by.name}_"


@dataclass
class Derivation:
    """Post-join/groupby projection, SQL expr; name '*' means passthrough
    (reference api.thrift:328-366)."""

    name: str
    expression: str


@dataclass
class BootstrapPart:
    """Precomputed feature rows (e.g. logged online serving values) joined
    onto the left BEFORE backfill; left rows whose bootstrap columns fully
    cover a join part's outputs skip that part's computation entirely
    (reference api.thrift:375-385, Join.computeBootstrapTable
    Join.scala:464-558, CoveringSet Join.scala:49-64,136-217)."""

    table: str
    query: "Query" = None  # type: ignore[assignment]
    key_columns: Optional[list[str]] = None  # default: join.row_ids
    semantic_hash: Optional[str] = None  # default: derived from table path

    def __post_init__(self):
        if self.query is None:
            self.query = Query()

    def hash_value(self) -> str:
        return self.semantic_hash or semantic_hash({"table": self.table})


@dataclass
class Model:
    """A scoring model attached to a Join's output (reference
    api.thrift:468-473).  ``backend`` names a registered vectorized model
    backend (raywin.stages.models.MODEL_BACKENDS); ``params`` are its
    constructor arguments (small weights inline; large weight tensors as a
    ``ray.ObjectRef`` placed once with ray.put and resolved once per task)."""

    name: str
    backend: str
    params: dict = field(default_factory=dict)
    input_schema: Optional[dict] = None  # model input name -> dtype string
    output_schema: Optional[dict] = None  # model output name -> dtype string


@dataclass
class ModelTransform:
    """One model applied to join output columns (reference api.thrift:476-481):
    input_mappings: model input name -> join output column (default identity);
    output_mappings: output column name -> model output field (default all);
    prefix namespaces the output columns."""

    model: Model
    input_mappings: Optional[dict[str, str]] = None
    output_mappings: Optional[dict[str, str]] = None
    prefix: Optional[str] = None

    def output_column(self, field_name: str) -> str:
        pfx = f"{self.prefix}_" if self.prefix else ""
        return f"{pfx}{field_name}"


@dataclass
class ModelTransforms:
    """All model transforms of a Join + fields forwarded verbatim
    (reference api.thrift:483-486)."""

    transforms: list[ModelTransform]
    passthrough_fields: Optional[list[str]] = None


CONTEXTUAL_SOURCE_NAME = "contextual"


@dataclass
class ExternalSource:
    """A feature source served by an external endpoint rather than a GroupBy
    (reference api.thrift ExternalSource:319-326).  Schemas are declared
    (name -> dtype string: long/double/string/bool); values are fetched by a
    registered batch handler online, and offline either backfilled through
    ``offline_group_by`` (PITC-capable externals), replayed from logs via
    bootstrap, computed by the handler itself when it is deterministic, or
    null-padded (reference Join.scala padExternalFields:90-120)."""

    name: str
    key_schema: dict[str, str]
    value_schema: dict[str, str]
    offline_group_by: Optional[GroupBy] = None

    @property
    def is_contextual(self) -> bool:
        return self.name == CONTEXTUAL_SOURCE_NAME


def ContextualSource(keys: dict[str, str]) -> ExternalSource:
    """Left columns passed through as features (reference
    ExternalSourceRegistry.scala ContextualHandler:31-38)."""
    return ExternalSource(CONTEXTUAL_SOURCE_NAME, keys, keys)


@dataclass
class ExternalPart:
    """One ExternalSource attached to a Join (reference api.thrift:320-327).
    Output value columns are ``{full_name}_{field}`` with
    full_name = ext_[prefix_]{source name} (Extensions.scala:708-748)."""

    source: ExternalSource
    key_mapping: Optional[dict[str, str]] = None  # left col -> source key
    prefix: Optional[str] = None

    @property
    def full_name(self) -> str:
        pfx = f"{self.prefix}_" if self.prefix else ""
        return f"ext_{pfx}{self.source.name}"


@dataclass
class Join:
    """Left table of (keys..., ts) enriched with the as-of value of many
    GroupBys (reference api.thrift:300-372)."""

    left: Source
    join_parts: list[JoinPart]
    name: str = "join"
    skew_keys: Optional[dict[str, list[str]]] = None
    derivations: Optional[list[Derivation]] = None
    row_ids: Optional[list[str]] = None
    bootstrap_parts: Optional[list[BootstrapPart]] = None
    model_transforms: Optional[ModelTransforms] = None
    online_external_parts: Optional[list[ExternalPart]] = None


def semantic_hash(obj) -> str:
    """Deterministic hash of a config for lineage manifests (mirrors the
    reference's semantic-hash idea, spark/.../SemanticHashUtils.scala)."""

    def default(o):
        if isinstance(o, Enum):
            return o.value
        if hasattr(o, "__dataclass_fields__"):
            return asdict(o)
        return str(o)

    blob = json.dumps(obj, default=default, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
