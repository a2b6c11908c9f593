"""Online serving stack: batch IR upload, serving-time lambda merge, tiled
micro-batch streaming (the offline-testable re-expression of the reference's
online/ + flink/ + GroupByUpload layers)."""

from .upload import group_by_upload, load_upload, part_boundaries  # noqa: F401
from .serving import Fetcher, SawtoothOnlineAggregator  # noqa: F401
from .streaming import TileAggregator  # noqa: F401
