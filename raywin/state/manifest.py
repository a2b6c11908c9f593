"""Per-partition output manifests: lineage + metrics for resumable backfills.

Mirrors the reference's resume machinery — outputs are range-partitioned,
``unfilledRanges`` finds holes to fill (TableUtils.unfilledRanges,
JoinBase.scala:384-405), and a semantic hash of the config archives stale
outputs when the definition changes (SemanticHashUtils.scala:1-154).

Layout:
    {output_dir}/{partition}/data/*.parquet     data
    {output_dir}/{partition}/_MANIFEST.json     lineage + metrics
    {output_dir}/_stale_{hash}/{partition}/...  archived on config change
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Optional


MANIFEST_NAME = "_MANIFEST.json"


def partition_dir(output_dir: str, partition: str) -> str:
    return os.path.join(output_dir, partition)


def data_dir(output_dir: str, partition: str) -> str:
    """Parquet files live under {partition}/data so readers never trip on the
    manifest file."""
    return os.path.join(output_dir, partition, "data")


def read_manifest(output_dir: str, partition: str) -> Optional[dict]:
    path = os.path.join(partition_dir(output_dir, partition), MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def write_manifest(
    output_dir: str,
    partition: str,
    semantic_hash: str,
    rows: int,
    metrics: dict[str, Any] | None = None,
    inputs: dict[str, Any] | None = None,
) -> dict:
    manifest = {
        "partition": partition,
        "semantic_hash": semantic_hash,
        "rows": rows,
        "metrics": metrics or {},
        "inputs": inputs or {},
        "written_at": time.time(),
    }
    pdir = partition_dir(output_dir, partition)
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=2)
    os.replace(tmp, os.path.join(pdir, MANIFEST_NAME))
    return manifest


def is_complete(output_dir: str, partition: str, semantic_hash: str) -> bool:
    m = read_manifest(output_dir, partition)
    return m is not None and m.get("semantic_hash") == semantic_hash


def unfilled_partitions(
    output_dir: str,
    partitions: list[str],
    semantic_hash: str,
    expected_ranges: dict[str, list] | None = None,
) -> list[str]:
    """Partitions still needing compute, archiving stale ones (config drift).

    expected_ranges: optional {partition: [lo_ms, hi_ms]} of the ts range
    each step is PLANNED to cover this run.  A manifest whose recorded
    inputs.ts_range differs is a truncated/shifted step from an earlier run
    with different date bounds (e.g. a backfill first launched with an
    earlier end date truncates its final step); its label looks complete but
    its data is not — archive and recompute (the step-level analogue of the
    reference's per-day unfilled-range computation, JoinBase.scala)."""
    todo = []
    for p in partitions:
        m = read_manifest(output_dir, p)
        if m is None:
            todo.append(p)
        elif m.get("semantic_hash") != semantic_hash:
            archive_stale(output_dir, p, m.get("semantic_hash", "unknown"))
            todo.append(p)
        elif (
            expected_ranges is not None
            and p in expected_ranges
            and m.get("inputs", {}).get("ts_range") is not None
            and list(m["inputs"]["ts_range"]) != list(expected_ranges[p])
        ):
            archive_stale(output_dir, p, f"{m.get('semantic_hash', 'unknown')}_truncated")
            todo.append(p)
    return todo


def archive_stale(output_dir: str, partition: str, old_hash: str) -> None:
    src = partition_dir(output_dir, partition)
    if not os.path.exists(src):
        return
    dst_root = os.path.join(output_dir, f"_stale_{old_hash}")
    os.makedirs(dst_root, exist_ok=True)
    dst = os.path.join(dst_root, partition)
    if os.path.exists(dst):
        shutil.rmtree(dst)
    shutil.move(src, dst)


def load_output(output_dir: str, partitions: list[str] | None = None):
    """Read the completed output back as one Dataset."""
    from ..sources.io import read_parquet

    if partitions is None:
        partitions = [
            d
            for d in sorted(os.listdir(output_dir))
            if not d.startswith("_") and os.path.isdir(os.path.join(output_dir, d))
        ]
    import glob

    files = []
    for p in partitions:
        files.extend(sorted(glob.glob(os.path.join(data_dir(output_dir, p), "*.parquet"))))
    return read_parquet(files)
