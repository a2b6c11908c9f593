"""Video frame-sampling over opaque binary payload columns.

The multimodal stage set is decode / feature-extract / resize /
frame-sample; this module supplies the last one: a seekable deterministic
container (``qvid``) plus a ``map_batches`` task stage that decodes
ONLY the sampled frames of each video.  At 100-TB scale that seekability is
the whole point — a k-of-n uniform sample touches k frames' compressed
bytes, never the full payload, and the payload column is dropped before any
downstream exchange.

Container layout (big-endian)::

    b"QVID" | u32 n_frames | u32 w | u32 h
    | n_frames x (u32 offset, u32 length)    -- seek table, offsets into data
    | frame data                             -- zlib(6-bit quantized RGB)

Each frame compresses independently (same lossy quantization as ``qimg``,
PSNR ~46 dB) so any subset decodes without touching the rest.

Real video codecs (H.264/VP9/AV1) are PERMANENTLY out of scope for the same
reason as WebP (stages/images.py:173-181): this repo may use no external
data, so fixtures would require a from-spec *encoder* too.  Pluggability is
the supported path: ``FrameSampleStage`` accepts a ``(probe, decode_frames)``
pair, defaulting to qvid, so a library-backed container (e.g. PyAV) plugs in
without touching the Ray plumbing.  Frame sampling has no reference
counterpart in chronon (payloads there are opaque thrift ``binary`` columns,
api/thrift/api.thrift) — it is brief-mandated net-new surface.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from .images import check_captions, make_captions_bulk, make_pixels_bulk, pixel_features

_HDR = struct.Struct(">III")
_IDX = struct.Struct(">II")


# ---------------------------------------------------------------------------
# qvid container
# ---------------------------------------------------------------------------


def qvid_encode(frames: np.ndarray) -> bytes:
    """(n, h, w, 3) uint8 -> qvid blob.  Frames compress independently so
    decode can seek."""
    n, h, w, _ = frames.shape
    q = (frames >> 2).astype(np.uint8)
    payloads = [zlib.compress(q[i].tobytes(), 6) for i in range(n)]
    index = bytearray()
    off = 0
    for p in payloads:
        index += _IDX.pack(off, len(p))
        off += len(p)
    return b"QVID" + _HDR.pack(n, w, h) + bytes(index) + b"".join(payloads)


def qvid_probe(blob: bytes) -> tuple[int, int, int]:
    """Header-only read: (n_frames, w, h).  O(1) — no frame bytes touched."""
    assert blob[:4] == b"QVID", "not a qvid container"
    return _HDR.unpack_from(blob, 4)


def qvid_decode_frames(blob: bytes, indices) -> np.ndarray:
    """Decode ONLY the requested frame indices -> (k, h, w, 3) uint8.

    Seeks via the index table; unrequested frames' bytes are never
    decompressed.  Indices may be in any order; output rows follow the
    given order."""
    n, w, h = qvid_probe(blob)
    data_start = 4 + _HDR.size + n * _IDX.size
    out = np.empty((len(indices), h, w, 3), dtype=np.uint8)
    for j, i in enumerate(indices):
        if not 0 <= i < n:
            raise IndexError(f"frame {i} out of range (n_frames={n})")
        off, length = _IDX.unpack_from(blob, 4 + _HDR.size + i * _IDX.size)
        q = np.frombuffer(
            zlib.decompress(blob[data_start + off : data_start + off + length]),
            np.uint8,
        ).reshape(h, w, 3)
        out[j] = (q << 2) | (q >> 4)  # dequantize to mid-range
    return out


def qvid_roundtrip_pixels(frames: np.ndarray) -> np.ndarray:
    """The exact decode(encode(frames)) pixels without running zlib — the
    quantization is the only lossy step.  Shared by the truth-table
    generator so oracle features are bitwise identical to the stage's."""
    q = frames >> 2
    return (q << 2) | (q >> 4)


# ---------------------------------------------------------------------------
# Sampling rule (SQL-reproducible)
# ---------------------------------------------------------------------------


def sample_stride(n_frames: int, k: int) -> int:
    """Uniform stride for sampling ~k of n frames: ceil(n/k)."""
    return max(1, -(-int(n_frames) // int(k)))


def sample_indices(n_frames: int, k: int) -> np.ndarray:
    """Sampled frame indices {0, s, 2s, ...} with s = ceil(n/k) — always
    includes frame 0, yields ceil(n/s) <= k frames, and equals the SQL
    predicate ``frame_idx % ((n_frames + k - 1) // k) = 0`` so a DuckDB
    oracle can recompute the exact sample set."""
    return np.arange(0, int(n_frames), sample_stride(n_frames, k), dtype=np.int64)


# ---------------------------------------------------------------------------
# Deterministic synthetic frames (fixtures + invariant ground truth)
# ---------------------------------------------------------------------------


def make_frames(video_id: str, n_frames: int, w: int, h: int) -> np.ndarray:
    """Frames are a pure function of (video_id, frame index) — any stage can
    re-derive ground truth for invariant checks without shipping originals.
    Frame f uses the same splitmix64 stream as images' make_pixels seeded by
    f'{video_id}/f{f}'."""
    ids = [f"{video_id}/f{f}" for f in range(n_frames)]
    return make_pixels_bulk(ids, w, h)


def make_frames_for(video_id: str, indices, w: int, h: int) -> np.ndarray:
    ids = [f"{video_id}/f{int(f)}" for f in indices]
    return make_pixels_bulk(ids, w, h)


# ---------------------------------------------------------------------------
# The stage
# ---------------------------------------------------------------------------


class FrameSampleStage:
    """map_batches task stage: probe each video's header, uniformly
    sample ~k frames, seek-decode only those, emit one row per sampled frame
    with pixel features.  The payload column is dropped from the output —
    bytes never ride past this stage.

    Input columns:  video_id, bytes, fmt (+ any passthrough scalars).
    Output columns: video_id, frame_idx, n_frames (+ passthrough) +
                    mean_lum, contrast, edge_energy.

    Invariants per sampled frame (same posture as DecodeFeatures): decoded
    pixels within PSNR >= 40 dB of the deterministic ground truth (the qvid
    quantizer sits at ~46 dB); captions byte-exact when a caption column is
    present.  ``probe``/``decode_frames`` default to the qvid container and
    form the pluggable-codec seam."""

    def __init__(
        self,
        k: int,
        check_invariants: bool = True,
        probe=qvid_probe,
        decode_frames=qvid_decode_frames,
    ):
        self.k = int(k)
        self.check = check_invariants
        self.probe = probe
        self.decode_frames = decode_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        ids = batch["video_id"].to_pylist()
        n = len(blobs)
        if self.check and "caption" in batch.column_names:
            check_captions(batch["video_id"], batch["caption"])
        frames_list, idx_list, nf_list, row_of = [], [], [], []
        for i in range(n):
            nf, w, h = self.probe(blobs[i])
            idx = sample_indices(nf, self.k)
            px = self.decode_frames(blobs[i], idx)
            if self.check:
                orig = make_frames_for(ids[i], idx, w, h)
                mse = np.mean(
                    (orig.astype(np.float64) - px.astype(np.float64)) ** 2,
                    axis=(1, 2, 3),
                )
                p = 10.0 * np.log10(255.0**2 / np.maximum(mse, 1e-12))
                if not (p >= 40.0).all():  # raised, not asserted: holds under -O
                    raise AssertionError(
                        f"frame PSNR < 40 dB for {ids[i]} (min {p.min():.1f})"
                    )
            frames_list.append(px)
            idx_list.append(idx)
            nf_list.append(np.full(len(idx), nf, dtype=np.int64))
            row_of.append(np.full(len(idx), i, dtype=np.int64))
        if frames_list:
            rows = np.concatenate(row_of)
            frame_idx = np.concatenate(idx_list)
            n_frames = np.concatenate(nf_list)
        else:
            rows = frame_idx = n_frames = np.empty(0, dtype=np.int64)
        shapes = {f.shape[1:] for f in frames_list}
        if len(shapes) <= 1 and frames_list:
            # one vectorized feature pass over every sampled frame in the batch
            mean_lum, contrast, edge_energy = pixel_features(
                np.concatenate(frames_list)
            )
        elif frames_list:  # mixed resolutions: per-video passes
            parts = [pixel_features(f) for f in frames_list]
            mean_lum = np.concatenate([p[0] for p in parts])
            contrast = np.concatenate([p[1] for p in parts])
            edge_energy = np.concatenate([p[2] for p in parts])
        else:
            mean_lum = contrast = edge_energy = np.empty(0, dtype=np.float64)
        keep = [
            c
            for c in batch.column_names
            if c not in ("bytes", "fmt", "caption", "n_frames", "w", "h")
        ]
        out = batch.select(keep).take(pa.array(rows, pa.int64()))
        out = out.append_column("frame_idx", pa.array(frame_idx, pa.int32()))
        out = out.append_column("n_frames", pa.array(n_frames, pa.int32()))
        out = out.append_column("mean_lum", pa.array(mean_lum, pa.float64()))
        out = out.append_column("contrast", pa.array(contrast, pa.float64()))
        out = out.append_column("edge_energy", pa.array(edge_energy, pa.float64()))
        return out


# ---------------------------------------------------------------------------
# Deterministic synthetic video event table + per-frame truth sibling
# ---------------------------------------------------------------------------

VIDEO_GENERATOR_VERSION = "qvid-v1"


def generate_video_events(
    path: str,
    n_videos: int,
    seed: int = 77,
    base_ts: int = 1_700_000_000_000,
    span_days: int = 30,
    min_frames: int = 3,
    max_frames: int = 24,
    size: int = 8,
) -> str:
    """Write a deterministic parquet video event table (one row per video:
    video_id, bytes, n_frames, w, h, fmt, caption, ts) plus a sibling
    ``{path}_truth`` dir holding per-frame features of the DECODED frames —
    lossy truth must reflect the round trip, exactly like the image
    generator's _encode_payload (images.py:441)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    rng = np.random.default_rng(seed)
    ids = [f"vid_{i:06d}" for i in range(n_videos)]
    nframes = rng.integers(min_frames, max_frames + 1, n_videos)
    ts = base_ts + rng.integers(0, span_days * 24 * 3600 * 1000, n_videos)
    blobs, feats, t_vid, t_idx, t_nf = [], [], [], [], []
    for i, vid in enumerate(ids):
        frames = make_frames(vid, int(nframes[i]), size, size)
        blobs.append(qvid_encode(frames))
        ml, ct, ee = pixel_features(qvid_roundtrip_pixels(frames))
        feats.append(np.stack([ml, ct, ee], axis=1))
        t_vid.extend([vid] * int(nframes[i]))
        t_idx.append(np.arange(int(nframes[i]), dtype=np.int32))
        t_nf.append(np.full(int(nframes[i]), nframes[i], dtype=np.int32))
    captions = make_captions_bulk(ids)
    events = pa.table(
        {
            "video_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "n_frames": pa.array(nframes.astype(np.int32)),
            "w": pa.array(np.full(n_videos, size, np.int32)),
            "h": pa.array(np.full(n_videos, size, np.int32)),
            "fmt": pa.array(["qvid"] * n_videos, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "ts": pa.array(ts.astype(np.int64)),
        }
    )
    pq.write_table(events, os.path.join(path, "events.parquet"))
    allfeat = np.concatenate(feats)
    truth = pa.table(
        {
            "video_id": pa.array(t_vid, pa.string()),
            "frame_idx": pa.array(np.concatenate(t_idx)),
            "n_frames": pa.array(np.concatenate(t_nf)),
            "mean_lum": pa.array(allfeat[:, 0]),
            "contrast": pa.array(allfeat[:, 1]),
            "edge_energy": pa.array(allfeat[:, 2]),
        }
    )
    truth_dir = path.rstrip("/") + "_truth"
    os.makedirs(truth_dir, exist_ok=True)
    pq.write_table(truth, os.path.join(truth_dir, "truth-0000.parquet"))
    with open(os.path.join(path, "_GENERATOR_VERSION"), "w") as f:
        f.write(VIDEO_GENERATOR_VERSION)
    return path
