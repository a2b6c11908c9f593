"""Audio windowed-feature extraction over opaque binary payload columns.

Completes the multimodal stage set (decode / feature-extract / resize /
frame-sample) for the audio modality: a seekable deterministic container
(``qaud``) plus a ``map_batches`` task stage that decodes ONLY the
sampled windows of each clip and emits vectorized per-window features
(RMS, zero-crossing rate, spectral centroid).  Same scale posture as the
video stage (stages/video.py): a k-of-n uniform sample touches k windows'
compressed bytes, never the full payload, and the payload column is
dropped before any downstream exchange.

Container layout (big-endian)::

    b"QAUD" | u32 n_windows | u32 win_samples | u32 sample_rate
    | n_windows x (u32 offset, u32 length)    -- seek table into data
    | window data                             -- zlib(12-bit PCM, >u2)

Each window compresses independently so any subset decodes without
touching the rest.  The 16->12-bit quantizer is the only lossy step
(SNR ~60 dB on the synthetic clips, comfortably above the 40 dB
invariant).

Real audio codecs (MP3/AAC/Opus) are PERMANENTLY out of scope for the
same reason as WebP and H.264 (stages/images.py:173-181, video.py:20-27):
this repo may use no external data, so fixtures would require a from-spec
*encoder* too.  ``AudioWindowStage`` accepts a ``(probe, decode_windows)``
pair, defaulting to qaud, so a library-backed codec (e.g. soundfile)
plugs in without touching the Ray plumbing.  Audio feature extraction has
no reference counterpart in chronon (payloads there are opaque thrift
``binary`` columns, api/thrift/api.thrift) — it is brief-mandated
net-new surface.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pyarrow as pa

from .images import check_captions, make_captions_bulk
from .video import sample_indices

_HDR = struct.Struct(">III")
_IDX = struct.Struct(">II")

DEFAULT_SAMPLE_RATE = 16_000


# ---------------------------------------------------------------------------
# qaud container
# ---------------------------------------------------------------------------


def qaud_encode(windows: np.ndarray, sample_rate: int = DEFAULT_SAMPLE_RATE) -> bytes:
    """(n_windows, win_samples) int16 PCM -> qaud blob.  Windows compress
    independently so decode can seek."""
    n, w = windows.shape
    q = ((windows.astype(np.int32) + 32768) >> 4).astype(">u2")
    payloads = [zlib.compress(q[i].tobytes(), 6) for i in range(n)]
    index = bytearray()
    off = 0
    for p in payloads:
        index += _IDX.pack(off, len(p))
        off += len(p)
    return b"QAUD" + _HDR.pack(n, w, sample_rate) + bytes(index) + b"".join(payloads)


def qaud_probe(blob: bytes) -> tuple[int, int, int]:
    """Header-only read: (n_windows, win_samples, sample_rate).  O(1)."""
    assert blob[:4] == b"QAUD", "not a qaud container"
    return _HDR.unpack_from(blob, 4)


def qaud_decode_windows(blob: bytes, indices) -> np.ndarray:
    """Decode ONLY the requested window indices -> (k, win_samples) int16.

    Seeks via the index table; unrequested windows' bytes are never
    decompressed.  Output rows follow the given index order."""
    n, w, _sr = qaud_probe(blob)
    data_start = 4 + _HDR.size + n * _IDX.size
    out = np.empty((len(indices), w), dtype=np.int16)
    for j, i in enumerate(indices):
        if not 0 <= i < n:
            raise IndexError(f"window {i} out of range (n_windows={n})")
        off, length = _IDX.unpack_from(blob, 4 + _HDR.size + i * _IDX.size)
        q = np.frombuffer(
            zlib.decompress(blob[data_start + off : data_start + off + length]),
            ">u2",
        ).astype(np.int32)
        out[j] = ((q << 4) + 8 - 32768).astype(np.int16)  # mid-range dequant
    return out


def qaud_roundtrip_pcm(windows: np.ndarray) -> np.ndarray:
    """The exact decode(encode(windows)) PCM without running zlib — the
    quantization is the only lossy step.  Shared by the truth-table
    generator so oracle features are bitwise identical to the stage's."""
    q = (windows.astype(np.int32) + 32768) >> 4
    return ((q << 4) + 8 - 32768).astype(np.int16)


# ---------------------------------------------------------------------------
# Deterministic synthetic PCM (fixtures + invariant ground truth)
# ---------------------------------------------------------------------------


def _clip_params(audio_id: str):
    """(freqs_hz[3], phases_rad[3], amps_i16[3]) as a pure function of id."""
    import pandas as pd

    from ..aggregator.sketches import splitmix64

    seed = np.uint64(pd.util.hash_array(np.array([audio_id], dtype=object))[0])
    with np.errstate(over="ignore"):
        h = splitmix64(np.arange(9, dtype=np.uint64) + seed)
    freqs = 80.0 + (h[0:3] % np.uint64(3000)).astype(np.float64)
    phases = (h[3:6] % np.uint64(10000)).astype(np.float64) / 10000.0 * 2.0 * np.pi
    amps = 6000.0 + (h[6:9] % np.uint64(4000)).astype(np.float64)
    return freqs, phases, amps


def make_pcm_for(
    audio_id: str,
    window_indices,
    win_samples: int,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> np.ndarray:
    """Ground-truth PCM for the given windows -> (k, win_samples) int16.
    Pure function of (audio_id, global sample index): three sinusoids with
    id-derived parameters plus a small splitmix64 dither — any stage can
    re-derive truth for invariant checks without shipping originals."""
    import pandas as pd

    from ..aggregator.sketches import splitmix64

    widx = np.asarray(window_indices, dtype=np.int64)
    t = widx[:, None] * win_samples + np.arange(win_samples, dtype=np.int64)[None, :]
    freqs, phases, amps = _clip_params(audio_id)
    x = np.zeros(t.shape, dtype=np.float64)
    tf = t.astype(np.float64) / float(sample_rate)
    for j in range(3):
        x += amps[j] * np.sin(2.0 * np.pi * freqs[j] * tf + phases[j])
    seed = np.uint64(pd.util.hash_array(np.array([audio_id + "/pcm"], dtype=object))[0])
    with np.errstate(over="ignore"):
        dither = splitmix64(
            t.astype(np.uint64) * np.uint64(0x9E3779B9) + seed
        ) & np.uint64(0x3FF)
    x += dither.astype(np.float64) - 512.0
    return np.clip(x, -32768, 32767).astype(np.int16)


def make_pcm(
    audio_id: str, n_windows: int, win_samples: int,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> np.ndarray:
    """All windows of a clip -> (n_windows, win_samples) int16."""
    return make_pcm_for(audio_id, np.arange(n_windows), win_samples, sample_rate)


# ---------------------------------------------------------------------------
# Window features (vectorized; shared by stage + truth generator)
# ---------------------------------------------------------------------------


def audio_features(pcm: np.ndarray):
    """(rms, zcr, spectral_centroid) for a (k, win_samples) int16 batch.

    rms over samples normalized to [-1, 1]; zcr = fraction of adjacent
    sample pairs with a strict sign change; spectral centroid in rFFT bin
    units (deterministic, no window function).  All float64 so the DuckDB
    oracle comparison over the truth parquet is bitwise."""
    x = pcm.astype(np.float64) / 32768.0
    rms = np.sqrt(np.mean(x * x, axis=1))
    zcr = np.mean((x[:, :-1] * x[:, 1:]) < 0.0, axis=1)
    mag = np.abs(np.fft.rfft(x, axis=1))
    bins = np.arange(mag.shape[1], dtype=np.float64)
    denom = mag.sum(axis=1)
    centroid = (mag * bins).sum(axis=1) / np.where(denom == 0.0, 1.0, denom)
    return rms, zcr, centroid


def snr_db(truth: np.ndarray, decoded: np.ndarray) -> np.ndarray:
    """Per-window SNR in dB: 10 log10(signal power / error power)."""
    s = truth.astype(np.float64)
    e = s - decoded.astype(np.float64)
    ps = np.mean(s * s, axis=1)
    pe = np.maximum(np.mean(e * e, axis=1), 1e-12)
    return 10.0 * np.log10(np.maximum(ps, 1e-12) / pe)


# ---------------------------------------------------------------------------
# The stage
# ---------------------------------------------------------------------------


class AudioWindowStage:
    """map_batches task stage: probe each clip's header, uniformly
    sample ~k windows (same SQL-reproducible stride rule as the video
    stage: ``window_idx % ceil(n/k) == 0``), seek-decode only those, emit
    one row per sampled window with audio features.  The payload column is
    dropped from the output — bytes never ride past this stage.

    Input columns:  audio_id, bytes, fmt (+ any passthrough scalars).
    Output columns: audio_id, window_idx, n_windows (+ passthrough) +
                    rms, zcr, spectral_centroid.

    Invariants per sampled window (same posture as DecodeFeatures /
    FrameSampleStage): decoded PCM within SNR >= 40 dB of the
    deterministic ground truth (the 12-bit quantizer sits at ~60 dB);
    captions byte-exact when a caption column is present.
    ``probe``/``decode_windows`` default to the qaud container and form
    the pluggable-codec seam."""

    def __init__(
        self,
        k: int,
        check_invariants: bool = True,
        probe=qaud_probe,
        decode_windows=qaud_decode_windows,
    ):
        self.k = int(k)
        self.check = check_invariants
        self.probe = probe
        self.decode_windows = decode_windows

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch["bytes"].to_pylist()
        ids = batch["audio_id"].to_pylist()
        n = len(blobs)
        if self.check and "caption" in batch.column_names:
            check_captions(batch["audio_id"], batch["caption"])
        pcm_list, idx_list, nw_list, row_of = [], [], [], []
        for i in range(n):
            nw, ws, sr = self.probe(blobs[i])
            idx = sample_indices(nw, self.k)
            pcm = self.decode_windows(blobs[i], idx)
            if self.check:
                truth = make_pcm_for(ids[i], idx, ws, sr)
                s = snr_db(truth, pcm)
                if not (s >= 40.0).all():  # raised, not asserted: holds under -O
                    raise AssertionError(
                        f"window SNR < 40 dB for {ids[i]} (min {s.min():.1f})"
                    )
            pcm_list.append(pcm)
            idx_list.append(idx)
            nw_list.append(np.full(len(idx), nw, dtype=np.int64))
            row_of.append(np.full(len(idx), i, dtype=np.int64))
        if pcm_list:
            rows = np.concatenate(row_of)
            window_idx = np.concatenate(idx_list)
            n_windows = np.concatenate(nw_list)
        else:
            rows = window_idx = n_windows = np.empty(0, dtype=np.int64)
        widths = {p.shape[1] for p in pcm_list}
        if len(widths) <= 1 and pcm_list:
            # one vectorized feature pass over every sampled window
            rms, zcr, centroid = audio_features(np.concatenate(pcm_list))
        elif pcm_list:  # mixed window sizes: per-clip passes
            parts = [audio_features(p) for p in pcm_list]
            rms = np.concatenate([p[0] for p in parts])
            zcr = np.concatenate([p[1] for p in parts])
            centroid = np.concatenate([p[2] for p in parts])
        else:
            rms = zcr = centroid = np.empty(0, dtype=np.float64)
        keep = [
            c
            for c in batch.column_names
            if c not in ("bytes", "fmt", "caption", "n_windows", "win_samples",
                         "sample_rate")
        ]
        out = batch.select(keep).take(pa.array(rows, pa.int64()))
        out = out.append_column("window_idx", pa.array(window_idx, pa.int32()))
        out = out.append_column("n_windows", pa.array(n_windows, pa.int32()))
        out = out.append_column("rms", pa.array(rms, pa.float64()))
        out = out.append_column("zcr", pa.array(zcr, pa.float64()))
        out = out.append_column(
            "spectral_centroid", pa.array(centroid, pa.float64())
        )
        return out


# ---------------------------------------------------------------------------
# Deterministic synthetic audio event table + per-window truth sibling
# ---------------------------------------------------------------------------

AUDIO_GENERATOR_VERSION = "qaud-v1"


def generate_audio_events(
    path: str,
    n_clips: int,
    seed: int = 91,
    base_ts: int = 1_700_000_000_000,
    span_days: int = 30,
    min_windows: int = 3,
    max_windows: int = 20,
    win_samples: int = 256,
    sample_rate: int = DEFAULT_SAMPLE_RATE,
) -> str:
    """Write a deterministic parquet audio event table (one row per clip:
    audio_id, bytes, n_windows, win_samples, sample_rate, fmt, caption, ts)
    plus a sibling ``{path}_truth`` dir holding per-window features of the
    DECODED windows — lossy truth must reflect the round trip, exactly like
    the image/video generators."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    rng = np.random.default_rng(seed)
    ids = [f"aud_{i:06d}" for i in range(n_clips)]
    nwins = rng.integers(min_windows, max_windows + 1, n_clips)
    ts = base_ts + rng.integers(0, span_days * 24 * 3600 * 1000, n_clips)
    blobs, feats, t_aid, t_idx, t_nw = [], [], [], [], []
    for i, aid in enumerate(ids):
        pcm = make_pcm(aid, int(nwins[i]), win_samples, sample_rate)
        blobs.append(qaud_encode(pcm, sample_rate))
        r, z, c = audio_features(qaud_roundtrip_pcm(pcm))
        feats.append(np.stack([r, z, c], axis=1))
        t_aid.extend([aid] * int(nwins[i]))
        t_idx.append(np.arange(int(nwins[i]), dtype=np.int32))
        t_nw.append(np.full(int(nwins[i]), nwins[i], dtype=np.int32))
    captions = make_captions_bulk(ids)
    events = pa.table(
        {
            "audio_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "n_windows": pa.array(nwins.astype(np.int32)),
            "win_samples": pa.array(np.full(n_clips, win_samples, np.int32)),
            "sample_rate": pa.array(np.full(n_clips, sample_rate, np.int32)),
            "fmt": pa.array(["qaud"] * n_clips, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "ts": pa.array(ts.astype(np.int64)),
        }
    )
    pq.write_table(events, os.path.join(path, "events.parquet"))
    allfeat = np.concatenate(feats)
    truth = pa.table(
        {
            "audio_id": pa.array(t_aid, pa.string()),
            "window_idx": pa.array(np.concatenate(t_idx)),
            "n_windows": pa.array(np.concatenate(t_nw)),
            "rms": pa.array(allfeat[:, 0]),
            "zcr": pa.array(allfeat[:, 1]),
            "spectral_centroid": pa.array(allfeat[:, 2]),
        }
    )
    truth_dir = path.rstrip("/") + "_truth"
    os.makedirs(truth_dir, exist_ok=True)
    pq.write_table(truth, os.path.join(truth_dir, "truth-0000.parquet"))
    with open(os.path.join(path, "_GENERATOR_VERSION"), "w") as f:
        f.write(AUDIO_GENERATOR_VERSION)
    return path
