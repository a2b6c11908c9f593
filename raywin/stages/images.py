"""Multimodal (image) columns: opaque binary payloads with typed metadata,
decoded/validated in map_batches stages.

Every stage here decodes once per distinct payload: a batch's (bytes, fmt)
columns are dictionary-encoded (exact: a hash plus a byte comparison), each
distinct payload is decoded, checked and featurized once, per shape group,
and the results are gathered back to the rows (``decode_distinct``).  Event
tables repeat an entity's payload on each of its events, so this is the
work of the distinct payloads, not of the rows.

The BASELINE input table is (image_id, bytes, w, h, fmt, caption, phash)
(BASELINE.json input_hint).  This container ships no image libraries (no PIL),
so the codecs are implemented from scratch on stdlib zlib:

  * "png"  — REAL spec-compliant PNG: encode 8-bit RGB (filter 0); decode
             8-bit RGB/RGBA non-interlaced with ALL five scanline filters
             (none/sub/up/average/paeth) — files from any standard encoder
             decode correctly (RFC 2083 §6)
  * "jpeg" — REAL baseline sequential JFIF (ITU-T T.81): huffman entropy
             coding, 4:4:4/4:2:0, restart markers, batched-numpy DCT/IDCT
             (see stages/jpeg.py)
  * "bmp"  — REAL 24-bit uncompressed BMP (BITMAPINFOHEADER, BI_RGB,
             bottom-up, row padding) — interoperable both directions
  * "qimg" — deterministic fake lossy codec (6-bit uniform quantization +
             zlib); PSNR of the round-trip is ~46 dB, exercising the
             "PSNR >= 40 dB for lossy formats" invariant end-to-end

A production deployment would swap `decode_image`'s WebP branch for a real
library decode inside the same stage signature — the Ray-side plumbing
(schema, batch size, map tasks, output layout) is real and tested.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(pixels: np.ndarray) -> bytes:
    """Minimal 8-bit RGB PNG (filter type 0 per scanline)."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    raw = b"".join(b"\x00" + pixels[y].tobytes() for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", zlib.compress(raw, 6)) + _chunk(b"IEND", b"")


def png_decode(blob: bytes) -> np.ndarray:
    """Spec-compliant decode of 8-bit RGB / RGBA non-interlaced PNGs with
    ALL five scanline filter types (none/sub/up/average/paeth, RFC 2083
    §6) — files from any standard encoder decode, not just our own
    filter-0 output.  Per-row numpy unfiltering (vectorized across the
    row; sub/paeth are inherently sequential along x and use a cumulative
    formulation / tight per-pixel walk only on rows that need it)."""
    assert blob[:8] == _PNG_SIG, "not a PNG"
    off = 8
    w = h = None
    channels = 3
    idat = b""
    while off < len(blob):
        (ln,) = struct.unpack_from(">I", blob, off)
        tag = blob[off + 4 : off + 8]
        payload = blob[off + 8 : off + 8 + ln]
        if tag == b"IHDR":
            w, h, depth, color, _comp, _filt, interlace = struct.unpack_from(
                ">IIBBBBB", payload
            )
            assert depth == 8, "only 8-bit channels supported"
            assert color in (2, 6), "only RGB / RGBA supported"
            assert interlace == 0, "interlaced PNG not supported"
            channels = 3 if color == 2 else 4
        elif tag == b"IDAT":
            idat += payload
        off += 12 + ln
    raw = np.frombuffer(zlib.decompress(idat), np.uint8)
    bpp = channels
    stride = 1 + w * channels
    raw = raw.reshape(h, stride)
    filters = raw[:, 0]
    out = np.zeros((h, w * channels), dtype=np.uint8)
    for y in range(h):
        f = filters[y]
        cur = raw[y, 1:].astype(np.int32)
        prior = out[y - 1].astype(np.int32) if y else np.zeros(w * channels, np.int32)
        if f == 0:  # None
            line = cur
        elif f == 2:  # Up
            line = (cur + prior) & 0xFF
        elif f == 1:  # Sub — cumulative along x per channel lane
            lanes = cur.reshape(w, bpp)
            line = np.cumsum(lanes, axis=0, dtype=np.int64).reshape(-1) & 0xFF
        elif f == 3:  # Average — sequential in x (left depends on output)
            line = np.empty(w * channels, np.int32)
            line[:bpp] = (cur[:bpp] + (prior[:bpp] >> 1)) & 0xFF
            for i in range(bpp, w * channels):
                line[i] = (cur[i] + ((line[i - bpp] + prior[i]) >> 1)) & 0xFF
        elif f == 4:  # Paeth — sequential in x
            line = np.empty(w * channels, np.int32)
            for i in range(w * channels):
                a = line[i - bpp] if i >= bpp else 0
                b = prior[i]
                c = prior[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else c)
                line[i] = (cur[i] + pred) & 0xFF
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[y] = line.astype(np.uint8)
    return out.reshape(h, w, channels)


def bmp_encode(pixels: np.ndarray) -> bytes:
    """Real 24-bit uncompressed BMP (BITMAPINFOHEADER, BI_RGB, bottom-up,
    4-byte row padding) — interoperable with any image tool."""
    h, w, c = pixels.shape
    assert c == 3 and pixels.dtype == np.uint8
    row_bytes = w * 3
    pad = (-row_bytes) % 4
    bgr = pixels[::-1, :, ::-1]  # bottom-up rows, BGR channel order
    if pad:
        padded = np.zeros((h, row_bytes + pad), dtype=np.uint8)
        padded[:, :row_bytes] = bgr.reshape(h, row_bytes)
        body = padded.tobytes()
    else:
        body = bgr.tobytes()
    data_off = 14 + 40
    return (
        struct.pack("<2sIHHI", b"BM", data_off + len(body), 0, 0, data_off)
        + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 2835, 2835, 0, 0)
        + body
    )


def bmp_decode(blob: bytes) -> np.ndarray:
    assert blob[:2] == b"BM", "not a BMP"
    (data_off,) = struct.unpack_from("<I", blob, 10)
    hdr_size, w, h, _planes, bpp, comp = struct.unpack_from("<IiiHHI", blob, 14)
    assert bpp == 24 and comp == 0, "only 24-bit BI_RGB supported"
    bottom_up = h > 0
    h = abs(h)
    row_bytes = w * 3
    stride = row_bytes + ((-row_bytes) % 4)
    raw = np.frombuffer(blob, np.uint8, count=h * stride, offset=data_off)
    rows = raw.reshape(h, stride)[:, :row_bytes].reshape(h, w, 3)
    if bottom_up:
        rows = rows[::-1]
    return rows[:, :, ::-1].copy()  # BGR -> RGB


def qimg_encode(pixels: np.ndarray) -> bytes:
    """Deterministic lossy codec: 6-bit quantization + zlib (PSNR ~46 dB)."""
    h, w, _ = pixels.shape
    q = (pixels >> 2).astype(np.uint8)
    return b"QIMG" + struct.pack(">II", w, h) + zlib.compress(q.tobytes(), 6)


def qimg_decode(blob: bytes) -> np.ndarray:
    assert blob[:4] == b"QIMG"
    w, h = struct.unpack_from(">II", blob, 4)
    q = np.frombuffer(zlib.decompress(blob[12:]), np.uint8).reshape(h, w, 3)
    return (q << 2) | (q >> 4)  # dequantize to mid-range


#: Pluggable decode seam — register_codec("webp", fn) plugs a real library
#: decoder (e.g. libwebp) into every pipeline; the Ray-side plumbing
#: (DecodeFeatures batching, output schema, invariant checks) is
#: codec-agnostic.  WebP is PERMANENTLY out of scope for the built-in
#: codecs: a from-spec VP8 intra decoder is a large lift, and — since this
#: repo may use no external data — its test fixtures would also require a
#: from-spec VP8 ENCODER.  The seam (+ tests/test_codecs.py seam test) is
#: the supported path.
_EXTRA_CODECS: dict = {}


def register_codec(fmt: str, decode_fn) -> None:
    """Register decode_fn(blob) -> (h, w, 3) uint8 RGB for a format name."""
    _EXTRA_CODECS[fmt] = decode_fn


def unregister_codec(fmt: str) -> None:
    _EXTRA_CODECS.pop(fmt, None)


def decode_image(blob: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return png_decode(blob)
    if fmt in ("jpeg", "jpg"):
        from .jpeg import jpeg_decode

        return jpeg_decode(blob)
    if fmt == "bmp":
        return bmp_decode(blob)
    if fmt == "qimg":
        return qimg_decode(blob)
    fn = _EXTRA_CODECS.get(fmt)
    if fn is not None:
        return fn(blob)
    raise NotImplementedError(
        f"codec {fmt!r}: not built in (png, bmp and baseline jpeg are real "
        "spec-compliant codecs, qimg the deterministic lossy stand-in) — "
        "plug a library decoder in via register_codec(fmt, fn); WebP "
        "specifically is documented out of scope (VP8 machinery)"
    )


def decode_images_bulk(blobs: list[bytes], fmts: np.ndarray) -> list[np.ndarray]:
    """Decode a batch, routing JPEGs through the batched finish
    (jpeg_decode_many: per-image entropy decode, ONE numpy
    dezigzag/IDCT/color pass per geometry group) and everything else through
    the per-image dispatch.  Bit-identical to per-row decode_image."""
    jpeg_idx = [i for i, f in enumerate(fmts) if f in ("jpeg", "jpg")]
    out: list = [None] * len(blobs)
    if jpeg_idx:
        from .jpeg import jpeg_decode_many

        for i, px in zip(jpeg_idx, jpeg_decode_many([blobs[i] for i in jpeg_idx])):
            out[i] = px
    for i in range(len(blobs)):
        if out[i] is None:
            out[i] = decode_image(blobs[i], fmts[i])
    return out


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)


def pixel_features(px: np.ndarray):
    """(mean_lum, contrast, edge_energy) for a (n, h, w, 3) uint8 batch —
    ONE definition shared by the decode stage and the truth-table generator
    so oracle values are bitwise identical."""
    lum = 0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]
    mean_lum = lum.mean(axis=(1, 2))
    contrast = lum.std(axis=(1, 2))
    edge_energy = np.abs(np.diff(lum, axis=2)).mean(axis=(1, 2))
    return mean_lum, contrast, edge_energy


LOSSLESS_FORMATS = ("png", "bmp")


def _codes(col: pa.ChunkedArray) -> np.ndarray:
    """Dense int64 code per row of a table column: two rows share a code
    exactly when their values are equal (``pc.dictionary_encode`` hashes
    each value and compares it byte for byte; no digest).  Nulls get a code
    of their own; the chunks share one dictionary."""
    enc = pc.dictionary_encode(col, null_encoding="encode")
    codes = pa.chunked_array([c.indices for c in enc.chunks], pa.int32())
    return codes.to_numpy().astype(np.int64)


def _distinct(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inv) over the distinct (a, b) code pairs (each code < the
    row count): first[j] is the first row holding pair j and inv[r] the
    pair of row r, so row r's values are exactly row first[inv[r]]'s."""
    _, first, inv = np.unique(
        a * len(a) + b, return_index=True, return_inverse=True
    )
    return first, inv.reshape(-1)


def _shape_groups(pixels: list[np.ndarray]):
    """(stacked pixels, indices into ``pixels``) per distinct image shape."""
    groups: dict = {}
    for j, p in enumerate(pixels):
        groups.setdefault(p.shape, []).append(j)
    return [
        (np.stack([pixels[j] for j in idx]), np.asarray(idx, dtype=np.int64))
        for idx in groups.values()
    ]


def decode_distinct(batch: pa.Table, bytes_col: str = "bytes", fmt_col: str = "fmt"):
    """Decode each distinct (payload, fmt) of ``batch`` once (through
    :func:`decode_images_bulk`, so JPEGs keep the batched finish).  Returns
    (pixels, fmts, inv): the decoded distinct payloads, their format labels
    and each row's index into them — row r's pixels are ``pixels[inv[r]]``.
    Pixels are RGB: an alpha channel (RGBA PNG) is dropped, as PIL's
    ``convert("RGB")`` does."""
    first, inv = _distinct(_codes(batch[bytes_col]), _codes(batch[fmt_col]))
    fmts = np.asarray(batch[fmt_col].take(first).to_pylist(), dtype=object)
    pixels = decode_images_bulk(batch[bytes_col].take(first).to_pylist(), fmts)
    return [px[..., :3] for px in pixels], fmts, inv


def check_captions(ids, captions) -> None:
    """Assert that every row's caption is ``make_caption(image_id)``, once
    per distinct (image_id, caption) pair; the error names the first
    corrupted row's id."""
    first, inv = _distinct(_codes(ids), _codes(captions))
    pair_ids = ids.take(first).to_pylist()
    got = np.asarray(captions.take(first).to_pylist(), dtype=object)
    expected = np.asarray(make_captions_bulk(pair_ids), dtype=object)
    bad_rows = np.flatnonzero((got != expected)[inv])
    if len(bad_rows):
        j = inv[bad_rows[0]]
        raise AssertionError(
            f"caption corrupted for {pair_ids[j]}: {got[j]!r} != {expected[j]!r} "
            f"(+{len(bad_rows) - 1} more)"
        )


class DecodeFeatures:
    """map_batches stage: decode payloads, verify invariants, emit pixel
    features.

    Each distinct (payload, fmt) of a batch is decoded once and its pixel
    features computed once, per shape group; the results are gathered back
    to the rows.

    Invariants enforced for every row (BASELINE): decoded pixels match the
    original within PSNR >= 40 dB for lossy formats and exactly for
    lossless ones (png, bmp); captions ride through byte-exact.  The
    original pixel array is reconstructable here because generation is
    deterministic from image_id (see make_pixels).  A row's pixels are
    those of its (payload, fmt), so the pixel check runs once per distinct
    (payload, fmt, image_id) and the caption check once per distinct
    (image_id, caption).
    """

    def __init__(self, check_invariants: bool = True):
        self.check = check_invariants

    def __call__(self, batch: pa.Table) -> pa.Table:
        pixels, fmts, inv = decode_distinct(batch)
        if self.check and "caption" in batch.column_names:
            check_captions(batch["image_id"], batch["caption"])
        feats = np.empty((3, len(pixels)))
        for px, idx in _shape_groups(pixels):
            feats[:, idx] = pixel_features(px)
        if self.check:
            self._check_pixels(batch["image_id"], pixels, fmts, inv)
        out = batch.drop_columns(["bytes"])  # payload does NOT ride further
        for c, v in zip(("mean_lum", "contrast", "edge_energy"), feats):
            out = out.append_column(c, pa.array(v[inv], pa.float64()))
        return out

    @staticmethod
    def _check_pixels(ids, pixels, fmts, inv) -> None:
        """Compare each distinct (payload, fmt, image_id)'s pixels with
        make_pixels(image_id): exact for lossless formats, PSNR >= 40 dB
        otherwise; one make_pixels_bulk per shape group."""
        first, _ = _distinct(inv, _codes(ids))
        pay = inv[first]  # distinct payload of each triple
        tids = np.asarray(ids.take(first).to_pylist(), dtype=object)
        lossless = np.isin(fmts[pay], LOSSLESS_FORMATS)
        for got, sel in _shape_groups([pixels[j] for j in pay]):
            orig = make_pixels_bulk(tids[sel].tolist(), got.shape[2], got.shape[1])
            # int16 diff / int32 square: exact (|diff| <= 255, squares are
            # integers, float64-accumulated mean) and ~4x less temp memory
            # than the float64 pipeline
            diff = orig.astype(np.int16) - got.astype(np.int16)
            mse = np.mean(np.square(diff, dtype=np.int32), axis=(1, 2, 3))
            exact = lossless[sel]
            bad = np.flatnonzero(exact & (mse > 0))
            if len(bad):
                raise AssertionError(f"lossless decode mismatch for {tids[sel[bad[0]]]}")
            p = 10.0 * np.log10(255.0**2 / np.maximum(mse[~exact], 1e-12))
            if (p < 40.0).any():
                raise AssertionError(f"PSNR < 40 dB (min {p.min():.1f})")


# ---------------------------------------------------------------------------
# Deterministic synthetic image event table (FIXTURES.md F1)
# ---------------------------------------------------------------------------

# bump when make_pixels/make_caption/codecs change: cached /tmp tables from
# an older generator would fail the decode invariant checks
# v4: JPEG f/idct moved from naive einsum to batched matmuls (16x faster) —
# summation order changed, so decoded pixels can shift on rounding
# boundaries and cached truth features from v3 would be stale
GENERATOR_VERSION = "v4-truth"

# default format mix (legacy 50/50 draw — existing caches stay valid); the
# mixed web-corpus shape adds baseline JPEG
FORMATS_DEFAULT = ("png", "qimg")
FORMATS_MIXED = ("png", "jpeg", "qimg")


def _marker_text(formats) -> str:
    return (
        GENERATOR_VERSION
        if tuple(formats) == FORMATS_DEFAULT
        else GENERATOR_VERSION + "+" + "/".join(formats)
    )


def cache_is_current(path: str, formats=FORMATS_DEFAULT) -> bool:
    import os

    marker = os.path.join(path, "_GENERATOR_VERSION")
    try:
        with open(marker) as f:
            return f.read().strip() == _marker_text(formats)
    except OSError:
        return False


_CAPTION_WORDS = (
    "red blue ancient tiny huge bright cat dog tree river mountain city "
    "night day photo painting sketch sunset forest ocean"
).split()


def make_pixels(image_id: str, w: int = 8, h: int = 8) -> np.ndarray:
    """Pixels are a pure function of image_id — lets any stage re-derive the
    ground truth for invariant checks without shipping originals around.
    splitmix64 counter stream: vectorized, ~10x cheaper than a Generator."""
    from ..aggregator.sketches import splitmix64

    seed = np.uint64(pd.util.hash_array(np.array([image_id], dtype=object))[0])
    n = h * w * 3
    with np.errstate(over="ignore"):
        stream = splitmix64(np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B9) + seed)
    return (stream & np.uint64(0xFF)).astype(np.uint8).reshape(h, w, 3)


# reusable uint64 work buffers for make_pixels_bulk, keyed by capacity: the
# out-of-place pipeline allocated ~8 fresh multi-MB temporaries per batch and
# fresh-page faults cost ~100x the arithmetic on this class of host (measured
# 1.25 s -> ~15 ms per 8192-row batch).  A warm map-task worker process keeps
# the buffers across batches, paying the faults once.
_PIX_BUFS: dict = {}


def _pix_bufs(total: int) -> tuple[np.ndarray, np.ndarray]:
    cap = _PIX_BUFS.get("cap", 0)
    if cap < total:
        _PIX_BUFS["z"] = np.empty(total, dtype=np.uint64)
        _PIX_BUFS["tmp"] = np.empty(total, dtype=np.uint64)
        _PIX_BUFS["cap"] = total
    return _PIX_BUFS["z"][:total], _PIX_BUFS["tmp"][:total]


def make_pixels_bulk(image_ids: list[str], w: int, h: int) -> np.ndarray:
    """Vectorized make_pixels for a whole batch -> (n, h, w, 3) uint8.

    Bit-identical to per-row :func:`make_pixels`; generates each DISTINCT id
    once (entities repeat ~40x in the event tables, and Zipf-hot batches far
    more) and runs the splitmix64 stream in place over reused buffers."""
    from ..aggregator.sketches import splitmix64_inplace

    ids_arr = np.asarray(image_ids, dtype=object)
    uniq, inv = np.unique(ids_arr, return_inverse=True)
    seeds = pd.util.hash_array(uniq).astype(np.uint64)
    n = h * w * 3
    z, tmp = _pix_bufs(len(uniq) * n)
    z2 = z.reshape(len(uniq), n)
    with np.errstate(over="ignore"):
        ctr = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B9)
        np.add(ctr[None, :], seeds[:, None], out=z2)
        splitmix64_inplace(z, tmp)
    uniq_px = (z2 & np.uint64(0xFF)).astype(np.uint8).reshape(len(uniq), h, w, 3)
    return uniq_px[inv]


def make_caption(image_id: str) -> str:
    from ..aggregator.sketches import splitmix64

    seed = np.uint64(pd.util.hash_array(np.array([image_id + "/cap"], dtype=object))[0])
    with np.errstate(over="ignore"):
        idx = splitmix64(np.arange(6, dtype=np.uint64) + seed) % np.uint64(len(_CAPTION_WORDS))
    return " ".join(_CAPTION_WORDS[int(i)] for i in idx)


def make_captions_bulk(image_ids: list[str]) -> list[str]:
    """Vectorized make_caption for a whole batch."""
    from ..aggregator.sketches import splitmix64

    seeds = pd.util.hash_array(
        np.char.add(np.asarray(image_ids, dtype=str), "/cap").astype(object)
    ).astype(np.uint64)
    with np.errstate(over="ignore"):
        idx = splitmix64(np.arange(6, dtype=np.uint64)[None, :] + seeds[:, None]) % np.uint64(
            len(_CAPTION_WORDS)
        )
    words = np.asarray(_CAPTION_WORDS, dtype=object)
    return [" ".join(words[row]) for row in idx]


def generate_image_events(
    path: str,
    n_rows: int,
    n_entities: int,
    seed: int = 42,
    base_ts: int = 1_700_000_000_000,
    span_days: int = 30,
    skew: float = 1.2,
    files: int = 8,
    size: int = 8,
    formats=FORMATS_DEFAULT,
):
    """Write a deterministic parquet image event table with Zipf-skewed
    entities and phash values (hot keys on purpose — the skew the engine's
    salting/time-bucketing must absorb).  ``formats`` picks the payload
    codec mix (uniform draw); the 2-format default reproduces the legacy
    50/50 png/qimg tables byte-for-byte."""
    import os

    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "_GENERATOR_VERSION"), "w") as f:
        f.write(_marker_text(formats))
    rows_per_file = (n_rows + files - 1) // files
    jobs = []
    for fi in range(files):
        n = min(rows_per_file, n_rows - fi * rows_per_file)
        if n <= 0:
            break
        jobs.append((fi, n))
    try:
        import ray

        if ray.is_initialized():
            gen = ray.remote(_generate_image_file)
            ray.get(
                [
                    gen.remote(
                        path, fi, n, n_entities, seed + fi, base_ts, span_days,
                        skew, size, formats,
                    )
                    for fi, n in jobs
                ]
            )
            return path
    except ImportError:
        pass
    for fi, n in jobs:
        _generate_image_file(
            path, fi, n, n_entities, seed + fi, base_ts, span_days, skew, size, formats
        )
    return path


def _encode_payload(px: np.ndarray, fmt: str) -> tuple[bytes, tuple]:
    """(blob, truth pixel features of the DECODED payload) for one codec —
    truth must reflect the round trip, not the original, for lossy formats."""
    if fmt == "png":
        blob = png_encode(px)
        decoded = px
    elif fmt == "qimg":
        blob = qimg_encode(px)
        q = px >> 2
        decoded = (q << 2) | (q >> 4)
    elif fmt == "jpeg":
        from .jpeg import jpeg_decode, jpeg_encode

        # Q100 4:4:4: random-noise fixtures are the DCT worst case; this
        # setting keeps the round trip comfortably above the 40 dB invariant
        blob = jpeg_encode(px, quality=100, subsampling="444")
        decoded = jpeg_decode(blob)
    else:  # pragma: no cover
        raise ValueError(f"unknown fixture format {fmt!r}")
    feats = pixel_features(decoded[None, ...])
    return blob, tuple(float(v[0]) for v in feats)


def _generate_image_file(
    path, fi, n, n_entities, seed, base_ts, span_days, skew, size,
    formats=FORMATS_DEFAULT,
):
    import os

    import pyarrow.parquet as pq

    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_entities + 1, dtype=np.float64)
    probs = ranks**-skew
    probs /= probs.sum()
    span = span_days * 24 * 3600 * 1000
    ent_idx = rng.choice(n_entities, n, p=probs)
    ids = np.array([f"img_{e:08d}" for e in ent_idx])
    ts = base_ts + rng.integers(0, span, n)
    # one uniform draw regardless of |formats| so downstream rng draws
    # (score, views) stay on the legacy stream; len==2 reproduces the
    # original `rng.random(n) < 0.5` png/qimg split exactly
    fmt_arr = np.asarray(formats, dtype=object)
    fmts = fmt_arr[
        np.minimum((rng.random(n) * len(formats)).astype(np.int64), len(formats) - 1)
    ].astype(str)
    # payloads are pure functions of image_id — compute once per unique
    # (entity, fmt) actually drawn
    caption_of: dict[str, str] = {}
    phash_of: dict[str, np.int64] = {}
    blob_of: dict[tuple[str, str], bytes] = {}
    feat_of: dict[tuple[str, str], tuple] = {}
    uniq_ids = np.unique(ids)
    px_of = {i: make_pixels(i, size, size) for i in uniq_ids}
    for image_id in uniq_ids:
        px = px_of[image_id]
        bits = (px.mean(axis=2) > px.mean()).flatten()[:64]
        phash_of[image_id] = np.int64(
            (bits.astype(np.uint64) << np.arange(len(bits), dtype=np.uint64))
            .sum()
            .astype(np.uint64)
            .view(np.int64)
        )
        caption_of[image_id] = make_caption(image_id)
    for f in dict.fromkeys(formats):
        for image_id in np.unique(ids[fmts == f]):
            blob_of[(image_id, f)], feat_of[(image_id, f)] = _encode_payload(
                px_of[image_id], f
            )
    blobs, captions, phashes = [], [], np.empty(n, dtype=np.int64)
    feats = np.empty((n, 3), dtype=np.float64)
    for i in range(n):
        key = (ids[i], fmts[i])
        blobs.append(blob_of[key])
        captions.append(caption_of[ids[i]])
        phashes[i] = phash_of[ids[i]]
        feats[i] = feat_of[key]
    # score is decimal-valued (3 digits) so float aggregates can use the
    # engine's exact fixed-point path and match the SQL oracle bitwise
    score = np.round(rng.normal(0.5, 0.2, n), 3)
    views = rng.integers(1, 1000, n)
    table = pa.table(
        {
            "image_id": pa.array(ids),
            "bytes": pa.array(blobs, type=pa.binary()),
            "w": pa.array(np.full(n, size, np.int32)),
            "h": pa.array(np.full(n, size, np.int32)),
            "fmt": pa.array(fmts),
            "caption": pa.array(captions),
            "phash": pa.array(phashes),
            "ts": pa.array(ts.astype(np.int64)),
            "score": pa.array(score),
            "views": pa.array(views.astype(np.int64)),
        }
    )
    pq.write_table(table, os.path.join(path, f"part-{fi:04d}.parquet"))
    truth = pa.table(
        {
            "image_id": pa.array(ids),
            "ts": pa.array(ts.astype(np.int64)),
            "phash": pa.array(phashes),
            "score": pa.array(score),
            "views": pa.array(views.astype(np.int64)),
            "mean_lum": pa.array(feats[:, 0]),
            "contrast": pa.array(feats[:, 1]),
            "edge_energy": pa.array(feats[:, 2]),
        }
    )
    # sibling dir: the event table path is scanned whole by the pipeline
    truth_dir = path.rstrip("/") + "_truth"
    os.makedirs(truth_dir, exist_ok=True)
    pq.write_table(truth, os.path.join(truth_dir, f"truth-{fi:04d}.parquet"))
    return path


# ---------------------------------------------------------------------------
# Multimodal preprocessing: vectorized bilinear resize (training-data shape)
# ---------------------------------------------------------------------------

def resize_bilinear(px: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """(n, h, w, c) uint8 -> (n, out_h, out_w, c) uint8, vectorized bilinear
    with half-pixel centers (the OpenCV/PIL 'align_corners=False'
    convention).  Pure numpy: gather rows/cols once, two lerps."""
    n, h, w, c = px.shape
    ys = (np.arange(out_h) + 0.5) * h / out_h - 0.5
    xs = (np.arange(out_w) + 0.5) * w / out_w - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[None, :, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, None, :, None]
    p = px.astype(np.float64)
    r0 = p[:, y0]  # (n, out_h, w, c)
    r1 = p[:, y1]
    top = r0[:, :, x0] * (1.0 - wx) + r0[:, :, x1] * wx
    bot = r1[:, :, x0] * (1.0 - wx) + r1[:, :, x1] * wx
    out = top * (1.0 - wy) + bot * wy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


class ResizeStage:
    """map_batches task stage: decode -> bilinear resize to a fixed
    (out_h, out_w) -> emit raw RGB tensors as fixed-size binary + features
    at the target resolution.  The training-data preprocessing shape:
    payload bytes are REPLACED by the normalized tensor, never both ride.

    Video frame-sampling plugs into the same seam: register a video codec
    via register_codec(fmt, fn) returning (frames, h, w, 3) and sample
    frame indices before this resize (the decode dispatch + batching +
    schema here are format-agnostic)."""

    def __init__(self, out_h: int, out_w: int):
        self.out_h = int(out_h)
        self.out_w = int(out_w)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # decode and resize each distinct (payload, fmt) once, vectorized
        # per shape group; rows gather their distinct image's results
        pixels, _, inv = decode_distinct(batch)
        resized = np.empty((len(pixels), self.out_h, self.out_w, 3), dtype=np.uint8)
        for px, idx in _shape_groups(pixels):
            resized[idx] = resize_bilinear(px, self.out_h, self.out_w)
        lum = 0.299 * resized[..., 0] + 0.587 * resized[..., 1] + 0.114 * resized[..., 2]
        n = batch.num_rows
        out = batch.drop_columns(["bytes"])
        out = out.append_column(
            "pixels", pa.array([r.tobytes() for r in resized], pa.binary()).take(inv)
        )
        out = out.append_column("out_h", pa.array(np.full(n, self.out_h, np.int32)))
        out = out.append_column("out_w", pa.array(np.full(n, self.out_w, np.int32)))
        out = out.append_column("mean_lum_rs", pa.array(lum.mean(axis=(1, 2))[inv]))
        return out
