"""Media containers and their invariants: a k-of-n seek decode of a qvid
or qaud container equals those rows of the full decode, for random
container shapes; and the stages' decode invariants raise on one
corrupted frame or window even under ``python -O``, which strips bare
asserts."""

import os
import subprocess
import sys
import textwrap

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from raywin.stages.audio import make_pcm, qaud_decode_windows, qaud_encode, qaud_probe
from raywin.stages.video import (
    make_frames, qvid_decode_frames, qvid_encode, qvid_probe, sample_indices,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 45), w=st.integers(1, 12),
       h=st.integers(1, 12), data=st.data())
def test_qvid_k_of_n_decode_is_a_slice_of_the_full_decode(n, k, w, h, data):
    blob = qvid_encode(make_frames(f"vid_{n}_{w}x{h}", n, w, h))
    assert qvid_probe(blob) == (n, w, h)
    full = qvid_decode_frames(blob, range(n))
    idx = sample_indices(n, k)
    np.testing.assert_array_equal(qvid_decode_frames(blob, idx), full[idx])
    # any subset, in any order, with repeats
    pick = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    np.testing.assert_array_equal(qvid_decode_frames(blob, pick), full[pick])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 45), window=st.integers(1, 600),
       data=st.data())
def test_qaud_k_of_n_decode_is_a_slice_of_the_full_decode(n, k, window, data):
    blob = qaud_encode(make_pcm(f"aud_{n}_{window}", n, window))
    assert qaud_probe(blob)[:2] == (n, window)
    full = qaud_decode_windows(blob, range(n))
    idx = sample_indices(n, k)
    np.testing.assert_array_equal(qaud_decode_windows(blob, idx), full[idx])
    pick = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    np.testing.assert_array_equal(qaud_decode_windows(blob, pick), full[pick])


_UNDER_O = textwrap.dedent("""
    import numpy as np
    import pyarrow as pa

    from raywin.stages.audio import AudioWindowStage, make_pcm, qaud_encode
    from raywin.stages.images import make_caption
    from raywin.stages.video import FrameSampleStage, make_frames, qvid_encode

    if __debug__:
        print("not optimized")

    def batch(id_col, media_id, blob, fmt):
        return pa.table({
            id_col: pa.array([media_id]), "bytes": pa.array([blob], pa.binary()),
            "fmt": pa.array([fmt]), "caption": pa.array([make_caption(media_id)]),
            "ts": pa.array([0], pa.int64()),
        })

    frames = make_frames("vid_o", 6, 8, 8)
    frames[0] = 255 - frames[0]  # frame 0 is always sampled
    pcm = make_pcm("aud_o", 6, 256)
    pcm[0] = 0
    cases = [
        ("video", FrameSampleStage(4), batch("video_id", "vid_o", qvid_encode(frames), "qvid")),
        ("audio", AudioWindowStage(4), batch("audio_id", "aud_o", qaud_encode(pcm), "qaud")),
    ]
    for name, stage, b in cases:
        try:
            stage(b)
            print(name, "passed")
        except AssertionError as e:
            print(name, "raised:", e)
""")


def test_media_invariants_raise_under_python_O():
    """One corrupted frame and one corrupted window each raise
    AssertionError in a ``python -O`` interpreter."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O], cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "not optimized" not in lines
    assert any(l.startswith("video raised: frame PSNR < 40 dB") for l in lines), lines
    assert any(l.startswith("audio raised: window SNR < 40 dB") for l in lines), lines
