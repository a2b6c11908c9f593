"""Property tests for the order-sensitive sequence kernels (LagLead,
Sessionize) vs per-key brute force — corners: duplicate timestamps with a
tie-break column, gaps exactly equal to gap_ms (a gap STRICTLY greater
starts a new session), single-event keys, shuffled input order."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from raywin.stages.sequence import LagLead, Sessionize

BASE = 1_700_000_000_000
GAP = 1000

event = st.tuples(
    st.sampled_from(["a", "b"]),
    st.integers(0, 40).map(lambda g: g * GAP),  # ts offsets on gap multiples
    st.integers(-5, 5),
)


def _frame(events):
    df = pd.DataFrame(
        {
            "k": [e[0] for e in events],
            "ts": np.array([BASE + e[1] for e in events], dtype=np.int64),
            "v": np.array([float(e[2]) for e in events]),
        }
    )
    df["seq"] = np.arange(len(df))  # tie-break for duplicate ts
    return df


@settings(max_examples=60, deadline=None)
@given(events=st.lists(event, min_size=1, max_size=25),
       perm_seed=st.integers(0, 1 << 16))
def test_lag_lead_matches_pandas_shift(events, perm_seed):
    df = _frame(events)
    shuffled = df.sample(frac=1, random_state=perm_seed).reset_index(drop=True)
    out = LagLead(["k"], ["v"], lags=(1, 2), leads=(1,), tie_col="seq")(pa.table(shuffled)).to_pandas()
    exp = df.sort_values(["k", "ts", "seq"], kind="mergesort").reset_index(drop=True)
    g = exp.groupby("k", sort=False)["v"]
    for col, want in [
        ("v_lag_1", g.shift(1)), ("v_lag_2", g.shift(2)), ("v_lead_1", g.shift(-1)),
    ]:
        got = out[col].reset_index(drop=True)
        assert got.isna().equals(want.isna().reset_index(drop=True)), col
        pd.testing.assert_series_equal(
            got.fillna(0.0), want.reset_index(drop=True).fillna(0.0),
            check_names=False,
        )


@settings(max_examples=60, deadline=None)
@given(events=st.lists(event, min_size=1, max_size=25),
       perm_seed=st.integers(0, 1 << 16))
def test_sessionize_matches_brute_force(events, perm_seed):
    df = _frame(events)
    shuffled = df.sample(frac=1, random_state=perm_seed).reset_index(drop=True)
    out = Sessionize(["k"], GAP, tie_col="seq")(pa.table(shuffled)).to_pandas()

    exp = df.sort_values(["k", "ts", "seq"], kind="mergesort").reset_index(drop=True)
    sess_ids, seqs = [], []
    prev_key, prev_ts, sid, pos = None, None, -1, 0
    for _, row in exp.iterrows():
        if row["k"] != prev_key:
            sid, pos = 0, 0
        elif row["ts"] - prev_ts > GAP:  # strictly greater starts a session
            sid, pos = sid + 1, 0
        else:
            pos += 1
        sess_ids.append(sid)
        seqs.append(pos)
        prev_key, prev_ts = row["k"], row["ts"]
    assert out["session_id"].tolist() == sess_ids
    assert out["session_event_seq"].tolist() == seqs

    # sessions output mode agrees with the event labels
    sess = Sessionize(["k"], GAP, tie_col="seq", output="sessions")(pa.table(shuffled)).to_pandas()
    lab = out.assign(sid=sess_ids)
    for _, s in sess.iterrows():
        members = lab[(lab["k"] == s["k"]) & (lab["session_id"] == s["session_id"])]
        assert s["n_events"] == len(members)
        assert s["session_start"] == members["ts"].min()
        assert s["session_end"] == members["ts"].max()
        assert s["duration_ms"] == s["session_end"] - s["session_start"]
