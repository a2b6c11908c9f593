"""Scale leg for the corpus-prep text operators: generate a deterministic
1M-doc table (boilerplate planted in 10% of docs so span removal has real
work) and time span_removal / doc_chunks / token_pack / percentile_rank at
the requested CPU count.

Usage: RAY_GRAFT_CPUS=32 DOCS=1000000 python scripts/bench_text_ops.py
Prints one JSON line; records belong in ROUND5.md / BASELINE.md.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_DOCS = int(os.environ.get("DOCS", 1_000_000))
FILES = 32
PATH = f"/tmp/raywin_textbench_{N_DOCS}"
BOILER = "click here to subscribe to our newsletter and never miss an update"


def _gen_file(path: str, fi: int, n: int, base_id: int) -> None:
    rng = np.random.default_rng(100 + fi)
    vocab = np.array([f"w{i:04d}" for i in range(5000)], dtype=object)
    lens = rng.integers(20, 80, n)
    total = int(lens.sum())
    words = vocab[rng.integers(0, len(vocab), total)]
    off = np.zeros(n, dtype=np.int64)
    np.cumsum(lens[:-1], out=off[1:])
    texts = []
    for i in range(n):
        t = " ".join(words[off[i] : off[i] + lens[i]])
        if i % 10 == 0:  # planted cross-doc duplicated span
            t = BOILER + " " + t
        texts.append(t)
    tbl = pa.table(
        {
            "doc_id": pa.array(base_id + np.arange(n, dtype=np.int64)),
            "text": pa.array(texts, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, os.path.join(path, f"docs-{fi:04d}.parquet"))


def ensure_table() -> str:
    import ray

    marker = os.path.join(PATH, f"docs-{FILES - 1:04d}.parquet")
    if os.path.exists(marker):
        return PATH
    os.makedirs(PATH, exist_ok=True)
    per = (N_DOCS + FILES - 1) // FILES
    gen = ray.remote(_gen_file)
    ray.get(
        [
            gen.remote(PATH, fi, min(per, N_DOCS - fi * per), fi * per)
            for fi in range(FILES)
            if min(per, N_DOCS - fi * per) > 0
        ]
    )
    return PATH


def main() -> None:
    import ray

    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    import raywin.context  # engine DataContext defaults

    ray.data.DataContext.get_current().enable_progress_bars = False
    path = ensure_table()

    from raywin.functions.stats import percentile_rank_column
    from raywin.stages.dedup import remove_duplicate_spans
    from raywin.stages.splits import token_pack
    from raywin.stages.text import chunk_documents

    def read(cols):
        return ray.data.read_parquet(path, columns=cols)

    def ntok_counted():
        def add_ntok(df):
            df = df.copy()
            df["n_tok"] = (
                df["text"].fillna("").str.lower().str.count("[0-9a-z_]+")
                .astype("int64")
            )
            return df[["doc_id", "n_tok"]]

        return read(["doc_id", "text"]).map_batches(add_ntok, batch_format="pandas")

    legs = {
        "span_removal": lambda: remove_duplicate_spans(
            read(["doc_id", "text"]), "text", "doc_id", n=5
        ),
        "doc_chunks": lambda: chunk_documents(
            read(["doc_id", "text"]), "text", "doc_id", chunk=32, stride=24
        ),
        "token_pack": lambda: token_pack(
            ntok_counted(), "doc_id", "n_tok", block=64, range_width=4096
        ),
        "percentile_rank": lambda: percentile_rank_column(
            read(["doc_id", "n_chars"]), "n_chars", keep_cols=["doc_id", "n_chars"]
        ),
    }
    out = {}
    rows = {}
    for name, build in legs.items():
        t0 = time.perf_counter()
        rows[name] = build().count()
        out[name] = round(time.perf_counter() - t0, 2)
    print(
        json.dumps(
            {
                "metric": "text-op wall time over generated docs",
                "docs": N_DOCS,
                "num_cpus": cpus,
                "secs": out,
                "rows": rows,
                "docs_per_sec": {
                    k: round(N_DOCS / v, 0) for k, v in out.items()
                },
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
