"""Batch model scoring over join output — the ModelTransform stage.

Reference surface: ModelTransformBatchJob.scala:1-127 (read the
pre-model-transform join output, run the ModelBackend over it, write
row_ids + model outputs), ModelBackend.scala (pluggable inference),
api.thrift:468-486 (Model / ModelTransform / ModelTransforms).

Ray-native design: ONE ``map_batches`` task stage.  Each task builds every
model on its first batch (weights resolved from ``ray.ObjectRef`` params
there — one object-store read per task, never per batch) and scores a whole
Arrow batch vectorized in ``__call__``.  Model backends are a registry of
factories so a deployment can plug real inference (the MockModelBackend role
in ModelTransformsTest.scala is played by the deterministic built-ins here).

Built-in backends:
  * ``linear`` — z = bias + sum(w_i * x_i) accumulated in declaration order
    (a FIXED double-op sequence, so results are bitwise-reproducible and an
    SQL oracle can replicate them exactly); links: identity / sigmoid /
    binary (z > 0).  Null features impute to ``params["impute"]`` (0.0).
  * ``hash_embedding`` — deterministic pseudo-embedding of a string column:
    tokens -> splitmix64 -> signed bucket sums, L2-normalized.  Stands in
    for a real text encoder with the same batch plumbing.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..api import ModelTransform, ModelTransforms


# --------------------------------------------------------------- backends


class LinearModel:
    """Vectorized linear scorer with a fixed accumulation order."""

    def __init__(self, weights: dict[str, float], bias: float = 0.0,
                 link: str = "identity", impute: float = 0.0, output: str = "score"):
        self.weights = dict(weights)
        self.bias = float(bias)
        self.link = link
        self.impute = float(impute)
        self.output = output

    @property
    def input_names(self) -> list[str]:
        return list(self.weights)

    def predict(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        n = len(next(iter(inputs.values())))
        z = np.full(n, self.bias, dtype=np.float64)
        for name, w in self.weights.items():  # fixed declaration order
            x = np.asarray(inputs[name], dtype=np.float64)
            x = np.where(np.isnan(x), self.impute, x)
            z = z + np.float64(w) * x
        if self.link == "identity":
            out = z
        elif self.link == "sigmoid":
            out = 1.0 / (1.0 + np.exp(-z))
        elif self.link == "binary":
            out = (z > 0).astype(np.bool_)
        else:
            raise ValueError(f"unknown link {self.link!r}")
        return {self.output: out}


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


class HashEmbeddingModel:
    """Deterministic token-hash embedding (feature-hashing trick, Weinberger
    et al. 2009): token -> splitmix64 -> bucket (dim) with +/- sign bit,
    summed then L2-normalized.  Vectorized over the whole batch via one
    token explode."""

    def __init__(self, dim: int = 16, seed: int = 0, input: str = "text",
                 output: str = "embedding"):
        self.dim = int(dim)
        self.seed = np.uint64(seed)
        self.input = input
        self.output = output

    @property
    def input_names(self) -> list[str]:
        return [self.input]

    def predict(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        import pandas as pd

        texts = pd.Series(inputs[self.input]).fillna("")
        tokens = texts.str.lower().str.split()
        flat = tokens.explode().dropna()  # empty docs explode to NaN — skip
        doc_idx = flat.index.to_numpy(dtype=np.int64)
        words = flat.to_numpy(dtype=object)
        h = pd.util.hash_array(words.astype("U")).astype(np.uint64)
        h = _splitmix64(h ^ self.seed)
        bucket = (h % np.uint64(self.dim)).astype(np.int64)
        sign = np.where((h >> np.uint64(63)).astype(bool), -1.0, 1.0)
        mat = np.zeros((len(texts), self.dim), dtype=np.float64)
        np.add.at(mat, (doc_idx, bucket), sign)
        norm = np.linalg.norm(mat, axis=1, keepdims=True)
        mat = np.divide(mat, norm, out=np.zeros_like(mat), where=norm > 0)
        return {self.output: list(mat)}


MODEL_BACKENDS = {
    "linear": LinearModel,
    "hash_embedding": HashEmbeddingModel,
}


def register_model_backend(name: str, factory) -> None:
    """Plug a real inference backend (the reference's pluggable ModelBackend,
    ModelBackend.scala:33-54): factory(**params) -> object with
    ``input_names`` and ``predict(dict[str, ndarray]) -> dict[str, ndarray]``."""
    MODEL_BACKENDS[name] = factory


def _build(model, backends=None) -> object:
    import ray

    registry = backends if backends is not None else MODEL_BACKENDS
    if model.backend not in registry:
        raise ValueError(
            f"model backend {model.backend!r} not registered "
            f"(have: {sorted(registry)})"
        )
    params = {
        k: (ray.get(v) if isinstance(v, ray.ObjectRef) else v)
        for k, v in model.params.items()
    }
    return registry[model.backend](**params)


# ------------------------------------------------------------------ stage


class ModelScorer:
    """map_batches task stage: models built ONCE per task, on its first
    batch (weight ObjectRefs resolved there — one object-store read per
    task, not per batch); __call__ scores a whole Arrow batch vectorized."""

    def __init__(self, transforms: list[ModelTransform], keep: list[str], backends=None):
        # `backends` is the driver-side registry snapshot (cloudpickled into
        # the task) so register_model_backend() works across worker processes
        self.transforms = transforms
        self.backends = backends
        self.specs = None
        self.keep = keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.specs is None:
            self.specs = [(mt, _build(mt.model, self.backends)) for mt in self.transforms]
        cols: dict[str, object] = {
            c: batch[c] for c in self.keep if c in batch.column_names
        }
        for mt, model in self.specs:
            mappings = mt.input_mappings or {n: n for n in model.input_names}
            inputs = {}
            for model_in, join_col in mappings.items():
                if join_col not in batch.column_names:
                    raise KeyError(
                        f"model {mt.model.name!r} input {model_in!r} maps to "
                        f"missing join column {join_col!r}"
                    )
                inputs[model_in] = batch[join_col].to_numpy(zero_copy_only=False)
            outputs = model.predict(inputs)
            out_map = mt.output_mappings or {n: n for n in outputs}
            for out_col, field_name in out_map.items():
                if field_name not in outputs:
                    raise KeyError(
                        f"model {mt.model.name!r} has no output field {field_name!r} "
                        f"(have: {sorted(outputs)})"
                    )
                cols[mt.output_column(out_col)] = pa.array(list(outputs[field_name]))
        return pa.table(cols)


def apply_model_transforms(
    ds,
    model_transforms: ModelTransforms,
    row_ids: list[str],
):
    """Score a join-output Dataset: returns row_ids + passthrough fields +
    one column per model output (ModelTransformBatchJob.scala:100-127 run
    loop — here the range stepping lives in the caller / backfill manifest
    and the scoring itself is one streaming task stage)."""
    keep = list(row_ids) + list(model_transforms.passthrough_fields or [])
    return ds.map_batches(
        ModelScorer(model_transforms.transforms, keep, dict(MODEL_BACKENDS)),
        batch_format="pyarrow",
        batch_size=8192,
    )
