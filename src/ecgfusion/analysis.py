"""Attention heatmaps, per-lead head similarity, and curve exports.

All consumers here are read-only over a frozen model; exports are
deterministic byte streams (CSV, gnuplot-style two-column series, and
binary ``P5`` portable graymaps).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ecgfusion.data import LoadedRecord
from ecgfusion.errors import ConfigError, DataError
from ecgfusion.model import EcgTransformer
from ecgfusion.training import EpochStats, write_history


@dataclass
class HeatmapMatrix:
    values: np.ndarray  # 12x250
    record_id: str
    layer_index: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"heatmap must be a matrix, got shape {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise DataError("heatmap contains non-finite values")


def pool_heads(weights: np.ndarray) -> np.ndarray:
    """Arithmetic mean over heads of an (H, L, L) attention stack; the
    mean of row-stochastic matrices stays row-stochastic."""
    return np.asarray(weights).mean(axis=0)


def apply_pooled_attention(pooled: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """Attend each lead through a pooled (L, L) weight matrix: output
    lead value at token t is the attention-weighted mix of that lead's
    samples.  Linear in the input for fixed weights."""
    return leads @ pooled.T


def attention_heatmap(model: EcgTransformer, record: LoadedRecord, layer_index: int = 0) -> HeatmapMatrix:
    """Per-lead attended signal from one encoder layer of a frozen model."""
    if not (0 <= layer_index < model.config.n_encoder_layers):
        raise ConfigError(
            f"layer_index {layer_index} outside 0..{model.config.n_encoder_layers - 1}"
        )
    cache: dict = {}
    model.forward(record, train=False, cache=cache)
    pooled = pool_heads(cache["encoder_attn"][layer_index])
    return HeatmapMatrix(
        values=apply_pooled_attention(pooled, record.waveform),
        record_id=record.record_id,
        layer_index=layer_index,
    )


def head_pool_similarity(per_head_vectors, pooled: np.ndarray) -> np.ndarray:
    """Cosine similarity of each head's pre-pool vector against the
    pooled representation; zero-norm vectors map to 0."""
    pooled = np.asarray(pooled, dtype=np.float64)
    pooled_norm = np.linalg.norm(pooled)
    out = np.zeros(len(per_head_vectors))
    for i, vec in enumerate(per_head_vectors):
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != pooled.shape:
            raise ValueError(f"head vector {i} has shape {vec.shape}, pooled {pooled.shape}")
        norm = np.linalg.norm(vec)
        if norm == 0.0 or pooled_norm == 0.0:
            continue
        out[i] = float(vec @ pooled) / (norm * pooled_norm)
    return out


def per_lead_head_summary(cache: dict, d_model: int):
    """Reduce a per-lead forward cache to comparable vectors: each head's
    token-mean output embedded at its slice of the pooled width, plus the
    token-mean of the pooled representation."""
    heads = cache["per_head_outputs"]
    pd = heads[0].shape[1]
    vectors = []
    for i, h in enumerate(heads):
        lifted = np.zeros(d_model)
        lifted[i * pd : (i + 1) * pd] = h.mean(axis=0)
        vectors.append(lifted)
    return vectors, cache["pooled"].mean(axis=0)


# ---------------------------------------------------------------------------
# exports


CURVES = ("train_loss", "val_loss", "train_error", "val_error")


def export_history(history: list[EpochStats], out_dir) -> None:
    """History CSV plus one two-column gnuplot series per curve."""
    if not history:
        raise ValueError("export_history: empty history")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_history(out_dir / "history.csv", history)
    for curve in CURVES:
        with open(out_dir / f"{curve}.dat", "w", encoding="utf-8") as fh:
            for s in history:
                fh.write(f"{s.epoch} {getattr(s, curve):.6f}\n")


def export_heatmap(h: HeatmapMatrix, base_path) -> None:
    """Write ``<base>.csv`` (6-decimal values) and ``<base>.pgm`` (binary
    P5, per-row min-max normalized, degenerate rows at mid-gray 128)."""
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    rows, cols = h.values.shape
    with open(base.with_suffix(".csv"), "w", encoding="utf-8") as fh:
        for row in h.values:
            fh.write(",".join(f"{v:.6f}" for v in row) + "\n")

    gray = np.empty((rows, cols), dtype=np.uint8)
    for i, row in enumerate(h.values):
        lo, hi = row.min(), row.max()
        if hi - lo < 1e-12:
            gray[i] = 128
        else:
            gray[i] = np.rint((row - lo) / (hi - lo) * 255.0).astype(np.uint8)
    with open(base.with_suffix(".pgm"), "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(gray.tobytes())
