"""Tests for attention heatmaps, head similarity, and exports."""

import numpy as np
import pytest

from ecgfusion.analysis import (
    HeatmapMatrix,
    apply_pooled_attention,
    attention_heatmap,
    export_heatmap,
    export_history,
    head_pool_similarity,
    per_lead_head_summary,
    pool_heads,
)
from ecgfusion.data import LoadedRecord
from ecgfusion.model import EcgTransformer, ModelConfig
from ecgfusion.training import EpochStats, read_history


def small_model(seed=0, **overrides):
    base = dict(
        seq_len=16,
        d_model=8,
        n_heads=2,
        n_encoder_layers=2,
        n_decoder_layers=1,
        dropout=0.0,
        feedforward_dim=32,
    )
    base.update(overrides)
    return EcgTransformer(ModelConfig(**base), seed=seed)


def record_for(model, seed=0):
    rng = np.random.default_rng(seed)
    return LoadedRecord(
        record_id=f"rec{seed}",
        waveform=rng.normal(size=(model.config.n_leads, model.config.seq_len)),
        labels=np.array([1.0, 0, 0, 0, 0]),
        embedding=rng.normal(size=768),
    )


class TestPooledAttention:
    def test_uniform_attention_broadcasts_lead_means(self):
        leads = np.random.default_rng(1).normal(size=(12, 10))
        pooled = np.full((10, 10), 0.1)
        out = apply_pooled_attention(pooled, leads)
        expect = np.tile(leads.mean(axis=1, keepdims=True), (1, 10))
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_identity_attention_preserves_input(self):
        leads = np.random.default_rng(2).normal(size=(12, 16))
        np.testing.assert_array_equal(apply_pooled_attention(np.eye(16), leads), leads)

    def test_pool_of_row_stochastic_is_row_stochastic(self):
        rng = np.random.default_rng(3)
        stack = rng.random((4, 9, 9))
        stack /= stack.sum(axis=-1, keepdims=True)
        pooled = pool_heads(stack)
        np.testing.assert_allclose(pooled.sum(axis=-1), 1.0, atol=1e-10)

    def test_linear_in_input_for_fixed_weights(self):
        rng = np.random.default_rng(4)
        stack = rng.random((3, 8, 8))
        stack /= stack.sum(axis=-1, keepdims=True)
        pooled = pool_heads(stack)
        leads = rng.normal(size=(12, 8))
        np.testing.assert_allclose(
            apply_pooled_attention(pooled, 2.5 * leads),
            2.5 * apply_pooled_attention(pooled, leads),
            atol=1e-12,
        )


class TestAttentionHeatmap:
    def test_shape_and_finite(self):
        model = small_model()
        h = attention_heatmap(model, record_for(model), layer_index=1)
        assert h.values.shape == (12, 16)
        assert h.layer_index == 1

    def test_layer_index_validated(self):
        model = small_model()
        with pytest.raises(ValueError, match="layer_index"):
            attention_heatmap(model, record_for(model), layer_index=2)

    def test_deterministic(self):
        model = small_model(seed=5)
        rec = record_for(model, seed=5)
        a = attention_heatmap(model, rec)
        b = attention_heatmap(model, rec)
        np.testing.assert_array_equal(a.values, b.values)


class TestHeadPoolSimilarity:
    def test_parallel_orthogonal_antiparallel(self):
        pooled = np.array([2.0, 0.0, 0.0])
        sims = head_pool_similarity(
            [np.array([4.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([-8.0, 0.0, 0.0])],
            pooled,
        )
        np.testing.assert_array_equal(sims, [1.0, 0.0, -1.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        pooled = rng.normal(size=10)
        heads = [rng.normal(size=10) for _ in range(4)]
        a = head_pool_similarity(heads, pooled)
        b = head_pool_similarity([7.0 * h for h in heads], 3.0 * pooled)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_norm_maps_to_zero(self):
        sims = head_pool_similarity([np.zeros(4)], np.ones(4))
        assert sims[0] == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            head_pool_similarity([np.ones(3)], np.ones(4))

    def test_per_lead_summary_dimensions(self):
        model = small_model(d_model=24, n_heads=12, n_encoder_layers=1, per_lead_encoders=True)
        cache = {}
        model.forward(record_for(model, seed=7), cache=cache)
        vectors, pooled = per_lead_head_summary(cache, model.config.d_model)
        assert len(vectors) == 12 and pooled.shape == (24,)
        sims = head_pool_similarity(vectors, pooled)
        assert (np.abs(sims) <= 1.0 + 1e-12).all()


class TestExportHistory:
    def history(self, n):
        return [EpochStats(i + 1, 0.5 / (i + 1), 0.6 / (i + 1), 0.4, 0.5) for i in range(n)]

    def test_one_epoch_csv_two_lines(self, tmp_path):
        export_history(self.history(1), tmp_path)
        assert len((tmp_path / "history.csv").read_text().strip().splitlines()) == 2

    def test_roundtrip_six_decimals(self, tmp_path):
        history = self.history(3)
        export_history(history, tmp_path)
        back = read_history(tmp_path / "history.csv")
        for a, b in zip(history, back):
            assert abs(a.train_loss - b.train_loss) < 5e-7

    def test_rows_ordered_by_epoch(self, tmp_path):
        export_history(self.history(5), tmp_path)
        back = read_history(tmp_path / "history.csv")
        assert [s.epoch for s in back] == [1, 2, 3, 4, 5]

    def test_gnuplot_series_written(self, tmp_path):
        export_history(self.history(2), tmp_path)
        for curve in ("train_loss", "val_loss", "train_error", "val_error"):
            lines = (tmp_path / f"{curve}.dat").read_text().strip().splitlines()
            assert len(lines) == 2
            epoch, value = lines[0].split()
            assert epoch == "1"
            float(value)

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            export_history([], tmp_path)


class TestExportHeatmap:
    def test_constant_matrix_gives_midgray_pgm(self, tmp_path):
        h = HeatmapMatrix(values=np.full((12, 250), 3.3), record_id="c", layer_index=0)
        export_heatmap(h, tmp_path / "hm")
        blob = (tmp_path / "hm.pgm").read_bytes()
        header, rest = blob.split(b"\n", 1)
        assert header == b"P5"
        dims, rest = rest.split(b"\n", 1)
        assert dims == b"250 12"
        maxval, pixels = rest.split(b"\n", 1)
        assert maxval == b"255"
        assert pixels == bytes([128]) * (12 * 250)

    def test_csv_roundtrip_six_decimals(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(12, 250))
        export_heatmap(HeatmapMatrix(values=values, record_id="r", layer_index=0), tmp_path / "hm")
        back = np.loadtxt(tmp_path / "hm.csv", delimiter=",", ndmin=2)
        np.testing.assert_allclose(back, values, atol=5e-7)

    def test_deterministic_bytes(self, tmp_path):
        values = np.random.default_rng(9).normal(size=(12, 250))
        h = HeatmapMatrix(values=values, record_id="r", layer_index=0)
        export_heatmap(h, tmp_path / "a")
        export_heatmap(h, tmp_path / "b")
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_pgm_range_spans_0_to_255(self, tmp_path):
        values = np.tile(np.linspace(-1, 1, 250), (12, 1))
        export_heatmap(HeatmapMatrix(values=values, record_id="r", layer_index=0), tmp_path / "hm")
        pixels = (tmp_path / "hm.pgm").read_bytes().split(b"\n", 3)[3]
        assert pixels[0] == 0 and pixels[249] == 255
