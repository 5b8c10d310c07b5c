"""Tests for the multimodal transformer blocks, fusion modes, per-lead
variant, and checkpoint format."""

import hashlib
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ecgfusion import autodiff as ad
from ecgfusion import model as M
from ecgfusion.autodiff import Tape, Tensor, backward
from ecgfusion.data import LoadedRecord
from ecgfusion.errors import ConfigError, DataError
from ecgfusion.model import (
    EcgTransformer,
    ModelConfig,
    coerce,
    condense_leads,
    forward,
    init_params,
    load_checkpoint,
    multi_head_attention,
    notes_adapt,
    positional_encode,
    positional_encoding,
    residual_merge,
    save_checkpoint,
)

TABLE1 = dict(
    seq_len=250,
    n_leads=12,
    d_model=120,
    n_heads=12,
    n_encoder_layers=6,
    n_decoder_layers=6,
    dropout=0.2,
    feedforward_dim=480,
)


def small_config(**overrides):
    base = dict(
        seq_len=16,
        n_leads=12,
        d_model=8,
        n_heads=2,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.0,
        feedforward_dim=32,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_inputs(config, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(config.n_leads, config.seq_len)), rng.normal(size=config.notes_dim)


class TestModelConfig:
    def test_table1_defaults(self):
        cfg = ModelConfig()
        assert (cfg.d_model, cfg.n_heads, cfg.n_encoder_layers, cfg.dropout) == (120, 12, 6, 0.2)
        assert cfg.d_model // cfg.n_heads == 10

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelConfig(d_model=10, n_heads=3)

    def test_unknown_fusion_mode(self):
        with pytest.raises(ConfigError, match="fusion_mode"):
            ModelConfig(fusion_mode="bogus")

    def test_per_lead_needs_matching_heads(self):
        with pytest.raises(ConfigError, match="n_heads == n_leads"):
            ModelConfig(per_lead_encoders=True, n_heads=6, d_model=120)


class TestCondenseLeads:
    def test_output_shape_table1(self):
        cfg = ModelConfig()
        params = init_params(cfg, np.random.default_rng(0))
        out = condense_leads(Tensor(np.random.default_rng(1).normal(size=(12, 250))), params)
        assert out.shape == (250, 120)

    def test_zero_input_zero_bias_gives_zero(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(0))
        out = condense_leads(Tensor(np.zeros((12, 16))), params)
        np.testing.assert_array_equal(out.data, np.zeros((16, 8)))

    def test_one_hot_kernel_identity_projection_selects_lead(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(0))
        kernel = np.zeros((1, 1, 12, 1))
        kernel[0, 0, 3, 0] = 1.0  # pick lead 3
        params["condense.kernel"] = Tensor(kernel, requires_grad=True)
        params["condense.bias"] = Tensor(np.zeros(1), requires_grad=True)
        w = np.zeros((1, 8))
        w[0, 0] = 1.0  # identity onto feature 0
        params["token.w"] = Tensor(w, requires_grad=True)
        params["token.b"] = Tensor(np.zeros(8), requires_grad=True)
        x = np.random.default_rng(2).normal(size=(12, 16))
        out = condense_leads(Tensor(x), params)
        np.testing.assert_allclose(out.data[:, 0], x[3], atol=1e-12)


class TestPositionalEncoding:
    def test_position_zero_pattern(self):
        out = positional_encode(Tensor(np.zeros((16, 8))))
        np.testing.assert_array_equal(out.data[0, 0::2], np.zeros(4))
        np.testing.assert_array_equal(out.data[0, 1::2], np.ones(4))

    def test_deterministic(self):
        a = positional_encoding(250, 120)
        b = positional_encoding(250, 120)
        np.testing.assert_array_equal(a, b)

    def test_bounded(self):
        pe = positional_encoding(250, 120)
        assert pe.min() >= -1.0 and pe.max() <= 1.0


class TestMultiHeadAttention:
    def attn_params(self, d, seed=0):
        return M._draw(M._attention_specs("mha", d), np.random.default_rng(seed))

    def test_single_token_weight_is_one(self):
        d = 6
        params = self.attn_params(d)
        v = np.random.default_rng(1).normal(size=(1, d))
        weights = []
        out = multi_head_attention(
            Tensor(v), Tensor(v), Tensor(v), params, "mha", 2, attn_out=weights
        )
        np.testing.assert_array_equal(weights[0], np.ones((2, 1, 1)))
        vp = v @ params["mha.wv"].data + params["mha.bv"].data
        expect = vp @ params["mha.wo"].data + params["mha.bo"].data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_identical_keys_uniform_rows(self):
        d = 8
        params = self.attn_params(d, seed=3)
        params["mha.wk"] = Tensor(np.zeros((d, d)), requires_grad=True)  # keys all equal
        weights = []
        rng = np.random.default_rng(4)
        multi_head_attention(
            Tensor(rng.normal(size=(5, d))),
            Tensor(rng.normal(size=(7, d))),
            Tensor(rng.normal(size=(7, d))),
            params,
            "mha",
            4,
            attn_out=weights,
        )
        np.testing.assert_allclose(weights[0], 1.0 / 7.0, atol=1e-12)

    def test_matches_per_head_loop_oracle(self):
        d, heads = 8, 4
        params = self.attn_params(d, seed=5)
        rng = np.random.default_rng(6)
        q_in, k_in, v_in = (rng.normal(size=(4, d)) for _ in range(3))
        out = multi_head_attention(
            Tensor(q_in), Tensor(k_in), Tensor(v_in), params, "mha", heads
        )

        # independent naive computation: explicit projections, per-head loop
        q = q_in @ params["mha.wq"].data + params["mha.bq"].data
        k = k_in @ params["mha.wk"].data
        v = v_in @ params["mha.wv"].data + params["mha.bv"].data
        dh = d // heads
        head_outs = []
        for h in range(heads):
            qs, ks, vs = (m[:, h * dh : (h + 1) * dh] for m in (q, k, v))
            scores = qs @ ks.T / np.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            head_outs.append(p @ vs)
        expect = np.hstack(head_outs) @ params["mha.wo"].data + params["mha.bo"].data
        np.testing.assert_allclose(out.data, expect, atol=1e-10)


@pytest.fixture(scope="module")
def table1():
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(0))
    return cfg, params


class TestBlocksAtTable1:
    def test_full_shape_chain(self, table1):
        cfg, params = table1
        rng = np.random.default_rng(2)
        cache = {}
        probs, logits = forward(
            rng.normal(size=(12, 250)), rng.normal(size=768), cfg, params, cache=cache
        )
        assert cache["tokens_shape"] == (250, 120)
        assert cache["encoder_out_shape"] == (250, 120)
        assert cache["notes_block_shape"] == (250, 120)
        assert cache["merged_shape"] == (250, 120)
        assert cache["residual_shape"] == (250, 120)
        assert probs.shape == (5,)
        assert len(cache["encoder_attn"]) == 6
        assert cache["encoder_attn"][0].shape == (12, 250, 250)
        assert len(cache["decoder_cross_attn"]) == 6
        assert cache["decoder_cross_attn"][0].shape == (12, 250, 250)

    def test_attention_rows_stochastic_all_layers(self, table1):
        cfg, params = table1
        rng = np.random.default_rng(3)
        cache = {}
        forward(rng.normal(size=(12, 250)), rng.normal(size=768), cfg, params, cache=cache)
        for stack in cache["encoder_attn"] + cache["decoder_self_attn"] + cache["decoder_cross_attn"]:
            np.testing.assert_allclose(stack.sum(axis=-1), 1.0, atol=1e-10)
            assert (stack >= 0).all()


class TestNotesAdapt:
    def test_rows_identical_and_shape(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(1))
        emb = Tensor(np.random.default_rng(2).normal(size=(1, 768)))
        block = notes_adapt(emb, params, cfg.seq_len)
        assert block.shape == (16, 8)
        for row in block.data[1:]:
            np.testing.assert_array_equal(row, block.data[0])

    def test_zero_embedding_zero_bias(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(1))
        params["notes.b"] = Tensor(np.zeros(8), requires_grad=True)
        block = notes_adapt(Tensor(np.zeros((1, 768))), params, cfg.seq_len)
        np.testing.assert_array_equal(block.data, np.zeros((16, 8)))


class TestResidualMerge:
    def test_zero_decoder_output_normalized_input_transform(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(12, 16))
        merged = residual_merge(Tensor(x), Tensor(np.zeros((16, 8))), params)
        lifted = x.T @ params["merge.w"].data + params["merge.b"].data
        mu = lifted.mean(axis=1, keepdims=True)
        var = lifted.var(axis=1, keepdims=True)
        expect = (lifted - mu) / np.sqrt(var + 1e-5)
        np.testing.assert_allclose(merged.data, expect, atol=1e-12)

    def test_row_means_zero_before_gain_shift(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(4))
        rng = np.random.default_rng(6)
        merged = residual_merge(
            Tensor(rng.normal(size=(12, 16))), Tensor(rng.normal(size=(16, 8))), params
        )
        np.testing.assert_allclose(merged.data.mean(axis=1), 0.0, atol=1e-12)


class TestClassifier:
    def test_probabilities_strictly_inside_unit_interval(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(7))
        ecg, emb = small_inputs(cfg)
        probs, _ = forward(ecg, emb, cfg, params)
        assert (probs.data > 0).all() and (probs.data < 1).all()

    def test_outputs_need_not_sum_to_one(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(8))
        ecg, emb = small_inputs(cfg, seed=1)
        probs, _ = forward(ecg, emb, cfg, params)
        assert abs(probs.data.sum() - 1.0) > 1e-6

    def test_raising_class_bias_raises_only_that_probability(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(9))
        ecg, emb = small_inputs(cfg, seed=2)
        before, _ = forward(ecg, emb, cfg, params)
        bias = params["cls.fc3.b"].data.copy()
        bias[2] += 1.0
        params["cls.fc3.b"] = Tensor(bias, requires_grad=True)
        after, _ = forward(ecg, emb, cfg, params)
        assert after.data[2] > before.data[2]
        keep = [0, 1, 3, 4]
        np.testing.assert_allclose(after.data[keep], before.data[keep], atol=1e-12)

    def test_permuting_class_weights_permutes_probabilities(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(10))
        ecg, emb = small_inputs(cfg, seed=3)
        base, _ = forward(ecg, emb, cfg, params)
        perm = np.array([3, 0, 4, 1, 2])
        params["cls.fc3.w"] = Tensor(params["cls.fc3.w"].data[:, perm], requires_grad=True)
        params["cls.fc3.b"] = Tensor(params["cls.fc3.b"].data[perm], requires_grad=True)
        permuted, _ = forward(ecg, emb, cfg, params)
        np.testing.assert_allclose(permuted.data, base.data[perm], atol=1e-14)


class TestFusionModes:
    @pytest.mark.parametrize("mode", M.FUSION_MODES)
    def test_output_shape_five(self, mode):
        cfg = small_config(fusion_mode=mode)
        params = init_params(cfg, np.random.default_rng(11))
        ecg, emb = small_inputs(cfg, seed=4)
        probs, logits = forward(ecg, emb if mode != "waveform_only" else None, cfg, params)
        assert probs.shape == (5,) and logits.shape == (1, 5)

    def test_waveform_only_ignores_notes(self):
        cfg = small_config(fusion_mode="waveform_only")
        params = init_params(cfg, np.random.default_rng(12))
        ecg, emb = small_inputs(cfg, seed=5)
        a, _ = forward(ecg, emb, cfg, params)
        b, _ = forward(ecg, np.random.default_rng(99).normal(size=768), cfg, params)
        np.testing.assert_array_equal(a.data, b.data)

    def test_cross_attention_depends_on_notes(self):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(13))
        ecg, emb = small_inputs(cfg, seed=6)
        a, _ = forward(ecg, emb, cfg, params)
        b, _ = forward(ecg, emb + 0.5, cfg, params)
        assert not np.allclose(a.data, b.data)

    @pytest.mark.parametrize("mode", ["cross_attention", "early_concat", "early_sum"])
    def test_notes_required_when_fusing(self, mode):
        cfg = small_config(fusion_mode=mode)
        params = init_params(cfg, np.random.default_rng(14))
        ecg, _ = small_inputs(cfg)
        with pytest.raises(DataError, match="notes"):
            forward(ecg, None, cfg, params)

    def test_eval_mode_is_pure(self):
        cfg = small_config(dropout=0.3)
        params = init_params(cfg, np.random.default_rng(15))
        ecg, emb = small_inputs(cfg, seed=7)
        a, _ = forward(ecg, emb, cfg, params, train_mode=False)
        b, _ = forward(ecg, emb, cfg, params, train_mode=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_mode_needs_rng_with_dropout(self):
        cfg = small_config(dropout=0.3)
        params = init_params(cfg, np.random.default_rng(16))
        ecg, emb = small_inputs(cfg)
        with pytest.raises(ConfigError, match="rng"):
            forward(ecg, emb, cfg, params, train_mode=True)


class TestPerLeadVariant:
    def cfg(self, **kw):
        return small_config(d_model=24, n_heads=12, per_lead_encoders=True, **kw)

    def test_output_shape(self):
        cfg = self.cfg()
        params = init_params(cfg, np.random.default_rng(17))
        ecg, emb = small_inputs(cfg, seed=8)
        probs, _ = forward(ecg, emb, cfg, params)
        assert probs.shape == (5,)

    def test_zeroing_lead_changes_only_its_head(self):
        cfg = self.cfg()
        params = init_params(cfg, np.random.default_rng(18))
        ecg, emb = small_inputs(cfg, seed=9)
        cache_a, cache_b = {}, {}
        forward(ecg, emb, cfg, params, cache=cache_a)
        zeroed = ecg.copy()
        zeroed[4] = 0.0
        forward(zeroed, emb, cfg, params, cache=cache_b)
        for lead in range(12):
            same = np.array_equal(
                cache_a["per_head_outputs"][lead], cache_b["per_head_outputs"][lead]
            )
            assert same == (lead != 4)

    def test_runtime_at_least_fused(self):
        fused = small_config(seq_len=64, d_model=24, n_heads=12, n_encoder_layers=2)
        perlead = small_config(
            seq_len=64, d_model=24, n_heads=12, n_encoder_layers=2, per_lead_encoders=True
        )
        p_fused = init_params(fused, np.random.default_rng(20))
        p_lead = init_params(perlead, np.random.default_rng(20))
        rng = np.random.default_rng(21)
        ecg, emb = rng.normal(size=(12, 64)), rng.normal(size=768)
        forward(ecg, emb, fused, p_fused)  # warm up
        forward(ecg, emb, perlead, p_lead)

        def clock(cfg, params, reps=3):
            t0 = time.perf_counter()
            for _ in range(reps):
                forward(ecg, emb, cfg, params)
            return time.perf_counter() - t0

        assert clock(perlead, p_lead) >= clock(fused, p_fused)


# the acceptance-test config; per-lead needs one head per lead and a
# d_model that splits over the 12 leads
ACCEPTANCE = dict(
    d_model=16, n_heads=2, n_encoder_layers=1, n_decoder_layers=1, feedforward_dim=32, dropout=0.1
)
ACCEPTANCE_PER_LEAD = dict(ACCEPTANCE, d_model=24, n_heads=12)

# sha256 over the names, shapes and <f8 bytes of
# init_params(config, default_rng(0)), taken before init_params drew from
# param_specs: every parameter keeps its name, order and value
INIT_DIGESTS = {
    ("acceptance", "cross_attention", False): "d60704b789a82dba3307b44407fcb4aeea811bcbc9ba71ea54f530884c12e1ee",
    ("acceptance", "early_concat", False): "f3fefc8e7eb9b41209ba7880b26ffa8baf97e777625d0dbde30bc9bfe78db29d",
    ("acceptance", "early_sum", False): "f2a229da409f39141b37adcee17deca61fb3412e19cc24dc473600481cd161c2",
    ("acceptance", "waveform_only", False): "5120631b893069dd0876640cb13f81731a8d7d7236851ac24d677b01b5211c97",
    ("acceptance", "cross_attention", True): "aa3b46485c53542db3d6c391b571156b6abf61bf7024bd736a2db8c3c5df0886",
    ("acceptance", "early_concat", True): "b016b9383829098a43a62fe9c0d0d8bbc8b083fcd9bebeae893869bdd934037d",
    ("acceptance", "early_sum", True): "c5dba659de2d1a4646bc742dacb8c5e743f325b4a699b71a56b9e3f1340e07db",
    ("acceptance", "waveform_only", True): "e36eeb446bda34f150b75f4c2ea95ad0db287211ce89c4ecd1142a080fa6525b",
    ("published", "cross_attention", False): "3883665b0bcb9c7ce272e15988756c11bb1b4470bb88f6ab46c43569ce03f9d5",
    ("published", "early_concat", False): "7ab2b06ee1c62f4cc8da6425c5fcc2c9e142490e5907b1701551f380fa82af2b",
    ("published", "early_sum", False): "ab39b209a1892a844f1bdba90d6719995cf404ed7d9aaac8deb56a9506074d85",
    ("published", "waveform_only", False): "d922d7b74bcf40075ca2b31104b3811a6a8896704220b2b3f2d22edd73bd2ae4",
    ("published", "cross_attention", True): "e213866dac9d77f62fc56c2ee2584be1b5d47f408732da7eb21d41b43f40917e",
    ("published", "early_concat", True): "1e1f0f98a4a8b4674bd62a0f03d59bb064d4780c5b7d59f0ef4f96a475946c90",
    ("published", "early_sum", True): "8c379288e3e52d2dba928208f14f59189bf28e25d1ea6f4d4980b3d49811d23d",
    ("published", "waveform_only", True): "7c03e93652795c65766b4f1263b9e7f72561b32e5a6615fc12d4b837800f042d",
}


class TestParamSpecs:
    @pytest.mark.parametrize("size,mode,per_lead", list(INIT_DIGESTS))
    def test_init_params_digest(self, size, mode, per_lead):
        if size == "published":
            kw = TABLE1
        else:
            kw = ACCEPTANCE_PER_LEAD if per_lead else ACCEPTANCE
        cfg = ModelConfig(**kw, fusion_mode=mode, per_lead_encoders=per_lead)
        h = hashlib.sha256()
        for name, t in init_params(cfg, np.random.default_rng(0)).items():
            h.update(f"{name}{t.data.shape}".encode())
            h.update(t.data.astype("<f8").tobytes())
        assert h.hexdigest() == INIT_DIGESTS[size, mode, per_lead]

    def test_load_checkpoint_draws_nothing(self, tmp_path, monkeypatch):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(3))
        save_checkpoint(tmp_path / "m.bin", cfg, params)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a parameter set")

        monkeypatch.setattr(M, "init_params", refuse)
        _, loaded, _ = load_checkpoint(tmp_path / "m.bin")
        assert list(loaded) == sorted(params)
        for name, t in params.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = small_config(fusion_mode="early_sum")
        params = init_params(cfg, np.random.default_rng(22))
        path_a = tmp_path / "a.bin"
        path_b = tmp_path / "b.bin"
        save_checkpoint(path_a, cfg, params, extra={"seed": 7})
        cfg2, params2, extra = load_checkpoint(path_a)
        save_checkpoint(path_b, cfg2, params2, extra=extra)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert extra["seed"] == "7"

    def test_reload_reproduces_eval_outputs_bit_exact(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(23))
        ecg, emb = small_inputs(cfg, seed=10)
        before, _ = forward(ecg, emb, cfg, params)
        save_checkpoint(tmp_path / "m.bin", cfg, params)
        cfg2, params2, _ = load_checkpoint(tmp_path / "m.bin")
        after, _ = forward(ecg, emb, cfg2, params2)
        np.testing.assert_array_equal(before.data, after.data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_capitalised_bool_in_header_loads_true(self, tmp_path):
        cfg = small_config(d_model=24, n_heads=12, per_lead_encoders=True)
        params = init_params(cfg, np.random.default_rng(25))
        cfg.per_lead_encoders = "True"  # written verbatim into the header
        save_checkpoint(tmp_path / "m.bin", cfg, params)
        cfg2, _, _ = load_checkpoint(tmp_path / "m.bin")
        assert cfg2.per_lead_encoders is True

    def test_parameter_config_mismatch_rejected(self, tmp_path):
        cfg = small_config()
        params = init_params(cfg, np.random.default_rng(24))
        del params["merge.b"]
        save_checkpoint(tmp_path / "m.bin", cfg, params)
        with pytest.raises(DataError, match="match"):
            load_checkpoint(tmp_path / "m.bin")


class TestCoerce:
    FIELDS = {f.name: f for f in fields(ModelConfig)}

    @pytest.mark.parametrize(
        "raw, expected",
        [("true", True), ("True", True), ("YES", True), ("1", True),
         ("false", False), ("FALSE", False), ("no", False), ("0", False)],
    )
    def test_one_bool_rule(self, raw, expected):
        assert coerce(self.FIELDS["per_lead_encoders"], raw) is expected

    @pytest.mark.parametrize("key", ["d_model", "dropout", "per_lead_encoders"])
    def test_malformed_value_raises_the_given_error(self, key):
        with pytest.raises(ConfigError, match=key):
            coerce(self.FIELDS[key], "abc")
        with pytest.raises(DataError, match=f"ckpt: {key}"):
            coerce(self.FIELDS[key], "abc", DataError, "ckpt: ")


class TestEcgTransformerWrapper:
    def test_forward_on_record(self):
        cfg = small_config()
        model = EcgTransformer(cfg, seed=3)
        ecg, emb = small_inputs(cfg, seed=11)
        rec = LoadedRecord(record_id="x", waveform=ecg, labels=np.array([1.0, 0, 0, 0, 0]), embedding=emb)
        probs, logits = model.forward(rec)
        assert probs.shape == (5,)

    def test_same_seed_same_init(self):
        cfg = small_config()
        a = EcgTransformer(cfg, seed=9)
        b = EcgTransformer(cfg, seed=9)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)


class TestBackwardOnModel:
    def train_loss(self, model, seed=12):
        ecg, emb = small_inputs(model.config, seed=seed)
        rec = LoadedRecord(record_id="x", waveform=ecg, labels=np.array([1.0, 0, 0, 1, 0]), embedding=emb)
        with Tape() as tape:
            _, logits = model.forward(rec, train=True)
            loss = ad.bce_with_logits(logits, rec.labels[None, :])
        return loss, tape

    @pytest.mark.parametrize(
        "overrides",
        [{"fusion_mode": m} for m in M.FUSION_MODES]
        + [{"d_model": 24, "n_heads": 12, "per_lead_encoders": True}],
    )
    def test_grads_on_parameters_only(self, overrides):
        model = EcgTransformer(small_config(dropout=0.1, **overrides), seed=5)
        loss, tape = self.train_loss(model)
        backward(loss, tape)
        assert all(node.out.grad is None for node in tape.nodes)
        for name, t in model.params.items():
            assert t.grad is not None and t.grad.shape == t.shape, name

    def test_backward_retains_about_the_parameter_gradients(self):
        # the acceptance-test model at full sequence length
        cfg = ModelConfig(d_model=16, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
                          dropout=0.1, feedforward_dim=32)
        model = EcgTransformer(cfg, seed=0)
        param_bytes = sum(t.data.nbytes for t in model.params.values())
        tracemalloc.start()
        try:
            loss, tape = self.train_loss(model)
            held_by_forward, _ = tracemalloc.get_traced_memory()
            backward(loss, tape)
            held_after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held_after - held_by_forward <= 1.05 * param_bytes
