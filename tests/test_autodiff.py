"""Tests for the reverse-mode autodiff engine.

Gradient rules are checked against central finite differences; fixed
expected values below were computed by hand or with the brute-force
oracles defined in this file.
"""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from ecgfusion import autodiff as ad
from ecgfusion.autodiff import Tape, Tensor, backward, finite_diff_check


def rand(shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


class TestTensor:
    def test_flat_length_matches_shape(self):
        t = Tensor(rand((3, 4, 2)))
        assert t.data.size == 3 * 4 * 2
        assert t.shape == (3, 4, 2)

    def test_grad_matches_data_length(self):
        x = Tensor(rand((5,)), requires_grad=True)
        with Tape() as tape:
            y = ad.sum_all(x)
        backward(y, tape)
        assert x.grad.shape == x.data.shape

    def test_no_grad_without_requires_grad(self):
        x = Tensor(rand((3,)))
        with Tape() as tape:
            y = ad.sum_all(x)
        backward(y, tape)
        assert x.grad is None


class TestMatmul:
    def test_identity(self):
        a = rand((3, 3), seed=1)
        out = ad.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_computed_product(self):
        out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_matrix(self):
        out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(rand((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_associativity(self):
        for seed in range(10):
            a, b, c = (Tensor(rand((3, 3), seed=seed + k)) for k in range(3))
            left = ad.matmul(ad.matmul(a, b), c).data
            right = ad.matmul(a, ad.matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-9)

    def fused_and_unfused(self):
        """Output and (x, w, bias) gradients of matmul with a fused bias and
        of add(matmul, bias), from identical operands."""
        results = []
        for fused in (True, False):
            x = Tensor(rand((5, 4), seed=31), requires_grad=True)
            w = Tensor(rand((4, 3), seed=32), requires_grad=True)
            b = Tensor(rand((3,), seed=33), requires_grad=True)
            c = Tensor(rand((5, 3), seed=34))
            with Tape() as tape:
                y = ad.matmul(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
                loss = ad.sum_all(ad.mul(ad.sigmoid(y), c))
            backward(loss, tape)
            results.append((y.data, x.grad, w.grad, b.grad))
        return results

    def test_fused_bias_matches_add_bit_for_bit(self):
        fused, unfused = self.fused_and_unfused()
        for got, want in zip(fused, unfused):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("operand", ["x", "w", "bias"])
    def test_fused_bias_finite_differences(self, operand):
        vals = {"x": rand((5, 4), seed=35), "w": rand((4, 3), seed=36), "bias": rand((3,), seed=37)}
        c = Tensor(rand((5, 3), seed=38))

        def f(t):
            ops = {k: t if k == operand else Tensor(v) for k, v in vals.items()}
            return ad.sum_all(ad.mul(ad.sigmoid(ad.matmul(ops["x"], ops["w"], ops["bias"])), c))

        assert finite_diff_check(f, Tensor(vals[operand])) < 1e-6

    def test_fused_bias_is_one_node(self):
        x = Tensor(rand((2, 3)), requires_grad=True)
        with Tape() as tape:
            ad.matmul(x, Tensor(rand((3, 4))), Tensor(rand((4,))))
        assert len(tape) == 1

    def test_bias_shape_checked(self):
        with pytest.raises(ValueError, match=r"bias shape \(1, 4\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 4))))


def naive_conv2d(x, k, b, stride=1, padding=0):
    """Brute-force sliding-window cross-correlation."""
    c, h, w = x.shape
    f, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((f, h_out, w_out))
    for fo in range(f):
        for i in range(h_out):
            for j in range(w_out):
                acc = 0.0
                for ci in range(c):
                    for a in range(kh):
                        for bb in range(kw):
                            acc += k[fo, ci, a, bb] * xp[ci, i * stride + a, j * stride + bb]
                out[fo, i, j] = acc + b[fo]
    return out


class TestConv2d:
    def test_one_by_one_kernel_is_identity(self):
        x = rand((1, 4, 5), seed=3)
        out = ad.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_zero_input_gives_bias(self):
        out = ad.conv2d(
            Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2, 2, 2))), Tensor([1.0, -2.0, 0.5])
        )
        for fo, b in enumerate((1.0, -2.0, 0.5)):
            np.testing.assert_array_equal(out.data[fo], np.full((3, 3), b))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_matches_sliding_window_oracle(self, padding):
        x = rand((1, 4, 4), seed=4)
        k = rand((1, 1, 2, 2), seed=5)
        b = rand((1,), seed=6)
        out = ad.conv2d(Tensor(x), Tensor(k), Tensor(b), padding=padding)
        np.testing.assert_allclose(out.data, naive_conv2d(x, k, b, 1, padding), atol=1e-12)

    def test_multichannel_matches_oracle(self):
        x = rand((3, 6, 5), seed=7)
        k = rand((4, 3, 3, 3), seed=8)
        b = rand((4,), seed=9)
        out = ad.conv2d(Tensor(x), Tensor(k), Tensor(b), padding=1)
        np.testing.assert_allclose(out.data, naive_conv2d(x, k, b, 1, 1), atol=1e-12)

    def test_kernel_larger_than_input(self):
        with pytest.raises(ValueError, match="larger"):
            ad.conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))


class TestSoftmaxRows:
    def test_equal_values_give_uniform(self):
        out = ad.softmax_rows(Tensor(np.full((2, 5), 3.3)))
        np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-15)

    def test_closed_form(self):
        out = ad.softmax_rows(Tensor([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-15)

    def test_large_values_do_not_overflow(self):
        out = ad.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one_entries_positive(self):
        out = ad.softmax_rows(Tensor(rand((6, 7), seed=2, lo=-5, hi=5)))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data > 0).all() and (out.data <= 1).all()

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            ad.softmax_rows(Tensor([[np.nan, 1.0]]))

    def test_matches_allocating_formula_and_keeps_input(self):
        x0 = rand((9, 11), seed=4, lo=-30, hi=30)
        g = rand((9, 11), seed=5)
        x = Tensor(x0.copy(), requires_grad=True)
        with Tape() as tape:
            p = ad.softmax_rows(x)
            loss = ad.sum_all(ad.mul(p, Tensor(g)))
        backward(loss, tape)
        e = np.exp(x0 - x0.max(axis=1, keepdims=True))
        ref = e / e.sum(axis=1, keepdims=True)
        assert np.array_equal(p.data, ref)
        assert np.array_equal(x.grad, (g - (g * ref).sum(axis=1, keepdims=True)) * ref)
        assert np.array_equal(x.data, x0)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = ad.layer_norm(Tensor(np.full((2, 4), 7.0)), Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_already_normalized_row(self):
        out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, np.array([[1.0, -1.0]]) / np.sqrt(1 + 1e-5), atol=1e-9)

    def test_matches_two_pass_oracle(self):
        x = rand((4, 6), seed=11, lo=-3, hi=3)
        gain = rand((6,), seed=12)
        shift = rand((6,), seed=13)
        eps = 1e-5
        out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(shift))
        for i in range(4):
            mu = sum(x[i]) / 6
            var = sum((v - mu) ** 2 for v in x[i]) / 6
            expect = (x[i] - mu) / np.sqrt(var + eps) * gain + shift
            np.testing.assert_allclose(out.data[i], expect, atol=1e-10)

    def test_output_standardized_before_gain_shift(self):
        x = rand((5, 8), seed=14, lo=-2, hi=2)
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-3)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rand((3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_sum_of_squares_gives_two_x(self):
        x = Tensor(rand((5,), seed=1), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-14)

    def test_chain_matches_finite_differences(self):
        w = rand((4, 3), seed=21)

        def f(x):
            h = ad.matmul(x, Tensor(w))
            p = ad.softmax_rows(h)
            return ad.sum_all(ad.mul(p, p))

        err = finite_diff_check(f, Tensor(rand((2, 4), seed=22)), h=1e-5)
        assert err < 1e-6

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(y, tape)

    def test_double_backward_doubles_grads_exactly(self):
        x = Tensor(rand((3, 3), seed=5), requires_grad=True)
        w = Tensor(rand((3, 3), seed=6), requires_grad=True)
        with Tape() as tape:
            y = ad.matmul(x, w)
            p = ad.softmax_rows(y)
            loss = ad.sum_all(ad.mul(p, y))
        backward(loss, tape)
        gx, gw = x.grad.copy(), w.grad.copy()
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2 * gx)
        np.testing.assert_array_equal(w.grad, 2 * gw)

    def test_grad_lands_on_leaves_only(self):
        x = Tensor(rand((3, 3), seed=7), requires_grad=True)
        w = Tensor(rand((3, 3), seed=8), requires_grad=True)
        with Tape() as tape:
            h = ad.matmul(x, w)
            loss = ad.sum_all(ad.mul(h, h))
        backward(loss, tape)
        assert h.grad is None and loss.grad is None
        np.testing.assert_allclose(w.grad, x.data.T @ (2 * h.data), atol=1e-12)
        assert len(tape) == 3  # backward leaves the tape intact

    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            y = ad.add(ad.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1
            loss = ad.sum_all(y)
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, [5.0])

    def test_tape_is_topologically_ordered(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
            z = ad.add(y, x)
            ad.sum_all(z)
        seen = {id(x)}
        for node in tape.nodes:
            for inp in node.inputs:
                assert not inp.requires_grad or id(inp) in seen
            seen.add(id(node.out))


class TestFiniteDiffCheck:
    def test_exact_quadratic(self):
        err = finite_diff_check(lambda x: ad.sum_all(ad.mul(x, x)), Tensor([1.0, 2.0, 3.0]))
        assert err < 1e-8

    def test_constant_function_has_zero_error(self):
        err = finite_diff_check(lambda x: Tensor(np.array(1.5)), Tensor([1.0, 2.0]))
        assert err == 0.0

    def test_h_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="h="):
            finite_diff_check(lambda x: ad.sum_all(x), Tensor([1.0]), h=1e-2)


class TestPerOpGradients:
    """Every differentiable op: relative error < 1e-6 on small inputs."""

    def test_binary_ops(self):
        b = rand((4, 5), seed=31, lo=0.5, hi=2.0)
        for op in (ad.add, ad.mul):
            err = finite_diff_check(
                lambda x, op=op: ad.sum_all(ad.mul(op(x, Tensor(b)), op(x, Tensor(b)))),
                Tensor(rand((4, 5), seed=30)),
            )
            assert err < 1e-6, op.__name__

    def test_broadcast_bias_add(self):
        bias = Tensor(rand((5,), seed=33), requires_grad=True)

        def f(x):
            return ad.sum_all(ad.mul(ad.add(x, bias), ad.add(x, bias)))

        assert finite_diff_check(f, Tensor(rand((4, 5), seed=34))) < 1e-6

    def test_matmul_transpose_reshape_concat(self):
        w = Tensor(rand((5, 3), seed=35))

        def f(x):
            y = ad.matmul(x, w)
            z = ad.concat([y, ad.transpose(ad.reshape(y, (3, 4)))], axis=0)
            return ad.sum_all(ad.mul(z, z))

        assert finite_diff_check(f, Tensor(rand((4, 5), seed=36))) < 1e-6

    def test_repeat_rows(self):
        def f(x):
            return ad.sum_all(ad.mul(ad.repeat_rows(x, 6), Tensor(rand((6, 4), seed=37))))

        assert finite_diff_check(f, Tensor(rand((1, 4), seed=38))) < 1e-6

    def test_relu_sigmoid(self):
        # keep inputs away from the relu kink
        x0 = rand((4, 4), seed=39, lo=0.2, hi=1.5) * np.sign(rand((4, 4), seed=40))
        for op in (ad.relu, ad.sigmoid):
            err = finite_diff_check(
                lambda x, op=op: ad.sum_all(ad.mul(op(x), op(x))), Tensor(x0)
            )
            assert err < 1e-6, op.__name__

    def test_softmax_layernorm(self):
        g = Tensor(rand((6,), seed=41), requires_grad=True)
        s = Tensor(rand((6,), seed=42), requires_grad=True)

        def f(x):
            y = ad.layer_norm(ad.softmax_rows(x), g, s)
            return ad.sum_all(ad.mul(y, y))

        assert finite_diff_check(f, Tensor(rand((5, 6), seed=43, lo=-2, hi=2))) < 1e-6

    def test_conv_and_pool(self):
        k = Tensor(rand((2, 3, 3, 3), seed=44), requires_grad=True)
        b = Tensor(rand((2,), seed=45), requires_grad=True)

        def f(x):
            y = ad.max_pool2d(ad.conv2d(x, k, b, padding=1), 2)
            return ad.sum_all(ad.mul(y, y))

        assert finite_diff_check(f, Tensor(rand((3, 6, 6), seed=46))) < 1e-6

    def test_conv_kernel_and_bias_grads(self):
        x = Tensor(rand((2, 5, 5), seed=47))

        def fk(k):
            y = ad.conv2d(x, k, Tensor(np.zeros(2), requires_grad=True))
            return ad.sum_all(ad.mul(y, y))

        assert finite_diff_check(fk, Tensor(rand((2, 2, 3, 3), seed=48))) < 1e-6

    def test_attention_heads_all_inputs(self):
        q0, k0, v0 = (rand((4, 6), seed=s) for s in (50, 51, 52))
        for pos in range(3):
            def f(x, pos=pos):
                args = [Tensor(q0), Tensor(k0), Tensor(v0)]
                args[pos] = x
                out, _ = ad.attention_heads(*args, 2)
                return ad.sum_all(ad.mul(out, out))

            assert finite_diff_check(f, Tensor((q0, k0, v0)[pos])) < 1e-6

    def test_bce_with_logits_grad(self):
        t = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        err = finite_diff_check(
            lambda x: ad.bce_with_logits(x, t), Tensor(rand((2, 3), seed=53, lo=-2, hi=2))
        )
        assert err < 1e-6


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(rand((10, 10)))
        out = ad.dropout(x, 0.4, np.random.default_rng(0), train=False)
        assert out is x

    def test_train_zero_fraction_near_drop_prob(self):
        rng = np.random.default_rng(99)
        x = Tensor(np.ones(100_000))
        out = ad.dropout(x, 0.3, rng, train=True)
        zero_frac = (out.data == 0).mean()
        assert abs(zero_frac - 0.3) < 0.01

    def test_survivors_scaled_by_keep(self):
        rng = np.random.default_rng(1)
        out = ad.dropout(Tensor(np.ones(1000)), 0.2, rng, train=True)
        kept = out.data[out.data != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.8)

    def test_gradient_is_mask_over_keep(self):
        rng = np.random.default_rng(2)
        x = Tensor(rand((50,), seed=3), requires_grad=True)
        with Tape() as tape:
            y = ad.dropout(x, 0.25, rng, train=True)
            loss = ad.sum_all(y)
        backward(loss, tape)
        mask = (y.data != 0).astype(float) / 0.75
        np.testing.assert_array_equal(x.grad, mask)


class TestAttentionHeads:
    def test_single_token_weight_is_one(self):
        out, w = ad.attention_heads(Tensor(rand((1, 4))), Tensor(rand((1, 4))), Tensor(rand((1, 4))), 2)
        np.testing.assert_array_equal(w, np.ones((2, 1, 1)))

    def test_identical_keys_give_uniform_rows(self):
        k = Tensor(np.tile(rand((1, 6), seed=7), (5, 1)))
        out, w = ad.attention_heads(Tensor(rand((3, 6), seed=8)), k, Tensor(rand((5, 6), seed=9)), 3)
        np.testing.assert_allclose(w, 1.0 / 5.0, atol=1e-12)

    def test_weights_row_stochastic(self):
        _, w = ad.attention_heads(
            Tensor(rand((4, 8), seed=10)), Tensor(rand((6, 8), seed=11)), Tensor(rand((6, 8), seed=12)), 4
        )
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        assert (w >= 0).all()


def batched_attention_reference(q, k, v, n_heads, g):
    """The all-heads-at-once attention formula: (out, probs, dq, dk, dv)
    for upstream gradient ``g``, every step on full (H, Lq, Lk) arrays."""
    lq, d = q.shape
    lk = k.shape[0]
    dh = d // n_heads
    inv = 1.0 / math.sqrt(dh)
    qh = np.ascontiguousarray(q.reshape(lq, n_heads, dh).transpose(1, 0, 2))
    kh = np.ascontiguousarray(k.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    vh = np.ascontiguousarray(v.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    scores = (qh @ kh.transpose(0, 2, 1)) * inv
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    out = (probs @ vh).transpose(1, 0, 2).reshape(lq, d)
    gh = np.ascontiguousarray(g.reshape(lq, n_heads, dh).transpose(1, 0, 2))
    dp = gh @ vh.transpose(0, 2, 1)
    dv = (probs.transpose(0, 2, 1) @ gh).transpose(1, 0, 2).reshape(lk, d)
    ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True))
    dq = ((ds @ kh) * inv).transpose(1, 0, 2).reshape(lq, d)
    dk = ((ds.transpose(0, 2, 1) @ qh) * inv).transpose(1, 0, 2).reshape(lk, d)
    return out, probs, dq, dk, dv


def published_attention_inputs():
    """q, k, v and an upstream gradient at the published block shape:
    250 tokens, width 120, 12 heads."""
    q, k, v, g = (np.random.default_rng(s).normal(size=(250, 120)) for s in (60, 61, 62, 63))
    return q, k, v, g


class TestAttentionMatchesBatchedFormula:
    """The head-by-head kernel must reproduce the batched formula bit for bit."""

    SHAPES = {
        "published": (250, 250, 120, 12),
        "lq_ne_lk": (7, 13, 12, 3),
        "lq_1": (1, 9, 8, 2),
        "one_head": (20, 30, 16, 1),
    }

    @staticmethod
    def run(q, k, v, n_heads, g):
        with Tape() as tape:
            out, w = ad.attention_heads(q, k, v, n_heads)
            loss = ad.sum_all(ad.mul(out, Tensor(g)))
        backward(loss, tape)
        return out, w

    @pytest.mark.parametrize("needs", [n for n in itertools.product((False, True), repeat=3) if any(n)])
    @pytest.mark.parametrize("shape", list(SHAPES), ids=list(SHAPES))
    def test_bitwise_equal(self, shape, needs):
        lq, lk, d, n_heads = self.SHAPES[shape]
        rng = np.random.default_rng(64)
        q0, k0, v0 = rng.normal(size=(lq, d)), 3.0 * rng.normal(size=(lk, d)), rng.normal(size=(lk, d))
        g = rng.normal(size=(lq, d))
        q, k, v = (Tensor(a, requires_grad=n) for a, n in zip((q0, k0, v0), needs))
        out, w = self.run(q, k, v, n_heads, g)
        ref = batched_attention_reference(q0, k0, v0, n_heads, g)
        assert np.array_equal(out.data, ref[0])
        assert np.array_equal(w, ref[1])
        for t, expected in zip((q, k, v), ref[2:]):
            if t.requires_grad:
                assert np.array_equal(t.grad, expected)
            else:
                assert t.grad is None

    @pytest.mark.parametrize("n_heads", [1, 12])
    def test_self_attention_bitwise_equal(self, n_heads):
        # q, k and v are one tensor, as in the per-lead pooling block
        x0, _, _, g = published_attention_inputs()
        x = Tensor(x0, requires_grad=True)
        out, w = self.run(x, x, x, n_heads, g)
        ref = batched_attention_reference(x0, x0, x0, n_heads, g)
        assert np.array_equal(out.data, ref[0])
        assert np.array_equal(w, ref[1])
        assert np.array_equal(x.grad, ref[2] + ref[3] + ref[4])


class TestAttentionMemory:
    def test_published_block_transients(self):
        # the forward holds the (H, Lq, Lk) probs and makes no full-size
        # temporary; backward works on one (Lq, Lk) block at a time
        q0, k0, v0, g = published_attention_inputs()
        q, k, v = (Tensor(a, requires_grad=True) for a in (q0, k0, v0))
        probs_bytes = 12 * 250 * 250 * 8
        tracemalloc.start()
        try:
            with Tape() as tape:
                ad.attention_heads(q, k, v, 12)
            _, forward_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            grads = tape.nodes[-1].rule(g)
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(gi is not None for gi in grads)
        assert forward_peak <= 1.25 * probs_bytes
        assert backward_peak - before <= 0.5 * probs_bytes


class TestBceValues:
    def test_zero_logit_true_target(self):
        loss = ad.bce_with_logits(Tensor([[0.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-15)

    def test_saturated_logit(self):
        loss = ad.bce_with_logits(Tensor([[50.0]]), np.array([[1.0]]))
        assert loss.item() < 1e-20

    def test_all_zero_logits(self):
        loss = ad.bce_with_logits(
            Tensor([[0.0] * 5]), np.array([[1.0, 0.0, 1.0, 0.0, 0.0]])
        )
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-15)

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            ad.bce_with_logits(Tensor([[0.0]]), np.array([[0.5]]))


def test_independent_tapes_on_threads():
    results = {}

    def work(name, seed):
        x = Tensor(rand((8, 8), seed=seed), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
        backward(loss, tape)
        results[name] = np.allclose(x.grad, 2 * x.data)

    threads = [threading.Thread(target=work, args=(i, i)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(results.values())


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(RuntimeError, match="already active"):
            with Tape():
                pass
