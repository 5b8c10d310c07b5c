"""Dense float64 arrays with reverse-mode automatic differentiation.

Every differentiable operation in the model is built from the primitives
here.  Operations execute eagerly on numpy arrays; when a Tape is active
(``with Tape() as tape:``) each op records a node holding its operands and
a gradient rule, and ``backward`` replays the tape in reverse.  Gradients
land in ``.grad`` on leaves only (parameters and caller inputs that no
node on the tape produced) and accumulate across backward calls.

A Tape and the Tensors recorded on it form a single-threaded unit; the
active tape is tracked per-thread so independent tapes may run on
separate threads.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "finite_diff_check",
    "add",
    "mul",
    "sum_all",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "repeat_rows",
    "relu",
    "sigmoid",
    "softmax_rows",
    "layer_norm",
    "dropout",
    "conv2d",
    "max_pool2d",
    "attention_heads",
    "bce_with_logits",
]


class Tensor:
    """N-dimensional float64 array, optionally tracked for gradients.

    ``grad`` stays ``None`` until ``backward`` reaches this tensor as a
    leaf, and is only ever populated when ``requires_grad`` is set.
    Gradients accumulate additively across backward calls; reset them
    between optimizer steps with ``model.zero_grads``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "rule")

    def __init__(self, out, inputs, rule):
        self.out = out
        self.inputs = inputs
        self.rule = rule


_TLS = threading.local()


def _active_tape() -> Optional["Tape"]:
    return getattr(_TLS, "tape", None)


class Tape:
    """Ordered record of operations for one forward pass.

    Nodes are appended in execution order, so every node's operands
    precede it; ``backward`` walks the list once, in reverse.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("a Tape is already active on this thread")
        _TLS.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TLS.tape = None

    def __len__(self) -> int:
        return len(self.nodes)


def _record(out: Tensor, inputs: Sequence[Tensor], rule: Callable) -> None:
    tape = _active_tape()
    if tape is not None and out.requires_grad:
        tape.nodes.append(_Node(out, tuple(inputs), rule))


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def backward(loss: Tensor, tape: Tape) -> None:
    """Add d(loss)/d(leaf) into ``grad`` of every leaf reachable from loss.

    A leaf is a requires_grad tensor that no node on ``tape`` produced,
    such as a parameter or a caller's input; intermediates keep ``grad``
    ``None``.  Propagation runs on transient buffers, each released as
    soon as its node's rule has consumed it, and only the final per-leaf
    totals are added into ``.grad``, so calling backward twice without a
    grad reset doubles every leaf gradient exactly.  The tape is left
    intact.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    for node in reversed(tape.nodes):
        g = flowing.pop(id(node.out), None)
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.rule(g)):
            if gi is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in flowing:
                flowing[key] = flowing[key] + gi
            else:
                flowing[key] = gi
                holders[key] = inp
    # every produced tensor's buffer was popped at its node: what is left
    # belongs to leaves
    for key, total in flowing.items():
        t = holders[key]
        if not t.requires_grad:
            continue
        total = total.reshape(t.data.shape)
        t.grad = total.copy() if t.grad is None else t.grad + total


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b))
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, requires_grad=_needs_grad(a, b))
    _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )
    return out


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))
    return out


# ---------------------------------------------------------------------------
# shape manipulation


def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product ``a @ b``, plus ``bias`` added to every row when given.

    The bias is fused into the product's node, so the tape never holds the
    pre-bias product.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if bias is not None and bias.shape != (b.shape[1],):
        raise ValueError(f"matmul bias shape {bias.shape}, expected ({b.shape[1]},)")
    inputs = (a, b) if bias is None else (a, b, bias)
    out_data = a.data @ b.data
    if bias is not None:
        out_data += bias.data
    out = Tensor(out_data, requires_grad=_needs_grad(*inputs))

    def rule(g):
        da = g @ b.data.T if a.requires_grad else None
        db = a.data.T @ g if b.requires_grad else None
        if bias is None:
            return (da, db)
        return (da, db, g.sum(axis=0) if bias.requires_grad else None)

    _record(out, inputs, rule)
    return out


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose expects a matrix, got shape {a.shape}")
    out = Tensor(a.data.T, requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g.T,))
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g.reshape(a.data.shape),))
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    out = Tensor(np.concatenate([t.data for t in parts], axis=axis), requires_grad=_needs_grad(*parts))
    sizes = [t.data.shape[axis] for t in parts]
    bounds = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, bounds, axis=axis))

    _record(out, parts, rule)
    return out


def repeat_rows(a: Tensor, n: int) -> Tensor:
    """Tile a 1xD row across n rows; gradient sums back over rows."""
    if a.data.ndim != 2 or a.shape[0] != 1:
        raise ValueError(f"repeat_rows expects shape (1, d), got {a.shape}")
    out = Tensor(np.repeat(a.data, n, axis=0), requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g.sum(axis=0, keepdims=True),))
    return out


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g * mask,))
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    out = Tensor(s, requires_grad=a.requires_grad)
    _record(out, (a,), lambda g: (g * s * (1.0 - s),))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign so exp never overflows
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    z[~pos] = e / (1.0 + e)
    return z


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with per-row max subtraction for stability."""
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows expects a matrix, got shape {x.shape}")
    if not np.isfinite(x.data).all():
        raise ValueError("softmax_rows: non-finite input")
    p = _softmax_lastaxis_(x.data.copy())
    out = Tensor(p, requires_grad=x.requires_grad)

    def rule(g):
        return ((g - (g * p).sum(axis=1, keepdims=True)) * p,)

    _record(out, (x,), rule)
    return out


def _softmax_lastaxis_(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``x``, overwriting ``x``; returns it."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, shift: Tensor) -> Tensor:
    """Per-row standardization followed by learned gain and shift; the
    variance is floored by ``LAYER_NORM_EPS``."""
    if x.data.ndim != 2 or x.shape[1] < 2:
        raise ValueError(f"layer_norm expects (r, c) with c >= 2, got {x.shape}")
    mu = x.data.mean(axis=1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    y = (x.data - mu) * inv
    out = Tensor(y * gain.data + shift.data, requires_grad=_needs_grad(x, gain, shift))

    def rule(g):
        dgain = (g * y).sum(axis=0) if gain.requires_grad else None
        dshift = g.sum(axis=0) if shift.requires_grad else None
        if x.requires_grad:
            dy = g * gain.data
            dx = inv * (
                dy
                - dy.mean(axis=1, keepdims=True)
                - y * (dy * y).mean(axis=1, keepdims=True)
            )
        else:
            dx = None
        return (dx, dgain, dshift)

    _record(out, (x, gain, shift), rule)
    return out


def dropout(x: Tensor, drop_prob: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: identity in eval mode, survivors scaled by 1/keep."""
    if not train or drop_prob == 0.0:
        return x
    if not (0.0 <= drop_prob < 1.0):
        raise ValueError(f"dropout: drop_prob must be in [0, 1), got {drop_prob}")
    keep = 1.0 - drop_prob
    mask = (rng.random(x.data.shape) >= drop_prob) / keep
    out = Tensor(x.data * mask, requires_grad=x.requires_grad)
    _record(out, (x,), lambda g: (g * mask,))
    return out


# ---------------------------------------------------------------------------
# convolution and pooling


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, padding: int = 0) -> Tensor:
    """Stride-1 cross-correlation of a CxHxW input with FxCxKhxKw kernels
    plus bias.

    Implemented as im2col + one matrix product; the backward pass scatters
    column gradients back with a loop over the (small) kernel footprint.
    """
    if x.data.ndim != 3 or kernels.data.ndim != 4 or bias.data.ndim != 1:
        raise ValueError(
            f"conv2d shapes: input {x.shape}, kernels {kernels.shape}, bias {bias.shape}"
        )
    c, h, w = x.shape
    f, kc, kh, kw = kernels.shape
    if kc != c or bias.shape[0] != f:
        raise ValueError(f"conv2d channel mismatch: input {x.shape}, kernels {kernels.shape}")
    h_out = h + 2 * padding - kh + 1
    w_out = w + 2 * padding - kw + 1
    if h_out < 1 or w_out < 1:
        raise ValueError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding))) if padding else x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (C, H', W', kh, kw)
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c * kh * kw, h_out * w_out)
    kflat = kernels.data.reshape(f, c * kh * kw)
    out_data = (kflat @ cols + bias.data[:, None]).reshape(f, h_out, w_out)
    out = Tensor(out_data, requires_grad=_needs_grad(x, kernels, bias))

    def rule(g):
        gf = g.reshape(f, h_out * w_out)
        dk = (gf @ cols.T).reshape(kernels.data.shape) if kernels.requires_grad else None
        db = g.sum(axis=(1, 2)) if bias.requires_grad else None
        if x.requires_grad:
            dcols = (kflat.T @ gf).reshape(c, kh, kw, h_out, w_out)
            dxp = np.zeros((c, h + 2 * padding, w + 2 * padding))
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i : i + h_out, j : j + w_out] += dcols[:, i, j]
            dx = dxp[:, padding : padding + h, padding : padding + w] if padding else dxp
        else:
            dx = None
        return (dx, dk, db)

    _record(out, (x, kernels, bias), rule)
    return out


def max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping max pooling; ties go to the first index in
    row-major window order; trailing rows/cols that do not fill a window
    are dropped."""
    if x.data.ndim != 3:
        raise ValueError(f"max_pool2d expects CxHxW, got {x.shape}")
    c, h, w = x.shape
    h2, w2 = h // size, w // size
    if h2 < 1 or w2 < 1:
        raise ValueError(f"max_pool2d: input {h}x{w} smaller than window {size}x{size}")
    xc = x.data[:, : h2 * size, : w2 * size]
    wins = xc.reshape(c, h2, size, w2, size).transpose(0, 1, 3, 2, 4).reshape(c, h2, w2, size * size)
    idx = wins.argmax(axis=-1)
    out = Tensor(np.take_along_axis(wins, idx[..., None], axis=-1)[..., 0], requires_grad=x.requires_grad)

    def rule(g):
        gw = np.zeros((c, h2, w2, size * size))
        np.put_along_axis(gw, idx[..., None], g[..., None], axis=-1)
        dx = np.zeros((c, h, w))
        dx[:, : h2 * size, : w2 * size] = (
            gw.reshape(c, h2, w2, size, size).transpose(0, 1, 3, 2, 4).reshape(c, h2 * size, w2 * size)
        )
        return (dx,)

    _record(out, (x,), rule)
    return out


# ---------------------------------------------------------------------------
# attention core and loss


def attention_heads(q: Tensor, k: Tensor, v: Tensor, n_heads: int):
    """Scaled dot-product attention over heads, fused into one node.

    q is (Lq, d); k and v are (Lk, d); d must divide by n_heads.  Per head
    the scores (Lq, Lk) are scaled by 1/sqrt(d/n_heads) and softmaxed over
    keys.  Returns ``(output, weights)`` where weights is the row-stochastic
    (n_heads, Lq, Lk) array of attention probabilities.

    Forward and backward run one head at a time and work in place on that
    head's (Lq, Lk) block, so the block stays in cache and no temporary
    the size of all heads' scores is made; every value matches the
    all-heads-at-once formula bit for bit.
    """
    lq, d = q.shape
    lk, dk_ = k.shape
    if d != dk_ or v.shape != (lk, d):
        raise ValueError(f"attention shapes: q {q.shape}, k {k.shape}, v {v.shape}")
    if d % n_heads != 0:
        raise ValueError(f"attention: width {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    inv = 1.0 / math.sqrt(dh)
    # head-major (H, L, dh) operands: each head's slice is contiguous for BLAS
    qh = np.ascontiguousarray(q.data.reshape(lq, n_heads, dh).transpose(1, 0, 2))
    kh = np.ascontiguousarray(k.data.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    vh = np.ascontiguousarray(v.data.reshape(lk, n_heads, dh).transpose(1, 0, 2))
    probs = np.empty((n_heads, lq, lk))
    out_data = np.empty((lq, d))
    for h in range(n_heads):
        p, cols = probs[h], slice(h * dh, (h + 1) * dh)  # head h owns these columns
        np.matmul(qh[h], kh[h].T, out=p)
        p *= inv
        _softmax_lastaxis_(p)
        np.matmul(p, vh[h], out=out_data[:, cols])
    out = Tensor(out_data, requires_grad=_needs_grad(q, k, v))

    def rule(g):
        gh = np.ascontiguousarray(g.reshape(lq, n_heads, dh).transpose(1, 0, 2))
        dq, dk, dv = (np.empty(t.shape) if t.requires_grad else None for t in (q, k, v))
        ds = np.empty((lq, lk))
        for h in range(n_heads):
            p, cols = probs[h], slice(h * dh, (h + 1) * dh)
            if dv is not None:
                np.matmul(p.T, gh[h], out=dv[:, cols])
            np.matmul(gh[h], vh[h].T, out=ds)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            if dq is not None:
                np.matmul(ds, kh[h], out=dq[:, cols])
            if dk is not None:
                np.matmul(ds.T, qh[h], out=dk[:, cols])
        for grad in (dq, dk):
            if grad is not None:
                grad *= inv
        return (dq, dk, dv)

    _record(out, (q, k, v), rule)
    return out, probs


def bce_with_logits(logits: Tensor, targets, count: Optional[int] = None) -> Tensor:
    """Binary cross entropy summed over the logit entries and divided by
    ``count``, numerically stable.

    ``count`` defaults to ``logits.size``, which gives the mean.  A larger
    ``count`` (the number of entries in a whole batch) makes this part of
    a batch its share of the batch mean: the gradient each entry gets is
    bit for bit the one the batch's mean loss gives it.  targets must be a
    {0,1} array of the same shape; no gradient flows to targets.
    """
    t = np.asarray(targets, dtype=np.float64)
    z = logits.data
    if t.shape != z.shape:
        raise ValueError(f"bce_with_logits: logits {z.shape} vs targets {t.shape}")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ValueError("bce_with_logits: targets must be binary")
    n = z.size if count is None else count
    if n < z.size:
        raise ValueError(f"bce_with_logits: count {n} below the {z.size} logit entries")
    terms = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(terms.sum() / n, requires_grad=logits.requires_grad)
    _record(out, (logits,), lambda g: (g * (_sigmoid(z) - t) / n,))
    return out


# ---------------------------------------------------------------------------
# gradient checking


def finite_diff_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-5,
    max_coords: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor and must be deterministic.  The
    relative error at each coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).  By default
    every coordinate is probed; ``max_coords`` limits the probe set to a
    seeded sample for large tensors.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ValueError(f"finite_diff_check: h={h} outside [1e-6, 1e-4]")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    backward(y, tape)
    analytic = np.zeros_like(probe.data) if probe.grad is None else probe.grad

    flat = probe.data.reshape(-1)
    n = flat.size
    if max_coords is not None and max_coords < n:
        gen = rng if rng is not None else np.random.default_rng(0)
        coords = gen.choice(n, size=max_coords, replace=False)
    else:
        coords = range(n)

    worst = 0.0
    aflat = analytic.reshape(-1)
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        up = f(probe).item()
        flat[i] = orig - h
        down = f(probe).item()
        flat[i] = orig
        numeric = (up - down) / (2.0 * h)
        err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-12)
        worst = max(worst, err)
    return worst
