"""The multimodal ECG transformer.

Pipeline (cross-attention fusion): a 2-D convolution condenses the 12
leads into one 250-token scalar sequence, a learned projection lifts each
token to d_model, sinusoidal positional encodings are added, and a
6-layer self-attention encoder produces the waveform memory.  The
768-dim note embedding is projected to d_model and broadcast over the
250 tokens; a 6-stage decoder attends from that notes stream into the
encoder memory (the notes block is re-added to the stream entering every
stage so it is never washed out).  A residual path re-injects the raw
12-lead input, and a small CNN head emits five independent sigmoid
probabilities.

Alternative fusion modes swap the decoder for feature concatenation, a
learned weighted sum, or drop the notes path entirely; a per-lead
variant runs 12 independent narrow encoders and assigns one attention
head per lead.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import Field, dataclass, fields
from typing import Optional

import numpy as np

from ecgfusion import autodiff as ad
from ecgfusion.autodiff import Tensor
from ecgfusion.data import LoadedRecord
from ecgfusion.errors import ConfigError, DataError

FUSION_MODES = ("cross_attention", "early_concat", "early_sum", "waveform_only")

CHECKPOINT_MAGIC = b"MVCKPT1\n"

# classifier head: three 3x3 conv + 2x2 pool stages, then three linears
CLS_CHANNELS = (4, 8, 8)
CLS_HIDDEN = (256, 64)


@dataclass
class ModelConfig:
    seq_len: int = 250
    n_leads: int = 12
    d_model: int = 120
    n_heads: int = 12
    n_encoder_layers: int = 6
    n_decoder_layers: int = 6
    dropout: float = 0.2
    notes_dim: int = 768
    n_classes: int = 5
    fusion_mode: str = "cross_attention"
    per_lead_encoders: bool = False
    feedforward_dim: int = 480

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name in ("n_heads", "n_encoder_layers", "n_decoder_layers", "feedforward_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion_mode {self.fusion_mode!r}; options: {FUSION_MODES}")
        if self.per_lead_encoders:
            if self.n_heads != self.n_leads:
                raise ConfigError(
                    f"per-lead encoders need n_heads == n_leads, got {self.n_heads} vs {self.n_leads}"
                )
            if self.d_model % self.n_leads != 0 or self.d_model // self.n_leads < 2:
                raise ConfigError(
                    "per-lead encoders need d_model a multiple of n_leads with at "
                    f"least 2 dims per lead ({self.d_model}/{self.n_leads})"
                )
        if self.seq_len < 8 or self.d_model < 8:
            raise ConfigError("classifier pooling needs seq_len >= 8 and d_model >= 8")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def per_lead_dim(self) -> int:
        return self.d_model // self.n_leads

    def classifier_flat_dim(self) -> int:
        h, w = self.seq_len, self.d_model
        for _ in CLS_CHANNELS:
            h, w = h // 2, w // 2
        return CLS_CHANNELS[-1] * h * w


# ---------------------------------------------------------------------------
# parameters


def _linear_specs(name, d_in, d_out):
    return [(f"{name}.w", (d_in, d_out), (d_in, d_out)), (f"{name}.b", (d_out,), 0.0)]


def _attention_specs(name, d):
    # no key bias: a uniform shift of every key moves each score row by a
    # constant, which softmax ignores, so that bias would never train
    weights = [(f"{name}.{part}", (d, d), (d, d)) for part in ("wq", "wk", "wv", "wo")]
    return weights + [(f"{name}.{part}", (d,), 0.0) for part in ("bq", "bv", "bo")]


def _layernorm_specs(name, d):
    return [(f"{name}.g", (d,), 1.0), (f"{name}.b", (d,), 0.0)]


def _layer_specs(name, d, ff, attentions=("attn",), norms=("ln1", "ln2")):
    """One encoder layer, or a decoder layer given its attentions and norms."""
    s = [spec for a in attentions for spec in _attention_specs(f"{name}.{a}", d)]
    s += _linear_specs(f"{name}.ff1", d, ff) + _linear_specs(f"{name}.ff2", ff, d)
    return s + [spec for ln in norms for spec in _layernorm_specs(f"{name}.{ln}", d)]


def param_specs(config: ModelConfig) -> list[tuple]:
    """(name, shape, init) for every learnable tensor, in drawing order.

    ``init`` is (fan_in, fan_out) for a uniform draw in
    +-sqrt(6/(fan_in+fan_out)), which weight matrices and kernels take, or
    the constant the tensor starts at: zero for biases, one for layer-norm
    gains, 0.5 for the early-sum weights.
    """
    s = []
    d, ff = config.d_model, config.feedforward_dim

    if config.per_lead_encoders:
        pd = config.per_lead_dim
        for lead in range(config.n_leads):
            s += _linear_specs(f"lead{lead}.token", 1, pd)
            for i in range(config.n_encoder_layers):
                s += _layer_specs(f"lead{lead}.enc{i}", pd, 4 * pd)
        s += [("mv.wo", (d, d), (d, d)), ("mv.bo", (d,), 0.0)]
    else:
        n = config.n_leads
        s += [("condense.kernel", (1, 1, n, 1), (n, n)), ("condense.bias", (1,), 0.0)]
        s += _linear_specs("token", 1, d)
        for i in range(config.n_encoder_layers):
            s += _layer_specs(f"enc{i}", d, ff)

    if config.fusion_mode != "waveform_only":
        s += _linear_specs("notes", config.notes_dim, d)

    if config.fusion_mode in ("cross_attention", "waveform_only"):
        for i in range(config.n_decoder_layers):
            s += _layer_specs(f"dec{i}", d, ff, ("self", "cross"), ("ln1", "ln2", "ln3"))
    elif config.fusion_mode == "early_concat":
        s += _linear_specs("fuse", 2 * d, d)
    elif config.fusion_mode == "early_sum":
        s += [("fuse.alpha", (1,), 0.5), ("fuse.beta", (1,), 0.5)]

    s += _linear_specs("merge", config.n_leads, d)
    s += _layernorm_specs("merge.ln", d)

    c_in = 1
    for idx, c_out in enumerate(CLS_CHANNELS, start=1):
        s += [(f"cls.conv{idx}.k", (c_out, c_in, 3, 3), (c_in * 9, c_out * 9))]
        s += [(f"cls.conv{idx}.b", (c_out,), 0.0)]
        c_in = c_out
    dims = (config.classifier_flat_dim(), *CLS_HIDDEN, config.n_classes)
    for idx in range(3):
        s += _linear_specs(f"cls.fc{idx + 1}", dims[idx], dims[idx + 1])
    return s


def _draw(specs, rng: np.random.Generator) -> dict[str, Tensor]:
    params = {}
    for name, shape, init in specs:
        if isinstance(init, tuple):
            bound = np.sqrt(6.0 / sum(init))
            values = rng.uniform(-bound, bound, size=shape)
        else:
            values = np.full(shape, init)
        params[name] = Tensor(values, requires_grad=True)
    return params


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """All learnable tensors for the given configuration, keyed by name
    and drawn from ``rng`` in ``param_specs`` order."""
    return _draw(param_specs(config), rng)


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.grad = None


def copy_params(params: dict[str, Tensor]) -> dict[str, Tensor]:
    out = {}
    for name, t in params.items():
        c = Tensor(t.data.copy(), requires_grad=t.requires_grad)
        out[name] = c
    return out


# ---------------------------------------------------------------------------
# building blocks


_PE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def positional_encoding(seq_len: int, d_model: int) -> np.ndarray:
    """Fixed sinusoidal table: sin on even dims, cos on odd dims."""
    key = (seq_len, d_model)
    if key not in _PE_CACHE:
        pos = np.arange(seq_len)[:, None]
        dim = np.arange(0, d_model, 2)[None, :]
        angle = pos / np.power(10000.0, dim / d_model)
        pe = np.zeros((seq_len, d_model))
        pe[:, 0::2] = np.sin(angle)
        pe[:, 1::2] = np.cos(angle[:, : d_model // 2])
        _PE_CACHE[key] = pe
    return _PE_CACHE[key]


def positional_encode(tokens: Tensor) -> Tensor:
    seq_len, d = tokens.shape
    return ad.add(tokens, Tensor(positional_encoding(seq_len, d)))


def _linear(x: Tensor, params, name: str) -> Tensor:
    return ad.matmul(x, params[f"{name}.w"], params[f"{name}.b"])


def condense_leads(x: Tensor, params) -> Tensor:
    """Collapse the 12 leads to one scalar per token, then lift each
    token to d_model with the learned projection."""
    n_leads, seq_len = x.shape
    img = ad.reshape(x, (1, n_leads, seq_len))
    squeezed = ad.conv2d(img, params["condense.kernel"], params["condense.bias"])
    tokens = ad.reshape(squeezed, (seq_len, 1))
    return _linear(tokens, params, "token")


def multi_head_attention(
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    params,
    name: str,
    n_heads: int,
    attn_out: Optional[list] = None,
) -> Tensor:
    """Project q/k/v, run scaled dot-product attention per head, then
    concatenate and output-project.  Attention weights are appended to
    ``attn_out`` when given."""
    q = ad.matmul(q_in, params[f"{name}.wq"], params[f"{name}.bq"])
    k = ad.matmul(k_in, params[f"{name}.wk"])
    v = ad.matmul(v_in, params[f"{name}.wv"], params[f"{name}.bv"])
    pooled, weights = ad.attention_heads(q, k, v, n_heads)
    if attn_out is not None:
        attn_out.append(weights)
    return ad.matmul(pooled, params[f"{name}.wo"], params[f"{name}.bo"])


def _sublayer(x: Tensor, sub_out: Tensor, params, ln_name: str, config, train, rng) -> Tensor:
    dropped = ad.dropout(sub_out, config.dropout, rng, train)
    return ad.layer_norm(ad.add(x, dropped), params[f"{ln_name}.g"], params[f"{ln_name}.b"])


def _feed_forward(x: Tensor, params, name: str) -> Tensor:
    return _linear(ad.relu(_linear(x, params, f"{name}1")), params, f"{name}2")


def _encoder_layer(x, params, name, n_heads, config, train, rng, attn_out):
    a = multi_head_attention(x, x, x, params, f"{name}.attn", n_heads, attn_out)
    x = _sublayer(x, a, params, f"{name}.ln1", config, train, rng)
    f = _feed_forward(x, params, f"{name}.ff")
    return _sublayer(x, f, params, f"{name}.ln2", config, train, rng)


def encoder_forward(
    x: Tensor, params, config: ModelConfig, train: bool, rng=None, cache: Optional[dict] = None
) -> Tensor:
    attn = [] if cache is not None else None
    for i in range(config.n_encoder_layers):
        x = _encoder_layer(x, params, f"enc{i}", config.n_heads, config, train, rng, attn)
    if cache is not None:
        cache["encoder_attn"] = attn
    return x


def notes_adapt(embedding: Tensor, params, seq_len: int) -> Tensor:
    """Project the 768-dim note vector to d_model and replicate it
    across all token positions."""
    row = _linear(embedding, params, "notes")
    return ad.repeat_rows(row, seq_len)


def decoder_forward(
    enc_out: Tensor,
    notes_block: Tensor,
    params,
    config: ModelConfig,
    train: bool,
    rng=None,
    cache: Optional[dict] = None,
) -> Tensor:
    """Cross-attention decoder: the notes stream self-attends, queries the
    encoder memory, and passes through a feed-forward block, with
    add-and-normalize around each step.  The notes block is re-added to
    the stream entering every stage; the encoder output is the constant
    key/value memory."""
    self_attn = [] if cache is not None else None
    cross_attn = [] if cache is not None else None
    stream = notes_block
    for i in range(config.n_decoder_layers):
        if i > 0:
            stream = ad.add(stream, notes_block)
        a = multi_head_attention(stream, stream, stream, params, f"dec{i}.self", config.n_heads, self_attn)
        s1 = _sublayer(stream, a, params, f"dec{i}.ln1", config, train, rng)
        c = multi_head_attention(s1, enc_out, enc_out, params, f"dec{i}.cross", config.n_heads, cross_attn)
        s2 = _sublayer(s1, c, params, f"dec{i}.ln2", config, train, rng)
        f = _feed_forward(s2, params, f"dec{i}.ff")
        stream = _sublayer(s2, f, params, f"dec{i}.ln3", config, train, rng)
    if cache is not None:
        cache["decoder_self_attn"] = self_attn
        cache["decoder_cross_attn"] = cross_attn
    return stream


def residual_merge(raw_leads: Tensor, dec_out: Tensor, params) -> Tensor:
    """Lift the original 12-lead input to d_model per token, add it to
    the decoder output, and normalize."""
    lifted = _linear(ad.transpose(raw_leads), params, "merge")
    merged = ad.add(lifted, dec_out)
    return ad.layer_norm(merged, params["merge.ln.g"], params["merge.ln.b"])


def classifier_forward(
    x: Tensor, params, config: ModelConfig, train: bool, rng=None
) -> tuple[Tensor, Tensor]:
    """CNN head over the token-by-feature map; returns (probs, logits)."""
    fmap = ad.reshape(x, (1, config.seq_len, config.d_model))
    for idx in range(1, len(CLS_CHANNELS) + 1):
        fmap = ad.conv2d(fmap, params[f"cls.conv{idx}.k"], params[f"cls.conv{idx}.b"], padding=1)
        fmap = ad.max_pool2d(ad.relu(fmap), 2)
    flat = ad.reshape(fmap, (1, config.classifier_flat_dim()))
    h = ad.relu(_linear(flat, params, "cls.fc1"))
    h = ad.relu(_linear(h, params, "cls.fc2"))
    logits = _linear(h, params, "cls.fc3")
    probs = ad.reshape(ad.sigmoid(logits), (config.n_classes,))
    return probs, logits


# ---------------------------------------------------------------------------
# full forward passes


def _encode_waveform(ecg: Tensor, params, config, train, rng, cache):
    tokens = condense_leads(ecg, params)
    encoded = positional_encode(tokens)
    out = encoder_forward(encoded, params, config, train, rng, cache)
    if cache is not None:
        cache["tokens_shape"] = tokens.shape
        cache["encoder_out_shape"] = out.shape
    return out


def _encode_per_lead(ecg: Tensor, params, config, train, rng, cache):
    """12 independent narrow encoders, one attention head per lead, pooled
    by concatenation plus an output projection."""
    pd = config.per_lead_dim
    head_outputs = []
    mv_weights = []
    pe = Tensor(positional_encoding(config.seq_len, pd))
    for lead in range(config.n_leads):
        lane = Tensor(ecg.data[lead : lead + 1].T)  # constant input slice
        tokens = _linear(lane, params, f"lead{lead}.token")
        x = ad.add(tokens, pe)
        for i in range(config.n_encoder_layers):
            x = _encoder_layer(x, params, f"lead{lead}.enc{i}", 1, config, train, rng, None)
        pooled_head, weights = ad.attention_heads(x, x, x, 1)
        head_outputs.append(pooled_head)
        mv_weights.append(weights[0])
    stacked = ad.concat(head_outputs, axis=1)
    pooled = ad.matmul(stacked, params["mv.wo"], params["mv.bo"])
    if cache is not None:
        cache["per_head_outputs"] = [h.data.copy() for h in head_outputs]
        cache["mv_attn"] = mv_weights
        cache["pooled"] = pooled.data.copy()
    return pooled


def forward(
    ecg,
    notes,
    config: ModelConfig,
    params: dict[str, Tensor],
    train_mode: bool = False,
    rng: Optional[np.random.Generator] = None,
    cache: Optional[dict] = None,
) -> tuple[Tensor, Tensor]:
    """Full model pass; returns (probabilities[5], logits[1x5]).

    ``ecg`` is a 12x250 array; ``notes`` is a 768-vector (or None in
    waveform-only mode).  ``rng`` is required when training with
    dropout enabled.
    """
    if train_mode and config.dropout > 0.0 and rng is None:
        raise ConfigError("training with dropout needs an rng")
    x = Tensor(ecg)
    if x.shape != (config.n_leads, config.seq_len):
        raise DataError(f"waveform shape {x.shape}, expected {(config.n_leads, config.seq_len)}")

    if config.per_lead_encoders:
        enc_out = _encode_per_lead(x, params, config, train_mode, rng, cache)
    else:
        enc_out = _encode_waveform(x, params, config, train_mode, rng, cache)

    mode = config.fusion_mode
    if mode == "waveform_only":
        merged = decoder_forward(enc_out, enc_out, params, config, train_mode, rng, cache)
    else:
        if notes is None:
            raise DataError(f"fusion mode {mode!r} needs a notes embedding")
        emb = Tensor(notes)
        if emb.shape != (config.notes_dim,):
            raise DataError(f"notes shape {emb.shape}, expected ({config.notes_dim},)")
        notes_block = notes_adapt(ad.reshape(emb, (1, config.notes_dim)), params, config.seq_len)
        if cache is not None:
            cache["notes_block_shape"] = notes_block.shape
        if mode == "cross_attention":
            merged = decoder_forward(enc_out, notes_block, params, config, train_mode, rng, cache)
        elif mode == "early_concat":
            merged = _linear(ad.concat([enc_out, notes_block], axis=1), params, "fuse")
        else:  # early_sum
            merged = ad.add(
                ad.mul(params["fuse.alpha"], enc_out), ad.mul(params["fuse.beta"], notes_block)
            )

    if cache is not None:
        cache["merged_shape"] = merged.shape
    combined = residual_merge(x, merged, params)
    if cache is not None:
        cache["residual_shape"] = combined.shape
    return classifier_forward(combined, params, config, train_mode, rng)


# ---------------------------------------------------------------------------
# checkpoints


def _config_to_lines(config: ModelConfig, extra: Optional[dict] = None) -> str:
    items = []
    for f in fields(config):
        v = getattr(config, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = repr(v)
        items.append(f"{f.name}={v}")
    for k, v in (extra or {}).items():
        items.append(f"extra.{k}={v}")
    return "\n".join(items) + "\n"


def coerce(f: Field, raw: str, error: type[ValueError] = ConfigError, where: str = ""):
    """Parse the text ``raw`` as a value of the dataclass field ``f``.

    The one type rule for config files, flags and checkpoint headers:
    int and float parse as Python parses them, a bool is one of
    true/yes/1 or false/no/0 in any case, and any other field keeps the
    text.  A value that does not parse raises ``error``, with ``where``
    in front of the message.
    """
    kind = getattr(f.type, "__name__", f.type)
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise error(f"{where}{f.name}: expected {kind}, got {raw!r}") from None
    if kind == "bool":
        low = raw.strip().lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise error(f"{where}{f.name}: expected a boolean, got {raw!r}")
    return raw


def _config_from_lines(text: str) -> tuple[ModelConfig, dict]:
    kwargs = {}
    extra = {}
    known = {f.name: f for f in fields(ModelConfig)}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        if key.startswith("extra."):
            extra[key[len("extra.") :]] = value
        elif key in known:
            kwargs[key] = coerce(known[key], value, DataError, "checkpoint config: ")
        else:
            raise DataError(f"checkpoint config: unknown key {key!r}")
    try:
        return ModelConfig(**kwargs), extra
    except ConfigError as exc:
        raise DataError(f"checkpoint config: {exc}") from None


def save_checkpoint(path, config: ModelConfig, params: dict[str, Tensor], extra=None) -> None:
    """Binary checkpoint: magic, length-prefixed config text, then named
    parameter blobs (little-endian u32 lengths/dims, float64 data)."""
    blob = _config_to_lines(config, extra).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in sorted(params):
            t = params[name]
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", t.data.ndim))
            for dim in t.data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(t.data.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, Tensor], dict]:
    """Read a checkpoint written by ``save_checkpoint``.

    Every field is length-checked against the bytes left in the file, so a
    file cut short or with bytes past the last parameter blob raises
    ``DataError``, as does text that is not UTF-8, a repeated name or a
    parameter holding a NaN or Inf.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            if n > size - fh.tell():
                raise DataError(f"{path}: file ends inside {what}")
            return fh.read(n)

        def read_u32(what: str) -> int:
            return struct.unpack("<I", read(4, what))[0]

        def read_text(n: int, what: str) -> str:
            try:
                return read(n, what).decode("utf-8")
            except UnicodeDecodeError:
                raise DataError(f"{path}: {what} is not UTF-8") from None

        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: not a checkpoint (bad magic {magic!r})")
        config, extra = _config_from_lines(read_text(read_u32("the config length"), "the config text"))
        params: dict[str, Tensor] = {}
        while fh.tell() < size:
            name = read_text(read_u32("a parameter name length"), "a parameter name")
            rank = read_u32(f"the rank of {name!r}")
            shape = struct.unpack(f"<{rank}I", read(4 * rank, f"the shape of {name!r}"))
            blob = read(8 * math.prod(shape), f"the data of {name!r}")
            if name in params:
                raise DataError(f"{path}: parameter {name!r} appears twice")
            values = np.frombuffer(blob, dtype="<f8").reshape(shape)
            if not np.isfinite(values).all():
                raise DataError(f"{path}: parameter {name!r} holds a NaN or Inf")
            params[name] = Tensor(values.copy(), requires_grad=True)
    expected = {name: shape for name, shape, _ in param_specs(config)}
    got = {k: v.shape for k, v in params.items()}
    if expected != got:
        missing = sorted(set(expected) - set(got))
        surplus = sorted(set(got) - set(expected))
        if missing or surplus:
            detail = f"missing {missing[:3]}, unexpected {surplus[:3]}"
        else:
            name = next(k for k in expected if expected[k] != got[k])
            detail = f"{name!r} has shape {got[name]}, config expects {expected[name]}"
        raise DataError(f"{path}: parameters do not match config ({detail})")
    return config, params, extra


# ---------------------------------------------------------------------------
# convenience wrapper


class EcgTransformer:
    """Bundles config, parameters, and the dropout rng for one model."""

    def __init__(self, config: ModelConfig, seed: int = 0, params=None):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.params = init_params(config, self.rng) if params is None else params

    def forward(self, record: LoadedRecord, train: bool = False, cache: Optional[dict] = None):
        return forward(
            record.waveform,
            record.embedding,
            self.config,
            self.params,
            train_mode=train,
            rng=self.rng,
            cache=cache,
        )
