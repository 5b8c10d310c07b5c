"""Loss, Adam, accuracy, and the training loop with early stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ecgfusion.autodiff import Tape, Tensor, backward, bce_with_logits
from ecgfusion.data import LoadedRecord
from ecgfusion.errors import ConfigError, NumericalError, raise_float_errors
from ecgfusion.model import EcgTransformer, copy_params, zero_grads

__all__ = [
    "TrainConfig",
    "EpochStats",
    "AdamState",
    "bce_with_logits",
    "adam_step",
    "accuracy",
    "train_epoch",
    "score",
    "evaluate",
    "fit_with_early_stop",
    "write_history",
    "read_history",
]

# Adam's moment decay rates and denominator floor (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    batch_size: int = 4
    max_epochs: int = 40
    early_stop_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        # zero is allowed so a no-op pass can be used as a diagnostic
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and nonnegative, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.early_stop_patience < 1:
            raise ConfigError(f"early_stop_patience must be >= 1, got {self.early_stop_patience}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    train_error: float
    val_error: float


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.t = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient in parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose highest-probability class is among the set
    label bits; argmax ties go to the lowest class index."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape:
        raise ValueError(f"accuracy: probs {probs.shape} vs labels {labels.shape}")
    if (labels.sum(axis=1) == 0).any():
        raise ValueError("accuracy: a label row has no set bits")
    picks = probs.argmax(axis=1)
    hits = labels[np.arange(len(labels)), picks]
    return float(hits.mean())


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_epoch(
    model: EcgTransformer,
    split: list[LoadedRecord],
    state: AdamState,
    config: TrainConfig,
) -> tuple[float, float]:
    """One seeded-shuffle pass: forward/backward/Adam per batch (the last
    partial batch is trained too).  Returns (mean loss, accuracy) over the
    split, both measured in training mode as the epoch runs.

    Each record runs forward and backward on its own tape, so a step holds
    one record's forward state at a time.  A record's loss is its share of
    the batch mean, and the per-record gradients are added last record
    first, the order one reversed tape over the whole batch adds them in,
    so the batch gradient Adam gets (and leaves in ``.grad``) is bit for
    bit that of the batch's mean loss.
    """
    n = len(split)
    if n == 0:
        raise ValueError("train_epoch: empty split")
    order = model.rng.permutation(n)
    total_loss = 0.0
    hits = 0.0
    for batch_no, idx in enumerate(_batches(n, config.batch_size, order)):
        records = [split[i] for i in idx]
        count = len(records) * model.config.n_classes
        record_grads = []
        probs_rows = []
        batch_loss = 0.0
        for rec in records:
            with Tape() as tape:
                probs, logits = model.forward(rec, train=True)
                loss = bce_with_logits(logits, rec.labels.reshape(logits.shape), count)
            if not np.isfinite(loss.item()):
                raise NumericalError(f"non-finite loss in batch {batch_no}")
            zero_grads(model.params)
            backward(loss, tape)
            record_grads.append({name: t.grad for name, t in model.params.items() if t.grad is not None})
            batch_loss += loss.item()
            probs_rows.append(probs.data)
        grads = record_grads.pop()  # the last record's, also held in .grad
        while record_grads:
            for name, g in record_grads.pop().items():
                grads[name] += g
        adam_step(model.params, grads, state, config)
        total_loss += batch_loss * len(records)
        hits += accuracy(np.stack(probs_rows), np.stack([rec.labels for rec in records])) * len(records)
    return total_loss / n, hits / n


def score(model: EcgTransformer, record: LoadedRecord) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode forward of one record: (probabilities, logits row).

    Runs under ``raise_float_errors``, so an overflow or invalid operation
    anywhere in the pass raises NumericalError naming the record, as do
    non-finite probabilities."""
    with raise_float_errors():
        try:
            probs, logits = model.forward(record, train=False)
        except FloatingPointError as exc:
            raise NumericalError(f"non-finite probabilities for record {record.record_id!r}: {exc}") from None
    if not np.isfinite(probs.data).all():
        raise NumericalError(f"non-finite probabilities for record {record.record_id!r}")
    return probs.data, logits.data[0]


def evaluate(model: EcgTransformer, split: list[LoadedRecord]):
    """Eval-mode pass over a split: (loss, accuracy, per-record probs)."""
    if not split:
        raise ValueError("evaluate: empty split")
    scored = [score(model, rec) for rec in split]
    probs_mat = np.stack([probs for probs, _ in scored])
    logits_mat = np.stack([logits for _, logits in scored])
    targets = np.stack([rec.labels for rec in split])
    loss = bce_with_logits(Tensor(logits_mat), targets).item()
    return loss, accuracy(probs_mat, targets), probs_mat


def fit_with_early_stop(
    model: EcgTransformer,
    train_split: list[LoadedRecord],
    val_split: list[LoadedRecord],
    config: TrainConfig,
) -> tuple[dict[str, Tensor], list[EpochStats], int]:
    """Train until validation error stops improving for ``patience``
    epochs; returns the best-epoch parameters (1-indexed best epoch).

    Validation error, not loss, drives stopping; ties keep the earlier
    epoch.
    """
    state = AdamState(model.params)
    history: list[EpochStats] = []
    best_error = float("inf")
    best_epoch = 0
    best_params = copy_params(model.params)
    for epoch in range(1, config.max_epochs + 1):
        try:
            with raise_float_errors():
                train_loss, train_acc = train_epoch(model, train_split, state, config)
        except (NumericalError, FloatingPointError) as exc:
            raise NumericalError(f"epoch {epoch}: {exc}") from None
        val_loss, val_acc, _ = evaluate(model, val_split)
        stats = EpochStats(
            epoch=epoch,
            train_loss=train_loss,
            val_loss=val_loss,
            train_error=1.0 - train_acc,
            val_error=1.0 - val_acc,
        )
        history.append(stats)
        if stats.val_error < best_error:
            best_error = stats.val_error
            best_epoch = epoch
            best_params = copy_params(model.params)
        if epoch - best_epoch >= config.early_stop_patience:
            break
    return best_params, history, best_epoch


HISTORY_HEADER = "epoch,train_loss,val_loss,train_error,val_error"


def write_history(path, history: list[EpochStats]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HISTORY_HEADER + "\n")
        for s in history:
            fh.write(
                f"{s.epoch},{s.train_loss:.6f},{s.val_loss:.6f},"
                f"{s.train_error:.6f},{s.val_error:.6f}\n"
            )


def read_history(path) -> list[EpochStats]:
    out = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != HISTORY_HEADER:
            raise ValueError(f"{path}: bad history header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            epoch, tl, vl, te, ve = line.strip().split(",")
            out.append(EpochStats(int(epoch), float(tl), float(vl), float(te), float(ve)))
    return out
