"""Tests for loss, Adam, accuracy, the epoch loop, and early stopping."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ecgfusion import autodiff as ad
from ecgfusion import training
from ecgfusion.autodiff import Tape, Tensor, backward, bce_with_logits
from ecgfusion.cli import main
from ecgfusion.data import LoadedRecord, synth_dataset, prepare_records
from ecgfusion.errors import ConfigError, NumericalError
from ecgfusion.model import EcgTransformer, ModelConfig, zero_grads
from ecgfusion.training import (
    AdamState,
    EpochStats,
    TrainConfig,
    accuracy,
    adam_step,
    evaluate,
    fit_with_early_stop,
    read_history,
    train_epoch,
    write_history,
)


def tiny_model(seed=0, **overrides):
    base = dict(
        seq_len=16,
        d_model=8,
        n_heads=2,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.0,
        feedforward_dim=32,
    )
    base.update(overrides)
    return EcgTransformer(ModelConfig(**base), seed=seed)


def tiny_records(n, config, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        klass = i % 5
        labels = np.zeros(5)
        labels[klass] = 1.0
        out.append(
            LoadedRecord(
                record_id=f"t{i}",
                waveform=rng.normal(size=(config.n_leads, config.seq_len))
                + 0.5 * np.sin(2 * np.pi * (klass + 1) * np.arange(config.seq_len) / 50.0),
                labels=labels,
                embedding=np.eye(5)[klass].repeat(154)[:768] + 0.01 * rng.normal(size=768),
            )
        )
    return out


class TestBce:
    def test_zero_logit_positive_target(self):
        loss = bce_with_logits(Tensor([[0.0]]), np.array([[1.0]]))
        assert abs(loss.item() - math.log(2)) < 1e-15

    def test_saturated_positive(self):
        assert bce_with_logits(Tensor([[50.0]]), np.array([[1.0]])).item() < 1e-20

    def test_row_of_zero_logits(self):
        loss = bce_with_logits(Tensor([[0.0] * 5]), np.array([[1, 0, 1, 0, 0]], dtype=float))
        assert abs(loss.item() - math.log(2)) < 1e-15

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(8, 5)) * 3
        y = (rng.random((8, 5)) < 0.4).astype(float)
        assert bce_with_logits(Tensor(z), y).item() >= 0.0

    def test_count_gives_share_of_batch_mean(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 5)) * 3
        y = (rng.random((4, 5)) < 0.4).astype(float)
        whole = Tensor(z, requires_grad=True)
        with Tape() as tape:
            batch = bce_with_logits(whole, y)
        backward(batch, tape)
        shares = 0.0
        for i in range(4):
            row = Tensor(z[i : i + 1], requires_grad=True)
            with Tape() as tape:
                share = bce_with_logits(row, y[i : i + 1], count=z.size)
            backward(share, tape)
            # the row's gradient is bit for bit the batch mean's
            np.testing.assert_array_equal(row.grad, whole.grad[i : i + 1])
            terms = np.maximum(z[i], 0) - z[i] * y[i] + np.log1p(np.exp(-np.abs(z[i])))
            assert share.item() == terms.sum() / z.size
            shares += share.item()
        assert shares == pytest.approx(batch.item(), rel=1e-15)

    def test_default_count_is_the_mean(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 5))
        y = (rng.random((3, 5)) < 0.5).astype(float)
        terms = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
        assert bce_with_logits(Tensor(z), y).item() == terms.mean()
        assert bce_with_logits(Tensor(z), y, count=z.size).item() == terms.mean()

    def test_count_below_size_rejected(self):
        with pytest.raises(ValueError, match="count"):
            bce_with_logits(Tensor(np.zeros((2, 5))), np.zeros((2, 5)), count=9)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = {"w": Tensor(np.array([1.0, 2.0]), requires_grad=True)}
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(2)}, state, TrainConfig())
        np.testing.assert_array_equal(params["w"].data, [1.0, 2.0])

    @pytest.mark.parametrize("g", [3.0, -0.25, 0.01])
    def test_first_step_magnitude_is_lr(self, g):
        # first-step error is lr*eps/|g|, so |g| >= 0.01 keeps it under lr*1e-6
        lr = 0.01
        params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = AdamState(params)
        adam_step(params, {"w": np.array([g])}, state, TrainConfig(learning_rate=lr))
        delta = params["w"].data[0]
        assert np.sign(delta) == -np.sign(g)
        assert abs(abs(delta) - lr) < lr * 1e-6

    def test_ten_step_trajectory_matches_reference_adam(self):
        # independently coded reference loop on f(x) = x^2
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        x_ref, m, v = 1.7, 0.0, 0.0
        trajectory = []
        for t in range(1, 11):
            g = 2 * x_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            trajectory.append(x_ref)

        params = {"x": Tensor(np.array([1.7]), requires_grad=True)}
        state = AdamState(params)
        config = TrainConfig(learning_rate=lr)
        for t in range(10):
            adam_step(params, {"x": 2 * params["x"].data}, state, config)
            assert abs(params["x"].data[0] - trajectory[t]) < 1e-12

    def test_non_finite_gradient_names_parameter(self):
        params = {"bad.w": Tensor(np.array([1.0]), requires_grad=True)}
        state = AdamState(params)
        with pytest.raises(NumericalError, match="bad.w"):
            adam_step(params, {"bad.w": np.array([np.inf])}, state, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1e-4)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(early_stop_patience=0)
        # with no epoch there is no best epoch to report or restore
        with pytest.raises(ConfigError, match="max_epochs"):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("adam_eps", "0"),
            ("adam_eps", "-1e-8"),
            ("adam_eps", "nan"),
            ("adam_eps", "inf"),
            ("adam_beta1", "-0.1"),
            ("adam_beta1", "1.0"),
            ("adam_beta1", "nan"),
            ("adam_beta2", "1.0"),
            ("adam_beta2", "inf"),
        ],
    )
    def test_non_finite_or_out_of_range_hyperparameter_exits_1(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_learning_rate_flag_non_finite_exits_1(self, value, tmp_path, capsys):
        assert main(["train", "--learning-rate", value, "--out", str(tmp_path / "run")]) == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_edge_hyperparameters_accepted(self):
        TrainConfig(learning_rate=0.0)


def brute_force_accuracy(probs, labels):
    correct = 0
    for row, lab in zip(probs, labels):
        best, best_p = 0, row[0]
        for i, p in enumerate(row):
            if p > best_p:
                best, best_p = i, p
        correct += int(lab[best] == 1)
    return correct / len(probs)


class TestAccuracy:
    def test_argmax_within_labels_counts(self):
        probs = np.array([[0.1, 0.8, 0.2, 0.6, 0.1]])
        labels = np.array([[0, 1, 0, 1, 0]])
        assert accuracy(probs, labels) == 1.0

    def test_argmax_outside_labels_misses(self):
        probs = np.array([[0.9, 0.2, 0.1, 0.1, 0.1]])
        labels = np.array([[0, 1, 0, 0, 0]])
        assert accuracy(probs, labels) == 0.0

    def test_mixed_batch(self):
        probs = np.array([[0.1, 0.8, 0.2, 0.6, 0.1], [0.9, 0.2, 0.1, 0.1, 0.1]])
        labels = np.array([[0, 1, 0, 1, 0], [0, 1, 0, 0, 0]])
        assert accuracy(probs, labels) == 0.5

    def test_ties_break_to_lowest_index(self):
        probs = np.array([[0.5, 0.5, 0.1, 0.1, 0.1]])
        assert accuracy(probs, np.array([[1, 0, 0, 0, 0]])) == 1.0
        assert accuracy(probs, np.array([[0, 1, 0, 0, 0]])) == 0.0

    def test_empty_label_row_rejected(self):
        with pytest.raises(ValueError, match="no set bits"):
            accuracy(np.array([[0.5] * 5]), np.zeros((1, 5)))

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(31)
        subsets = list(itertools.product((0, 1), repeat=5))[1:]
        labels = np.array(subsets, dtype=float)
        for _ in range(10):
            probs = rng.random((31, 5))
            assert accuracy(probs, labels) == brute_force_accuracy(probs, labels)


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_params_bit_identical(self):
        model = tiny_model(seed=1)
        records = tiny_records(6, model.config, seed=1)
        before = {k: v.data.copy() for k, v in model.params.items()}
        state = AdamState(model.params)
        train_epoch(model, records, state, TrainConfig(learning_rate=0.0, batch_size=4))
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, before[name])

    def test_same_seed_identical_stats(self):
        def run():
            model = tiny_model(seed=3)
            records = tiny_records(10, model.config, seed=3)
            state = AdamState(model.params)
            config = TrainConfig(learning_rate=0.001, batch_size=4)
            return [train_epoch(model, records, state, config) for _ in range(3)]

        assert run() == run()

    def test_loss_decreases_on_small_set(self):
        model = tiny_model(seed=5, dropout=0.0)
        records = tiny_records(16, model.config, seed=5)
        state = AdamState(model.params)
        config = TrainConfig(learning_rate=0.003, batch_size=4)
        losses = [train_epoch(model, records, state, config)[0] for _ in range(5)]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 1, losses

    def test_partial_batch_trained(self):
        model = tiny_model(seed=7)
        records = tiny_records(5, model.config, seed=7)  # 4 + 1 leftover
        before = {k: v.data.copy() for k, v in model.params.items()}
        state = AdamState(model.params)
        train_epoch(model, records, state, TrainConfig(learning_rate=0.01, batch_size=4))
        assert state.t == 2  # two optimizer steps
        changed = any(
            not np.array_equal(t.data, before[k]) for k, t in model.params.items()
        )
        assert changed

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_aborts(self):
        model = tiny_model(seed=9)
        records = tiny_records(4, model.config, seed=9)
        model.params["cls.fc3.b"].data[:] = np.inf
        state = AdamState(model.params)
        with pytest.raises(NumericalError, match="batch"):
            train_epoch(model, records, state, TrainConfig(learning_rate=0.001))


def single_tape_epoch(model, split, state, config):
    """The batch step before one tape per record, kept as the reference:
    every record of a batch on one tape and one backward over the batch's
    mean loss.  Returns (mean loss, a copy of each gradient set Adam got)."""
    order = model.rng.permutation(len(split))
    total, steps = 0.0, []
    for start in range(0, len(split), config.batch_size):
        records = [split[i] for i in order[start : start + config.batch_size]]
        zero_grads(model.params)
        with Tape() as tape:
            logits = [model.forward(rec, train=True)[1] for rec in records]
            targets = np.stack([rec.labels for rec in records])
            loss = bce_with_logits(ad.concat(logits, axis=0), targets)
        backward(loss, tape)
        grads = {name: t.grad for name, t in model.params.items() if t.grad is not None}
        steps.append({name: g.copy() for name, g in grads.items()})
        adam_step(model.params, grads, state, config)
        total += loss.item() * len(records)
    return total / len(split), steps


MODES = {
    "cross_attention": dict(fusion_mode="cross_attention"),
    "early_concat": dict(fusion_mode="early_concat"),
    "waveform_only": dict(fusion_mode="waveform_only"),
    "per_lead_encoders": dict(d_model=24, n_heads=12, per_lead_encoders=True),
}


class TestPerRecordTapes:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_single_tape_batch_bitwise(self, mode, monkeypatch):
        overrides = dict(dropout=0.3, **MODES[mode])
        config = TrainConfig(learning_rate=0.01, batch_size=4)
        records = tiny_records(7, tiny_model(**overrides).config, seed=31)  # batches of 4 and 3

        reference = tiny_model(seed=31, **overrides)
        ref_state = AdamState(reference.params)
        ref_losses, ref_steps = [], []
        for _ in range(2):
            loss, steps = single_tape_epoch(reference, records, ref_state, config)
            ref_losses.append(loss)
            ref_steps += steps

        model = tiny_model(seed=31, **overrides)
        steps = []

        def recording_adam_step(params, grads, state, cfg):
            for name, t in params.items():
                assert t.grad is grads.get(name)  # .grad holds the batch gradient
            steps.append({name: g.copy() for name, g in grads.items()})
            adam_step(params, grads, state, cfg)

        monkeypatch.setattr(training, "adam_step", recording_adam_step)
        state = AdamState(model.params)
        losses = [train_epoch(model, records, state, config)[0] for _ in range(2)]

        assert len(steps) == len(ref_steps) == 4
        for got, want in zip(steps, ref_steps):
            assert got.keys() == want.keys()
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        for name, t in model.params.items():
            np.testing.assert_array_equal(t.data, reference.params[name].data, err_msg=name)
        assert losses == pytest.approx(ref_losses, rel=1e-14)

    def test_batch_step_peak_memory_near_one_record(self):
        def step_peak(batch_size):
            model = tiny_model(
                seed=41, seq_len=250, d_model=32, n_heads=4, n_encoder_layers=2, n_decoder_layers=2
            )
            records = tiny_records(batch_size, model.config, seed=41)
            model.forward(records[0], train=False)  # fills the positional-encoding cache
            state = AdamState(model.params)
            tracemalloc.start()
            try:
                train_epoch(model, records, state, TrainConfig(batch_size=batch_size))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ratio = step_peak(4) / step_peak(1)
        assert ratio <= 1.5, ratio


class TestEvaluate:
    def test_idempotent(self):
        model = tiny_model(seed=11, dropout=0.4)
        records = tiny_records(6, model.config, seed=11)
        a = evaluate(model, records)
        b = evaluate(model, records)
        assert a[0] == b[0] and a[1] == b[1]
        np.testing.assert_array_equal(a[2], b[2])

    def test_non_finite_probabilities_raise(self):
        # a finite but huge weight overflows to inf, then inf - inf = NaN
        model = tiny_model(seed=12)
        records = tiny_records(3, model.config, seed=12)
        model.params["cls.fc2.w"].data[...] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="'t0'"):
                evaluate(model, records)

    def test_overflow_inside_training_is_numerical_error(self):
        # the overflow is raised where it happens, even when the caller
        # ignores floating-point errors, and not washed out downstream
        model = tiny_model(seed=12, fusion_mode="waveform_only")
        records = tiny_records(4, model.config, seed=12)
        model.params["enc0.attn.wq"].data[...] = 1e308
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalError, match="epoch 1: overflow"):
                fit_with_early_stop(model, records, records, TrainConfig(max_epochs=1))

    def test_confident_normal_record_scores_accurate(self):
        probs = np.array([[0.9675, 0.02, 0.03, 0.01, 0.005]])
        labels = np.array([[1, 0, 0, 0, 0]])
        assert accuracy(probs, labels) == 1.0

    def test_loss_matches_recomputation_from_logits(self):
        model = tiny_model(seed=13)
        records = tiny_records(6, model.config, seed=13)
        loss, acc, probs = evaluate(model, records)
        logits = np.log(probs) - np.log1p(-probs)  # invert sigmoid
        targets = np.stack([r.labels for r in records])
        recomputed = bce_with_logits(Tensor(logits), targets).item()
        assert abs(loss - recomputed) < 1e-9

    def test_train_mode_stats_match_eval_when_lr_zero_and_no_dropout(self):
        model = tiny_model(seed=15, dropout=0.0)
        records = tiny_records(8, model.config, seed=15)
        state = AdamState(model.params)
        tl, ta = train_epoch(model, records, state, TrainConfig(learning_rate=0.0, batch_size=4))
        el, ea, _ = evaluate(model, records)
        assert ta == ea
        assert abs(tl - el) < 1e-12

    def test_scaling_logits_changes_loss_not_accuracy(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(size=(12, 5))
        labels = (rng.random((12, 5)) < 0.4).astype(float)
        labels[labels.sum(axis=1) == 0, 0] = 1.0
        probs = 1 / (1 + np.exp(-logits))
        probs_scaled = 1 / (1 + np.exp(-3 * logits))
        assert accuracy(probs, labels) == accuracy(probs_scaled, labels)
        l1 = bce_with_logits(Tensor(logits), labels).item()
        l2 = bce_with_logits(Tensor(3 * logits), labels).item()
        assert l1 != l2


class TestEarlyStopping:
    def scripted_fit(self, errors, patience, monkeypatch):
        """Drive fit_with_early_stop with a scripted val-error sequence."""
        model = tiny_model(seed=21)
        records = tiny_records(4, model.config, seed=21)
        seq = iter(errors)

        def fake_train_epoch(model, split, state, config):
            return 0.5, 0.5

        def fake_evaluate(model, split):
            err = next(seq)
            return 0.5, 1.0 - err, np.full((len(split), 5), 0.2)

        monkeypatch.setattr(training, "train_epoch", fake_train_epoch)
        monkeypatch.setattr(training, "evaluate", fake_evaluate)
        config = TrainConfig(
            learning_rate=0.001, max_epochs=len(errors), early_stop_patience=patience
        )
        return fit_with_early_stop(model, records, records, config)

    def test_scripted_sequence_stops_after_patience(self, monkeypatch):
        errors = [0.5, 0.4, 0.45, 0.46, 0.47, 0.48]
        _, history, best_epoch = self.scripted_fit(errors, 3, monkeypatch)
        assert best_epoch == 2
        assert len(history) == 5  # stopped after epoch 5, epoch 6 never ran

    def test_strictly_decreasing_runs_to_max(self, monkeypatch):
        errors = [0.5, 0.4, 0.3, 0.2, 0.1]
        _, history, best_epoch = self.scripted_fit(errors, 2, monkeypatch)
        assert best_epoch == 5
        assert len(history) == 5

    def test_tie_keeps_earlier_epoch(self, monkeypatch):
        errors = [0.4, 0.4, 0.4]
        _, history, best_epoch = self.scripted_fit(errors, 2, monkeypatch)
        assert best_epoch == 1
        assert len(history) == 3

    def test_best_params_reproduce_best_val_error(self):
        model = tiny_model(seed=23, dropout=0.0)
        records = tiny_records(12, model.config, seed=23)
        config = TrainConfig(
            learning_rate=0.002, batch_size=4, max_epochs=6, early_stop_patience=6
        )
        best_params, history, best_epoch = fit_with_early_stop(
            model, records[:8], records[8:], config
        )
        model.params = best_params
        _, acc, _ = evaluate(model, records[8:])
        assert abs((1.0 - acc) - history[best_epoch - 1].val_error) < 1e-12

    def test_never_returns_worse_than_earlier_epoch(self):
        model = tiny_model(seed=25, dropout=0.2)
        records = tiny_records(12, model.config, seed=25)
        config = TrainConfig(
            learning_rate=0.005, batch_size=4, max_epochs=8, early_stop_patience=3
        )
        _, history, best_epoch = fit_with_early_stop(model, records[:8], records[8:], config)
        best_error = history[best_epoch - 1].val_error
        assert all(best_error <= s.val_error for s in history)


class TestHistoryIO:
    def test_roundtrip_six_decimals(self, tmp_path):
        history = [
            EpochStats(1, 0.6931471, 0.7012345, 0.8, 0.75),
            EpochStats(2, 0.5123456, 0.6234567, 0.6, 0.5),
        ]
        path = tmp_path / "h.csv"
        write_history(path, history)
        back = read_history(path)
        assert [s.epoch for s in back] == [1, 2]
        for a, b in zip(history, back):
            assert abs(a.train_loss - b.train_loss) < 5e-7
            assert abs(a.val_error - b.val_error) < 5e-7

    def test_one_epoch_gives_two_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history(path, [EpochStats(1, 0.1, 0.2, 0.3, 0.4)])
        assert len(path.read_text().strip().splitlines()) == 2
