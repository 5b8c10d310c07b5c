"""The three benchmark workloads.

Each workload is a fixed *pass* that the runner repeats in one closed
loop until the run's time is up.  A pass runs the operations a user of
ecgfusion waits for -- train, evaluate a split, predict single records,
and (except on ``train_published``, which cleans its records in set-up)
preprocess raw records -- so every end-to-end metric is measured on
every workload; the workloads differ in model size, in code path
(library calls or the CLI) and in which operation takes most of the
pass.  Model seeds are fixed at 0; the benchmark seed draws the data.
A set-up may time operations of its own in ``state["timed"]`` (kind ->
(records, seconds)); they count as samples of that kind.

Every pass starts from the same parameters, so its losses repeat
bit-exactly and are checked against the first pass.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from pathlib import Path

import numpy as np

from ecgfusion import cli, data, model, sigproc, training
from ecgfusion.model import EcgTransformer, ModelConfig

# acceptance-test model and budget (criterion 5)
SMALL_MODEL = dict(d_model=16, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
                   feedforward_dim=32, dropout=0.1)
SMALL_LR = 0.0005


class GateError(Exception):
    """A correctness check on a workload's output failed."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def check_probs(probs, what: str) -> None:
    p = np.asarray(probs, dtype=np.float64)
    check(bool(np.isfinite(p).all()), f"{what}: non-finite probability")
    check(bool(((p >= 0.0) & (p <= 1.0)).all()), f"{what}: probability outside [0, 1]")


def inputs(ds: data.SynthDataset) -> list:
    """(raw record, labels, note embedding) for every record of ``ds``."""
    return [
        (sigproc.RawEcg(leads=ds.waveforms[r.record_id], record_id=r.record_id),
         r.labels.astype(np.float64), ds.embeddings[r.record_id].vector)
        for r in ds.records
    ]


def loaded(item) -> data.LoadedRecord:
    """Clean one raw record into a model-ready record."""
    raw, labels, embedding = item
    clean = sigproc.preprocess_record(raw)
    return data.LoadedRecord(raw.record_id, clean.leads, labels, embedding)


def warm_lazy_state(config: ModelConfig) -> None:
    """Start the BLAS thread pool and fill the positional-encoding cache."""
    a = np.ones((256, 256))
    a @ a
    model.positional_encoding(config.seq_len, config.d_model)


def check_eval_matches_forward(m: EcgTransformer, split, probs, index: int, what: str) -> None:
    single, _ = m.forward(split[index], train=False)
    gap = float(np.abs(single.data - probs[index]).max())
    check(gap <= 1e-12, f"{what}: evaluate and forward differ by {gap:.3e} on {split[index].record_id}")


def check_checkpoint_roundtrip(path: Path, config, params) -> None:
    """Save, load and save again: parameters and bytes must match exactly."""
    model.save_checkpoint(path, config, params)
    config2, params2, _ = model.load_checkpoint(path)
    check(config2 == config, "checkpoint round trip changed the config")
    check(params2.keys() == params.keys(), "checkpoint round trip changed the parameter names")
    for name, t in params.items():
        check(np.array_equal(t.data, params2[name].data), f"checkpoint round trip changed {name}")
    again = path.with_suffix(".again")
    model.save_checkpoint(again, config2, params2)
    check(path.read_bytes() == again.read_bytes(), "checkpoint bytes differ after a round trip")


class TrainPublished:
    """Batch-4 training at the published configuration.

    Why: the fused attention backward, gradient bookkeeping and copies,
    and Adam on 3.5 M parameters dominate the training steps; this is
    where a leaner backward, batched graphs and float32 show.  The set-up
    cleans all records as one timed operation (the workload's preprocess
    figure), so sigproc does no work in a pass.  Eight test and eight
    predict records a pass keep the evaluate and predict figures from
    resting on a handful of samples; predict here is a forward pass on a
    clean record.
    """

    name = "train_published"
    warmup = True
    steps, n_test, n_predict = 2, 8, 8

    def setup(self, seed: int, workdir: Path) -> dict:
        ds = data.synth_dataset(5, seed=seed)  # 27 records: 8 train, 8 test, 8 predict
        config = ModelConfig()
        warm_lazy_state(config)
        items = inputs(ds)
        t0 = time.perf_counter()
        recs = [loaded(item) for item in items]
        clean_s = time.perf_counter() - t0
        return {
            "recs": recs,
            "config": config,
            "params0": model.init_params(config, np.random.default_rng(0)),
            "workdir": workdir,
            "seed": seed,
            "timed": {"preprocess": (len(recs), clean_s)},
        }

    def run_pass(self, s: dict, samples, first: bool) -> dict:
        n_train = 4 * self.steps
        recs = s["recs"]
        trainee = EcgTransformer(s["config"], seed=0, params=model.copy_params(s["params0"]))
        state = training.AdamState(trainee.params)
        cfg = training.TrainConfig(seed=0)
        losses = {}
        for step in range(self.steps):
            with samples.phase("train", 4):
                losses[f"train_loss_{step}"], _ = training.train_epoch(
                    trainee, recs[4 * step : 4 * step + 4], state, cfg
                )
        test = recs[n_train : n_train + self.n_test]
        with samples.phase("eval", len(test)):
            losses["test_loss"], _, probs = training.evaluate(trainee, test)
        check_probs(probs, "evaluate")
        if first:
            check_eval_matches_forward(trainee, test, probs, s["seed"] % len(test), "cross_attention")
            check_checkpoint_roundtrip(s["workdir"] / "published.bin", s["config"], trainee.params)
        for rec in recs[n_train + self.n_test : n_train + self.n_test + self.n_predict]:
            with samples.phase("predict"):
                probs, _ = trainee.forward(rec, train=False)
            check_probs(probs.data, "predict")
        return losses


class InferPublished:
    """Forward-only work on published-size models.

    Why: the same model and autodiff forward ops with no backward, so a
    training gain paid for with forward work or single-record latency
    shows here; the only workload on the per-lead and early-fusion paths.
    Each pass (a) predicts single raw records with the cross-attention
    model and (b) scores one fixed split with three published-size
    models.  A two-step fit of the small acceptance-test model (about 3%
    of a pass) gives this workload its training metrics.
    """

    name = "infer_published"
    warmup = True
    n_split, n_predict = 8, 8
    variants = {
        "cross_attention": {},
        "per_lead_encoders": {"per_lead_encoders": True},
        "early_concat": {"fusion_mode": "early_concat"},
    }

    def setup(self, seed: int, workdir: Path) -> dict:
        ds = data.synth_dataset(3, seed=seed)  # 16 records: 8 scored, 8 predicted
        models = {}
        for name, overrides in self.variants.items():
            config = ModelConfig(**overrides)
            warm_lazy_state(config)
            models[name] = EcgTransformer(config, seed=0)
        small = ModelConfig(**SMALL_MODEL)
        warm_lazy_state(small)
        return {
            "items": inputs(ds),
            "models": models,
            "small": small,
            "small0": model.init_params(small, np.random.default_rng(0)),
            "workdir": workdir,
            "seed": seed,
        }

    def run_pass(self, s: dict, samples, first: bool) -> dict:
        split = []
        for item in s["items"][: self.n_split]:
            with samples.phase("preprocess"):
                split.append(loaded(item))
        fit = EcgTransformer(s["small"], seed=0, params=model.copy_params(s["small0"]))
        state = training.AdamState(fit.params)
        cfg = training.TrainConfig(learning_rate=SMALL_LR, seed=0)
        losses = {}
        for step in range(self.n_split // 4):
            with samples.phase("train", 4):
                losses[f"fit_loss_{step}"], _ = training.train_epoch(
                    fit, split[4 * step : 4 * step + 4], state, cfg
                )
        scored = {}
        with samples.phase("eval", len(s["models"]) * len(split)):
            for name, m in s["models"].items():
                t0 = time.perf_counter()
                scored[name] = training.evaluate(m, split)
                samples.details[f"eval_{name}"].append((time.perf_counter() - t0) / len(split))
        for name, (loss, _, probs) in scored.items():
            losses[f"eval_loss_{name}"] = loss
            check_probs(probs, f"evaluate {name}")
            if first:
                check_eval_matches_forward(s["models"][name], split, probs, s["seed"] % len(split), name)
        if first:
            cross = s["models"]["cross_attention"]
            check_checkpoint_roundtrip(s["workdir"] / "published.bin", cross.config, cross.params)
        losses["test_loss"] = losses["eval_loss_cross_attention"]
        for item in s["items"][self.n_split : self.n_split + self.n_predict]:
            with samples.phase("predict"):
                probs, _ = s["models"]["cross_attention"].forward(loaded(item), train=False)
            check_probs(probs.data, "predict")
        return losses


class CurateTrainSmall:
    """The README walkthrough, in-process through ``ecgfusion.cli.main``.

    Why: the tensors are small, so sigproc, file I/O, the CLI glue,
    per-node tape overhead and Adam take a large share; it writes files
    as well as reading them, and mirrors acceptance criterion 5 at a
    fifth of its size.  preprocess curates 130 raw records from disk with
    a per-class cap that drops 10, train runs the acceptance-test config
    for a fixed 2 epochs on an 80/20/20 split (criterion 5's proportions),
    evaluate scores the test split, and predict classifies single raw
    files.  At criterion 5's 600 records one pass takes about 18 s, so a
    run would hold a single sample of each phase, and on this class of
    shared machine one window of a few seconds varies by 20-40%.

    The notes are uninformative: with informative notes the test loss
    after 2 epochs jumps between about 0.0015 and 0.13 from seed to seed.
    """

    name = "curate_train_small"
    warmup = False
    n_per_class, cap, kept = 26, 24, 120
    epochs = 2
    n_predict = 20
    fractions = (4 / 6, 1 / 6, 1 / 6)

    def setup(self, seed: int, workdir: Path) -> dict:
        ds = data.synth_dataset(self.n_per_class, seed=seed, notes_informative=False)
        ds.records = [r for r in ds.records if r.labels.sum() == 1]
        raw_dir = workdir / "raw"
        manifest = data.write_synth_dataset(raw_dir, ds)
        config_file = workdir / "split.conf"
        config_file.write_text(
            "".join(f"{k}={v!r}\n" for k, v in zip(
                ("train_fraction", "val_fraction", "test_fraction"), self.fractions))
        )
        warm_lazy_state(ModelConfig(**SMALL_MODEL))
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(ds.records), size=self.n_predict, replace=False)
        return {
            "workdir": workdir,
            "manifest": manifest,
            "embeddings": raw_dir / "embeddings.bin",
            "config_file": config_file,
            "predict": [
                (str(raw_dir / ds.records[i].waveform_ref), ds.records[i].note_text) for i in picks
            ],
            "seed": seed,
            "passes": 0,
        }

    def run_cli(self, *argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        check(code == 0, f"ecgfusion {argv[0]} exited with {code}")
        return out.getvalue()

    def run_pass(self, s: dict, samples, first: bool) -> dict:
        # a fresh directory per pass, all removed when the run ends, so no
        # deletion runs between the timed commands
        s["passes"] += 1
        work = s["workdir"] / f"pass{s['passes']}"
        curated, run = work / "curated", work / "run"
        ckpt = run / "checkpoint.bin"
        n_train = round(self.kept * self.fractions[0])
        n_test = round(self.kept * self.fractions[2])

        with samples.phase("preprocess", self.kept):
            out = self.run_cli("preprocess", "--manifest", s["manifest"], "--out", curated,
                           "--cap", self.cap, "--seed", 0)
        check(f"curated {self.kept} of " in out, f"preprocess kept an unexpected count: {out.splitlines()[0]}")

        small = SMALL_MODEL
        with samples.phase("train", self.epochs * n_train):
            self.run_cli("train", "--manifest", curated / "manifest.csv", "--embeddings", s["embeddings"],
                     "--out", run, "--seed", 0, "--config", s["config_file"],
                     "--d-model", small["d_model"], "--heads", small["n_heads"],
                     "--encoder-layers", small["n_encoder_layers"],
                     "--decoder-layers", small["n_decoder_layers"],
                     "--feedforward-dim", small["feedforward_dim"], "--dropout", small["dropout"],
                     "--learning-rate", SMALL_LR, "--max-epochs", self.epochs,
                     "--patience", self.epochs)
        check(f"epochs_run={self.epochs}\n" in (run / "summary.txt").read_text(), "train ran an unexpected epoch count")

        with samples.phase("eval", n_test):
            out = self.run_cli("evaluate", "--checkpoint", ckpt, "--split", "test", "--out", run)
        printed = re.search(rf"test: {n_test} records, loss ([0-9.]+)", out)
        check(printed is not None, f"evaluate printed an unexpected summary: {out.splitlines()[0]}")

        # recompute the CLI's test loss at full precision and check it
        config, params, _ = model.load_checkpoint(ckpt)
        records = data.load_clean_records(curated / "manifest.csv", data.load_embeddings(s["embeddings"]))
        spec = data.SplitSpec(*self.fractions, seed=0)
        test = data.split(records, spec)[2]
        m = EcgTransformer(config, params=params)
        test_loss, _, probs = training.evaluate(m, test)
        check(abs(test_loss - float(printed.group(1))) <= 5e-7, "CLI test loss disagrees with evaluate")
        check_probs(probs, "evaluate")
        check_eval_matches_forward(m, test, probs, s["seed"] % len(test), "cross_attention")
        check_checkpoint_roundtrip(s["workdir"] / "roundtrip.bin", config, params)

        for waveform, note in s["predict"]:
            with samples.phase("predict"):
                out = self.run_cli("predict", "--checkpoint", ckpt, "--waveform", waveform, "--note", note)
            probs = [float(v) for v in re.findall(r"^\s+\w+: ([0-9.]+)", out, flags=re.M)]
            check(len(probs) == data.N_CLASSES, "predict printed an unexpected number of classes")
            check_probs(probs, "predict")
        return {"test_loss": test_loss}


WORKLOADS = {w.name: w for w in (TrainPublished(), InferPublished(), CurateTrainSmall())}
