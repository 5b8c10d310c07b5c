"""Command-line front end: preprocess, train, evaluate, predict, ablate,
attention-map.

Configuration comes from a flat ``key=value`` file (``#`` comments)
overridable by flags; unknown keys are errors.  Exit codes are stable
for scripting: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.  Every command runs under ``raise_float_errors``,
so an overflow or invalid operation exits 3 where it happens.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ecgfusion import analysis, data, sigproc, training
from ecgfusion.errors import ConfigError, DataError, NumericalError, raise_float_errors
from ecgfusion.model import (
    EcgTransformer,
    FUSION_MODES,
    ModelConfig,
    coerce,
    load_checkpoint,
    save_checkpoint,
)


@dataclass
class IoConfig:
    """The CLI's own keys: where records come from and where output goes."""

    manifest: str = ""
    embeddings: str = ""
    out_dir: str = "runs"
    per_class_cap: int = 2500


# the file formats fix these (12x250 waveforms, 768-dim notes, 5 classes),
# so they are library settings, not run settings
SHAPE_KEYS = ("seq_len", "n_leads", "notes_dim", "n_classes")

# key -> dataclass field; the fields own every default and type
SCHEMA = {
    f.name: f
    for section in (ModelConfig, training.TrainConfig, data.SplitSpec, IoConfig)
    for f in fields(section)
    if f.name not in SHAPE_KEYS
}

# what a checkpoint records so evaluate can rebuild the run's split
CHECKPOINT_EXTRAS = ("seed", "train_fraction", "val_fraction", "test_fraction", "manifest", "embeddings")


def parse_config_file(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = coerce(SCHEMA[key], value, ConfigError, f"{path}:{lineno}: ")
    return out


def _defaults() -> dict:
    return {key: f.default for key, f in SCHEMA.items()}


def build_run_config(args: argparse.Namespace) -> dict:
    """Schema defaults, then the --config file, then the flags."""
    run = _defaults()
    if args.config:
        run.update(parse_config_file(args.config))
    run.update((key, value) for key, value in vars(args).items() if key in SCHEMA and value is not None)
    return run


def _section(cls, run: dict, **overrides):
    """One config dataclass built from the run's values."""
    return cls(**{**{f.name: run[f.name] for f in fields(cls) if f.name in run}, **overrides})


# ---------------------------------------------------------------------------
# shared helpers


def _require_file(path, what: str) -> Path:
    p = Path(path) if path else None
    if not p or not str(path):
        raise ConfigError(f"missing required {what}")
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _load_dataset(run: dict, need_embeddings: bool):
    manifest = _require_file(run["manifest"], "manifest")
    embeddings = None
    if need_embeddings:
        emb_path = _require_file(run["embeddings"], "embeddings file")
        embeddings = data.load_embeddings(emb_path)
    return data.load_clean_records(manifest, embeddings)


def _split_hash(split) -> str:
    digest = hashlib.sha256()
    for rec in split:
        digest.update(rec.record_id.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def _print_class_counts(records) -> None:
    labels = np.stack([r.labels for r in records])
    counts = labels.sum(axis=0).astype(int)
    for name, count in zip(data.CLASS_NAMES, counts):
        print(f"  {name}: {count}")


def _read_any_waveform(path) -> np.ndarray:
    """Clean 12x250 file, or raw 12x1000 run through the full cleanup."""
    size = Path(path).stat().st_size
    if size == sigproc.N_LEADS * sigproc.CLEAN_SAMPLES * 4:
        return data.read_waveform(path, sigproc.CLEAN_SAMPLES)
    if size == sigproc.N_LEADS * sigproc.RAW_SAMPLES * 4:
        raw = sigproc.RawEcg(
            leads=data.read_waveform(path, sigproc.RAW_SAMPLES), record_id=Path(path).stem
        )
        return sigproc.preprocess_record(raw).leads
    raise DataError(f"{path}: size {size} bytes matches neither raw nor clean waveform format")


def _record_for_inference(args, config: ModelConfig) -> data.LoadedRecord:
    wf_path = _require_file(args.waveform, "waveform file")
    wave = _read_any_waveform(wf_path)
    emb = None
    if config.fusion_mode != "waveform_only":
        if getattr(args, "note", None):
            emb = data.toy_embed(args.note)
        elif getattr(args, "embeddings", None):
            table = data.load_embeddings(_require_file(args.embeddings, "embeddings file"))
            rid = getattr(args, "record_id", None) or wf_path.stem
            if rid not in table:
                raise DataError(f"record {rid!r} not present in {args.embeddings}")
            emb = table[rid].vector
        else:
            raise ConfigError(
                f"fusion mode {config.fusion_mode!r} needs --note or --embeddings/--record-id"
            )
    return data.LoadedRecord(
        record_id=wf_path.stem,
        waveform=wave,
        labels=np.ones(config.n_classes),
        embedding=emb,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(args) -> int:
    run = build_run_config(args)
    manifest_path = _require_file(run["manifest"], "manifest")
    out_dir = Path(run["out_dir"])
    records = data.read_manifest(manifest_path)

    # validate every referenced waveform before writing anything
    raws = {}
    for rec in records:
        wf = data.resolve_waveform_path(manifest_path, rec.waveform_ref)
        if not wf.is_file():
            raise DataError(f"waveform file missing for {rec.record_id!r}: {wf}")
        raws[rec.record_id] = data.read_waveform(wf, sigproc.RAW_SAMPLES)

    kept = data.drop_blank_reports(records)
    if not kept:
        raise DataError("no records with a nonempty report")
    kept = data.balance_undersample(kept, run["per_class_cap"], run["seed"])

    wave_dir = out_dir / "clean"
    wave_dir.mkdir(parents=True, exist_ok=True)
    for rec in kept:
        raw = sigproc.RawEcg(leads=raws[rec.record_id], record_id=rec.record_id)
        clean = sigproc.preprocess_record(raw)
        data.write_waveform(wave_dir / f"{rec.record_id}.f32", clean.leads)
        rec.waveform_ref = f"clean/{rec.record_id}.f32"
    data.write_manifest(out_dir / "manifest.csv", kept)

    print(f"curated {len(kept)} of {len(records)} records -> {out_dir / 'manifest.csv'}")
    print("per-class counts:")
    _print_class_counts(kept)
    return 0


def _print_train_banner(run: dict) -> None:
    print(
        "config: lr={learning_rate} batch={batch_size} d_model={d_model} "
        "heads={n_heads} enc_layers={n_encoder_layers} dec_layers={n_decoder_layers} "
        "dropout={dropout} fusion={fusion_mode} seed={seed}".format(**run)
    )


def cmd_train(args) -> int:
    run = build_run_config(args)
    model_cfg = _section(ModelConfig, run)
    train_cfg = _section(training.TrainConfig, run)
    _print_train_banner(run)

    records = _load_dataset(run, need_embeddings=model_cfg.fusion_mode != "waveform_only")
    train_split, val_split, _ = data.split(records, _section(data.SplitSpec, run))

    out_dir = Path(run["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    model = EcgTransformer(model_cfg, seed=run["seed"])
    best_params, history, best_epoch = training.fit_with_early_stop(
        model, train_split, val_split, train_cfg
    )
    model.params = best_params

    extra = {key: run[key] for key in CHECKPOINT_EXTRAS}
    # absolute, so evaluate finds the data from any directory
    for key in ("manifest", "embeddings"):
        if extra[key]:
            extra[key] = os.path.abspath(extra[key])
    save_checkpoint(out_dir / "checkpoint.bin", model_cfg, best_params, extra)
    training.write_history(out_dir / "history.csv", history)
    best = history[best_epoch - 1]
    with open(out_dir / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write(f"best_epoch={best_epoch}\n")
        fh.write(f"best_val_error={best.val_error:.6f}\n")
        fh.write(f"best_val_loss={best.val_loss:.6f}\n")
        fh.write(f"epochs_run={len(history)}\n")
    print(
        f"trained {len(history)} epochs; best epoch {best_epoch} "
        f"(val_error {best.val_error:.4f}); wrote {out_dir / 'checkpoint.bin'}"
    )
    return 0


def cmd_evaluate(args) -> int:
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    config, params, extra = load_checkpoint(ckpt_path)
    # the run the checkpoint recorded, over the schema defaults
    run = _defaults()
    for key in CHECKPOINT_EXTRAS:
        if key in extra:
            run[key] = coerce(SCHEMA[key], extra[key], DataError, f"{ckpt_path}: extra.")
    run["manifest"] = args.manifest or run["manifest"]
    run["embeddings"] = args.embeddings or run["embeddings"]
    try:
        spec = _section(data.SplitSpec, run)
    except ConfigError as exc:
        raise DataError(f"{ckpt_path}: {exc}") from None
    records = _load_dataset(run, need_embeddings=config.fusion_mode != "waveform_only")

    splits = dict(zip(("train", "val", "test"), data.split(records, spec)))
    chosen = splits[args.split]

    model = EcgTransformer(config, params=params)
    loss, acc, probs = training.evaluate(model, chosen)
    print(f"{args.split}: {len(chosen)} records, loss {loss:.6f}, accuracy {acc:.4f}")
    print("per-class counts:")
    _print_class_counts(chosen)

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out_path = out_dir / f"probabilities_{args.split}.csv"
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("record_id,p_NORM,p_MI,p_STTC,p_CD,p_HYP,labels\n")
            for rec, row in zip(chosen, probs):
                codes = ";".join(data.label_codes(rec.labels.astype(int)))
                fh.write(rec.record_id + "," + ",".join(f"{p:.6f}" for p in row) + f",{codes}\n")
        print(f"wrote {out_path}")
    return 0


def cmd_predict(args) -> int:
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    config, params, _ = load_checkpoint(ckpt_path)
    record = _record_for_inference(args, config)
    model = EcgTransformer(config, params=params)
    probs, _ = training.score(model, record)
    flagged = []
    for name, p in zip(data.CLASS_NAMES, probs):
        marker = ""
        if p > 0.5:
            marker = "  <-- flagged"
            flagged.append(name)
        print(f"  {name}: {p:.4f}{marker}")
    print(f"flagged classes: {', '.join(flagged) if flagged else '(none)'}")
    return 0


def cmd_ablate(args) -> int:
    run = build_run_config(args)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if len(modes) < 2:
        raise ConfigError(f"ablation needs at least 2 fusion modes, got {modes}")
    for mode in modes:
        if mode not in FUSION_MODES:
            raise ConfigError(f"unknown fusion mode {mode!r}; options: {FUSION_MODES}")

    records = _load_dataset(run, need_embeddings=True)
    splits = data.split(records, _section(data.SplitSpec, run))
    print(
        "split sizes train/val/test: %d/%d/%d, hashes %s"
        % (
            len(splits[0]),
            len(splits[1]),
            len(splits[2]),
            "/".join(_split_hash(s) for s in splits),
        )
    )

    train_cfg = _section(training.TrainConfig, run)
    out_dir = Path(run["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for mode in modes:
        cfg = _section(ModelConfig, run, fusion_mode=mode)
        try:
            model = EcgTransformer(cfg, seed=run["seed"])
            best_params, history, best_epoch = training.fit_with_early_stop(
                model, splits[0], splits[1], train_cfg
            )
            model.params = best_params
            tr = training.evaluate(model, splits[0])
            va = training.evaluate(model, splits[1])
            te = training.evaluate(model, splits[2])
            rows.append((mode, tr[1], va[1], te[1], va[0]))
            print(
                f"{mode}: train {tr[1]:.4f}, val {va[1]:.4f}, test {te[1]:.4f}, "
                f"val_loss {va[0]:.4f} (best epoch {best_epoch})"
            )
        except (DataError, NumericalError) as exc:
            print(f"{mode}: FAILED ({exc})", file=sys.stderr)
            rows.append((mode, float("nan"), float("nan"), float("nan"), float("nan")))

    table_path = out_dir / "ablation.csv"
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("mode,train_accuracy,val_accuracy,test_accuracy,val_loss\n")
        for mode, tr_acc, va_acc, te_acc, va_loss in rows:
            fh.write(f"{mode},{tr_acc:.6f},{va_acc:.6f},{te_acc:.6f},{va_loss:.6f}\n")
    print(f"wrote {table_path}")
    return 0


def cmd_attention_map(args) -> int:
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    config, params, _ = load_checkpoint(ckpt_path)
    record = _record_for_inference(args, config)
    model = EcgTransformer(config, params=params)
    heatmap = analysis.attention_heatmap(model, record, args.layer)
    out_dir = Path(args.out_dir or "heatmaps")
    base = out_dir / f"attention_{record.record_id}_layer{args.layer}"
    analysis.export_heatmap(heatmap, base)
    print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.pgm')}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _flag(parser: argparse.ArgumentParser, flag: str, key: str, help: str, **kw) -> None:
    """A flag that sets schema key ``key``; ``{}`` in ``help`` shows its default."""
    f = SCHEMA[key]
    if "action" not in kw:
        kw["type"] = lambda raw: coerce(f, raw)
        kw["type"].__name__ = f.type  # argparse names it in "invalid int value"
    shown = "off" if f.default is False else f.default
    parser.add_argument(flag, dest=key, help=help.format(shown), **kw)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    _flag(parser, "--seed", "seed", "run seed (default: {})")
    _flag(parser, "--out", "out_dir", "output directory", metavar="OUT")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    _flag(parser, "--manifest", "manifest", "curated manifest CSV")
    _flag(parser, "--embeddings", "embeddings", "notes embeddings file")
    _flag(parser, "--learning-rate", "learning_rate", "learning rate (default: {})")
    _flag(parser, "--batch-size", "batch_size", "batch size (default: {})")
    _flag(parser, "--d-model", "d_model", "model dimension (default: {})")
    _flag(parser, "--heads", "n_heads", "attention heads (default: {})")
    _flag(parser, "--encoder-layers", "n_encoder_layers", "encoder layers (default: {})")
    _flag(parser, "--decoder-layers", "n_decoder_layers", "decoder layers (default: {})")
    _flag(parser, "--dropout", "dropout", "dropout probability (default: {})")
    _flag(parser, "--feedforward-dim", "feedforward_dim", "feed-forward width (default: {})")
    _flag(parser, "--max-epochs", "max_epochs", "epoch cap (default: {})")
    _flag(parser, "--patience", "early_stop_patience", "early-stop patience (default: {})")
    _flag(
        parser,
        "--fusion-mode",
        "fusion_mode",
        "modality fusion strategy (default: {})",
        choices=FUSION_MODES,
    )
    _flag(
        parser,
        "--per-lead",
        "per_lead_encoders",
        "run one independent encoder per lead (default: {})",
        action="store_const",
        const=True,
    )


def _add_note_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--note", help="clinical note text (embedded with the toy encoder)")
    parser.add_argument("--embeddings", help="embeddings file to look the record up in")
    parser.add_argument("--record-id", dest="record_id", help="record id inside --embeddings")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecgfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="curate a raw manifest and write clean waveforms")
    _add_common(p)
    _flag(p, "--manifest", "manifest", "raw manifest CSV (12x1000 waveforms)")
    _flag(p, "--cap", "per_class_cap", "per-class cap (default: {})", metavar="CAP")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model and write checkpoint + history")
    _add_common(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", help="override the manifest stored in the checkpoint")
    p.add_argument("--embeddings", help="override the embeddings stored in the checkpoint")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify one waveform")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--waveform", required=True, help="raw 12x1000 or clean 12x250 .f32 file")
    _add_note_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="train and compare several fusion modes")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument(
        "--modes",
        default=",".join(FUSION_MODES),
        help="comma-separated fusion modes to compare",
    )
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("attention-map", help="export a pooled-attention heatmap")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--waveform", required=True)
    p.add_argument("--layer", type=int, default=0, help="encoder layer index (default: 0)")
    _add_note_flags(p)
    p.set_defaults(func=cmd_attention_map)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with raise_float_errors():
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
