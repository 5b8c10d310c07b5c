"""End-to-end tests of the command-line surface and its file formats."""

import argparse
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ecgfusion
from ecgfusion import data
from ecgfusion.cli import CHECKPOINT_EXTRAS, SCHEMA, build_parser, main, parse_config_file
from ecgfusion.errors import ConfigError
from ecgfusion.model import EcgTransformer, ModelConfig, load_checkpoint, save_checkpoint
from ecgfusion.training import TrainConfig

TINY_FLAGS = [
    "--d-model", "8",
    "--heads", "2",
    "--encoder-layers", "1",
    "--decoder-layers", "1",
    "--feedforward-dim", "32",
    "--dropout", "0.1",
    "--learning-rate", "0.001",
    "--max-epochs", "2",
    "--patience", "2",
]


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """Raw synthetic dataset, curated output, and one trained tiny run."""
    root = tmp_path_factory.mktemp("cli")
    ds = data.synth_dataset(3, seed=11)
    manifest = data.write_synth_dataset(root / "raw", ds)

    rc = main(
        ["preprocess", "--manifest", str(manifest), "--out", str(root / "cur"), "--cap", "100"]
    )
    assert rc == 0

    rc = main(
        [
            "train",
            "--manifest", str(root / "cur" / "manifest.csv"),
            "--embeddings", str(root / "raw" / "embeddings.bin"),
            "--out", str(root / "run"),
            "--seed", "4",
            *TINY_FLAGS,
        ]
    )
    assert rc == 0
    return root


class TestConfigFile:
    def test_parses_and_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nlearning_rate = 0.01\nd_model=16\n")
        values = parse_config_file(cfg)
        assert values == {"learning_rate": 0.01, "d_model": 16}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rte=0.01\n")
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_config_file(cfg)

    def test_unknown_key_exit_code_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["train", "--config", str(cfg)]) == 1


    @pytest.mark.parametrize("key", ["seq_len", "n_leads", "notes_dim", "n_classes"])
    def test_shape_keys_are_not_settable(self, key, tmp_path, capsys):
        # the file formats fix 12x250 waveforms, 768-dim notes and 5 classes
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=3\n")
        assert main(["train", "--config", str(cfg)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_per_class_cap_from_file_is_used(self, workspace, tmp_path, capsys):
        manifest = str(workspace / "raw" / "manifest.csv")
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("per_class_cap=1\n")
        assert main(["preprocess", "--manifest", manifest, "--out", str(tmp_path / "a"), "--config", str(cfg)]) == 0
        from_file = capsys.readouterr().out.splitlines()[0]
        assert main(["preprocess", "--manifest", manifest, "--out", str(tmp_path / "b"), "--cap", "1"]) == 0
        from_flag = capsys.readouterr().out.splitlines()[0]
        assert from_file.split(" -> ")[0] == from_flag.split(" -> ")[0]
        assert not from_file.startswith("curated 16 of 16")

    def test_option_set_is_fixed(self):
        # a new setting must show up here as a visible test edit
        assert set(SCHEMA) == {
            "d_model", "n_heads", "n_encoder_layers", "n_decoder_layers", "dropout",
            "fusion_mode", "per_lead_encoders", "feedforward_dim",
            "learning_rate", "batch_size", "max_epochs", "early_stop_patience", "seed",
            "train_fraction", "val_fraction", "test_fraction",
            "manifest", "embeddings", "out_dir", "per_class_cap",
        }
        assert [f.name for f in fields(TrainConfig)] == [
            "learning_rate", "batch_size", "max_epochs", "early_stop_patience", "seed",
        ]

    @pytest.mark.parametrize("command", ["preprocess", "train", "ablate"])
    def test_every_flag_sets_a_schema_key(self, command):
        # a flag whose dest is not a schema key would bypass the config file
        command_only = {"help", "config", "modes"}
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for action in sub.choices[command]._actions:
            assert action.dest in SCHEMA or action.dest in command_only, action.dest


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["preprocess", "train", "evaluate", "predict", "ablate", "attention-map"]
    )
    def test_help_exits_zero(self, command, capsys):
        assert main([command, "--help"]) == 0
        capsys.readouterr()

    def test_preprocess_help_keeps_metavars(self, capsys):
        main(["preprocess", "--help"])
        text = capsys.readouterr().out
        assert "--cap CAP" in text and "--out OUT" in text and "default: 2500" in text

    def test_train_help_lists_table_defaults(self, capsys):
        main(["train", "--help"])
        text = capsys.readouterr().out
        for token in ("0.0001", "default: 4", "default: 120", "default: 12", "default: 6", "0.2"):
            assert token in text


class TestPreprocess:
    def test_clean_files_are_12000_bytes(self, workspace):
        clean = sorted((workspace / "cur" / "clean").glob("*.f32"))
        assert len(clean) == 16  # 15 singles + 1 dual at n_per_class=3
        assert all(p.stat().st_size == 12000 for p in clean)

    def test_rerun_byte_identical(self, workspace, tmp_path):
        rc = main(
            [
                "preprocess",
                "--manifest", str(workspace / "raw" / "manifest.csv"),
                "--out", str(tmp_path / "again"),
                "--cap", "100",
            ]
        )
        assert rc == 0
        for p in sorted((workspace / "cur" / "clean").glob("*.f32")):
            q = tmp_path / "again" / "clean" / p.name
            assert p.read_bytes() == q.read_bytes()
        assert (workspace / "cur" / "manifest.csv").read_text() == (
            tmp_path / "again" / "manifest.csv"
        ).read_text()

    def test_empty_manifest_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("record_id,labels,note,waveform_path\n")
        rc = main(["preprocess", "--manifest", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "no records" in capsys.readouterr().err

    def test_missing_waveform_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text('record_id,labels,note,waveform_path\n"a","NORM","x","nope.f32"\n')
        rc = main(["preprocess", "--manifest", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert not (tmp_path / "o").exists()  # validation failed before any write

    def test_twenty_record_set_gives_twenty_clean_files(self, tmp_path):
        ds = data.synth_dataset(4, seed=19)
        ds.records = ds.records[:20]  # single-label records only
        manifest = data.write_synth_dataset(tmp_path / "raw", ds)
        rc = main(
            ["preprocess", "--manifest", str(manifest), "--out", str(tmp_path / "cur"), "--cap", "99"]
        )
        assert rc == 0
        clean = list((tmp_path / "cur" / "clean").glob("*.f32"))
        assert len(clean) == 20
        assert all(p.stat().st_size == 12000 for p in clean)

    def test_blank_notes_dropped(self, tmp_path):
        ds = data.synth_dataset(2, seed=3)
        for rec in ds.records[:3]:
            rec.note_text = "   "
        manifest = data.write_synth_dataset(tmp_path / "raw", ds)
        rc = main(
            ["preprocess", "--manifest", str(manifest), "--out", str(tmp_path / "cur"), "--cap", "99"]
        )
        assert rc == 0
        kept = data.read_manifest(tmp_path / "cur" / "manifest.csv")
        assert len(kept) == len(ds.records) - 3


class TestTrain:
    def test_banner_prints_table1_defaults(self, capsys):
        rc = main(["train"])  # no manifest: config error after the banner
        assert rc == 1
        out = capsys.readouterr().out
        for token in ("lr=0.0001", "batch=4", "d_model=120", "heads=12", "enc_layers=6", "dropout=0.2"):
            assert token in out

    def test_outputs_exist(self, workspace):
        for name in ("checkpoint.bin", "history.csv", "summary.txt"):
            assert (workspace / "run" / name).is_file()

    def test_waveform_only_needs_no_embeddings(self, workspace, tmp_path):
        rc = main(
            [
                "train",
                "--manifest", str(workspace / "cur" / "manifest.csv"),
                "--out", str(tmp_path / "wf"),
                "--seed", "4",
                "--fusion-mode", "waveform_only",
                *TINY_FLAGS,
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--heads", "0"),
            ("--heads", "-1"),
            ("--feedforward-dim", "-1"),
            ("--feedforward-dim", "0"),
            ("--encoder-layers", "-1"),
            ("--decoder-layers", "-1"),
        ],
    )
    def test_size_that_cannot_build_a_model_exits_1(self, flag, value, workspace, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--manifest", str(workspace / "cur" / "manifest.csv"),
                "--embeddings", str(workspace / "raw" / "embeddings.bin"),
                "--out", str(tmp_path / "run"),
                *TINY_FLAGS,
                flag, value,
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["n_heads", "n_encoder_layers", "n_decoder_layers", "feedforward_dim"])
    def test_size_key_below_one_in_config_exits_1(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=0\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert f"{key} must be >= 1" in err and "Traceback" not in err

    def test_same_seed_identical_history(self, workspace, tmp_path):
        args = [
            "train",
            "--manifest", str(workspace / "cur" / "manifest.csv"),
            "--embeddings", str(workspace / "raw" / "embeddings.bin"),
            "--seed", "4",
            *TINY_FLAGS,
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "history.csv").read_bytes() == (
            tmp_path / "b" / "history.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (
            tmp_path / "b" / "checkpoint.bin"
        ).read_bytes()


class TestEvaluate:
    def test_probability_csv_rows_match_split(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "evaluate",
                "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                "--split", "train",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rows = (tmp_path / "probabilities_train.csv").read_text().strip().splitlines()
        n = int(out.split("train: ")[1].split(" records")[0])
        assert len(rows) - 1 == n

    def test_corrupted_magic_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        blob = bytearray((workspace / "run" / "checkpoint.bin").read_bytes())
        blob[:4] = b"XXXX"
        bad.write_bytes(bytes(blob))
        rc = main(["evaluate", "--checkpoint", str(bad), "--split", "train"])
        assert rc == 2
        assert "bad.bin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key",
        [f.name for f in fields(ModelConfig)]
        + [f"extra.{k}" for k in CHECKPOINT_EXTRAS if SCHEMA[k].type != "str"],
    )
    def test_malformed_header_value_is_data_error(self, key, workspace, tmp_path, capsys):
        config, params, extra = load_checkpoint(workspace / "run" / "checkpoint.bin")
        if key.startswith("extra."):
            extra[key[len("extra."):]] = "abc"
        else:
            setattr(config, key, "abc")  # written verbatim into the header
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, config, params, extra)
        assert main(["evaluate", "--checkpoint", str(bad), "--split", "train"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and key.split(".")[-1] in err

    def test_relative_paths_evaluate_from_another_directory(self, workspace, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        shutil.copytree(workspace / "cur", a / "cur")
        shutil.copy(workspace / "raw" / "embeddings.bin", a / "embeddings.bin")
        b.mkdir()
        monkeypatch.chdir(a)
        args = ["--manifest", "cur/manifest.csv", "--embeddings", "embeddings.bin", "--out", "run"]
        assert main(["train", *args, "--seed", "4", *TINY_FLAGS]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", "run/checkpoint.bin", "--split", "test"]) == 0
        from_a = capsys.readouterr().out
        monkeypatch.chdir(b)
        assert main(["evaluate", "--checkpoint", "../a/run/checkpoint.bin", "--split", "test"]) == 0
        assert capsys.readouterr().out == from_a
        assert "loss" in from_a

    def test_missing_checkpoint_is_config_error(self, tmp_path):
        rc = main(["evaluate", "--checkpoint", str(tmp_path / "none.bin"), "--split", "val"])
        assert rc == 1


class TestPredict:
    def test_prints_five_probabilities(self, workspace, capsys):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        rc = main(
            [
                "predict",
                "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                "--waveform", str(wf),
                "--note", "synthetic rhythm check",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for name in data.CLASS_NAMES:
            assert f"{name}: " in out
        values = [float(line.split(": ")[1].split()[0]) for line in out.splitlines()[:5]]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_note_required_for_fusing_checkpoint(self, workspace, capsys):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        rc = main(
            [
                "predict",
                "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                "--waveform", str(wf),
            ]
        )
        assert rc == 1
        assert "needs --note" in capsys.readouterr().err

    def test_waveform_only_checkpoint_ignores_note(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "train",
                "--manifest", str(workspace / "cur" / "manifest.csv"),
                "--out", str(tmp_path / "wf"),
                "--seed", "4",
                "--fusion-mode", "waveform_only",
                *TINY_FLAGS,
            ]
        )
        assert rc == 0
        capsys.readouterr()  # drop the training output
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        base = ["predict", "--checkpoint", str(tmp_path / "wf" / "checkpoint.bin"), "--waveform", str(wf)]
        assert main(base) == 0
        without_note = capsys.readouterr().out
        assert main(base + ["--note", "anything at all"]) == 0
        with_note = capsys.readouterr().out
        assert without_note == with_note

    def test_raw_waveform_accepted(self, workspace, capsys):
        raw = sorted((workspace / "raw" / "waveforms").glob("*.f32"))[0]
        rc = main(
            [
                "predict",
                "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                "--waveform", str(raw),
                "--note", "raw input path",
            ]
        )
        assert rc == 0
        capsys.readouterr()


def checkpoint_cuts(blob: bytes) -> dict[str, int]:
    """Lengths that end the checkpoint ``blob`` inside and at the end of
    each field: magic, config length and text, then the first parameter's
    name length, name, rank, dims and data, and 13 bytes short."""
    fields_ = [("magic", 8), ("config length", 4)]
    (cfg_len,) = struct.unpack_from("<I", blob, 8)
    fields_.append(("config text", cfg_len))
    at = 12 + cfg_len
    (name_len,) = struct.unpack_from("<I", blob, at)
    (rank,) = struct.unpack_from("<I", blob, at + 4 + name_len)
    dims = struct.unpack_from(f"<{rank}I", blob, at + 8 + name_len)
    count = int(np.prod(dims))
    fields_ += [("name length", 4), ("name", name_len), ("rank", 4), ("dims", 4 * rank), ("data", 8 * count)]
    cuts = {"13 bytes short": len(blob) - 13}
    start = 0
    for name, size in fields_:
        cuts[f"inside {name}"] = start + size // 2
        cuts[f"after {name}"] = start + size
        start += size
    return cuts


class TestCorruptCheckpoint:
    def predict(self, workspace, ckpt, capsys):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        rc = main(["predict", "--checkpoint", str(ckpt), "--waveform", str(wf), "--note", "x"])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert err.startswith("data error:") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("key", ["n_heads", "n_encoder_layers", "n_decoder_layers", "feedforward_dim"])
    def test_header_size_below_one(self, key, workspace, tmp_path, capsys):
        config, params, extra = load_checkpoint(workspace / "run" / "checkpoint.bin")
        setattr(config, key, 0)  # written verbatim into the header
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, config, params, extra)
        assert f"{key} must be >= 1" in self.predict(workspace, bad, capsys)

    def test_header_disagrees_with_parameter_shapes(self, workspace, tmp_path, capsys):
        config, params, extra = load_checkpoint(workspace / "run" / "checkpoint.bin")
        assert config.feedforward_dim == 32
        config.feedforward_dim = 16  # header now disagrees with the saved blobs
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, config, params, extra)
        err = self.predict(workspace, bad, capsys)
        assert len(err.splitlines()) == 1
        assert "'enc0.ff1.w' has shape (8, 32), config expects (8, 16)" in err

    @pytest.mark.parametrize("change", ["missing", "unexpected"])
    def test_parameter_set_differs_from_config(self, change, workspace, tmp_path, capsys):
        config, params, extra = load_checkpoint(workspace / "run" / "checkpoint.bin")
        if change == "missing":
            name = "merge.b"
            del params[name]
        else:
            name = "merge.extra"
            params[name] = params["merge.b"]
        bad = tmp_path / "bad.bin"
        save_checkpoint(bad, config, params, extra)
        err = self.predict(workspace, bad, capsys)
        assert len(err.splitlines()) == 1
        assert f"{change} [{name!r}]" in err

    def test_cut_at_every_field(self, workspace, tmp_path, capsys):
        blob = (workspace / "run" / "checkpoint.bin").read_bytes()
        bad = tmp_path / "cut.bin"
        for where, length in checkpoint_cuts(blob).items():
            bad.write_bytes(blob[:length])
            err = self.predict(workspace, bad, capsys)
            assert "cut.bin" in err, where

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00\x00\x00", b"\x00" * 4, b"\xff" * 13])
    def test_trailing_bytes(self, extra, workspace, tmp_path, capsys):
        bad = tmp_path / "long.bin"
        bad.write_bytes((workspace / "run" / "checkpoint.bin").read_bytes() + extra)
        self.predict(workspace, bad, capsys)


class TestUndecodableText:
    """Text that is not UTF-8, or that csv cannot parse, ends in the
    documented exit code with one line naming the file."""

    def run(self, argv, code, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == code, err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        return err

    def train_args(self, workspace, tmp_path, manifest=None, embeddings=None):
        return [
            "train",
            "--manifest", str(manifest or workspace / "cur" / "manifest.csv"),
            "--embeddings", str(embeddings or workspace / "raw" / "embeddings.bin"),
            "--out", str(tmp_path / "run"),
            *TINY_FLAGS,
        ]

    @pytest.mark.parametrize("command", ["preprocess", "train"])
    def test_manifest_not_utf8(self, command, workspace, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_bytes(b'record_id,labels,note,waveform_path\n"a","NORM","caf\xe9","a.f32"\n')
        if command == "preprocess":
            argv = ["preprocess", "--manifest", str(bad), "--out", str(tmp_path / "run")]
        else:
            argv = self.train_args(workspace, tmp_path, manifest=bad)
        err = self.run(argv, 2, capsys)
        assert f"{bad}: not UTF-8" in err

    def test_manifest_field_over_csv_limit(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text(f'record_id,labels,note,waveform_path\n"a","NORM","{"x" * 131073}","a.f32"\n')
        err = self.run(["preprocess", "--manifest", str(bad), "--out", str(tmp_path / "o")], 2, capsys)
        assert str(bad) in err and "field limit" in err

    def test_embeddings_csv_not_utf8(self, workspace, tmp_path, capsys):
        bad = tmp_path / "emb.csv"
        bad.write_bytes(b"syn\xff0000," + b",".join([b"0.0"] * data.EMBED_DIM) + b"\n")
        err = self.run(self.train_args(workspace, tmp_path, embeddings=bad), 2, capsys)
        assert f"{bad}: not UTF-8" in err

    def test_binary_embeddings_record_id_not_utf8(self, workspace, tmp_path, capsys):
        bad = tmp_path / "emb.bin"
        ident = b"syn\xff"
        bad.write_bytes(
            data.EMBED_MAGIC + struct.pack(">H", len(ident)) + ident + bytes(4 * data.EMBED_DIM)
        )
        err = self.run(self.train_args(workspace, tmp_path, embeddings=bad), 2, capsys)
        assert str(bad) in err and "not UTF-8" in err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"learning_rate=0.01  # caf\xe9\n")
        err = self.run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")], 1, capsys)
        assert err.startswith("config error:") and f"{cfg}: not UTF-8" in err


class TestNonFiniteWaveform:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["clean", "raw"])
    def test_predict_is_data_error(self, kind, value, workspace, tmp_path, capsys):
        src = sorted((workspace / ("cur/clean" if kind == "clean" else "raw/waveforms")).glob("*.f32"))[0]
        wave = np.fromfile(src, dtype="<f4")
        wave[100] = value
        bad = tmp_path / "bad.f32"
        wave.tofile(bad)
        rc = main(
            ["predict", "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
             "--waveform", str(bad), "--note", "x"]
        )
        out, err = capsys.readouterr()
        assert rc == 2
        assert "non-finite" in err and "Traceback" not in err
        assert "flagged" not in out


class TestCheckpointValues:
    """Parameter values: NaN or Inf is a data error at load, and a finite
    model whose forward overflows to NaN is a numerical failure."""

    def rewrite(self, workspace, tmp_path, name, value, where=0):
        config, params, extra = load_checkpoint(workspace / "run" / "checkpoint.bin")
        params[name].data.reshape(-1)[where] = value
        bad = tmp_path / "values.bin"
        save_checkpoint(bad, config, params, extra)
        return bad

    def run(self, command, ckpt, workspace, capsys):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        args = {
            "predict": ["--waveform", str(wf), "--note", "x"],
            "evaluate": ["--split", "train"],
        }[command]
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([command, "--checkpoint", str(ckpt), *args])
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "flagged" not in out and "accuracy" not in out
        return rc, err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["cls.fc3.b", "enc0.attn.wq"])
    def test_non_finite_parameter_is_data_error(self, name, value, command, workspace, tmp_path, capsys):
        bad = self.rewrite(workspace, tmp_path, name, value)
        rc, err = self.run(command, bad, workspace, capsys)
        assert rc == 2
        assert err.startswith("data error:") and repr(name) in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_non_finite_probabilities_are_numerical_failure(self, command, workspace, tmp_path, capsys):
        bad = self.rewrite(workspace, tmp_path, "cls.fc2.w", 1e308, where=slice(None))
        rc, err = self.run(command, bad, workspace, capsys)
        assert rc == 3
        assert err.startswith("numerical failure:") and "non-finite probabilities" in err


class TestFloatingPointBoundary:
    """A finite checkpoint whose forward overflows exits 3 at the first
    faulting operation, with one line on stderr and no numpy warning."""

    @pytest.fixture(scope="class")
    def overflowing(self, workspace, tmp_path_factory):
        config = ModelConfig(
            d_model=8, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            feedforward_dim=32, fusion_mode="waveform_only",
        )
        params = EcgTransformer(config, seed=0).params
        params["enc0.attn.wq"].data[...] = 1e308
        path = tmp_path_factory.mktemp("overflow") / "checkpoint.bin"
        save_checkpoint(path, config, params, {"manifest": str(workspace / "cur" / "manifest.csv")})
        return path

    def run_cli(self, *argv, cwd):
        # a fresh interpreter that prints every RuntimeWarning, as a user sees it
        env = dict(os.environ, PYTHONPATH=str(Path(ecgfusion.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-W", "always::RuntimeWarning", "-m", "ecgfusion.cli", *argv],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )

    @pytest.mark.parametrize("command", ["predict", "evaluate", "attention-map"])
    def test_exits_3_with_one_line(self, command, overflowing, workspace, tmp_path):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        args = {
            "predict": ["--waveform", str(wf)],
            "evaluate": ["--split", "train"],
            "attention-map": ["--waveform", str(wf), "--out", str(tmp_path / "maps")],
        }[command]
        done = self.run_cli(command, "--checkpoint", str(overflowing), *args, cwd=tmp_path)
        assert done.returncode == 3, done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:"), done.stderr
        assert "overflow" in lines[0]
        assert "0.5000" not in done.stdout and "accuracy" not in done.stdout
        assert not (tmp_path / "maps").exists()


class TestAblate:
    def test_two_mode_table(self, workspace, tmp_path, capsys):
        rc = main(
            [
                "ablate",
                "--manifest", str(workspace / "cur" / "manifest.csv"),
                "--embeddings", str(workspace / "raw" / "embeddings.bin"),
                "--out", str(tmp_path),
                "--seed", "4",
                "--modes", "cross_attention,waveform_only",
                *TINY_FLAGS,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hashes" in out
        lines = (tmp_path / "ablation.csv").read_text().strip().splitlines()
        assert lines[0] == "mode,train_accuracy,val_accuracy,test_accuracy,val_loss"
        assert len(lines) == 3
        assert lines[1].startswith("cross_attention,")
        assert lines[2].startswith("waveform_only,")

    def test_single_mode_rejected(self, workspace):
        rc = main(
            [
                "ablate",
                "--manifest", str(workspace / "cur" / "manifest.csv"),
                "--embeddings", str(workspace / "raw" / "embeddings.bin"),
                "--modes", "cross_attention",
            ]
        )
        assert rc == 1


class TestAttentionMap:
    def test_writes_csv_and_pgm(self, workspace, tmp_path, capsys):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        rc = main(
            [
                "attention-map",
                "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                "--waveform", str(wf),
                "--note", "map me",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        base = tmp_path / f"attention_{wf.stem}_layer0"
        assert base.with_suffix(".csv").is_file()
        header = base.with_suffix(".pgm").read_bytes().split(b"\n")[:3]
        assert header == [b"P5", b"250 12", b"255"]

    def test_rerun_identical_bytes(self, workspace, tmp_path, capsys):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[1]
        args = [
            "attention-map",
            "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
            "--waveform", str(wf),
            "--note", "stable bytes",
        ]
        assert main(args + ["--out", str(tmp_path / "x")]) == 0
        assert main(args + ["--out", str(tmp_path / "y")]) == 0
        capsys.readouterr()
        a = (tmp_path / "x" / f"attention_{wf.stem}_layer0.pgm").read_bytes()
        b = (tmp_path / "y" / f"attention_{wf.stem}_layer0.pgm").read_bytes()
        assert a == b

    def test_bad_layer_is_config_error(self, workspace, capsys):
        wf = sorted((workspace / "cur" / "clean").glob("*.f32"))[0]
        rc = main(
            [
                "attention-map",
                "--checkpoint", str(workspace / "run" / "checkpoint.bin"),
                "--waveform", str(wf),
                "--note", "x",
                "--layer", "9",
            ]
        )
        assert rc == 1
        capsys.readouterr()


class TestUsageErrors:
    def test_unknown_flag_exit_1(self, capsys):
        assert main(["train", "--bogus-flag", "1"]) == 1
        capsys.readouterr()

    def test_unknown_command_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_numerical_failure_exit_3(self, workspace, monkeypatch, capsys):
        from ecgfusion import cli
        from ecgfusion.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("epoch 1: non-finite loss in batch 0")

        monkeypatch.setattr(cli.training, "fit_with_early_stop", boom)
        rc = main(
            [
                "train",
                "--manifest", str(workspace / "cur" / "manifest.csv"),
                "--embeddings", str(workspace / "raw" / "embeddings.bin"),
                "--out", str(workspace / "doomed"),
                *TINY_FLAGS,
            ]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
