"""End-to-end tests of the command-line surface and its file formats."""

import argparse
import struct
from dataclasses import fields

import numpy as np
import pytest

from ecgfusion import data
from ecgfusion.cli import CHECKPOINT_EXTRAS, SCHEMA, build_parser, main, parse_config_file
from ecgfusion.errors import ConfigError
from ecgfusion.model import ModelConfig, load_checkpoint, save_checkpoint

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
