"""Tests for curation, labeling, splitting, embeddings, and synthesis."""

import numpy as np
import pytest

from ecgfusion import data
from ecgfusion.data import (
    CLASS_NAMES,
    NotesEmbedding,
    RecordMeta,
    SplitSpec,
    balance_undersample,
    drop_blank_reports,
    load_embeddings,
    multi_hot,
    prepare_records,
    read_manifest,
    split,
    synth_dataset,
    toy_embed,
    write_embeddings,
    write_manifest,
    write_synth_dataset,
)
from ecgfusion.errors import ConfigError, DataError


def make_record(rid, codes, note="note"):
    return RecordMeta(record_id=rid, labels=multi_hot(codes), note_text=note)


class TestMultiHot:
    def test_norm_at_index_zero(self):
        np.testing.assert_array_equal(multi_hot({"NORM"}), [1, 0, 0, 0, 0])

    def test_mi_and_cd_indices(self):
        np.testing.assert_array_equal(multi_hot({"MI", "CD"}), [0, 1, 0, 1, 0])

    def test_hyp_last_slot(self):
        np.testing.assert_array_equal(multi_hot({"HYP"}), [0, 0, 0, 0, 1])

    def test_unknown_code_named_in_error(self):
        with pytest.raises(DataError, match="XYZ"):
            multi_hot({"XYZ"})

    def test_empty_set_rejected(self):
        with pytest.raises(DataError, match="no labels"):
            multi_hot(set())

    def test_all_31_nonempty_subsets_accepted(self):
        import itertools

        seen = set()
        for r in range(1, 6):
            for combo in itertools.combinations(CLASS_NAMES, r):
                bits = tuple(multi_hot(combo))
                assert sum(bits) == r
                seen.add(bits)
        assert len(seen) == 31


class TestDropBlankReports:
    def test_empty_dropped(self):
        assert drop_blank_reports([make_record("a", {"MI"}, note="")]) == []

    def test_whitespace_only_dropped(self):
        assert drop_blank_reports([make_record("a", {"MI"}, note="   ")]) == []

    def test_nonempty_kept(self):
        records = [make_record("a", {"MI"}, note="sinus rhythm.")]
        assert drop_blank_reports(records) == records

    def test_none_dropped_too(self):
        assert drop_blank_reports([RecordMeta("a", multi_hot({"MI"}), note_text=None)]) == []


class TestBalanceUndersample:
    def test_caps_single_class_exactly(self):
        records = [make_record(f"r{i}", {"NORM"}) for i in range(10000)]
        kept = balance_undersample(records, 2500, seed=1)
        assert len(kept) == 2500

    def test_identity_when_under_cap(self):
        records = [make_record(f"r{i}", {CLASS_NAMES[i % 5]}) for i in range(50)]
        kept = balance_undersample(records, 100, seed=1)
        assert kept == records  # order-stable identity

    def test_same_seed_same_selection(self):
        records = [make_record(f"r{i}", {CLASS_NAMES[i % 3]}) for i in range(300)]
        a = balance_undersample(records, 40, seed=9)
        b = balance_undersample(records, 40, seed=9)
        assert [r.record_id for r in a] == [r.record_id for r in b]

    def test_multilabel_counts_toward_every_class(self):
        rng = np.random.default_rng(4)
        records = []
        for i in range(800):
            codes = set(rng.choice(CLASS_NAMES, size=rng.integers(1, 3), replace=False))
            records.append(make_record(f"r{i}", codes))
        kept = balance_undersample(records, 60, seed=2)
        counts = np.stack([r.labels for r in kept]).sum(axis=0)
        assert counts.max() <= 60

    def test_no_duplicates(self):
        records = [make_record(f"r{i}", {"NORM", "MI"}) for i in range(100)]
        kept = balance_undersample(records, 30, seed=3)
        ids = [r.record_id for r in kept]
        assert len(ids) == len(set(ids))


class TestSplit:
    def make(self, n):
        return [make_record(f"r{i}", {"NORM"}) for i in range(n)]

    def test_sizes_8_1_1(self):
        parts = split(self.make(10), SplitSpec(0.8, 0.1, 0.1, seed=0))
        assert tuple(len(p) for p in parts) == (8, 1, 1)

    def test_same_seed_identical(self):
        records = self.make(40)
        a = split(records, SplitSpec(seed=5))
        b = split(records, SplitSpec(seed=5))
        assert all(
            [r.record_id for r in x] == [r.record_id for r in y] for x, y in zip(a, b)
        )

    def test_union_is_input_multiset(self):
        records = self.make(23)
        parts = split(records, SplitSpec(seed=1))
        combined = sorted(r.record_id for part in parts for r in part)
        assert combined == sorted(r.record_id for r in records)

    def test_empty_split_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            split(self.make(3), SplitSpec(0.9, 0.05, 0.05, seed=0))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            SplitSpec(0.5, 0.2, 0.2, seed=0)
        with pytest.raises(ConfigError, match="positive"):
            SplitSpec(1.2, -0.1, -0.1, seed=0)


class TestEmbeddingsIO:
    def test_zero_vector_roundtrip(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, [NotesEmbedding(vector=np.zeros(768), record_id="z")])
        table = load_embeddings(path)
        np.testing.assert_array_equal(table["z"].vector, np.zeros(768))

    def test_binary_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        # store float32-representable values so the round trip is exact
        vecs = [rng.normal(size=768).astype(np.float32).astype(np.float64) for _ in range(5)]
        embs = [NotesEmbedding(vector=v, record_id=f"id{i}") for i, v in enumerate(vecs)]
        path = tmp_path / "emb.bin"
        write_embeddings(path, embs)
        table = load_embeddings(path)
        for i, v in enumerate(vecs):
            np.testing.assert_array_equal(table[f"id{i}"].vector, v)

    def test_csv_wrong_dimension(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("rec1," + ",".join(["0.0"] * 767) + "\n")
        with pytest.raises(DataError, match="767"):
            load_embeddings(path)

    def test_csv_accepted(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("rec1," + ",".join(["0.25"] * 768) + "\n")
        table = load_embeddings(path)
        np.testing.assert_array_equal(table["rec1"].vector, np.full(768, 0.25))

    def test_duplicate_id_rejected(self, tmp_path):
        embs = [
            NotesEmbedding(vector=np.zeros(768), record_id="same"),
            NotesEmbedding(vector=np.ones(768), record_id="same"),
        ]
        path = tmp_path / "emb.bin"
        write_embeddings(path, embs)
        with pytest.raises(DataError, match="duplicate"):
            load_embeddings(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        write_embeddings(path, [NotesEmbedding(vector=np.zeros(768), record_id="a")])
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(DataError, match="truncated"):
            load_embeddings(path)

    def test_non_finite_vector_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            NotesEmbedding(vector=np.full(768, np.nan), record_id="bad")


class TestToyEmbed:
    def test_deterministic(self):
        a = toy_embed("acute anterior infarction suspected")
        b = toy_embed("acute anterior infarction suspected")
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        assert abs(np.linalg.norm(toy_embed("sinus rhythm normal ecg")) - 1.0) < 1e-12

    def test_distinct_phrases_dissimilar(self):
        a = toy_embed("myocardial infarction")
        b = toy_embed("sinus rhythm")
        assert a @ b < 0.5

    def test_empty_text_rejected(self):
        with pytest.raises(DataError, match="empty"):
            toy_embed("   ")


class TestSynthDataset:
    def test_counts_with_ten_percent_duals(self):
        ds = synth_dataset(4, seed=0)
        singles = [r for r in ds.records if r.labels.sum() == 1]
        duals = [r for r in ds.records if r.labels.sum() == 2]
        assert len(singles) == 20 and len(duals) == 2

    def test_same_seed_byte_identical(self):
        a = synth_dataset(3, seed=77)
        b = synth_dataset(3, seed=77)
        assert [r.record_id for r in a.records] == [r.record_id for r in b.records]
        for r in a.records:
            np.testing.assert_array_equal(a.waveforms[r.record_id], b.waveforms[r.record_id])
            np.testing.assert_array_equal(
                a.embeddings[r.record_id].vector, b.embeddings[r.record_id].vector
            )

    def test_spectral_peaks_at_declared_frequencies(self):
        ds = synth_dataset(2, seed=5)
        freqs = np.fft.rfftfreq(1000, d=0.01)
        for rec in ds.records:
            if rec.labels.sum() != 1:
                continue
            klass = int(np.argmax(rec.labels))
            spectrum = np.abs(np.fft.rfft(ds.waveforms[rec.record_id][0]))
            peak = freqs[spectrum[1:].argmax() + 1]
            assert peak == pytest.approx(data.CLASS_FREQS_HZ[klass], abs=0.11)

    def test_notes_informative_flag_changes_embeddings(self):
        a = synth_dataset(2, seed=9, notes_informative=True)
        b = synth_dataset(2, seed=9, notes_informative=False)
        rid = a.records[0].record_id
        assert not np.allclose(a.embeddings[rid].vector, b.embeddings[rid].vector)

    def test_every_record_valid_after_write(self, tmp_path):
        ds = synth_dataset(2, seed=3)
        manifest = write_synth_dataset(tmp_path, ds)
        records = read_manifest(manifest)
        for rec in records:
            wave = data.read_waveform(
                data.resolve_waveform_path(manifest, rec.waveform_ref), 1000
            )
            assert wave.shape == (12, 1000)
            assert rec.note_text.strip()
            assert rec.labels.sum() >= 1


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        records = [
            make_record("a", {"NORM"}, note="normal sinus"),
            make_record("b", {"MI", "CD"}, note='with "quotes", and commas'),
        ]
        records[0].waveform_ref = "waves/a.f32"
        path = tmp_path / "m.csv"
        write_manifest(path, records)
        back = read_manifest(path)
        assert [r.record_id for r in back] == ["a", "b"]
        np.testing.assert_array_equal(back[1].labels, records[1].labels)
        assert back[1].note_text == 'with "quotes", and commas'
        assert back[0].waveform_ref == "waves/a.f32"

    def test_bad_label_reports_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            'record_id,labels,note,waveform_path\n"a","BOGUS","x","a.f32"\n'
        )
        with pytest.raises(DataError, match=r":2:"):
            read_manifest(path)

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("record_id,labels,note,waveform_path\na,NORM,x\n")
        with pytest.raises(DataError, match=r":2:"):
            read_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("record_id,labels,note,waveform_path\n")
        with pytest.raises(DataError, match="no records"):
            read_manifest(path)


class TestReadWaveform:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected_by_load_clean_records(self, value, tmp_path):
        wave = np.zeros((12, 250), dtype=np.float32)
        wave[3, 17] = value
        data.write_waveform(tmp_path / "a.f32", wave)
        rec = make_record("a", ["NORM"])
        rec.waveform_ref = "a.f32"
        write_manifest(tmp_path / "m.csv", [rec])
        with pytest.raises(DataError, match="1 non-finite samples, first at lead 3 sample 17"):
            data.load_clean_records(tmp_path / "m.csv")


class TestCurationPipelineDeterminism:
    def test_full_pipeline_deterministic(self):
        ds = synth_dataset(6, seed=13)
        blanked = list(ds.records)
        blanked[3].note_text = "  "

        def run():
            kept = drop_blank_reports(blanked)
            kept = balance_undersample(kept, 5, seed=21)
            return [
                [r.record_id for r in part] for part in split(kept, SplitSpec(seed=21))
            ]

        assert run() == run()

    def test_prepare_records_shapes(self):
        ds = synth_dataset(1, seed=2)
        records = prepare_records(ds)
        for rec in records:
            assert rec.waveform.shape == (12, 250)
            assert rec.embedding.shape == (768,)
            assert rec.labels.shape == (5,)
