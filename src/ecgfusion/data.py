"""Record curation, labeling, splitting, embeddings, and synthetic data.

File formats owned here:

* manifest: UTF-8 CSV, header ``record_id,labels,note,waveform_path``;
  ``labels`` is a ``;``-separated subset of the five class codes; paths
  are resolved relative to the manifest's directory.
* waveforms: headerless little-endian float32, row-major 12xN
  (N=1000 raw, N=250 clean); the manifest carries identity.
* embeddings: binary, magic ``MVEMB1\\n`` then per record a 2-byte
  big-endian id length, the UTF-8 id, and 768 little-endian float32
  values.  A CSV alternative (record_id plus 768 numeric columns) is
  accepted on read.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from ecgfusion.errors import ConfigError, DataError
from ecgfusion import sigproc

CLASS_NAMES = ("NORM", "MI", "STTC", "CD", "HYP")
N_CLASSES = len(CLASS_NAMES)
EMBED_DIM = 768

EMBED_MAGIC = b"MVEMB1\n"
MANIFEST_HEADER = ["record_id", "labels", "note", "waveform_path"]


def multi_hot(label_codes: Iterable[str]) -> np.ndarray:
    """Five-slot [NORM, MI, STTC, CD, HYP] indicator vector."""
    codes = set(label_codes)
    if not codes:
        raise DataError("record has no labels")
    bits = np.zeros(N_CLASSES, dtype=np.int64)
    for code in codes:
        if code not in CLASS_NAMES:
            raise DataError(f"unknown class code {code!r}")
        bits[CLASS_NAMES.index(code)] = 1
    return bits


def label_codes(bits: np.ndarray) -> list[str]:
    return [CLASS_NAMES[i] for i in range(N_CLASSES) if bits[i]]


@dataclass
class RecordMeta:
    record_id: str
    labels: np.ndarray
    note_text: Optional[str] = None
    waveform_ref: str = ""


@dataclass
class NotesEmbedding:
    vector: np.ndarray
    record_id: str

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.shape != (EMBED_DIM,):
            raise DataError(
                f"embedding for {self.record_id!r}: expected {EMBED_DIM} values, "
                f"got shape {self.vector.shape}"
            )
        if not np.isfinite(self.vector).all():
            raise DataError(f"embedding for {self.record_id!r}: non-finite entry")


@dataclass
class SplitSpec:
    train_fraction: float = 0.8
    val_fraction: float = 0.1
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0 for f in fracs):
            raise ConfigError(f"split fractions must be positive, got {fracs}")
        if abs(math.fsum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {fracs}")


# ---------------------------------------------------------------------------
# curation


def drop_blank_reports(records: list[RecordMeta]) -> list[RecordMeta]:
    """Keep only records whose note is nonempty after whitespace trim."""
    return [r for r in records if r.note_text is not None and r.note_text.strip()]


def balance_undersample(records: list[RecordMeta], per_class_cap: int, seed: int) -> list[RecordMeta]:
    """Cap the per-class record count by seeded uniform dropping.

    Classes are processed in label order; a multi-label record counts
    toward every class it carries, so dropping for one class can only
    shrink the others.  Input order is preserved among survivors.
    """
    if per_class_cap < 1:
        raise ConfigError(f"per_class_cap must be >= 1, got {per_class_cap}")
    rng = np.random.default_rng(seed)
    survivors = list(records)
    for c in range(N_CLASSES):
        members = [r for r in survivors if r.labels[c]]
        excess = len(members) - per_class_cap
        if excess <= 0:
            continue
        dropped = {id(members[i]) for i in rng.choice(len(members), size=excess, replace=False)}
        survivors = [r for r in survivors if id(r) not in dropped]
    return survivors


def split(records: list[RecordMeta], spec: SplitSpec):
    """Seeded shuffle then contiguous partition by the spec fractions."""
    n = len(records)
    order = np.random.default_rng(spec.seed).permutation(n)
    shuffled = [records[i] for i in order]
    cut1 = int(round(n * spec.train_fraction))
    cut2 = int(round(n * (spec.train_fraction + spec.val_fraction)))
    parts = (shuffled[:cut1], shuffled[cut1:cut2], shuffled[cut2:])
    for name, part in zip(("train", "val", "test"), parts):
        if not part:
            raise ConfigError(f"{name} split is empty for {n} records with {spec}")
    return parts


# ---------------------------------------------------------------------------
# manifests and waveform files


def write_manifest(path, records: list[RecordMeta]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(MANIFEST_HEADER)
        for r in records:
            writer.writerow(
                [r.record_id, ";".join(label_codes(r.labels)), r.note_text or "", r.waveform_ref]
            )


def _csv_rows(path):
    """The rows of a UTF-8 CSV file; a file that is not UTF-8, or that csv
    cannot parse, raises DataError naming it."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield from reader
        except UnicodeDecodeError:
            raise DataError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def read_manifest(path) -> list[RecordMeta]:
    path = Path(path)
    records = []
    rows = _csv_rows(path)
    header = next(rows, None)
    if header is None:
        raise DataError(f"{path}: empty manifest")
    if header != MANIFEST_HEADER:
        raise DataError(f"{path}: bad header {header!r}")
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        rid, labels_field, note, wf = row
        codes = [c for c in labels_field.split(";") if c]
        try:
            bits = multi_hot(codes)
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        records.append(RecordMeta(record_id=rid, labels=bits, note_text=note, waveform_ref=wf))
    if not records:
        raise DataError(f"{path}: no records")
    return records


def resolve_waveform_path(manifest_path, ref: str) -> Path:
    ref_path = Path(ref)
    return ref_path if ref_path.is_absolute() else Path(manifest_path).parent / ref_path


def write_waveform(path, leads: np.ndarray) -> None:
    np.asarray(leads, dtype="<f4").tofile(path)


def read_waveform(path, n_samples: int) -> np.ndarray:
    raw = np.fromfile(path, dtype="<f4")
    if raw.size != sigproc.N_LEADS * n_samples:
        raise DataError(
            f"{path}: expected {sigproc.N_LEADS * n_samples} float32 samples, got {raw.size}"
        )
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        lead, sample = divmod(int(bad[0]), n_samples)
        raise DataError(f"{path}: {bad.size} non-finite samples, first at lead {lead} sample {sample}")
    return raw.astype(np.float64).reshape(sigproc.N_LEADS, n_samples)


# ---------------------------------------------------------------------------
# embeddings


def write_embeddings(path, embeddings: Iterable[NotesEmbedding]) -> None:
    with open(path, "wb") as fh:
        fh.write(EMBED_MAGIC)
        for emb in embeddings:
            ident = emb.record_id.encode("utf-8")
            fh.write(struct.pack(">H", len(ident)))
            fh.write(ident)
            fh.write(emb.vector.astype("<f4").tobytes())


def load_embeddings(path) -> dict[str, NotesEmbedding]:
    """Read either the binary format or the CSV alternative."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(EMBED_MAGIC))
        if head == EMBED_MAGIC:
            return _load_embeddings_binary(fh, path)
    return _load_embeddings_csv(path)


def _load_embeddings_binary(fh, path) -> dict[str, NotesEmbedding]:
    out: dict[str, NotesEmbedding] = {}
    vec_bytes = EMBED_DIM * 4
    while True:
        hdr = fh.read(2)
        if not hdr:
            break
        if len(hdr) != 2:
            raise DataError(f"{path}: truncated record header")
        (id_len,) = struct.unpack(">H", hdr)
        ident = fh.read(id_len)
        if len(ident) != id_len:
            raise DataError(f"{path}: truncated record id")
        try:
            rid = ident.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: record id {ident!r} is not UTF-8") from None
        blob = fh.read(vec_bytes)
        if len(blob) != vec_bytes:
            raise DataError(f"{path}: truncated vector for {rid!r}")
        if rid in out:
            raise DataError(f"{path}: duplicate record_id {rid!r}")
        vec = np.frombuffer(blob, dtype="<f4").astype(np.float64)
        out[rid] = NotesEmbedding(vector=vec, record_id=rid)
    return out


def _load_embeddings_csv(path) -> dict[str, NotesEmbedding]:
    out: dict[str, NotesEmbedding] = {}
    for lineno, row in enumerate(_csv_rows(path), start=1):
        if not row:
            continue
        rid = row[0]
        if len(row) - 1 != EMBED_DIM:
            raise DataError(f"{path}:{lineno}: expected {EMBED_DIM} values, got {len(row) - 1}")
        try:
            vec = np.array([float(v) for v in row[1:]])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if rid in out:
            raise DataError(f"{path}:{lineno}: duplicate record_id {rid!r}")
        out[rid] = NotesEmbedding(vector=vec, record_id=rid)
    if not out:
        raise DataError(f"{path}: no embeddings")
    return out


_TOKEN_RE = re.compile(r"[a-z0-9]+")
_HASH_SALT = b"ecgfusion-bow-v1"


def toy_embed(note_text: str) -> np.ndarray:
    """Deterministic 768-dim bag-of-hashed-words embedding, L2-normalized.

    A stand-in for a real sentence encoder: each lowercased token is
    hashed (keyed blake2b, so results are stable across processes) onto a
    signed slot and counted.
    """
    tokens = _TOKEN_RE.findall(note_text.lower())
    if not tokens:
        raise DataError("cannot embed an empty note")
    vec = np.zeros(EMBED_DIM)
    for tok in tokens:
        digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=5, key=_HASH_SALT).digest()
        slot = int.from_bytes(digest[:4], "big") % EMBED_DIM
        sign = 1.0 if digest[4] & 1 else -1.0
        vec[slot] += sign
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


# ---------------------------------------------------------------------------
# synthetic data


DUAL_LABEL_FRACTION = 0.10
CLASS_FREQS_HZ = (1.0, 2.0, 3.0, 4.0, 5.0)
SYNTH_SNR_DB = 10.0


@dataclass
class SynthDataset:
    records: list[RecordMeta]
    waveforms: dict[str, np.ndarray] = field(default_factory=dict)
    embeddings: dict[str, NotesEmbedding] = field(default_factory=dict)


def synth_dataset(n_per_class: int, seed: int, notes_informative: bool = True) -> SynthDataset:
    """Class-separable stand-in data: each class carries a distinct
    dominant frequency, plus 10% two-label records superposing both
    signatures.  Embeddings are class centroids plus small noise when
    ``notes_informative``, otherwise pure noise."""
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(N_CLASSES, EMBED_DIM))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    label_sets = [[c] for c in range(N_CLASSES) for _ in range(n_per_class)]
    n_dual = (N_CLASSES * n_per_class * 10) // 100
    for _ in range(n_dual):
        pair = rng.choice(N_CLASSES, size=2, replace=False)
        label_sets.append(sorted(int(c) for c in pair))

    ds = SynthDataset(records=[])
    t = np.arange(sigproc.RAW_SAMPLES) / sigproc.SAMPLE_RATE_HZ
    lead_phase = 2.0 * np.pi * np.arange(sigproc.N_LEADS) / sigproc.N_LEADS
    for index, classes in enumerate(label_sets):
        rid = f"syn{index:05d}"
        wave = np.zeros((sigproc.N_LEADS, sigproc.RAW_SAMPLES))
        for c in classes:
            phase = rng.uniform(0.0, 2.0 * np.pi)
            wave += np.sin(
                2.0 * np.pi * CLASS_FREQS_HZ[c] * t[None, :] + phase + lead_phase[:, None]
            )
        noise_sd = math.sqrt((wave**2).mean() / 10 ** (SYNTH_SNR_DB / 10.0))
        wave += rng.normal(scale=noise_sd, size=wave.shape)

        names = [CLASS_NAMES[c] for c in classes]
        note = f"synthetic rhythm {rid}: " + " and ".join(names).lower()
        bits = multi_hot(names)
        ds.records.append(
            RecordMeta(record_id=rid, labels=bits, note_text=note, waveform_ref=f"{rid}.f32")
        )
        ds.waveforms[rid] = wave
        if notes_informative:
            vec = centroids[list(classes)].mean(axis=0) + rng.normal(scale=0.05, size=EMBED_DIM)
        else:
            vec = rng.normal(size=EMBED_DIM)
        vec /= np.linalg.norm(vec)
        ds.embeddings[rid] = NotesEmbedding(vector=vec, record_id=rid)
    return ds


def write_synth_dataset(out_dir, ds: SynthDataset) -> Path:
    """Materialize a synthetic dataset: waveform files, embeddings
    binary, and a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    wave_dir = out_dir / "waveforms"
    wave_dir.mkdir(parents=True, exist_ok=True)
    for r in ds.records:
        write_waveform(wave_dir / f"{r.record_id}.f32", ds.waveforms[r.record_id])
        r.waveform_ref = f"waveforms/{r.record_id}.f32"
    write_embeddings(out_dir / "embeddings.bin", [ds.embeddings[r.record_id] for r in ds.records])
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, ds.records)
    return manifest


# ---------------------------------------------------------------------------
# model-ready records


@dataclass
class LoadedRecord:
    record_id: str
    waveform: np.ndarray  # clean 12x250
    labels: np.ndarray  # 5-slot multi-hot
    embedding: Optional[np.ndarray] = None  # 768 floats


def prepare_records(ds: SynthDataset) -> list[LoadedRecord]:
    """Run the waveform cleanup over a synthetic dataset in memory."""
    out = []
    for r in ds.records:
        raw = sigproc.RawEcg(leads=ds.waveforms[r.record_id], record_id=r.record_id)
        clean = sigproc.preprocess_record(raw)
        out.append(
            LoadedRecord(
                record_id=r.record_id,
                waveform=clean.leads,
                labels=r.labels.astype(np.float64),
                embedding=ds.embeddings[r.record_id].vector,
            )
        )
    return out


def load_clean_records(
    manifest_path, embeddings: Optional[dict[str, NotesEmbedding]] = None
) -> list[LoadedRecord]:
    """Load a curated manifest whose waveform files are clean 12x250."""
    records = read_manifest(manifest_path)
    out = []
    for r in records:
        wf_path = resolve_waveform_path(manifest_path, r.waveform_ref)
        wave = read_waveform(wf_path, sigproc.CLEAN_SAMPLES)
        emb = None
        if embeddings is not None:
            if r.record_id not in embeddings:
                raise DataError(f"no embedding for record {r.record_id!r}")
            emb = embeddings[r.record_id].vector
        out.append(
            LoadedRecord(
                record_id=r.record_id,
                waveform=wave,
                labels=r.labels.astype(np.float64),
                embedding=emb,
            )
        )
    return out
