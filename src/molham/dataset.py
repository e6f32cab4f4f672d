"""Dataset records, split protocols, generation, and line-oriented storage.

Records are JSON Lines. A line stores the upper triangle of H as base64 of
little-endian float64 bytes and no overlap matrix: S is `toy_overlap` of the
stored elements and coordinates, formed on first read. The manifest captures the
format version, seed, split configuration, corpus hash, and per-record skips
so a dataset is reproducible bit-for-bit from (corpus, seed, config).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .basis import electron_count
from .corpus import corpus_sha256
from .errors import (CorruptFile, EmptySplit, MolhamError, UnsupportedElement, VersionMismatch,
                     json_object)
from .hamhead import from_upper_triangle, stored_layout, upper_triangle
from .oracle import embed_3d, embed_batch, huckel_labels
from .smiles import expand_hydrogens, parse_smiles
from .spectral import orbitals, toy_overlap

DATASET_VERSION = 2
SPLIT_MODES = ("random-id", "size-ood", "element-ood")
SIZE_TRAIN_BELOW = 20   # train molecules have fewer atoms than this
SIZE_TEST_ABOVE = 23    # test molecules have more atoms than this
OOD_ELEMENTS = ("S", "P")
BLOCK_SIZE = 16         # molecules per stacked descent
BLOCK_SPREAD = 1.5      # most atoms in a block, as a multiple of the fewest


@dataclass(frozen=True)
class SplitConfig:
    mode: str = "random-id"
    seed: int = 0
    train_fraction: float = 0.8

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"split mode must be one of {SPLIT_MODES}, got {self.mode!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train fraction must lie in (0, 1), got {self.train_fraction}")


@dataclass
class DatasetRecord:
    smiles: str
    elements: list[str]
    coords: np.ndarray      # n_atoms x 3, angstrom
    h: np.ndarray           # n_orb x n_orb, Hartree
    n_electrons: int
    gap_ev: float
    split: str

    @cached_property
    def s(self) -> np.ndarray:
        """Overlap matrix of the basis, formed once per record."""
        return toy_overlap(self.elements, self.coords)

    def to_json(self) -> str:
        return json.dumps({
            "smiles": self.smiles,
            "elements": self.elements,
            "coords": self.coords.tolist(),
            "h_upper": base64.b64encode(upper_triangle(self.h).astype("<f8").tobytes()).decode(),
            "n_electrons": self.n_electrons,
            "gap_ev": self.gap_ev,
            "split": self.split,
        })

    @classmethod
    def from_json(cls, line: str) -> "DatasetRecord":
        """Parse one stored line; a malformed one raises CorruptFile."""
        try:
            raw = json.loads(line)
            if not all(isinstance(raw[k], str) for k in ("smiles", "split")):
                raise TypeError("smiles and split must be strings")
            elements = raw["elements"]
            n_orb = stored_layout(elements).n_orb
            blob = base64.b64decode(raw["h_upper"], validate=True)
            if len(blob) != 8 * (n_orb * (n_orb + 1) // 2):
                raise ValueError(f"h_upper holds {len(blob)} bytes, not the float64 upper "
                                 f"triangle of the {n_orb} orbitals of its elements")
            h_upper = np.frombuffer(blob, dtype="<f8")
            if not np.isfinite(h_upper).all():
                raise ValueError("h_upper must hold finite numbers only")
            coords = np.asarray(raw["coords"], dtype=np.float64)
            if coords.shape != (len(elements), 3) or not np.isfinite(coords).all():
                raise ValueError(f"coords must be {len(elements)} finite rows of 3 values, "
                                 f"one per element, got shape {coords.shape}")
            n_electrons = raw["n_electrons"]
            if isinstance(n_electrons, bool) or not isinstance(n_electrons, int) or n_electrons < 0:
                raise ValueError(f"n_electrons must be a whole number >= 0, got {n_electrons!r}")
            gap_ev = float(raw["gap_ev"])
            if not np.isfinite(gap_ev):
                raise ValueError(f"gap_ev must be finite, got {gap_ev}")
            return cls(
                smiles=raw["smiles"],
                elements=elements,
                coords=coords,
                h=from_upper_triangle(h_upper, n_orb),
                n_electrons=n_electrons,
                gap_ev=gap_ev,
                split=raw["split"],
            )
        except KeyError as err:
            raise CorruptFile(f"dataset record lacks field {err}") from None
        # JSONDecodeError and base64's binascii.Error are ValueErrors
        except (TypeError, ValueError, UnsupportedElement) as err:
            raise CorruptFile(f"malformed dataset record: {err}") from None


class Dataset:
    """Record list with an instrumented coordinate accessor.

    String-only training paths must never request coordinates; the
    `coords_reads` counter makes that auditable.
    """

    def __init__(self, records: list[DatasetRecord]):
        self.records = records
        self.coords_reads = 0

    def __len__(self) -> int:
        return len(self.records)

    def get_coords(self, idx: int) -> np.ndarray:
        self.coords_reads += 1
        return self.records[idx].coords


@dataclass
class GenReport:
    records: list[DatasetRecord] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)


def _record_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _skip(idx: int, smiles: str, err: MolhamError) -> dict:
    return {"index": idx, "smiles": smiles, "error": type(err).__name__, "detail": str(err)}


def _size_blocks(sizes: dict[int, int]) -> list[list[int]]:
    """Entry ids in (size, id) order, cut into runs of at most BLOCK_SIZE entries.

    A run also ends before an entry of more than BLOCK_SPREAD times the size
    of the run's first entry.
    """
    blocks: list[list[int]] = []
    for i in sorted(sizes, key=lambda i: (sizes[i], i)):
        if (not blocks or len(blocks[-1]) == BLOCK_SIZE
                or sizes[i] > BLOCK_SPREAD * sizes[blocks[-1][0]]):
            blocks.append([])
        blocks[-1].append(i)
    return blocks


def generate_records(corpus: list[str], seed: int) -> GenReport:
    """Embed, label, and solve every corpus entry; failures are recorded, both in corpus order.

    Entries are parsed first, then embedded by blocks of similar size, each
    block with one stacked descent (`embed_batch`); an entry that misses the
    distance floor there gets its reseeds from `embed_3d`, and each entry is
    labelled and solved in the same pass over its block. Per-record work is
    deterministic given (corpus index, seed) and the corpus list.
    """
    results: list = [None] * len(corpus)
    xmols = {}
    for idx, smiles in enumerate(corpus):
        try:
            xmols[idx] = expand_hydrogens(parse_smiles(smiles))
        except MolhamError as err:
            results[idx] = _skip(idx, smiles, err)
    for block in _size_blocks({i: x.n_atoms for i, x in xmols.items()}):
        seeds = [_record_seed(seed, i) for i in block]
        for i, record_seed, c in zip(block, seeds, embed_batch([xmols[i] for i in block], seeds)):
            xmol = xmols[i]
            try:
                c = c if c is not None else embed_3d(xmol, record_seed)
                h, s = huckel_labels(xmol, c)
                n_elec = electron_count(xmol.elements)
                gap_ev = orbitals(h, s, n_elec).gap_ev
            except MolhamError as err:
                results[i] = _skip(i, corpus[i], err)
                continue
            results[i] = DatasetRecord(smiles=corpus[i], elements=list(xmol.elements), coords=c,
                                       h=h, n_electrons=n_elec, gap_ev=gap_ev, split="")
    report = GenReport()
    for res in results:
        (report.records if isinstance(res, DatasetRecord) else report.skipped).append(res)
    return report


def assign_split(records: list[DatasetRecord], config: SplitConfig) -> tuple[list[int], list[int]]:
    """Train/test index lists under the requested protocol."""
    if config.mode == "random-id":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 1])))
        order = rng.permutation(len(records))
        n_train = int(round(config.train_fraction * len(records)))
        train = sorted(int(i) for i in order[:n_train])
        test = sorted(int(i) for i in order[n_train:])
    elif config.mode == "size-ood":
        train = [i for i, r in enumerate(records) if len(r.elements) < SIZE_TRAIN_BELOW]
        test = [i for i, r in enumerate(records) if len(r.elements) > SIZE_TEST_ABOVE]
    else:  # element-ood
        def has_ood(r: DatasetRecord) -> bool:
            return any(e in OOD_ELEMENTS for e in r.elements)
        train = [i for i, r in enumerate(records) if not has_ood(r)]
        test = [i for i, r in enumerate(records) if has_ood(r)]
    if not train or not test:
        raise EmptySplit(f"{config.mode} split left train={len(train)}, test={len(test)}")
    return train, test


def gen_dataset(corpus: list[str], config: SplitConfig, out_dir: str | Path) -> dict:
    """Write train.jsonl, test.jsonl, and manifest.json atomically; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = generate_records(corpus, config.seed)
    train_idx, test_idx = assign_split(report.records, config)

    for name, idxs in (("train", train_idx), ("test", test_idx)):
        with atomic_open(out / f"{name}.jsonl") as fh:
            for i in idxs:
                report.records[i].split = name
                fh.write(report.records[i].to_json() + "\n")

    manifest = {
        "format_version": DATASET_VERSION,
        "seed": config.seed,
        "split": {"mode": config.mode, "train_fraction": config.train_fraction,
                  "size_train_below": SIZE_TRAIN_BELOW, "size_test_above": SIZE_TEST_ABOVE,
                  "ood_elements": list(OOD_ELEMENTS)},
        "corpus_sha256": corpus_sha256(corpus),
        "n_corpus": len(corpus),
        "n_generated": len(report.records),
        "n_train": len(train_idx),
        "n_test": len(test_idx),
        "n_skipped": len(report.skipped),
        "skipped": report.skipped,
    }
    with atomic_open(out / "manifest.json") as fh:
        fh.write(json.dumps(manifest, indent=1) + "\n")
    return manifest


def load_split(out_dir: str | Path) -> tuple[Dataset, Dataset, dict]:
    """(train, test, manifest) of a gen-data directory; another format version
    raises VersionMismatch, a malformed line CorruptFile, an empty split EmptySplit."""
    out = Path(out_dir)
    path = out / "manifest.json"
    manifest = json_object(path.read_bytes(), path)
    if manifest.get("format_version") != DATASET_VERSION:
        raise VersionMismatch(f"{path}: dataset format {manifest.get('format_version')} != "
                              f"{DATASET_VERSION}; generate the dataset again with gen-data")
    sets = []
    for name in ("train", "test"):
        path = out / f"{name}.jsonl"
        records = []
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    records.append(DatasetRecord.from_json(line))
                except CorruptFile as err:
                    raise CorruptFile(f"{path} line {number}: {err}") from None
        if not records:
            raise EmptySplit(f"{path} holds no record")
        sets.append(Dataset(records))
    return sets[0], sets[1], manifest
