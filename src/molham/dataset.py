"""Dataset records, split protocols, generation, and line-oriented storage.

Records are JSON Lines with upper-triangle matrices; the manifest captures
seed, split configuration, corpus hash, and per-record skips so a dataset is
reproducible bit-for-bit from (corpus, seed, config).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .basis import electron_count
from .corpus import corpus_sha256
from .errors import CorruptFile, EmptySplit, MolhamError, UnsupportedElement, json_object
from .hamhead import from_upper_triangle, layout, upper_triangle
from .oracle import embed_3d, huckel_labels
from .smiles import expand_hydrogens, parse_smiles
from .spectral import frontier

SPLIT_MODES = ("random-id", "size-ood", "element-ood")
SIZE_TRAIN_BELOW = 20   # train molecules have fewer atoms than this
SIZE_TEST_ABOVE = 23    # test molecules have more atoms than this
OOD_ELEMENTS = ("S", "P")


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
    s: np.ndarray
    n_electrons: int
    gap_ev: float
    split: str

    def to_json(self) -> str:
        return json.dumps({
            "smiles": self.smiles,
            "elements": self.elements,
            "coords": [[float(x) for x in row] for row in self.coords],
            "h_upper": [float(x) for x in upper_triangle(self.h)],
            "s_upper": [float(x) for x in upper_triangle(self.s)],
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
            if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
                raise TypeError(f"elements must be a list of strings, got {elements!r}")
            n_orb = layout(elements).n_orb
            for key in ("h_upper", "s_upper"):
                if len(raw[key]) != n_orb * (n_orb + 1) // 2:
                    raise ValueError(f"{key} holds {len(raw[key])} values, not the upper "
                                     f"triangle of the {n_orb} orbitals of its elements")
            return cls(
                smiles=raw["smiles"],
                elements=elements,
                coords=np.asarray(raw["coords"], dtype=np.float64),
                h=from_upper_triangle(np.asarray(raw["h_upper"]), n_orb),
                s=from_upper_triangle(np.asarray(raw["s_upper"]), n_orb),
                n_electrons=int(raw["n_electrons"]),
                gap_ev=float(raw["gap_ev"]),
                split=raw["split"],
            )
        except KeyError as err:
            raise CorruptFile(f"dataset record lacks field {err}") from None
        except (TypeError, ValueError, UnsupportedElement) as err:  # JSONDecodeError is a ValueError
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


def _generate_one(idx: int, smiles: str, seed: int) -> DatasetRecord | dict:
    try:
        mol = parse_smiles(smiles)
        xmol = expand_hydrogens(mol)
        coords = embed_3d(xmol, _record_seed(seed, idx))
        h, s = huckel_labels(xmol, coords)
        n_elec = electron_count(xmol.elements)
        _, _, gap_ev = frontier(h, s, n_elec)
        return DatasetRecord(
            smiles=smiles,
            elements=list(xmol.elements),
            coords=coords,
            h=h,
            s=s,
            n_electrons=n_elec,
            gap_ev=gap_ev,
            split="",
        )
    except MolhamError as err:
        return {"index": idx, "smiles": smiles,
                "error": type(err).__name__, "detail": str(err)}


def generate_records(corpus: list[str], seed: int) -> GenReport:
    """Embed, label, and solve every corpus entry in order; failures are recorded.

    Per-record work is deterministic given (corpus index, seed).
    """
    report = GenReport()
    for idx, smiles in enumerate(corpus):
        res = _generate_one(idx, smiles, seed)
        if isinstance(res, DatasetRecord):
            report.records.append(res)
        else:
            report.skipped.append(res)
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
    out = Path(out_dir)
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
        sets.append(Dataset(records))
    path = out / "manifest.json"
    return sets[0], sets[1], json_object(path.read_bytes(), path)
