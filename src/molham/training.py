"""Training loops, optimizer, checkpoints, and evaluation.

Both stages are deterministic for a given seed: batch order, fragment-mask
draws, and gradient accumulation all derive from seeded generators and a
fixed reduction order, so runs on one machine reproduce bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open, atomic_write_text
from . import autodiff as ad
from .autodiff import Tape
from .dataset import Dataset
from .errors import CorruptFile, TrainingAborted, VersionMismatch, json_object
from .hamhead import layout
from .model import Model, ModelConfig, MolStructure, check_compatible, mol_structure
from .smiles import expand_hydrogens, fragment, parse, tokenize
from .spectral import frontier, mae_blocks, mae_energies, orbital_similarity, orbitals

CHECKPOINT_VERSION = 1
_CKPT_MAGIC = b"MHCK0001"

# Adam's moment decay rates and denominator guard, fixed for every stage
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    stage: str = "pretrain"            # pretrain | finetune
    epochs: int = 10
    batch_size: int = 16
    lr: float = 1e-3
    lambda1: float = 0.5               # weight of the auxiliary discrepancy term
    lambda2: float = 0.8               # weight of the full-string prediction term
    mask_keep_prob: float = 0.85       # per-fragment keep probability
    seed: int = 0
    fusion: bool = False               # string+geometry inference path
    encoder_lr_scale: float = 1.0      # fine-tune rate multiplier for encoder groups

    def __post_init__(self):
        if self.stage not in ("pretrain", "finetune"):
            raise ValueError(f"stage must be pretrain or finetune, got {self.stage!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.lambda1 < 0:
            raise ValueError("lambda1 must be non-negative")
        if not 0.0 <= self.lambda2 <= 1.0:
            raise ValueError("lambda2 must lie in [0, 1]")
        if not 0.0 <= self.mask_keep_prob <= 1.0:
            raise ValueError("mask keep probability must lie in [0, 1]")
        if self.encoder_lr_scale < 0:
            raise ValueError("encoder lr scale must be non-negative")


class Adam:
    """Adam with deterministic parameter iteration order.

    `rate_scales` maps name prefixes to learning-rate multipliers, applied to
    the first matching prefix (used for slower fine-tuning of pretrained
    encoder groups).
    """

    def __init__(self, lr: float, rate_scales: dict[str, float] | None = None):
        self.lr = lr
        self.rate_scales = rate_scales or {}
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def _rate(self, name: str) -> float:
        for prefix, scale in self.rate_scales.items():
            if name.startswith(prefix):
                return self.lr * scale
        return self.lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray | None]) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, arr in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            arr -= self._rate(name) * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def prepare(dataset: Dataset) -> list[MolStructure]:
    """Each record's training structures, fragments included: built once from
    its tokens and reused across epochs. Evaluation builds none of them."""
    out = []
    for rec in dataset.records:
        tokens = tokenize(rec.smiles)
        mol = parse(tokens)
        xmol = expand_hydrogens(mol)
        out.append(mol_structure(tokens, xmol, fragment(mol), layout(xmol.elements)))
    return out


@dataclass
class TraceRow:
    step: int
    epoch: int
    parts: dict[str, float]

    def values(self) -> list[float]:
        return [v for _, v in sorted(self.parts.items())]


def write_trace(path: str | Path, rows: list[TraceRow]) -> None:
    if not rows:
        atomic_write_text(path, "step,epoch\n")
        return
    cols = sorted(rows[0].parts)
    with atomic_open(path) as fh:
        fh.write("step,epoch," + ",".join(cols) + "\n")
        for r in rows:
            fh.write(f"{r.step},{r.epoch}," + ",".join(repr(r.parts[c]) for c in cols) + "\n")


def _batches(order: np.ndarray, size: int) -> list[list[int]]:
    return [list(map(int, order[i:i + size])) for i in range(0, len(order), size)]


def _check_finite(terms: np.ndarray, what: str, batch: list[int]) -> None:
    """Raise TrainingAborted naming the first record whose loss term is not
    finite; a non-finite term shared by the whole batch names its first record."""
    if np.isfinite(terms).all():
        return
    bad = np.flatnonzero(~np.isfinite(terms))
    index = batch[int(bad[0])] if bad.size else batch[0]
    raise TrainingAborted(f"non-finite {what} at record {index}", index)


def _check_grads(grads: dict[str, np.ndarray | None], stage: str, step: int) -> None:
    """Raise TrainingAborted naming the first parameter whose gradient is not
    finite, before the optimizer writes any of them."""
    for name, g in grads.items():
        if g is not None and not np.isfinite(g).all():
            raise TrainingAborted(f"non-finite {stage} gradient of {name} at step {step}")


def pretrain(model: Model, dataset: Dataset, config: TrainConfig) -> tuple[list[TraceRow], dict]:
    """Both-modality pre-training; returns the loss trace and final RNG state."""
    structs = prepare(dataset)
    coords = [dataset.get_coords(i) for i in range(len(dataset))]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 11])))
    opt = Adam(config.lr)
    rows: list[TraceRow] = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(structs))
        for batch in _batches(order, config.batch_size):
            tape = Tape()
            leaves = model.leaves(tape)
            molecules = [{"structure": structs[i], "coords": coords[i]} for i in batch]
            total, d_terms, part_l = model.pretrain_batch_loss(leaves, molecules, config.lambda1)
            _check_finite(d_terms.data, "pre-training loss", batch)
            _check_finite(total.data, "pre-training loss", batch)
            tape.backward(total)
            grads = model.grads(tape, leaves)
            _check_grads(grads, "pre-training", step)
            opt.step(model.params, grads)
            rows.append(TraceRow(step, epoch, {
                "loss_total": total.item(),
                "loss_discrepancy": float(d_terms.data.mean()),
                "loss_contrastive": part_l.item(),
            }))
            step += 1
    return rows, rng.bit_generator.state


def _mask_vectors(structs: list[MolStructure], rng: np.random.Generator,
                  keep_prob: float) -> list[list[int]]:
    return [[1 if rng.random() < keep_prob else 0 for _ in range(s.n_fragments)]
            for s in structs]


def finetune(model: Model, dataset: Dataset, config: TrainConfig) -> tuple[list[TraceRow], dict]:
    """Masked weakly-supervised fine-tuning on strings (plus geometry if fused).

    The string-only path never touches coordinates; with fusion enabled the
    token encoder group is frozen and the geometry encoder keeps training.
    """
    structs = prepare(dataset)
    coords = [dataset.get_coords(i) for i in range(len(dataset))] if config.fusion else None
    targets = [rec.h for rec in dataset.records]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 13])))
    scales = None
    if config.encoder_lr_scale != 1.0:
        scales = {"token.": config.encoder_lr_scale, "geom.": config.encoder_lr_scale}
    opt = Adam(config.lr, rate_scales=scales)
    frozen = ("token.",) if config.fusion else ()
    rows: list[TraceRow] = []
    step = 0
    for epoch in range(config.epochs):
        masks = _mask_vectors(structs, rng, config.mask_keep_prob)
        order = rng.permutation(len(structs))
        for batch in _batches(order, config.batch_size):
            tape = Tape()
            leaves = model.leaves(tape, frozen_prefixes=frozen)
            terms = model.finetune_batch_loss(
                leaves, [structs[i] for i in batch], [masks[i] for i in batch],
                [targets[i] for i in batch], config.lambda2,
                [coords[i] for i in batch] if config.fusion else None)
            _check_finite(terms.data, "fine-tuning loss", batch)
            total = ad.mean(terms)
            tape.backward(total)
            grads = model.grads(tape, leaves)
            _check_grads(grads, "fine-tuning", step)
            opt.step(model.params, grads)
            rows.append(TraceRow(step, epoch, {"loss_total": total.item()}))
            step += 1
    return rows, rng.bit_generator.state


# --- checkpoints ---

def save_checkpoint(path: str | Path, model: Model, train_config: TrainConfig | None,
                    rng_state: dict | None) -> None:
    names = list(model.params)
    blob = b"".join(np.ascontiguousarray(model.params[n], dtype="<f8").tobytes() for n in names)
    entries = []
    offset = 0
    for n in names:
        size = model.params[n].size * 8
        entries.append({"name": n, "shape": list(model.params[n].shape), "offset": offset})
        offset += size
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": model.config_dict(),
        "train_config": None if train_config is None else asdict(train_config),
        "params": entries,
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "rng_state": _jsonable_rng(rng_state),
    }
    payload = json.dumps(manifest, sort_keys=True).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
        fh.write(blob)


def _jsonable_rng(state: dict | None):
    if state is None:
        return None
    out = dict(state)
    if isinstance(out.get("state"), dict):
        out["state"] = {k: int(v) if isinstance(v, (int, np.integer)) else v
                        for k, v in out["state"].items()}
    return out


def load_checkpoint(path: str | Path,
                    expect: ModelConfig | None = None) -> tuple[Model, dict | None, dict | None]:
    raw = Path(path).read_bytes()
    if len(raw) < len(_CKPT_MAGIC) + 8 or raw[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CorruptFile(f"{path} is not a checkpoint file")
    n = struct.unpack("<Q", raw[len(_CKPT_MAGIC):len(_CKPT_MAGIC) + 8])[0]
    head_end = len(_CKPT_MAGIC) + 8 + n
    if len(raw) < head_end:
        raise CorruptFile(f"{path} is truncated inside the manifest")
    manifest = json_object(raw[len(_CKPT_MAGIC) + 8:head_end], f"{path} manifest")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"checkpoint format {manifest.get('format_version')} != {CHECKPOINT_VERSION}")
    missing = sorted({"blob_sha256", "model_config", "params"} - manifest.keys())
    if missing:
        raise CorruptFile(f"{path} manifest lacks {', '.join(missing)}")
    blob = raw[head_end:]
    if hashlib.sha256(blob).hexdigest() != manifest["blob_sha256"]:
        raise CorruptFile(f"{path} failed its content checksum")
    try:
        config = ModelConfig(**manifest["model_config"])
    except (TypeError, ValueError) as err:
        raise CorruptFile(f"{path} has an invalid model_config: {err}") from None
    params: dict[str, np.ndarray] = {}
    try:
        for entry in manifest["params"]:
            shape = tuple(entry["shape"])
            start = entry["offset"]
            end = start + 8 * int(np.prod(shape, dtype=np.int64))
            if not 0 <= start <= end <= len(blob):
                raise ValueError(f"{entry['name']} lies outside the parameter blob")
            params[entry["name"]] = np.frombuffer(blob[start:end], "<f8").reshape(shape).copy()
    except (KeyError, TypeError, ValueError) as err:
        raise CorruptFile(f"{path} has a malformed params list: {err}") from None
    shapes = {name: a.shape for name, a in params.items()}
    if expect is not None:
        check_compatible(expect, config, shapes)
    built = {name: a.shape for name, a in Model.init(config, 0).params.items()}
    if shapes != built:
        wrong = sorted(n for n in built.keys() | shapes.keys() if built.get(n) != shapes.get(n))
        raise CorruptFile(f"{path} params do not match its model_config at {', '.join(wrong[:4])}")
    return Model(config, params), manifest.get("train_config"), manifest.get("rng_state")


# --- evaluation ---

def _predictions(model: Model, dataset: Dataset, fusion: bool):
    """Each record with its layout and predicted matrix, one molecule at a
    time through the per-molecule entry: the string path or, with `fusion`,
    the string+geometry path."""
    leaves = model.leaves(None)
    for i, rec in enumerate(dataset.records):
        tokens = tokenize(rec.smiles)
        xmol = expand_hydrogens(parse(tokens))
        lay = layout(xmol.elements)
        if fusion:
            h = model.hamiltonian_fused(leaves, tokens, xmol, lay, dataset.get_coords(i))
        else:
            h = model.hamiltonian_from_tokens(leaves, tokens, xmol, lay)
        yield rec, lay, h.data


def evaluate(model: Model, dataset: Dataset, fusion: bool = False) -> dict:
    """Block MAEs, occupied-energy MAE, and orbital similarity over a dataset.

    Predictions use the string path (optionally fused with geometry); the
    overlap matrix comes from each record's stored oracle geometry. Both the
    predicted and the stored Hamiltonian are solved with `orbitals`, the
    LAPACK route, on every call.
    """
    sums = {"mae_diag": 0.0, "mae_offdiag": 0.0, "mae_all": 0.0,
            "mae_eps_occ": 0.0, "psi_occ": 0.0}
    count = 0
    for rec, lay, h_pred in _predictions(model, dataset, fusion):
        res_pred = orbitals(h_pred, rec.s, rec.n_electrons)
        res_true = orbitals(rec.h, rec.s, rec.n_electrons)
        d, o, a = mae_blocks(h_pred, rec.h, lay)
        sums["mae_diag"] += d
        sums["mae_offdiag"] += o
        sums["mae_all"] += a
        sums["mae_eps_occ"] += mae_energies(res_pred.eigenvalues, res_true.eigenvalues,
                                            res_true.n_occupied)
        sums["psi_occ"] += orbital_similarity(res_pred.coefficients, res_true.coefficients,
                                              res_pred.eigenvalues, res_true.eigenvalues,
                                              res_true.n_occupied)
        count += 1
    out = {k: v / max(1, count) for k, v in sums.items()}
    out["count"] = count
    return out


def gap_predictions(model: Model, dataset: Dataset, fusion: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(predicted, true) gap vectors in eV for a dataset."""
    pred, true = [], []
    for rec, _, h_pred in _predictions(model, dataset, fusion):
        pred.append(frontier(h_pred, rec.s, rec.n_electrons)[2])
        true.append(rec.gap_ev)
    return np.asarray(pred), np.asarray(true)
