"""The training step loop of both stages, optimizer, checkpoints, and evaluation.

Both stages are deterministic for a given seed: batch order, fragment-mask
draws, and gradient accumulation all derive from seeded generators and a
fixed reduction order, so runs on one machine reproduce bit-for-bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .atomic import atomic_open, atomic_write_text, read_framed, write_framed
from . import autodiff as ad
from .autodiff import Tape
from .dataset import Dataset
from .errors import CorruptFile, TrainingAborted, VersionMismatch
from .hamhead import layout
from .model import Model, ModelConfig, MolStructure, mol_structure
from .smiles import expand_hydrogens, fragment, parse, tokenize
from .spectral import mae_blocks, mae_energies, orbital_similarity, orbitals

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
        if not 0.0 <= self.lambda2 <= 1.0:
            raise ValueError("lambda2 must lie in [0, 1]")
        if not 0.0 <= self.mask_keep_prob <= 1.0:
            raise ValueError("mask keep probability must lie in [0, 1]")
        for key in ("lr", "lambda1", "encoder_lr_scale"):  # `not` so that NaN fails too
            if not 0.0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be non-negative and finite, got {getattr(self, key)}")


class Adam:
    """Adam over a parameter vector, with one learning rate per value. A step
    updates only the contiguous runs of `live` values: a group without a
    gradient keeps its values and moments rather than moving through `m`."""

    def __init__(self, rates: np.ndarray):
        self.rates = rates
        self.step_count = 0
        self.m = np.zeros_like(rates)
        self.v = np.zeros_like(rates)

    def step(self, vector: np.ndarray, grad: np.ndarray, live: np.ndarray) -> None:
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
        for run in map(slice, edges[::2], edges[1::2]):
            m, v, g = self.m[run], self.v[run], grad[run]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            vector[run] -= self.rates[run] * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


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


def _check_finite(terms: np.ndarray, what: str, batch: list[int]) -> None:
    """Raise TrainingAborted naming the first record whose loss term is not
    finite; a non-finite term shared by the whole batch names its first record."""
    if np.isfinite(terms).all():
        return
    bad = np.flatnonzero(~np.isfinite(terms))
    index = batch[int(bad[0])] if bad.size else batch[0]
    raise TrainingAborted(f"non-finite {what} at record {index}", index)


def _check_grads(model: Model, grad: np.ndarray, stage: str, step: int) -> None:
    """Raise TrainingAborted naming the first parameter whose gradient is not
    finite, before the optimizer writes any of them."""
    finite = np.isfinite(grad)
    if not finite.all():
        ends = [s.stop for s in model.slices.values()]
        name = list(model.slices)[int(np.searchsorted(ends, np.argmin(finite), side="right"))]
        raise TrainingAborted(f"non-finite {stage} gradient of {name} at step {step}")


def _fit(model: Model, config: TrainConfig, n: int, rates: np.ndarray, salt: int,
         batch_loss: Callable, frozen: tuple[str, ...] = (),
         draw: Callable | None = None) -> tuple[list[TraceRow], dict]:
    """Both stages' step loop over n records. An epoch runs `draw(rng)`, if given,
    before its batch order; `batch_loss(leaves, batch, drawn)` gives (total, other parts)."""
    stage = {"pretrain": "pre-training", "finetune": "fine-tuning"}[config.stage]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, salt])))
    opt = Adam(rates)
    rows: list[TraceRow] = []
    for epoch in range(config.epochs):
        drawn = draw(rng) if draw else None
        order = rng.permutation(n).tolist()
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            tape = Tape()
            leaves = model.leaves(tape, frozen_prefixes=frozen)
            total, parts = batch_loss(leaves, batch, drawn)
            tape.backward(total)
            grad, live = model.grads(tape, leaves)
            _check_grads(model, grad, stage, len(rows))
            opt.step(model.vector, grad, live)
            rows.append(TraceRow(len(rows), epoch, {"loss_total": total.item(), **parts}))
    return rows, rng.bit_generator.state


def pretrain(model: Model, dataset: Dataset, config: TrainConfig) -> tuple[list[TraceRow], dict]:
    """Both-modality pre-training; returns the loss trace and final RNG state."""
    if config.stage != "pretrain":
        raise ValueError(f"pretrain needs a pretrain config, got stage {config.stage!r}")
    structs = prepare(dataset)
    coords = [dataset.get_coords(i) for i in range(len(dataset))]

    def batch_loss(leaves, batch, _):
        total, d_terms, part_l = model.pretrain_batch_loss(
            leaves, [structs[i] for i in batch], [coords[i] for i in batch], config.lambda1)
        _check_finite(d_terms.data, "pre-training loss", batch)
        _check_finite(total.data, "pre-training loss", batch)
        return total, {"loss_discrepancy": float(d_terms.data.mean()),
                       "loss_contrastive": part_l.item()}

    return _fit(model, config, len(structs), np.full(model.vector.shape, config.lr), 11,
                batch_loss)


def finetune(model: Model, dataset: Dataset, config: TrainConfig) -> tuple[list[TraceRow], dict]:
    """Masked weakly-supervised fine-tuning on strings (plus geometry if fused).

    The string-only path never touches coordinates; with fusion enabled the
    token encoder group is frozen and the geometry encoder keeps training.
    """
    if config.stage != "finetune":
        raise ValueError(f"finetune needs a finetune config, got stage {config.stage!r}")
    structs = prepare(dataset)
    coords = [dataset.get_coords(i) for i in range(len(dataset))] if config.fusion else None
    scales = [config.encoder_lr_scale if name.startswith(("token.", "geom.")) else 1.0
              for name in model.params]
    rates = config.lr * np.repeat(scales, [a.size for a in model.params.values()])

    def draw(rng):
        return [[1 if rng.random() < config.mask_keep_prob else 0 for _ in range(s.n_fragments)]
                for s in structs]

    def batch_loss(leaves, batch, masks):
        terms = model.finetune_batch_loss(
            leaves, [structs[i] for i in batch], [masks[i] for i in batch],
            [dataset.records[i].h for i in batch], config.lambda2,
            [coords[i] for i in batch] if config.fusion else None)
        _check_finite(terms.data, "fine-tuning loss", batch)
        return ad.mean(terms), {}

    return _fit(model, config, len(structs), rates, 13, batch_loss,
                ("token.",) if config.fusion else (), draw)


# --- checkpoints ---

def _param_entries(model: Model) -> list[dict]:
    """The manifest's `params` list: each group's name, shape and blob offset."""
    return [{"name": name, "shape": list(a.shape), "offset": 8 * model.slices[name].start}
            for name, a in model.params.items()]


def save_checkpoint(path: str | Path, model: Model, train_config: TrainConfig | None,
                    rng_state: dict | None) -> None:
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(model.config),
        "train_config": None if train_config is None else asdict(train_config),
        "params": _param_entries(model),
        "rng_state": rng_state,
    }
    write_framed(path, _CKPT_MAGIC, manifest,
                 np.ascontiguousarray(model.vector, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[Model, dict | None, dict | None]:
    manifest, blob = read_framed(path, _CKPT_MAGIC, "checkpoint")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"checkpoint format {manifest.get('format_version')} != {CHECKPOINT_VERSION}")
    missing = sorted({"model_config", "params"} - manifest.keys())
    if missing:
        raise CorruptFile(f"{path} manifest lacks {', '.join(missing)}")
    try:
        config = ModelConfig(**manifest["model_config"])
    except (TypeError, ValueError) as err:
        raise CorruptFile(f"{path} has an invalid model_config: {err}") from None
    try:
        shapes = {entry["name"]: tuple(entry["shape"]) for entry in manifest["params"]}
    except (KeyError, TypeError) as err:
        raise CorruptFile(f"{path} has a malformed params list: {err}") from None
    model = Model.zeros(config)
    built = {name: a.shape for name, a in model.params.items()}
    if shapes != built:
        wrong = sorted(n for n in built.keys() | shapes.keys() if built.get(n) != shapes.get(n))
        raise CorruptFile(f"{path} params do not match its model_config at {', '.join(wrong[:4])}")
    if manifest["params"] != _param_entries(model) or len(blob) != model.vector.nbytes:
        raise CorruptFile(f"{path} has a malformed params list: not its model_config's layout")
    model.vector[:] = np.frombuffer(blob, "<f8")
    return model, manifest.get("train_config"), manifest.get("rng_state")


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
        pred.append(orbitals(h_pred, rec.s, rec.n_electrons).gap_ev)
        true.append(rec.gap_ev)
    return np.asarray(pred), np.asarray(true)
