"""Gap-threshold screening, classification metrics, and timing harness."""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import oracle
from .basis import electron_count
from .dataset import Dataset
from .errors import EmptyThresholds, LengthMismatch, NonFiniteValue
from .hamhead import layout
from .model import Model
from .oracle import embed_3d, huckel_labels
from .smiles import expand_hydrogens, parse, parse_smiles, tokenize
from .spectral import orbitals
from .training import gap_predictions


def default_thresholds() -> list[float]:
    """Screening thresholds in eV: 0.26 through 0.36, step 0.02."""
    return [0.26, 0.28, 0.30, 0.32, 0.34, 0.36]


@dataclass(frozen=True)
class ThresholdRow:
    threshold_ev: float
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    recall: float
    precision: float


def _check_thresholds(thresholds: list[float]) -> None:
    if not thresholds:
        raise EmptyThresholds("need at least one screening threshold")
    if not np.isfinite(thresholds).all():
        raise NonFiniteValue(f"screening thresholds must be finite, got {thresholds}")


def classify_by_gap(gaps_pred: np.ndarray, gaps_true: np.ndarray,
                    thresholds: list[float]) -> list[ThresholdRow]:
    """Confusion counts per threshold; positive class means gap > threshold.

    Recall and precision default to 1.0 when their denominators are empty
    (no actual or no predicted positives).
    """
    gaps_pred = np.asarray(gaps_pred, dtype=np.float64)
    gaps_true = np.asarray(gaps_true, dtype=np.float64)
    if gaps_pred.shape != gaps_true.shape or gaps_pred.ndim != 1:
        raise LengthMismatch(f"gap vectors differ: {gaps_pred.shape} vs {gaps_true.shape}")
    _check_thresholds(thresholds)
    rows = []
    n = gaps_pred.size
    for thr in thresholds:
        pred = gaps_pred > thr
        true = gaps_true > thr
        tp = int(np.sum(pred & true))
        fp = int(np.sum(pred & ~true))
        tn = int(np.sum(~pred & ~true))
        fn = int(np.sum(~pred & true))
        rows.append(ThresholdRow(
            threshold_ev=thr, tp=tp, fp=fp, tn=tn, fn=fn,
            accuracy=(tp + tn) / n if n else 1.0,
            recall=tp / (tp + fn) if (tp + fn) else 1.0,
            precision=tp / (tp + fp) if (tp + fp) else 1.0,
        ))
    return rows


def report_to_csv(rows: list[ThresholdRow]) -> str:
    head = "threshold_ev,tp,fp,tn,fn,accuracy,recall,precision"
    body = [f"{r.threshold_ev},{r.tp},{r.fp},{r.tn},{r.fn},"
            f"{repr(r.accuracy)},{repr(r.recall)},{repr(r.precision)}" for r in rows]
    return "\n".join([head] + body) + "\n"


def report_to_json(rows: list[ThresholdRow], extra: dict | None = None) -> str:
    payload = {"rows": [asdict(r) for r in rows]}
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=1) + "\n"


@dataclass
class BenchReport:
    repeat: int
    n_molecules: int
    string_path_s_per_1000: float
    geometry_path_s_per_1000: float
    reference_path_s_per_1000: float
    embed_calls_string_path: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1) + "\n"


def bench_pipelines(model: Model, dataset: Dataset, repeat: int = 3,
                    limit: int | None = None) -> BenchReport:
    """Median wall-clock per 1000 molecules for the three inference routes.

    The string path runs tokenizer + token encoder + prediction head and, by
    construction, never generates coordinates (audited via the embed-call
    counter). The geometry path regenerates coordinates and runs the fused
    inference; the reference path regenerates coordinates and recomputes the
    semi-empirical labels plus the spectral solve. Molecule i embeds with seed i.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, got {repeat}")
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    records = dataset.records[:limit]
    smiles = [r.smiles for r in records]
    n = len(smiles)
    scale = 1000.0 / max(1, n)

    def timed(fn) -> float:
        samples = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * scale)
        return statistics.median(samples)

    leaves = model.leaves(None)

    def string_path() -> None:
        for s in smiles:
            tokens = tokenize(s)
            xmol = expand_hydrogens(parse(tokens))
            model.hamiltonian_from_tokens(leaves, tokens, xmol, layout(xmol.elements))

    def geometry_path() -> None:
        for i, s in enumerate(smiles):
            tokens = tokenize(s)
            xmol = expand_hydrogens(parse(tokens))
            coords = embed_3d(xmol, i)
            model.hamiltonian_fused(leaves, tokens, xmol, layout(xmol.elements), coords)

    def reference_path() -> None:
        for i, s in enumerate(smiles):
            xmol = expand_hydrogens(parse_smiles(s))
            coords = embed_3d(xmol, i)
            h, s_mat = huckel_labels(xmol, coords)
            orbitals(h, s_mat, electron_count(xmol.elements))

    calls_before = oracle.EMBED_CALLS
    t_string = timed(string_path)
    calls_during_string = oracle.EMBED_CALLS - calls_before
    t_geom = timed(geometry_path)
    t_ref = timed(reference_path)
    return BenchReport(
        repeat=repeat,
        n_molecules=n,
        string_path_s_per_1000=t_string,
        geometry_path_s_per_1000=t_geom,
        reference_path_s_per_1000=t_ref,
        embed_calls_string_path=calls_during_string,
    )


def screen_dataset(model: Model, dataset: Dataset, thresholds: list[float],
                   fusion: bool = False) -> list[ThresholdRow]:
    _check_thresholds(thresholds)
    pred, true = gap_predictions(model, dataset, fusion)
    return classify_by_gap(pred, true, thresholds)
