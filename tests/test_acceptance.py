"""Acceptance suite: one test per release criterion.

Each criterion prints a [PASS]/[FAIL] line; run with `pytest -s` (or -rA) to
see them. The end-to-end learning criteria share one trained pipeline built
by module-scoped fixtures, so this module takes several minutes in total.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import molham.autodiff as ad
from _oracles import random_spd, random_symmetric
from molham.autodiff import constant, grad_check
from molham.compensation import (
    apply_compensation,
    attention_matrix,
    build_rotation,
    disentangle,
    neutral_params,
)
from molham.corpus import build_corpus
from molham.dataset import Dataset, SplitConfig, assign_split, generate_records
from molham.encoders import element_ids, encode_geometry, geom_batch
from molham.hamhead import _value_index, head_plan, layout, predict_hamiltonian
from molham.model import Model, ModelConfig, mol_structure, padding
from molham.oracle import embed_3d, huckel_labels
from molham.screening import bench_pipelines, classify_by_gap, default_thresholds, screen_dataset
from molham.smiles import expand_hydrogens, fragment, parse_smiles, tokenize
from molham.spectral import (
    jacobi_eigh,
    lowdin_inv_sqrt,
    mae_blocks,
    mae_energies,
    orbital_similarity,
    solve_gev,
)
from molham.training import TrainConfig, evaluate, finetune, pretrain

SEED = 2024
PRETRAIN = dict(epochs=6, lr=1e-3, batch_size=16, seed=1)
FINETUNE = dict(epochs=24, lr=1.5e-3, batch_size=16, seed=1, encoder_lr_scale=0.1)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


# --- shared pipeline fixtures ---

@pytest.fixture(scope="module")
def toy_data():
    corpus = [s for s in build_corpus() if parse_smiles(s).n_atoms <= 9][:500]
    assert len(corpus) == 500
    records = generate_records(corpus, seed=SEED).records
    train_idx, test_idx = assign_split(records, SplitConfig("random-id", seed=SEED))
    return (Dataset([records[i] for i in train_idx]),
            Dataset([records[i] for i in test_idx]),
            records)


@pytest.fixture(scope="module")
def trained(toy_data):
    """Full pipeline plus its two ablations, with the wall-clock they took."""
    train, test, _ = toy_data
    t0 = time.perf_counter()

    def build(compensation: bool, do_pretrain: bool) -> Model:
        model = Model.init(ModelConfig(compensation=compensation), seed=1)
        if do_pretrain:
            pretrain(model, Dataset(train.records), TrainConfig("pretrain", **PRETRAIN))
        finetune(model, Dataset(train.records), TrainConfig("finetune", **FINETUNE))
        return model

    full = build(True, True)
    token_only = build(True, False)
    no_comp = build(False, True)
    untrained = Model.init(ModelConfig(), seed=1)
    metrics = {
        "full": evaluate(full, test),
        "token_only": evaluate(token_only, test),
        "no_comp": evaluate(no_comp, test),
        "untrained": evaluate(untrained, test),
    }
    elapsed = time.perf_counter() - t0
    return {"full": full, "metrics": metrics, "elapsed_s": elapsed}


# --- criteria ---

def test_criterion_01_numerical_core():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        a = random_symmetric(rng, n)
        w, v = jacobi_eigh(a)
        scale = np.abs(a).max()
        assert np.max(np.abs(a @ v - v * w)) < 1e-10 * scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        h = random_symmetric(rng, n)
        s = random_spd(rng, n)
        x = lowdin_inv_sqrt(s)
        assert np.max(np.abs(x @ s @ x - np.eye(n))) < 1e-8
        res = solve_gev(h, s, 2)
        assert np.max(np.abs(h @ res.coefficients
                             - s @ res.coefficients * res.eigenvalues)) < 1e-8
        gram = res.coefficients.T @ s @ res.coefficients
        assert np.max(np.abs(gram - np.eye(n))) < 1e-8
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 60.0,
            f"eigensolver/orthogonalization property sweep in {elapsed:.1f}s (< 60s)")


def test_criterion_02_compensation_algebra():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        d = int(rng.integers(2, 65))
        r = build_rotation(constant(rng.uniform(-np.pi, np.pi, (1, 1, d - 1))), d).data[0]
        assert np.max(np.abs(r.T @ r - np.eye(d))) < 1e-10

    t = rng.standard_normal((1, 7, 16))
    ident = apply_compensation(constant(t), neutral_params(16, 4)).data
    assert np.array_equal(ident, t)

    model = Model.init(ModelConfig(width=16, token_layers=1, geom_rounds=1, n_rbf=4,
                                   n_shear=4, head_hidden=8), seed=2)
    lv = model.leaves(None)
    _, v_minus = disentangle(constant(rng.standard_normal((1, 1, 16))),
                             constant(rng.standard_normal((1, 1, 16))),
                             model.disentangler(lv), padding([1]))
    assert np.all(v_minus.data == 0.0)

    beta = attention_matrix(constant(rng.standard_normal((1, 6, 16))),
                            constant(rng.standard_normal((1, 6, 16))),
                            model.disentangler(lv), padding([6])).data[0]
    assert np.max(np.abs(beta.sum(axis=1) - 1.0)) <= 1e-12
    _report(2, True, "rotation orthogonality, neutral identity, single-atom zeroing, "
                     "attention row sums")


def test_criterion_03_differentiation():
    rng = np.random.default_rng(13)
    cfg = ModelConfig(width=6, token_layers=1, geom_rounds=1, n_rbf=4, n_shear=2,
                      head_hidden=5)
    base = Model.init(cfg, seed=3)
    for name in base.params:  # move structural zeros so every path carries gradient
        if name.startswith(("gen.", "head.")):
            base.params[name][...] += 0.1 * rng.standard_normal(base.params[name].shape)

    smiles = "CCOCC"  # two fragments
    tokens = tokenize(smiles)
    mol = parse_smiles(smiles)
    frags = fragment(mol)
    xmol = expand_hydrogens(mol)
    coords = embed_3d(xmol, 5)
    lay = layout(xmol.elements)
    target = rng.standard_normal((lay.n_orb, lay.n_orb)) * 0.3
    structure = mol_structure(tokens, xmol, frags, lay)

    worst = 0.0
    for name in base.params:
        def f_pre(x, name=name):
            m = Model(cfg, dict(base.params))
            lv = m.leaves(None)
            lv[name] = x
            return m.pretrain_batch_loss(lv, [structure], [coords], 0.5)[0]

        def f_fine(x, name=name):
            m = Model(cfg, dict(base.params))
            lv = m.leaves(None)
            lv[name] = x
            return m.finetune_batch_loss(lv, [structure], [[1, 0]], [target], 0.8)

        worst = max(worst, grad_check(f_pre, base.params[name], eps=1e-5))
        worst = max(worst, grad_check(f_fine, base.params[name], eps=1e-5))
        assert worst < 1e-4, name
    _report(3, worst < 1e-4,
            f"central-difference check of both losses over every tensor: max err {worst:.2e}")


def test_criterion_04_symmetry_invariance():
    rng = np.random.default_rng(14)
    model = Model.init(ModelConfig(), seed=4)
    lv = model.leaves(None)
    head = model.head(lv)

    def matrix(emb, lay):  # one molecule's matrix through a batch-of-one head plan
        index = _value_index(lay)
        plan = head_plan([index], [lay.n_atoms], lay.n_atoms)
        return predict_hamiltonian(constant(emb[None]), plan, head).data.reshape(index.shape)

    # bit-exact symmetry of predictions
    for smiles in ("CCO", "c1ccccc1", "CSC"):
        xmol = expand_hydrogens(parse_smiles(smiles))
        lay = layout(xmol.elements)
        h = matrix(rng.standard_normal((xmol.n_atoms, 32)), lay)
        assert np.array_equal(h, h.T)

    # rigid-motion invariance of the geometry encoder and the oracle labels
    xmol = expand_hydrogens(parse_smiles("CCO"))
    coords = embed_3d(xmol, 2)
    cfg = model.config

    def geom_rows(xyz):
        batch = geom_batch([element_ids(xmol.elements)], [xyz], cfg.cutoff, cfg.n_rbf)
        return encode_geometry(batch, model.geom_encoder(lv)).data[0]

    base_emb = geom_rows(coords)
    base_h, base_s = huckel_labels(xmol, coords)
    for _ in range(100):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        moved = coords @ q.T + rng.standard_normal(3)
        assert np.max(np.abs(geom_rows(moved) - base_emb)) < 1e-10
        h1, _ = huckel_labels(xmol, moved)
        assert np.max(np.abs(h1 - base_h)) < 1e-10

    # exact sign-flip invariance of the orbital-similarity metric
    c_pred = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    c_true = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    eps = np.arange(6.0)
    base_psi = orbital_similarity(c_pred, c_true, eps, eps, 3)
    for _ in range(20):
        signs = rng.choice([-1.0, 1.0], size=6)
        assert orbital_similarity(c_pred * signs, c_true, eps, eps, 3) == base_psi

    # relabeling permutes the matrix block-wise
    elements = ["C", "O", "H", "N", "H"]
    emb = rng.standard_normal((5, 32))
    lay = layout(tuple(elements))
    h = matrix(emb, lay)
    for _ in range(5):
        perm = rng.permutation(5)
        lay_p = layout(tuple(elements[i] for i in perm))
        h_p = matrix(emb[perm], lay_p)
        orb_perm = np.concatenate(
            [np.arange(lay.offsets[a], lay.offsets[a] + lay.counts[a]) for a in perm])
        assert np.max(np.abs(h_p - h[np.ix_(orb_perm, orb_perm)])) < 1e-12
    _report(4, True, "bit-exact symmetry, rigid-motion invariance < 1e-10, exact sign-flip "
                     "invariance, relabeling < 1e-12")


def test_criterion_05_metric_fixtures():
    lay = layout(("C", "H"))
    h_true = np.zeros((3, 3))
    h_pred = np.zeros((3, 3))
    h_pred[:2, :2] = 0.1
    h_pred[2, 2] = 0.3
    h_pred[:2, 2] = h_pred[2, :2] = 0.2
    diag, off, all_ = mae_blocks(h_pred, h_true, lay)
    assert abs(diag - (4 * 0.1 + 0.3) / 5) < 1e-12
    assert abs(off - 0.2) < 1e-12
    assert abs(all_ - (0.4 + 0.3 + 0.8) / 9) < 1e-12

    assert abs(mae_energies(np.array([-1.0, -0.5, 0.2]),
                            np.array([-0.9, -0.6, 0.0]), 2) - 0.1) < 1e-12

    c_true = np.eye(3)
    c_pred = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    eps = np.arange(3.0)
    assert orbital_similarity(c_pred, c_true, eps, eps, 2) == 0.0
    assert orbital_similarity(np.diag([1.0, -1.0, 1.0]), c_true, eps, eps, 2) == 1.0

    (row,) = classify_by_gap(np.array([0.22, 0.29, 0.27, 0.35, 0.30, 0.41]),
                             np.array([0.20, 0.25, 0.28, 0.31, 0.33, 0.40]), [0.30])
    assert (row.tp, row.fp, row.tn, row.fn) == (2, 0, 3, 1)
    assert abs(row.accuracy - 5 / 6) < 1e-12
    assert abs(row.recall - 2 / 3) < 1e-12
    _report(5, True, "hand-computed fixtures reproduced to 1e-12")


def test_criterion_06_end_to_end_learning(trained):
    m = trained["metrics"]
    full = m["full"]["mae_all"]
    token_only = m["token_only"]["mae_all"]
    no_comp = m["no_comp"]["mae_all"]
    untrained = m["untrained"]["mae_all"]
    elapsed = trained["elapsed_s"]
    ok = (full < token_only and full < no_comp and full * 5.0 <= untrained
          and elapsed < 15 * 60)
    _report(6, ok,
            f"full {full:.5f} < token-only {token_only:.5f}, < no-compensation {no_comp:.5f}; "
            f"untrained/full {untrained / full:.1f}x (>= 5x); pipeline {elapsed / 60:.1f} min "
            f"(< 15)")


def test_criterion_07_generalization_splits():
    corpus = [s for s in build_corpus() if parse_smiles(s).n_atoms <= 12]
    picks = corpus[:: max(1, len(corpus) // 260)][:260]
    records = generate_records(picks, seed=31).records

    results = {}
    for mode in ("size-ood", "element-ood"):
        train_idx, test_idx = assign_split(records, SplitConfig(mode, seed=31))
        train = Dataset([records[i] for i in train_idx])
        test = Dataset([records[i] for i in test_idx])
        if mode == "size-ood":
            assert all(len(r.elements) < 20 for r in train.records)
            assert all(len(r.elements) > 23 for r in test.records)
        else:
            assert all(not any(e in ("S", "P") for e in r.elements) for r in train.records)
            assert all(any(e in ("S", "P") for e in r.elements) for r in test.records)
        model = Model.init(ModelConfig(), seed=1)
        finetune(model, train, TrainConfig("finetune", epochs=4, lr=1e-3, seed=1))
        mae = evaluate(model, test)["mae_all"]
        assert np.isfinite(mae)
        results[mode] = mae
    _report(7, True,
            f"split constraints exact; held-out mae_all size-ood {results['size-ood']:.5f}, "
            f"element-ood {results['element-ood']:.5f} (finite, reported)")


def test_criterion_08_screening(trained, toy_data):
    assert default_thresholds() == [0.26, 0.28, 0.30, 0.32, 0.34, 0.36]
    _, test, _ = toy_data
    rows = screen_dataset(trained["full"], test, default_thresholds())
    assert len(rows) == 6
    assert all(r.tp + r.fp + r.tn + r.fn == len(test) for r in rows)
    best_recall = max(r.recall for r in rows)
    soft = best_recall >= 0.9  # soft target; the hard criterion is the fixture below
    (row,) = classify_by_gap(np.array([0.22, 0.29, 0.27, 0.35, 0.30, 0.41]),
                             np.array([0.20, 0.25, 0.28, 0.31, 0.33, 0.40]), [0.30])
    assert (row.tp, row.fp, row.tn, row.fn) == (2, 0, 3, 1)
    _report(8, True,
            f"default thresholds exact; report produced (best recall {best_recall:.3f}, "
            f"soft target {'met' if soft else 'missed'}); hand fixture exact")


def test_criterion_09_timing(trained, toy_data):
    _, test, _ = toy_data
    report = bench_pipelines(trained["full"], test, repeat=3, limit=40)
    ok = (report.embed_calls_string_path == 0
          and report.string_path_s_per_1000 < report.geometry_path_s_per_1000)
    _report(9, ok,
            f"string path {report.string_path_s_per_1000:.1f}s/1000 < geometry path "
            f"{report.geometry_path_s_per_1000:.1f}s/1000; no coordinate generation in "
            f"the string path")


def test_criterion_10_reproducibility(tmp_path):
    from molham.cli import main

    corpus_path = tmp_path / "c.smi"
    picks = [s for s in build_corpus() if parse_smiles(s).n_atoms <= 6][:40]
    corpus_path.write_text("\n".join(picks) + "\n")
    flags = ["--width", "8", "--token-layers", "1", "--geom-rounds", "1",
             "--n-rbf", "4", "--n-shear", "2", "--head-hidden", "6"]

    def run(tag: str) -> dict:
        root = tmp_path / tag
        assert main(["gen-data", "--out", str(root / "data"), "--corpus", str(corpus_path),
                     "--seed", "5"]) == 0
        assert main(["pretrain", "--data", str(root / "data"), "--out", str(root / "pre"),
                     "--epochs", "2", "--seed", "5"] + flags) == 0
        assert main(["finetune", "--data", str(root / "data"), "--out", str(root / "ft"),
                     "--init", str(root / "pre" / "checkpoint.mh"),
                     "--epochs", "2", "--seed", "5"] + flags) == 0
        assert main(["eval", "--checkpoint", str(root / "ft" / "checkpoint.mh"),
                     "--data", str(root / "data"), "--out", str(root / "eval")]) == 0
        return {
            "train": (root / "data" / "train.jsonl").read_bytes(),
            "test": (root / "data" / "test.jsonl").read_bytes(),
            "pre": (root / "pre" / "checkpoint.mh").read_bytes(),
            "ft": (root / "ft" / "checkpoint.mh").read_bytes(),
            "metrics": (root / "eval" / "metrics.json").read_bytes(),
        }

    a, b = run("a"), run("b")
    ok = all(a[k] == b[k] for k in a)
    _report(10, ok, "two seeded runs produced byte-identical datasets, checkpoints, "
                    "and metric files")
