"""Fragment segmentation, attention pooling, and contrastive loss."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import molham.autodiff as ad
from molham.autodiff import constant, grad_check
from _oracles import pretrain_loss_per_molecule, segment_embeddings
from molham.alignment import AlignmentParams, contextual_pool, contrastive_loss, fragment_plan
from molham.errors import EmptyBatch, IndexOutOfRange, ShapeMismatch
from molham.hamhead import layout
from molham.model import Model, ModelConfig, mol_structure
from molham.oracle import embed_3d
from molham.smiles import expand_hydrogens, fragment, parse_smiles, tokenize

RNG = np.random.default_rng(77)
D = 8


def _params(seed=5) -> AlignmentParams:
    rng = np.random.default_rng(seed)
    return AlignmentParams(
        wq=constant(rng.standard_normal((D, D)) / np.sqrt(D)),
        wk=constant(rng.standard_normal((D, D)) / np.sqrt(D)),
        wv=constant(rng.standard_normal((D, D)) / np.sqrt(D)),
        log_tau=constant(np.full((1, 1), np.log(0.5))),
    )


class TestSegment:
    def test_single_fragment_is_whole_matrix(self):
        emb = constant(RNG.standard_normal((4, D)))
        parts = segment_embeddings(emb, [(0, 1, 2, 3)])
        assert len(parts) == 1
        assert np.array_equal(parts[0].data, emb.data)

    def test_partition_recovers_rows(self):
        emb = constant(RNG.standard_normal((5, D)))
        parts = segment_embeddings(emb, [(0, 1), (2, 3, 4)])
        rebuilt = np.vstack([p.data for p in parts])
        assert np.array_equal(rebuilt, emb.data)

    def test_rows_follow_fragment_atom_sets(self):
        mol = parse_smiles("CCOCC")
        frags = fragment(mol)
        emb = constant(RNG.standard_normal((mol.n_atoms, D)))
        parts = segment_embeddings(emb, [f.atoms for f in frags])
        for f, p in zip(frags, parts):
            assert np.array_equal(p.data, emb.data[list(f.atoms)])

    def test_out_of_range_rejected(self):
        emb = constant(RNG.standard_normal((3, D)))
        with pytest.raises(IndexOutOfRange):
            segment_embeddings(emb, [(0, 5)])


def _pool(t, v, params, fragment_of):
    """contextual_pool on one molecule's (n, d) rows, run as a batch of one."""
    plan = fragment_plan([np.asarray(fragment_of)], [max(fragment_of) + 1], len(fragment_of))
    return contextual_pool(constant(t[None]), constant(v[None]), params, plan)


class TestContextualPool:
    def test_singleton_fragment_is_linear_map(self):
        params = _params()
        v = RNG.standard_normal((1, D))
        t = RNG.standard_normal((1, D))
        out = _pool(t, v, params, [0])
        assert np.allclose(out.data[0], v @ params.wv.data, atol=1e-14)

    def test_single_row_value_identity(self):
        # three one-atom fragments: each pools its single value row
        params = _params()
        params.wv = constant(np.eye(D))
        v = RNG.standard_normal((3, D))
        out = _pool(RNG.standard_normal((3, D)), v, params, [0, 1, 2])
        assert np.allclose(out.data[0], v, atol=1e-14)

    def test_matches_straight_line_recomputation(self):
        params = _params()
        t = RNG.standard_normal((3, D))
        v = RNG.standard_normal((3, D))
        out = _pool(t, v, params, [0, 0, 0]).data[0]

        q = t @ params.wq.data
        k = v @ params.wk.data
        scores = q @ k.T / np.sqrt(D)
        attn = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn /= attn.sum(axis=1, keepdims=True)
        expect = (attn @ (v @ params.wv.data)).mean(axis=0, keepdims=True)
        assert np.allclose(out, expect, atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ShapeMismatch):
            _pool(np.ones((2, 3)), np.ones((2, 3)), _params(), [0, 0])


class TestContrastive:
    def test_log_sigmoid_at_zero_cosine(self):
        v = constant(np.array([[1.0, 0.0]]))
        t = constant(np.array([[0.0, 1.0]]))
        loss = contrastive_loss(v, t, constant(np.array([[0.7]])), "log_sigmoid")
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_log_sigmoid_saturates_to_zero(self):
        v = constant(np.array([[1.0, 0.0]]))
        loss = contrastive_loss(v, v, constant(np.array([[1e-3]])), "log_sigmoid")
        assert loss.item() < 1e-12

    def test_log_sigmoid_finite_at_small_tau_with_anti_aligned_pairs(self):
        tape = ad.Tape()
        log_tau = tape.leaf(np.full((1, 1), np.log(1e-3)))
        v = constant(np.eye(2))
        t = constant(-np.eye(2))  # positives at cosine -1, negatives at 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = contrastive_loss(v, t, ad.exp(log_tau), "log_sigmoid")
            tape.backward(loss)
        assert loss.item() == pytest.approx((2000.0 + 2.0 * np.log(2.0)) / 4.0, rel=1e-12)
        assert np.all(np.isfinite(log_tau.grad))

    def test_literal_form_printed_value(self):
        v = constant(np.array([[2.0, 0.0]]))
        t = constant(np.array([[3.0, 0.0]]))  # cosine exactly 1
        loss = contrastive_loss(v, t, constant(np.array([[1.0]])), "literal")
        assert loss.item() == pytest.approx(-1.0 / (1.0 + np.e), abs=1e-12)

    def test_scale_invariance(self):
        v = RNG.standard_normal((4, D))
        t = RNG.standard_normal((4, D))
        tau = constant(np.array([[0.5]]))
        base = contrastive_loss(constant(v), constant(t), tau).item()
        scaled = contrastive_loss(constant(3.7 * v), constant(0.2 * t), tau).item()
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_monotonicity_in_cosines(self):
        # two fragments with controllable positive-pair cosine
        def loss_at(c):
            v = constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
            t = constant(np.array([[1.0, np.sqrt(1 - c * c) / c if c else 1e9],
                                   [0.0, 1.0]])) if c else None
            # simpler: rotate the first token vector by an angle
            ang = np.arccos(c)
            t = constant(np.array([[np.cos(ang), np.sin(ang)], [0.0, 1.0]]))
            return contrastive_loss(v, t, constant(np.array([[0.5]]))).item()

        values = [loss_at(c) for c in (0.1, 0.4, 0.7, 0.95)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_negative_cosine_monotonicity(self):
        def loss_with_negative(c):
            v = constant(np.array([[1.0, 0.0], [0.0, 1.0]]))
            ang = np.arccos(c)
            # second token vector forms angle ang with the FIRST geometry vector
            t = constant(np.array([[1.0, 0.0], [np.cos(ang), np.sin(ang)]]))
            return contrastive_loss(v, t, constant(np.array([[0.5]]))).item()

        # pushing a negative pair's cosine down reduces the loss
        assert loss_with_negative(0.9) > loss_with_negative(0.2) > loss_with_negative(-0.5)

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            contrastive_loss(constant(np.zeros((0, D))), constant(np.zeros((0, D))),
                             constant(np.array([[1.0]])))

    def test_unknown_form(self):
        v = constant(np.ones((1, 2)))
        with pytest.raises(ValueError):
            contrastive_loss(v, v, constant(np.array([[1.0]])), "nope")


class TestPretrainLossComposition:
    def _molecule(self, smiles, seed):
        tokens = tokenize(smiles)
        mol = parse_smiles(smiles)
        xmol = expand_hydrogens(mol)
        frags = fragment(mol)
        return {"tokens": tokens, "xmol": xmol, "fragments": frags,
                "structure": mol_structure(tokens, xmol, frags, layout(xmol.elements)),
                "coords": embed_3d(xmol, seed)}

    def test_batch_equals_sum_of_components(self):
        cfg = ModelConfig(width=D, token_layers=1, geom_rounds=1, n_rbf=4, n_shear=2,
                          head_hidden=6)
        model = Model.init(cfg, seed=2)
        lv = model.leaves(None)
        mols = [self._molecule("CCOCC", 1), self._molecule("CCO", 2)]
        total, d_terms, part_l = model.pretrain_batch_loss(
            lv, [m["structure"] for m in mols], [m["coords"] for m in mols], 0.5)
        assert total.item() == pytest.approx(d_terms.data.mean() + part_l.item(), abs=1e-14)

        # one discrepancy term per molecule, as the one-molecule-at-a-time
        # reference computes them, and the contrastive part recomputed from
        # the reference's stacked fragment vectors
        _, ref_terms, ref_contrast = pretrain_loss_per_molecule(model, lv, mols, 0.5)
        assert d_terms.data == pytest.approx([t.item() for t in ref_terms], abs=1e-14)
        assert part_l.item() == pytest.approx(ref_contrast.item(), abs=1e-12)

    def test_single_fragment_molecule_single_positive_pair(self):
        cfg = ModelConfig(width=D, token_layers=1, geom_rounds=1, n_rbf=4, n_shear=2,
                          head_hidden=6)
        model = Model.init(cfg, seed=2)
        lv = model.leaves(None)
        mol = self._molecule("CCO", 3)
        total, _, part_l = model.pretrain_batch_loss(lv, [mol["structure"]], [mol["coords"]], 0.5)
        assert np.isfinite(total.item())
        # one fragment means a 1x1 cosine matrix: exactly one positive pair
        # and log-sigmoid loss of a single scalar
        assert part_l.data.size == 1

    def test_full_pretrain_loss_gradients(self):
        cfg = ModelConfig(width=6, token_layers=1, geom_rounds=1, n_rbf=4, n_shear=2,
                          head_hidden=5)
        model = Model.init(cfg, seed=3)
        rng = np.random.default_rng(8)
        for name in model.params:
            if name.startswith("gen."):
                model.params[name][...] += 0.1 * rng.standard_normal(model.params[name].shape)
        mol = self._molecule("CCOCC", 5)
        for name in ("align.wq", "align.log_tau", "comp.u.w1", "gen.angles.w",
                     "token.embed", "geom.round0.wmsg"):
            def f(x, name=name):
                lv = model.leaves(None)
                lv[name] = x
                return model.pretrain_batch_loss(lv, [mol["structure"]], [mol["coords"]], 0.5)[0]

            assert grad_check(f, model.params[name], eps=1e-5) < 1e-4, name
