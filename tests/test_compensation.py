"""Disentanglement, affine transform construction, and discrepancy loss.

The layers take padded batches; one molecule's rows run as a batch of one.
"""

from __future__ import annotations

import numpy as np
import pytest

import molham.autodiff as ad
from _oracles import rotation_chain_recorded
from molham.autodiff import Tape, constant, grad_check
from molham.compensation import (
    apply_compensation,
    attention_matrix,
    build_affine,
    build_rotation,
    compensate,
    disentangle,
    discrepancy_loss,
    neutral_params,
)
from molham.errors import ShapeMismatch, ZeroNormRow
from molham.model import Model, ModelConfig, padding

RNG = np.random.default_rng(41)
D = 8


def _one(x):
    """One molecule's (n, d) rows as a batch of one."""
    return constant(np.asarray(x)[None])


def _pad(n):
    return padding([n])


@pytest.fixture()
def model():
    m = Model.init(ModelConfig(width=D, token_layers=1, geom_rounds=1, n_rbf=4,
                               n_shear=3, head_hidden=6), seed=5)
    return m


def _dis(model):
    return model.disentangler(model.leaves(None))


def _gen(model):
    return model.generator(model.leaves(None))


class TestAttention:
    def test_singleton_is_one(self, model):
        v = _one(RNG.standard_normal((1, D)))
        t = _one(RNG.standard_normal((1, D)))
        beta = attention_matrix(v, t, _dis(model), _pad(1))
        assert np.array_equal(beta.data[0], [[1.0]])

    def test_duplicate_rows_give_uniform(self, model):
        v = _one(np.tile(RNG.standard_normal((1, D)), (4, 1)))
        t = _one(np.tile(RNG.standard_normal((1, D)), (4, 1)))
        beta = attention_matrix(v, t, _dis(model), _pad(4))
        assert np.allclose(beta.data[0], 0.25)

    def test_rows_sum_to_one_strictly_positive(self, model):
        v = _one(RNG.standard_normal((6, D)))
        t = _one(RNG.standard_normal((6, D)))
        beta = attention_matrix(v, t, _dis(model), _pad(6)).data[0]
        assert np.max(np.abs(beta.sum(axis=1) - 1.0)) < 1e-12
        assert np.all(beta > 0.0)

    def test_matches_straight_line_recomputation(self, model):
        v = RNG.standard_normal((3, D))
        t = RNG.standard_normal((3, D))
        dis = _dis(model)
        beta = attention_matrix(_one(v), _one(t), dis, _pad(3)).data[0]

        def mlp(x, p):
            return np.tanh(x @ p.w1.data + p.b1.data) @ p.w2.data + p.b2.data

        u = mlp(v, dis.u)
        w = mlp(t, dis.t)
        cosm = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                cosm[i, j] = u[i] @ w[j] / (np.linalg.norm(u[i]) * np.linalg.norm(w[j]))
        expect = np.exp(cosm) / np.exp(cosm).sum(axis=1, keepdims=True)
        assert np.allclose(beta, expect, atol=1e-12)

    def test_zero_norm_rejected(self, model):
        dis = _dis(model)
        # zero the query projection entirely so its rows have zero norm
        dis.u.w1.data[:] = 0.0
        dis.u.b1.data[:] = 0.0
        dis.u.w2.data[:] = 0.0
        dis.u.b2.data[:] = 0.0
        with pytest.raises(ZeroNormRow):
            attention_matrix(_one(RNG.standard_normal((2, D))),
                             _one(RNG.standard_normal((2, D))), dis, _pad(2))

    def test_shape_mismatch(self, model):
        with pytest.raises(ShapeMismatch):
            attention_matrix(_one(np.ones((2, D))), _one(np.ones((3, D))), _dis(model), _pad(2))


class TestDisentangle:
    def test_single_atom_irrelevant_part_exactly_zero(self, model):
        v = _one(RNG.standard_normal((1, D)))
        t = _one(RNG.standard_normal((1, D)))
        _, v_minus = disentangle(v, t, _dis(model), _pad(1))
        assert np.all(v_minus.data == 0.0)

    def test_matches_straight_line_recomputation(self, model):
        v = RNG.standard_normal((4, D))
        t = RNG.standard_normal((4, D))
        dis = _dis(model)
        v_plus, v_minus = disentangle(_one(v), _one(t), dis, _pad(4))
        beta = attention_matrix(_one(v), _one(t), dis, _pad(4)).data[0]

        def mlp(x, p):
            return np.tanh(x @ p.w1.data + p.b1.data) @ p.w2.data + p.b2.data

        assert np.allclose(v_plus.data[0], beta @ mlp(v, dis.v_plus), atol=1e-12)
        assert np.allclose(v_minus.data[0], (np.eye(4) - beta) @ mlp(v, dis.v_minus), atol=1e-12)


class TestRotation:
    def test_zero_angles_identity(self):
        r = build_rotation(constant(np.zeros((1, 1, D - 1))), D)
        assert r.data[0].tobytes() == np.eye(D).tobytes()  # no -0.0 either

    def test_two_dim_quarter_turn(self):
        r = build_rotation(constant(np.array([[[np.pi / 2]]])), 2).data[0]
        assert np.allclose(r, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)

    def test_orthogonality_many_draws(self):
        for _ in range(300):
            d = int(RNG.integers(2, 65))
            angles = constant(RNG.uniform(-np.pi, np.pi, (1, 1, d - 1)))
            r = build_rotation(angles, d).data[0]
            assert np.max(np.abs(r.T @ r - np.eye(d))) < 1e-10

    def test_matches_explicit_product(self):
        d = 5
        angles = RNG.uniform(-np.pi, np.pi, d - 1)
        r = build_rotation(constant(angles.reshape(1, 1, -1)), d).data[0]
        expect = np.eye(d)
        for i, th in enumerate(angles):
            plane = np.eye(d)
            plane[i, i] = plane[i + 1, i + 1] = np.cos(th)
            plane[i, i + 1] = -np.sin(th)
            plane[i + 1, i] = np.sin(th)
            expect = expect @ plane
        assert np.allclose(r, expect, atol=1e-12)

    def test_matches_recorded_chain_value_and_gradient(self):
        rng = np.random.default_rng(17)  # own stream: the shared RNG feeds the other tests
        cases = []
        for d in (2, 3, 8, 32, 33):
            angles = rng.uniform(-np.pi, np.pi, (1, 1, d - 1))
            cases.append((angles, rng.standard_normal((1, d, d))))
        for d in (2, 8, 33):
            for angles in (np.zeros((1, 1, d - 1)),  # the initial state: the heads start at zero
                           rng.choice([-np.pi / 2, np.pi / 2], (1, 1, d - 1)),
                           rng.uniform(-20.0, 20.0, (1, 1, d - 1))):
                cases.append((angles, rng.standard_normal((1, d, d))))
        cases.append((rng.uniform(-np.pi, np.pi, (3, 1, 7)), rng.standard_normal((3, 8, 8))))
        for angles, weights in cases:
            d = angles.shape[-1] + 1
            tape = Tape()
            leaf = tape.leaf(angles)
            r = build_rotation(leaf, d)
            tape.backward(ad.sum_(r * constant(weights)))
            for b in range(len(angles)):  # the recorded chain takes one molecule's angles
                ref_tape = Tape()
                ref_leaf = ref_tape.leaf(angles[b:b + 1])
                ref = rotation_chain_recorded(ref_leaf, d)
                ref_tape.backward(ad.sum_(ref * constant(weights[b])))
                assert np.max(np.abs(r.data[b] - ref.data)) < 1e-12, (d, b)
                assert np.max(np.abs(leaf.grad[b] - ref_leaf.grad[0])) < 1e-12, (d, b)

    def test_records_one_tape_node(self):
        # one plane_rotation_chain node plus the reshape of the (B, 1, d-1)
        # angles to the chain's (B, d-1) input, at any width and batch size
        for shape in ((1, 1, D - 1), (1, 1, 31), (5, 1, D - 1)):
            tape = Tape()
            angles = tape.leaf(np.full(shape, 0.3))
            before = len(tape)
            r = build_rotation(angles, shape[-1] + 1)
            assert len(tape) == before + 2
            assert r.shape == shape[:-2] + (shape[-1] + 1, shape[-1] + 1)


class TestAffine:
    def test_neutral_parameters_identity(self):
        a = build_affine(neutral_params(D, 3)).data[0]
        assert np.array_equal(a, np.eye(D))

    def test_shear_determinant_lemma(self):
        p = RNG.standard_normal((1, D))
        w = RNG.standard_normal((1, D))
        params = neutral_params(D, 1)
        params.shear_p = _one(p)
        params.shear_w = _one(w)
        a = build_affine(params).data[0]
        assert np.linalg.det(a) == pytest.approx(1.0 + float(w[0] @ p[0]), rel=1e-10)

    def test_matches_triple_product(self, model):
        gen = _gen(model)
        params = gen(_one(RNG.standard_normal((3, D))), _pad(3))
        a = build_affine(params).data[0]
        r = build_rotation(params.angles, D).data[0]
        s = np.diag(params.scales.data[0, 0])
        h = np.eye(D) + params.shear_p.data[0].T @ params.shear_w.data[0]
        assert np.allclose(a, r @ s @ h, atol=1e-12)


class TestCompensate:
    def test_neutral_is_exact_identity(self):
        t = RNG.standard_normal((5, D))
        out = apply_compensation(_one(t), neutral_params(D, 4))
        assert np.array_equal(out.data[0], t)

    def test_pure_translation(self):
        t = RNG.standard_normal((4, D))
        params = neutral_params(D, 2)
        params.shift = constant(np.full((1, 1, D), 0.7))
        out = apply_compensation(_one(t), params)
        assert np.allclose(out.data[0], t + 0.7, atol=1e-15)

    def test_matches_straight_line_recomputation(self, model):
        gen = _gen(model)
        # perturb generator heads so the transform is non-trivial
        for name in gen.heads:
            gen.heads[name][0].data[:] = 0.3 * RNG.standard_normal(gen.heads[name][0].shape)
            gen.heads[name][1].data[:] = 0.1 * RNG.standard_normal(gen.heads[name][1].shape)
        t = RNG.standard_normal((4, D))
        v_minus = RNG.standard_normal((4, D))
        out = compensate(_one(t), _one(v_minus), gen, _pad(4)).data[0]

        params = gen(_one(v_minus), _pad(4))
        a = build_affine(params).data[0]
        expect = np.empty_like(t)
        for i in range(4):
            deform = params.amp.data[0, 0] * np.sin(params.freq.data[0, 0] * t[i]
                                                    + params.phase.data[0, 0])
            expect[i] = a @ t[i] + params.shift.data[0, 0] + deform
        assert np.allclose(out, expect, atol=1e-12)

    def test_untrained_generator_realizes_identity(self, model):
        t = RNG.standard_normal((6, D))
        out = compensate(_one(t), _one(RNG.standard_normal((6, D))), _gen(model), _pad(6))
        assert np.allclose(out.data[0], t, atol=1e-12)


class TestDiscrepancyLoss:
    def test_zero_distance(self):
        v = _one(RNG.standard_normal((3, D)))
        t = _one(RNG.standard_normal((3, D)))
        loss = discrepancy_loss(v, constant(v.data.copy()), t, constant(t.data.copy()), 0.5,
                                _pad(3))
        assert loss.item() == 0.0

    def test_lambda_zero_ignores_aux_pair(self):
        v = _one(RNG.standard_normal((3, D)))
        ts = _one(RNG.standard_normal((3, D)))
        t1 = _one(RNG.standard_normal((3, D)))
        t2 = _one(RNG.standard_normal((3, D)))
        vp = _one(RNG.standard_normal((3, D)))
        assert discrepancy_loss(v, ts, t1, vp, 0.0, _pad(3)).item() == \
               discrepancy_loss(v, ts, t2, vp, 0.0, _pad(3)).item()

    def test_matches_hand_sum(self):
        v = RNG.standard_normal((3, D))
        ts = RNG.standard_normal((3, D))
        t = RNG.standard_normal((3, D))
        vp = RNG.standard_normal((3, D))

        def huber_mean(a, b):
            d = np.abs(a - b)
            return np.mean(np.where(d < 1.0, 0.5 * d * d, d - 0.5))

        expect = huber_mean(v, ts) + 0.5 * huber_mean(t, vp)
        got = discrepancy_loss(_one(v), _one(ts), _one(t), _one(vp), 0.5, _pad(3))
        assert got.item() == pytest.approx(expect, abs=1e-14)

    def test_negative_lambda_rejected(self):
        z = _one(np.zeros((2, D)))
        with pytest.raises(ValueError):
            discrepancy_loss(z, z, z, z, -0.1, _pad(2))

    def test_gradients_through_all_groups(self, model):
        v = RNG.standard_normal((3, D))
        t = RNG.standard_normal((3, D))
        names = [n for n in model.params if n.startswith(("comp.", "gen."))]
        for name in names:
            def f(x, name=name):
                lv = model.leaves(None)
                lv[name] = x
                dis = model.disentangler(lv)
                gen = model.generator(lv)
                v_plus, v_minus = disentangle(_one(v), _one(t), dis, _pad(3))
                t_star = compensate(_one(t), v_minus, gen, _pad(3))
                return discrepancy_loss(_one(v), t_star, _one(t), v_plus, 0.5, _pad(3))

            assert grad_check(f, model.params[name], eps=1e-5) < 1e-4, name
