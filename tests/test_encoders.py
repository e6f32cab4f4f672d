"""Token and geometry encoders: shapes, determinism, and invariances."""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import encode_geometry_dense, encode_geometry_ordered, geom_batch_ordered
from molham import autodiff as ad
from molham.autodiff import Tape
from molham.encoders import (
    VOCAB,
    VOCAB_ELEMENTS,
    cutoff_envelope,
    element_ids,
    encode_geometry,
    encode_tokens,
    geom_batch,
    radial_basis,
    token_batch,
    token_sequence,
    token_vocab_id,
)
from molham.errors import NonFiniteCoordinate, UnknownTokenKind
from molham.model import Model, ModelConfig
from molham.oracle import embed_3d
from molham.smiles import Token, expand_hydrogens, fragment, mask_tokens, parse_smiles, tokenize

RNG = np.random.default_rng(55)
CFG = ModelConfig(width=8, token_layers=2, geom_rounds=2, n_rbf=5, n_shear=2, head_hidden=6)


@pytest.fixture()
def model():
    return Model.init(CFG, seed=9)


def _token_params(model, layers=None):
    lv = model.leaves(None)
    params = model.token_encoder(lv)
    if layers is not None:
        params.blocks = params.blocks[:layers]
    return params


def _tokens_one(tokens, token_sets, elements, params):
    """encode_tokens on a batch of one molecule, as (n, d) rows."""
    rows = encode_tokens(token_batch([token_sequence(tokens, token_sets, elements)]), params)
    return ad.reshape(rows, rows.shape[1:])


def _geometry_one(elements, coords, params):
    """encode_geometry on a batch of one molecule, as (n, d) rows."""
    batch = geom_batch([element_ids(elements)], [coords], params.cutoff, params.n_rbf)
    rows = encode_geometry(batch, params)
    return ad.reshape(rows, rows.shape[1:])


def _encode(model, smiles, layers=None, masked_keep=None):
    tokens = tokenize(smiles)
    mol = parse_smiles(smiles)
    xmol = expand_hydrogens(mol)
    if masked_keep is not None:
        tokens = mask_tokens(tokens, fragment(mol), masked_keep)
    params = _token_params(model, layers)
    return _tokens_one(tokens, list(xmol.token_sets), list(xmol.elements), params), xmol


class TestVocabulary:
    def test_every_token_kind_covered(self):
        for text, kind in [("C", "atom"), ("Cl", "atom"), ("c", "atom"),
                           ("[NH3+]", "bracket"), ("=", "bond"), ("3", "ring"),
                           ("%12", "ring"), ("(", "open"), (")", "close")]:
            assert 0 <= token_vocab_id(Token(kind, text, 0)) < len(VOCAB)

    def test_mask_token_has_entry(self):
        assert token_vocab_id(Token("mask", "[MASK]", 0)) == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnknownTokenKind):
            token_vocab_id(Token("weird", "?", 0))


class TestTokenEncoder:
    def test_single_atom_shape(self, model):
        emb, _ = _encode(model, "C")
        assert emb.shape == (5, CFG.width)  # C plus four fill hydrogens

    def test_rows_per_expanded_atom(self, model):
        emb, xmol = _encode(model, "CCO")
        assert emb.shape == (xmol.n_atoms, CFG.width)

    def test_deterministic(self, model):
        a, _ = _encode(model, "CCOCC")
        b, _ = _encode(model, "CCOCC")
        assert np.array_equal(a.data, b.data)

    def test_masking_keeps_shape(self, model):
        full, _ = _encode(model, "CCOCC")
        masked, _ = _encode(model, "CCOCC", masked_keep=[1, 0])
        assert masked.shape == full.shape
        assert not np.array_equal(masked.data, full.data)

    def test_fully_masked_input_keeps_shape(self, model):
        full, xmol = _encode(model, "CCOCC")
        masked, _ = _encode(model, "CCOCC", masked_keep=[0, 0])
        assert masked.shape == (xmol.n_atoms, CFG.width) == full.shape
        assert np.isfinite(masked.data).all()

    def test_zero_layer_ablation_localizes_masking(self, model):
        # with no attention mixing, only rows of masked atoms may change
        full, xmol = _encode(model, "CCOCC", layers=0)
        masked, _ = _encode(model, "CCOCC", layers=0, masked_keep=[1, 0])
        mol = parse_smiles("CCOCC")
        masked_atoms = set(fragment(mol)[1].atoms)
        for row in range(xmol.n_atoms):
            parent = xmol.parent[row]
            if parent in masked_atoms:
                assert not np.array_equal(masked.data[row], full.data[row])
            else:
                assert np.array_equal(masked.data[row], full.data[row])

    def test_attention_mixes_masked_information(self, model):
        full, xmol = _encode(model, "CCOCC")
        masked, _ = _encode(model, "CCOCC", masked_keep=[1, 0])
        kept = [r for r in range(xmol.n_atoms) if xmol.parent[r] in (0, 1)]
        assert any(not np.array_equal(masked.data[r], full.data[r]) for r in kept)

    def test_hydrogen_rows_differ_from_parent(self, model):
        emb, xmol = _encode(model, "CO")
        assert not np.array_equal(emb.data[0], emb.data[2])  # C vs its H


class TestGeometryEncoder:
    def _geom(self, model, elements, coords):
        return _geometry_one(elements, coords, model.geom_encoder(model.leaves(None)))

    def test_shape(self, model):
        coords = RNG.standard_normal((4, 3))
        emb = self._geom(model, ["C", "H", "O", "H"], coords)
        assert emb.shape == (4, CFG.width)

    def test_rigid_motion_invariance(self, model):
        xmol = expand_hydrogens(parse_smiles("CCO"))
        coords = embed_3d(xmol, 2)
        base = self._geom(model, list(xmol.elements), coords).data
        rng = np.random.default_rng(4)
        for _ in range(100):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            moved = coords @ q.T + rng.standard_normal(3)
            out = self._geom(model, list(xmol.elements), moved).data
            assert np.max(np.abs(out - base)) < 1e-10

    def test_beyond_cutoff_matches_isolated_atoms(self, model):
        far = np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])
        pair = self._geom(model, ["C", "O"], far).data
        solo_c = self._geom(model, ["C"], np.zeros((1, 3))).data
        solo_o = self._geom(model, ["O"], np.zeros((1, 3))).data
        assert np.allclose(pair[0], solo_c[0], atol=1e-14)
        assert np.allclose(pair[1], solo_o[0], atol=1e-14)

    def test_permutation_equivariance(self, model):
        elements = ["C", "O", "H", "H", "N"]
        coords = RNG.standard_normal((5, 3)) * 1.5
        base = self._geom(model, elements, coords).data
        perm = np.array([3, 0, 4, 1, 2])
        permuted = self._geom(model, [elements[i] for i in perm], coords[perm]).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-12

    def test_matches_straight_line_recomputation(self, model):
        xmol = expand_hydrogens(parse_smiles("O"))
        coords = embed_3d(xmol, 3)
        got = self._geom(model, list(xmol.elements), coords).data

        lv = model.leaves(None)
        params = model.geom_encoder(lv)
        n = xmol.n_atoms
        dist = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        from molham.encoders import element_id
        h = np.vstack([params.elem_embed.data[element_id(e)] for e in xmol.elements])
        for rnd in params.rounds:
            filt = np.tanh(radial_basis(dist.reshape(-1), params.cutoff, params.n_rbf)
                           @ rnd["wf1"].data + rnd["bf1"].data) @ rnd["wf2"].data + rnd["bf2"].data
            filt = filt.reshape(n, n, -1)
            gate = cutoff_envelope(dist, params.cutoff)
            np.fill_diagonal(gate, 0.0)
            g = h @ rnd["wmsg"].data + rnd["bmsg"].data
            msg = np.zeros_like(h)
            for i in range(n):
                for j in range(n):
                    msg[i] += gate[i, j] * filt[i, j] * g[j]
            h = np.tanh(h @ rnd["wupd"].data + rnd["bupd"].data + msg)
        assert np.max(np.abs(got - h)) < 1e-12

    def test_matches_dense_pair_reference(self, model):
        rng = np.random.default_rng(8)  # own stream: the shared RNG feeds the other tests
        for k, smiles in enumerate(["O", "CCO", "c1ccccc1CCN", "CCCCCCCCCCCC(C)C"]):
            xmol = expand_hydrogens(parse_smiles(smiles))
            coords = embed_3d(xmol, 20 + k)
            elements = list(xmol.elements)
            weights = ad.constant(rng.standard_normal((xmol.n_atoms, CFG.width)))
            values, grads = [], []
            for encode in (_geometry_one, encode_geometry_dense):
                tape = Tape()
                lv = model.leaves(tape)
                h = encode(elements, coords, model.geom_encoder(lv))
                tape.backward(ad.sum_(h * weights))
                values.append(h.data)
                grads.append({k: leaf.grad for k, leaf in lv.items() if leaf.grad is not None})
            assert np.max(np.abs(values[0] - values[1])) < 1e-12, smiles
            assert grads[0].keys() == grads[1].keys() and grads[0]
            for name in grads[0]:
                assert np.max(np.abs(grads[0][name] - grads[1][name])) < 1e-12, (smiles, name)

    def test_nonfinite_rejected(self, model):
        with pytest.raises(NonFiniteCoordinate):
            self._geom(model, ["C"], np.array([[np.inf, 0.0, 0.0]]))
        with pytest.raises(NonFiniteCoordinate):
            self._geom(model, ["C", "O"], np.zeros((1, 3)))


def _random_molecules(rng, sizes):
    """Element ids and coordinates at about one atom per 2.5 cubic angstrom, so
    that larger molecules hold pairs beyond the cutoff."""
    elems = [rng.integers(0, 5, size=n) for n in sizes]
    coords = [rng.uniform(0.0, (2.5 * n) ** (1 / 3), size=(n, 3)) for n in sizes]
    return elems, coords


def _padded(rows, shape):
    out = np.zeros(shape)
    for b, r in enumerate(rows):
        out[b, :len(r)] = r
    return out


# one-atom molecule; two atoms beyond the cutoff; a batch with no pair at all
_EDGE_BATCHES = [
    ([[2]], [np.zeros((1, 3))]),
    ([[2, 4]], [np.array([[0.0, 0.0, 0.0], [0.0, 6.5, 0.0]])]),
    ([[2], [3, 0], [1]], [np.zeros((1, 3)), np.array([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0]]),
                          np.ones((1, 3))]),
]


class TestPairMessages:
    """encode_geometry runs the filter once per unordered pair and forms the
    messages in one node; its output must equal the ordered-pair reference."""

    @pytest.mark.parametrize("config", [CFG, ModelConfig()])
    def test_bit_identical_to_ordered_pairs(self, config):
        rng = np.random.default_rng(31)
        model = Model.init(config, seed=4)
        params = model.geom_encoder(model.leaves(None))
        sizes = list(range(1, 45))
        batches = [_random_molecules(rng, sizes[k:k + 8]) for k in range(0, 44, 8)]
        batches += [([np.asarray(e) for e in elems], coords) for elems, coords in _EDGE_BATCHES]
        for elems, coords in batches:
            got = encode_geometry(geom_batch(elems, coords, params.cutoff, params.n_rbf), params)
            ref = encode_geometry_ordered(
                geom_batch_ordered(elems, coords, params.cutoff, params.n_rbf), params)
            assert got.data.tobytes() == ref.data.tobytes(), [len(e) for e in elems]

    def test_pair_layout(self):
        elems, coords = _random_molecules(np.random.default_rng(2), [1, 7, 30, 2])
        batch = geom_batch(elems, coords, 5.0, 4)
        ref = geom_batch_ordered(elems, coords, 5.0, 4)
        q = batch.i.size
        assert batch.j.shape == (q,) and batch.gate.shape == (q, 1) and batch.rbf.shape == (q, 4)
        assert np.all(batch.i < batch.j)
        assert np.array_equal(np.lexsort((batch.j, batch.i)), np.arange(q))  # i-major
        # the pairs are the reference's ordered pairs (dst, src) with dst < src, in its order
        lower = ref.dst < ref.src
        assert np.array_equal(batch.i, ref.dst[lower]) and np.array_equal(batch.j, ref.src[lower])
        assert batch.gate.tobytes() == ref.gate[lower].tobytes()
        assert batch.rbf.tobytes() == ref.rbf[lower].tobytes()
        # and its other rows are the same pairs reversed
        upper = np.lexsort((ref.dst[~lower], ref.src[~lower]))
        assert np.array_equal(ref.src[~lower][upper], batch.i)
        assert np.array_equal(ref.dst[~lower][upper], batch.j)
        assert ref.gate[~lower][upper].tobytes() == batch.gate.tobytes()
        assert 2 * q == ref.src.size

    @pytest.mark.parametrize("edge", range(len(_EDGE_BATCHES)))
    def test_edge_batches(self, model, edge):
        elems, coords = _EDGE_BATCHES[edge]
        params = model.geom_encoder(model.leaves(None))
        batch = geom_batch([np.asarray(e) for e in elems], coords, params.cutoff, params.n_rbf)
        assert batch.rbf.shape[0] == 0 and batch.i.size == 0
        rows = encode_geometry(batch, params).data
        for b, (e, xyz) in enumerate(zip(elems, coords)):
            solo = [_geometry_one([VOCAB_ELEMENTS[k]], xyz[a:a + 1], params).data[0]
                    for a, k in enumerate(e)]
            assert np.max(np.abs(rows[b, :len(e)] - solo)) < 1e-14  # a lone atom gets no message

    def test_gradients_match_dense_reference(self, model):
        rng = np.random.default_rng(12)
        elems, coords = _random_molecules(rng, [1, 2, 9, 17, 25])
        weights = [rng.standard_normal((len(e), CFG.width)) for e in elems]
        grads = []
        for packed in (True, False):
            tape = Tape()
            lv = model.leaves(tape)
            params = model.geom_encoder(lv)
            if packed:
                rows = encode_geometry(geom_batch(elems, coords, params.cutoff, params.n_rbf),
                                       params)
                out = ad.sum_(rows * ad.constant(_padded(weights, rows.shape)))
            else:
                out = sum((ad.sum_(encode_geometry_dense([VOCAB_ELEMENTS[k] for k in e], xyz,
                                                         params) * ad.constant(w))
                           for e, xyz, w in zip(elems, coords, weights)), ad.constant(0.0))
            tape.backward(out)
            grads.append({k: leaf.grad for k, leaf in lv.items() if leaf.grad is not None})
        assert grads[0].keys() == grads[1].keys() and len(grads[0]) == 1 + 8 * CFG.geom_rounds
        for name, ref in grads[1].items():
            assert np.max(np.abs(grads[0][name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_one_round_records_twelve_nodes(self, model):
        elems, coords = _random_molecules(np.random.default_rng(5), [6, 11])
        counts = []
        for rounds in (1, 2):
            tape = Tape()
            params = model.geom_encoder(model.leaves(tape))
            params.rounds = params.rounds[:rounds]
            before = len(tape)
            encode_geometry(geom_batch(elems, coords, params.cutoff, params.n_rbf), params)
            counts.append(len(tape) - before)
        assert counts[1] - counts[0] == 12


class TestTokenEquivariance:
    def test_token_rows_permute_with_atom_order(self, model):
        # same tokens, same molecule, but atom bookkeeping reordered
        tokens = tokenize("CCO")
        xmol = expand_hydrogens(parse_smiles("CCO"))
        params = _token_params(model)
        base = _tokens_one(tokens, list(xmol.token_sets), list(xmol.elements), params).data
        perm = list(reversed(range(xmol.n_atoms)))
        permuted = _tokens_one(tokens, [xmol.token_sets[i] for i in perm],
                               [xmol.elements[i] for i in perm], params).data
        assert np.max(np.abs(permuted - base[perm])) < 1e-12
