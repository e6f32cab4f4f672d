"""Layout bookkeeping, matrix assembly, loss, fusion, and serialization.

The head and its loss take packed batches; one molecule runs as a batch of one.
"""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import hamiltonian_per_molecule, value_index_loops
from molham import autodiff as ad
from molham import hamhead
from molham.atomic import read_framed, write_framed
from molham.autodiff import Tape, constant, grad_check
from molham.errors import (CorruptFile, DimensionMismatch, MolhamError, ShapeMismatch,
                           UnsupportedElement)
from molham.hamhead import (
    BlockLayout,
    finetune_loss,
    fuse_modalities,
    head_plan,
    layout,
    load_hamiltonian,
    predict_hamiltonian,
    save_hamiltonian,
    upper_triangle,
)
from molham.model import Model, ModelConfig
from molham.smiles import expand_hydrogens, parse_smiles

RNG = np.random.default_rng(31)
CFG = ModelConfig(width=8, token_layers=1, geom_rounds=1, n_rbf=4, n_shear=2, head_hidden=6)


def _matrix(emb, lay, params):
    """One molecule's (n_orb, n_orb) matrix from its (n, d) rows: a batch of one."""
    emb = constant(emb) if isinstance(emb, np.ndarray) else emb
    index = hamhead._value_index(lay)
    plan = head_plan([index], [lay.n_atoms], emb.shape[0])
    return ad.reshape(predict_hamiltonian(ad.reshape(emb, (1,) + emb.shape), plan, params),
                      index.shape)


def _loss(target, full, masked, lambda2):
    """finetune_loss of one molecule's matrices: every entry has a masked branch."""
    size = target.data.size
    stream = ad.concat_rows([ad.reshape(x, (-1, 1)) for x in (full, masked)])
    return finetune_loss(constant(np.tile(target.data.reshape(-1), 2)), ad.reshape(stream, (-1,)),
                         np.zeros(2 * size, dtype=np.intp), np.arange(2 * size) >= size, lambda2)


@pytest.fixture()
def head():
    model = Model.init(CFG, seed=12)
    rng = np.random.default_rng(3)
    for name in model.params:  # free the zero-initialized output layers
        if name.startswith("head."):
            model.params[name][...] += 0.2 * rng.standard_normal(model.params[name].shape)
    return model


class TestLayout:
    def test_h2(self):
        lay = layout(expand_hydrogens(parse_smiles("[H][H]")).elements)
        assert lay.n_orb == 2
        assert lay.counts == (1, 1)

    def test_water(self):
        lay = layout(expand_hydrogens(parse_smiles("O")).elements)
        assert lay.n_orb == 4
        assert lay.counts == (2, 1, 1)
        assert lay.offsets == (0, 2, 3)

    def test_counting_cross_check(self):
        xmol = expand_hydrogens(parse_smiles("CCO"))
        lay = layout(xmol.elements)
        per_element = {"H": 1, "C": 2, "N": 2, "O": 2, "F": 2, "P": 2, "S": 2}
        assert lay.n_orb == sum(per_element[e] for e in xmol.elements)
        atom_of = lay.atom_of_orbital()
        assert [int((atom_of == a).sum()) for a in range(lay.n_atoms)] == list(lay.counts)

    def test_unsupported_element(self):
        with pytest.raises(UnsupportedElement):
            layout(("C", "Br"))


class TestPredict:
    def _predict(self, head, elements, emb=None):
        lay = layout(elements)
        if emb is None:
            emb = RNG.standard_normal((len(elements), CFG.width))
        return _matrix(emb, lay, head.head(head.leaves(None))), lay, emb

    def test_bit_exact_symmetry(self, head):
        for elements in (("C", "H", "H", "O", "H"), ("H",), ("S", "P", "C")):
            h, _, _ = self._predict(head, elements)
            assert np.array_equal(h.data, h.data.T)

    def test_zero_embeddings_zero_bias_head_gives_zero(self, head):
        lv = head.leaves(None)
        params = head.head(lv)
        for b in (params.diag.b1, params.diag.b2, params.pair.b1, params.pair.b2):
            b.data[:] = 0.0
        lay = layout(("C", "O", "H"))
        h = _matrix(np.zeros((3, CFG.width)), lay, params)
        assert np.all(h.data == 0.0)

    def test_matches_straight_line_recomputation(self, head):
        elements = ("C", "O", "H")
        h, lay, emb = self._predict(head, elements)
        params = head.head(head.leaves(None))

        def diag_vals(x):
            return (np.tanh(x @ params.diag.w1.data + params.diag.b1.data)
                    @ params.diag.w2.data + params.diag.b2.data)

        def pair_vals(a, b):
            hid = np.tanh((a + b) @ params.pair.w_sum.data
                          + np.abs(a - b) @ params.pair.w_gap.data + params.pair.b1.data)
            return hid @ params.pair.w2.data + params.pair.b2.data

        expect = np.zeros((lay.n_orb, lay.n_orb))
        cols = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        for a, (off, cnt) in enumerate(zip(lay.offsets, lay.counts)):
            vals = diag_vals(emb[a:a + 1])[0]
            for oi in range(cnt):
                for oj in range(cnt):
                    expect[off + oi, off + oj] = vals[cols[(oi, oj)]]
        for i in range(lay.n_atoms):
            for j in range(i + 1, lay.n_atoms):
                vals = pair_vals(emb[i:i + 1], emb[j:j + 1])[0]
                for oi in range(lay.counts[i]):
                    for oj in range(lay.counts[j]):
                        expect[lay.offsets[i] + oi, lay.offsets[j] + oj] = vals[cols[(oi, oj)]]
                        expect[lay.offsets[j] + oj, lay.offsets[i] + oi] = vals[cols[(oi, oj)]]
        assert np.max(np.abs(h.data - expect)) < 1e-12

    def test_relabeling_permutes_blocks(self, head):
        elements = ["C", "O", "H", "N", "H"]
        emb = RNG.standard_normal((5, CFG.width))
        h, lay, _ = self._predict(head, tuple(elements), emb)
        rng = np.random.default_rng(6)
        for _ in range(5):
            perm = rng.permutation(5)
            h2, lay2, _ = self._predict(head, tuple(elements[i] for i in perm), emb[perm])
            # orbital permutation induced by the atom relabeling
            orb_perm = np.concatenate(
                [np.arange(lay.offsets[a], lay.offsets[a] + lay.counts[a]) for a in perm])
            assert np.max(np.abs(h2.data - h.data[np.ix_(orb_perm, orb_perm)])) < 1e-12

    def test_matches_entry_by_entry_plan(self, head, monkeypatch):
        rng = np.random.default_rng(14)  # own stream: the shared RNG feeds the other tests
        plans = (hamhead._value_index, value_index_loops)
        for smiles in ("[H]", "C", "[H][H]", "CO", "OCC(=O)N", "c1ccccc1CCS", "CCCCCCCCCC(C)P",
                       "CCCCCCCCCCCCCC"):
            elements = expand_hydrogens(parse_smiles(smiles)).elements
            lay = layout(elements)
            assert np.array_equal(hamhead._value_index(lay), value_index_loops(lay)), smiles
            emb = rng.standard_normal((len(elements), CFG.width))
            weights = constant(rng.standard_normal((lay.n_orb, lay.n_orb)))
            results = []
            for plan in plans:
                monkeypatch.setattr(hamhead, "_value_index", plan)
                tape = Tape()
                lv = head.leaves(tape)
                x = tape.leaf(emb)
                h = _matrix(x, lay, head.head(lv))
                tape.backward(ad.sum_(h * weights))
                head_grads = [lv[k].grad for k in sorted(lv) if k.startswith("head.")]
                results.append((h.data, x.grad, head_grads))
            (h_new, gx_new, gp_new), (h_ref, gx_ref, gp_ref) = results
            assert np.array_equal(h_new, h_ref), smiles
            assert np.array_equal(gx_new, gx_ref), smiles
            assert all(np.array_equal(a, b) for a, b in zip(gp_new, gp_ref)), smiles

    def test_more_than_two_orbitals_on_an_atom_rejected(self, head):
        lay = BlockLayout(("C", "H"), (0, 3), (3, 1))  # a carbon with three orbitals
        params = head.head(head.leaves(None))
        with pytest.raises(DimensionMismatch) as err:
            _matrix(np.zeros((2, CFG.width)), lay, params)
        assert isinstance(err.value, MolhamError)

    def test_embedding_count_checked(self, head):
        lay = layout(("C", "O"))
        index = hamhead._value_index(lay)
        with pytest.raises(ShapeMismatch):  # more rows than the plan reads
            predict_hamiltonian(constant(np.zeros((1, 3, CFG.width))),
                                head_plan([index], [2], 2), head.head(head.leaves(None)))
        with pytest.raises(ShapeMismatch):  # an index built for another atom count
            head_plan([index], [3], 3)

    def test_layout_rejected(self, head):
        lay = layout(("C", "O"))
        with pytest.raises(TypeError):
            predict_hamiltonian(constant(np.zeros((1, 2, CFG.width))), lay,
                                head.head(head.leaves(None)))


class TestPairNet:
    """The pair net's one `autodiff.pair_net` node against the recorded chain
    of `tests/_oracles.py` (`pair_net_recorded`). A packed fine-tuning batch
    with masked branches is compared in `tests/test_packing.py`."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 23, 47, 74])
    def test_matches_recorded_chain(self, head, n):
        rng = np.random.default_rng(100 + n)
        lay = layout(tuple(("C", "H", "O", "H", "N", "F")[k % 6] for k in range(n)))
        emb = rng.standard_normal((n, CFG.width))
        weights = constant(rng.standard_normal((lay.n_orb, lay.n_orb)))
        results = []
        for matrix in (_matrix, hamiltonian_per_molecule):
            tape = Tape()
            lv = head.leaves(tape)
            x = tape.leaf(emb)
            h = matrix(x, lay, head.head(lv))
            tape.backward(ad.sum_(h * weights))
            results.append([h.data, x.grad] + [lv[k].grad for k in sorted(lv)
                                               if k.startswith("head.")])
        assert (results[0][-1] is None) == (n == 1)  # a lone atom runs no pair net
        for got, want in zip(*results):
            if want is None:
                assert got is None
                continue
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_swapping_pair_ends_is_bit_identical(self, head):
        rows = constant(np.random.default_rng(8).standard_normal((30, CFG.width)))
        i, j = np.triu_indices(30, 1)
        pair = head.head(head.leaves(None)).pair
        assert pair(rows, i, j).data.tobytes() == pair(rows, j, i).data.tobytes()

    def test_records_one_tape_node(self, head):
        # a lone atom runs no pair net, and any number of pairs adds one node
        added = []
        for elements in (("C",), ("C", "O"), ("C", "O", "H", "H", "N", "S")):
            tape = Tape()
            params = head.head(head.leaves(tape))
            before = len(tape)
            _matrix(np.ones((len(elements), CFG.width)), layout(elements), params)
            added.append(len(tape) - before)
        assert added[1] == added[2] == added[0] + 1


class TestFusion:
    def test_additive_identities(self):
        t = constant(RNG.standard_normal((4, 6)))
        zero = constant(np.zeros((4, 6)))
        assert np.array_equal(fuse_modalities(t, zero).data, t.data)
        assert np.array_equal(fuse_modalities(zero, t).data, t.data)

    def test_elementwise_sum(self):
        a = RNG.standard_normal((3, 5))
        b = RNG.standard_normal((3, 5))
        assert np.array_equal(fuse_modalities(constant(a), constant(b)).data, a + b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fuse_modalities(constant(np.zeros((2, 3))), constant(np.zeros((3, 2))))


class TestFinetuneLoss:
    def test_zero_when_exact(self):
        h = constant(RNG.standard_normal((4, 4)))
        assert _loss(h, constant(h.data.copy()), constant(h.data.copy()), 0.5).item() == 0.0

    def test_lambda_one_ignores_masked_branch(self):
        target = constant(RNG.standard_normal((3, 3)))
        full = constant(RNG.standard_normal((3, 3)))
        m1 = constant(RNG.standard_normal((3, 3)))
        m2 = constant(RNG.standard_normal((3, 3)))
        assert _loss(target, full, m1, 1.0).item() == \
               _loss(target, full, m2, 1.0).item()

    def test_matches_hand_sum(self):
        target = RNG.standard_normal((3, 3))
        full = RNG.standard_normal((3, 3))
        masked = RNG.standard_normal((3, 3))
        lam = 0.8

        def term(pred):
            d = pred - target
            return (np.abs(d) + d * d).sum() / target.size

        expect = lam * term(full) + (1 - lam) * term(masked)
        got = _loss(constant(target), constant(full), constant(masked), lam)
        assert got.item() == pytest.approx(expect, abs=1e-14)

    def test_matches_hand_sum_over_molecules(self):
        # molecules 0 and 2 have a masked branch, molecule 1 has none; the
        # stream interleaves them as a packed batch does: full entries first
        sizes = [4, 9, 1]
        target = [RNG.standard_normal(n) for n in sizes]
        full = [RNG.standard_normal(n) for n in sizes]
        masked = {0: RNG.standard_normal(4), 2: RNG.standard_normal(1)}
        lam = 0.8

        def term(pred, b):
            d = pred - target[b]
            return (np.abs(d) + d * d).sum() / sizes[b]

        expect = [lam * term(full[0], 0) + (1 - lam) * term(masked[0], 0), term(full[1], 1),
                  lam * term(full[2], 2) + (1 - lam) * term(masked[2], 2)]
        rows = [0, 1, 2, 0, 2]
        got = finetune_loss(constant(np.concatenate([target[b] for b in rows])),
                            constant(np.concatenate(full + [masked[0], masked[2]])),
                            np.repeat(rows, [sizes[b] for b in rows]),
                            np.repeat([False] * 3 + [True] * 2, [sizes[b] for b in rows]), lam)
        assert got.shape == (3,)
        assert got.data == pytest.approx(expect, abs=1e-14)

    def test_entry_counts_checked(self):
        z = constant(np.zeros(4))
        with pytest.raises(ShapeMismatch):
            finetune_loss(z, z, np.zeros(4, dtype=np.intp), np.zeros(3, dtype=bool), 0.5)

    def test_nonnegative_and_zero_only_at_target(self):
        target = constant(RNG.standard_normal((3, 3)))
        for _ in range(10):
            full = constant(target.data + RNG.standard_normal((3, 3)) * 0.1)
            val = _loss(target, full, constant(target.data.copy()), 0.5).item()
            assert val > 0.0

    def test_lambda_validated(self):
        z = constant(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            _loss(z, z, z, 1.5)

    def test_gradient_through_head_and_loss(self, head):
        elements = ("C", "O", "H")
        lay = layout(elements)
        emb_full = RNG.standard_normal((3, CFG.width))
        emb_mask = RNG.standard_normal((3, CFG.width))
        target = constant(RNG.standard_normal((lay.n_orb, lay.n_orb)) * 0.4)
        for name in head.params:
            if not name.startswith("head."):
                continue

            def f(x, name=name):
                lv = head.leaves(None)
                lv[name] = x
                params = head.head(lv)
                h_full = _matrix(emb_full, lay, params)
                h_mask = _matrix(emb_mask, lay, params)
                return _loss(target, h_full, h_mask, 0.8)

            assert grad_check(f, head.params[name], eps=1e-5) < 1e-4, name


class TestSerialization:
    def test_round_trip(self, tmp_path, head):
        elements = ("C", "O", "H")
        lay = layout(elements)
        h = _matrix(RNG.standard_normal((3, CFG.width)), lay, head.head(head.leaves(None))).data
        path = tmp_path / "h.bin"
        save_hamiltonian(path, h, lay)
        back, lay2 = load_hamiltonian(path)
        assert np.array_equal(back, h)
        assert lay2 == lay

    def test_upper_triangle_round_trip_sizes(self):
        h = RNG.standard_normal((5, 5))
        h = 0.5 * (h + h.T)
        assert upper_triangle(h).size == 15

    def test_truncated_file_rejected(self, tmp_path, head):
        lay = layout(("O", "H", "H"))
        h = np.eye(lay.n_orb)
        path = tmp_path / "h.bin"
        save_hamiltonian(path, h, lay)
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])
        with pytest.raises(CorruptFile):
            load_hamiltonian(path)

    @pytest.mark.parametrize("header", [
        {}, {"elements": 5}, {"elements": "OHH"}, {"elements": ["O", 2, "H"]},
        {"elements": ["O", "H", "Cl"]}, {"elements": ["O", "H"]},
        {"elements": ["O", "H", "H", "H"]},
    ], ids=["no-elements", "elements-int", "elements-string", "element-int", "unknown-element",
            "fewer-orbitals", "more-orbitals"])
    def test_bad_manifest_rejected(self, tmp_path, header):
        path = tmp_path / "h.bin"
        blob = upper_triangle(np.eye(layout(("O", "H", "H")).n_orb)).tobytes()
        write_framed(path, b"MHAM0002", header, blob)
        with pytest.raises(CorruptFile, match="h.bin"):
            load_hamiltonian(path)

    def test_no_atoms_rejected(self, tmp_path):
        path = tmp_path / "h.bin"
        write_framed(path, b"MHAM0002", {"elements": []}, b"")  # the empty triangle of 0 orbitals
        with pytest.raises(CorruptFile, match="at least one atom"):
            load_hamiltonian(path)

    @pytest.mark.parametrize("raw", [b"{not json", b"[1]", b"\xff", b'{"elements": ["C"]}'],
                             ids=["not-json", "array", "not-utf8", "no-digest"])
    def test_unreadable_manifest_rejected(self, tmp_path, raw):
        lay = layout(("O", "H", "H"))
        path = tmp_path / "h.bin"
        save_hamiltonian(path, np.eye(lay.n_orb), lay)
        blob = path.read_bytes()[16 + int.from_bytes(path.read_bytes()[8:16], "little"):]
        path.write_bytes(b"MHAM0002" + len(raw).to_bytes(8, "little") + raw + blob)
        with pytest.raises(CorruptFile, match="h.bin manifest"):
            load_hamiltonian(path)

    def test_flipped_blob_byte_rejected(self, tmp_path):
        lay = layout(("O", "H", "H"))
        path = tmp_path / "h.bin"
        save_hamiltonian(path, np.eye(lay.n_orb), lay)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile, match="checksum"):
            load_hamiltonian(path)

    def test_one_file_with_the_elements_in_its_manifest(self, tmp_path):
        lay = layout(("N", "H", "H", "H", "H"))
        save_hamiltonian(tmp_path / "h.bin", np.eye(lay.n_orb), lay)
        assert [p.name for p in tmp_path.iterdir()] == ["h.bin"]
        header, blob = read_framed(tmp_path / "h.bin", b"MHAM0002", "Hamiltonian matrix")
        assert header.keys() == {"elements", "blob_sha256"}
        assert header["elements"] == ["N", "H", "H", "H", "H"]
        assert len(blob) == 8 * lay.n_orb * (lay.n_orb + 1) // 2

    def test_layout_other_than_the_elements_give_not_written(self, tmp_path):
        lay = BlockLayout(("C", "H"), (0, 3), (3, 1))
        with pytest.raises(DimensionMismatch, match="default-basis layout"):
            save_hamiltonian(tmp_path / "h.bin", np.eye(4), lay)
        assert not (tmp_path / "h.bin").exists()

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "h.bin"
        first_format = b"MHAM0001" + (2).to_bytes(8, "little") + np.ones(3).tobytes()
        for raw in (b"garbage file content", first_format):
            path.write_bytes(raw)
            with pytest.raises(CorruptFile, match="not a Hamiltonian matrix file"):
                load_hamiltonian(path)
