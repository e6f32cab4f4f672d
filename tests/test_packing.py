"""Packed batches against the one-molecule-at-a-time reference.

A training step runs its whole batch as one padded block, and prediction
runs the same packed forward. These tests check that the batch losses, every
parameter gradient and the predicted matrices agree with `tests/_oracles.py`,
which runs the same model one molecule at a time on unpadded rows, and that
padding never leaks into the result.
"""

from __future__ import annotations

import numpy as np
import pytest

from _oracles import (encode_geometry_dense, finetune_loss_per_molecule,
                      hamiltonian_per_molecule, pretrain_loss_per_molecule,
                      token_rows_per_molecule)
from molham import autodiff as ad
from molham.alignment import fragment_plan
from molham.autodiff import Tape, constant
from molham.corpus import build_corpus
from molham.dataset import Dataset, generate_records
from molham.encoders import token_vocab_id
from molham.errors import IndexOutOfRange, TrainingAborted, ZeroNormRow
from molham.hamhead import BlockLayout, layout
from molham.model import Model, ModelConfig, mol_structure
from molham.nn import normalize_rows
from molham.oracle import embed_3d
from molham.smiles import (expand_hydrogens, fragment, mask_tokens, parse, parse_smiles,
                           tokenize)
from molham.training import TrainConfig, finetune, pretrain

# one atom, one fragment, the largest size the train benchmark draws (28
# atoms), and two mid-sized molecules with several fragments
BATCH = ["[F-]", "CCO", "CCCCCCCNC", "CCOCC", "c1ccccc1O"]
CFG = ModelConfig(width=8, token_layers=2, geom_rounds=2, n_rbf=5, n_shear=2, head_hidden=6)
TOL = 1e-12


def _model(config=CFG, seed=4):
    model = Model.init(config, seed=seed)
    rng = np.random.default_rng(seed)
    for name in model.params:  # free the zero-initialized heads so every path carries gradient
        if name.startswith(("gen.", "head.")):
            model.params[name][...] += 0.1 * rng.standard_normal(model.params[name].shape)
    return model


def _molecules():
    out = []
    rng = np.random.default_rng(5)
    for k, smiles in enumerate(BATCH):
        tokens = tokenize(smiles)
        mol = parse_smiles(smiles)
        xmol = expand_hydrogens(mol)
        frags = fragment(mol)
        lay = layout(xmol.elements)
        keep = [int(k % 2 == 0)] + [1] * (len(frags) - 1)  # odd k drops its first fragment
        out.append({"tokens": tokens, "xmol": xmol, "fragments": frags, "lay": lay,
                    "coords": embed_3d(xmol, 30 + k), "keep": keep,
                    "masked": mask_tokens(tokens, frags, keep),
                    "target": rng.standard_normal((lay.n_orb, lay.n_orb)) * 0.3,
                    "structure": mol_structure(tokens, xmol, frags, lay)})
    assert {m["xmol"].n_atoms for m in out} >= {1, 28}
    assert any(not all(m["keep"]) for m in out) and any(all(m["keep"]) for m in out)
    return out


MOLECULES = _molecules()


def _close(got, want, floor=1e-300) -> bool:
    scale = max(np.max(np.abs(want)), floor)
    return np.max(np.abs(np.asarray(got) - np.asarray(want))) <= TOL * scale


def _run(model, loss_fn, frozen=()):
    tape = Tape()
    lv = model.leaves(tape, frozen_prefixes=frozen)
    out = loss_fn(lv)
    tape.backward(out[0])
    return out, {name: tape.grad(leaf) for name, leaf in lv.items()}


def _assert_same_gradients(got, want):
    """Each gradient agrees to TOL relative to its largest entry, a scale that
    never drops below 1e-6 of the largest gradient entry of the model."""
    assert got.keys() == want.keys()
    top = max(np.max(np.abs(g)) for g in want.values() if g is not None)
    live = 0
    for name in want:
        if want[name] is None:
            assert got[name] is None, name
            continue
        live += 1
        assert _close(got[name], want[name], 1e-6 * top), name
    assert live


@pytest.mark.parametrize("compensation", [True, False])
def test_pretrain_batch_matches_reference(compensation):
    model = _model(ModelConfig(**{**CFG.__dict__, "compensation": compensation}))
    (total, d_terms, contrast), grads = _run(
        model, lambda lv: model.pretrain_batch_loss(lv, [m["structure"] for m in MOLECULES],
                                                    [m["coords"] for m in MOLECULES], 0.5))
    (ref_total, ref_terms, ref_contrast), ref_grads = _run(
        model, lambda lv: pretrain_loss_per_molecule(model, lv, MOLECULES, 0.5))
    assert _close(total.data, ref_total.data)
    assert _close(d_terms.data, [t.item() for t in ref_terms])
    assert _close(contrast.data, ref_contrast.data)
    _assert_same_gradients(grads, ref_grads)


@pytest.mark.parametrize("fusion", [False, True])
def test_finetune_batch_matches_reference(fusion):
    model = _model()
    frozen = ("token.",) if fusion else ()
    coords = [m["coords"] for m in MOLECULES] if fusion else None

    def packed(lv):
        terms = model.finetune_batch_loss(lv, [m["structure"] for m in MOLECULES],
                                          [m["keep"] for m in MOLECULES],
                                          [m["target"] for m in MOLECULES], 0.8, coords)
        return ad.mean(terms), terms

    def reference(lv):
        mols = [m if fusion else {k: v for k, v in m.items() if k != "coords"}
                for m in MOLECULES]
        return finetune_loss_per_molecule(model, lv, mols, 0.8)

    (total, terms), grads = _run(model, packed, frozen)
    (ref_total, ref_terms), ref_grads = _run(model, reference, frozen)
    assert _close(total.data, ref_total.data)
    assert _close(terms.data, [t.item() for t in ref_terms])
    _assert_same_gradients(grads, ref_grads)


@pytest.mark.parametrize("fusion", [False, True])
def test_prediction_matches_reference(fusion):
    # a one-atom, a one-fragment and a 28-atom molecule in one packed forward
    mols = MOLECULES[:3]
    assert [m["xmol"].n_atoms for m in mols] == [1, 9, 28] and len(mols[1]["fragments"]) == 1
    model = _model()
    lv = model.leaves(None)
    structs = [m["structure"] for m in mols]
    entries = model.predict_entries(lv, [s.tokens for s in structs], [0, 1, 2],
                                    [s.value_index for s in structs],
                                    [m["coords"] for m in mols] if fusion else None).data
    parts = np.split(entries, np.cumsum([s.value_index.size for s in structs])[:-1])
    for m, part in zip(mols, parts):
        emb = token_rows_per_molecule(m["tokens"], m["xmol"], model.token_encoder(lv))
        if fusion:
            emb = emb + encode_geometry_dense(list(m["xmol"].elements), m["coords"],
                                              model.geom_encoder(lv))
        want = hamiltonian_per_molecule(emb, m["lay"], model.head(lv)).data
        assert _close(part.reshape(want.shape), want)
        if fusion:
            alone = model.hamiltonian_fused(lv, m["tokens"], m["xmol"], m["lay"], m["coords"])
        else:
            alone = model.hamiltonian_from_tokens(lv, m["tokens"], m["xmol"], m["lay"])
        # alone, a one-token molecule's products have one row, which BLAS sums
        # in another order than the same row of a taller block
        same = np.array_equal if len(m["tokens"]) > 1 else _close
        assert same(alone.data, part.reshape(want.shape))


def test_masked_ids_match_mask_tokens():
    rng = np.random.default_rng(2)
    for smiles in BATCH + ["CC(=O)Nc1ccc(O)cc1", "C1CC[NH2+]CC1", "OC(=O)CCl", "FC(F)(F)C#N"]:
        tokens = tokenize(smiles)
        mol = parse_smiles(smiles)
        frags = fragment(mol)
        xmol = expand_hydrogens(mol)
        # masking reads no orbitals, and the basis has none for the Cl atom
        lay = BlockLayout(xmol.elements, tuple(range(xmol.n_atoms)), (1,) * xmol.n_atoms)
        structure = mol_structure(tokens, xmol, frags, lay)
        for _ in range(4):
            keep = [int(b) for b in rng.random(len(frags)) < 0.5]
            want = [token_vocab_id(t) for t in mask_tokens(tokens, frags, keep)]
            assert structure.masked(keep)[0].tolist() == want, (smiles, keep)


def test_dropping_any_fragment_changes_the_masked_ids():
    """Every fragment owns an atom token, so a molecule has a masked branch
    exactly when its keep bits hold a 0 (`Model.finetune_batch_loss`)."""
    drops = 0
    for smiles in build_corpus():
        tokens = tokenize(smiles)
        mol = parse(tokens)
        xmol = expand_hydrogens(mol)
        structure = mol_structure(tokens, xmol, fragment(mol), layout(xmol.elements))
        for f in range(structure.n_fragments):
            keep = [int(g != f) for g in range(structure.n_fragments)]
            assert not np.array_equal(structure.masked(keep)[0], structure.tokens[0]), \
                (smiles, keep)
            drops += 1
    assert drops > len(build_corpus())


def test_padding_rows_are_exempt_from_the_zero_norm_check():
    x = np.ones((2, 3, 4))
    x[0, 2] = 0.0  # a zero padding row: finite after normalization, no error
    pad = np.zeros((2, 3, 1))
    pad[0, 2] = 1.0
    out = normalize_rows(constant(x), pad=pad).data
    assert np.isfinite(out).all() and np.array_equal(out[0, 2], np.zeros(4))
    x[1, 0] = 0.0  # a zero real row
    with pytest.raises(ZeroNormRow):
        normalize_rows(constant(x), pad=pad)
    with pytest.raises(ZeroNormRow):
        normalize_rows(constant(np.zeros((1, 4))))


def test_fragment_plan_rejects_out_of_range_fragments():
    with pytest.raises(IndexOutOfRange):
        fragment_plan([np.array([0, 5])], [2], 3)
    with pytest.raises(IndexOutOfRange):
        fragment_plan([np.array([0, 1, 1, 0])], [2], 3)


class TestAbort:
    """A non-finite loss term names the record it belongs to."""

    SMILES = ["CCO", "OCCO", "CCN", "CCOC"]  # only CCN has a nitrogen

    @pytest.fixture(scope="class")
    def data(self):
        return Dataset(generate_records(self.SMILES, seed=3).records)

    def _poisoned(self, row):
        model = Model.init(CFG, seed=1)
        model.params["token.embed"][row] = np.nan
        return model

    def test_pretrain_names_the_record(self, data):
        model = self._poisoned(token_vocab_id(tokenize("N")[0]))
        with pytest.raises(TrainingAborted) as err, np.errstate(invalid="ignore"):
            pretrain(model, data, TrainConfig("pretrain", epochs=1, batch_size=4, seed=1))
        assert err.value.record_index == self.SMILES.index("CCN")

    def test_finetune_names_the_record(self, data):
        model = self._poisoned(token_vocab_id(tokenize("N")[0]))
        with pytest.raises(TrainingAborted) as err, np.errstate(invalid="ignore"):
            finetune(model, data, TrainConfig("finetune", epochs=1, batch_size=4, seed=1))
        assert err.value.record_index == self.SMILES.index("CCN")

    def test_a_term_shared_by_the_batch_names_its_first_record(self, data):
        model = Model.init(CFG, seed=1)
        model.params["align.log_tau"][:] = np.nan  # poisons the contrastive part only
        order = np.random.Generator(np.random.PCG64(np.random.SeedSequence([1, 11])))
        first = int(order.permutation(len(self.SMILES))[0])
        with pytest.raises(TrainingAborted) as err, np.errstate(invalid="ignore"):
            pretrain(model, data, TrainConfig("pretrain", epochs=1, batch_size=4, seed=1))
        assert err.value.record_index == first
