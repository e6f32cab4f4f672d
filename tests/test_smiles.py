"""Tokenizer, parser, fragmenter, and masking tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import regex_atom_count, regex_bond_count, regex_tokenize
from molham.corpus import build_corpus
from molham.errors import (
    LengthMismatch,
    SmilesError,
    UnbalancedBranch,
    UnknownSymbol,
    UnmatchedRingClosure,
    UnterminatedBracket,
    ValenceExceeded,
)
from molham.smiles import (
    MASK_TEXT,
    detokenize,
    expand_hydrogens,
    expanded_fragments,
    fragment,
    mask_tokens,
    parse,
    parse_smiles,
    tokenize,
)

CORPUS_100 = build_corpus()[:100]


class TestTokenize:
    def test_single_atom(self):
        toks = tokenize("C")
        assert [(t.kind, t.text) for t in toks] == [("atom", "C")]

    def test_chain(self):
        assert [t.text for t in tokenize("CCO")] == ["C", "C", "O"]

    def test_benzene_token_kinds(self):
        toks = tokenize("c1ccccc1")
        kinds = [t.kind for t in toks]
        assert kinds.count("atom") == 6
        assert kinds.count("ring") == 2

    def test_two_letter_elements(self):
        assert [t.text for t in tokenize("ClCBr")] == ["Cl", "C", "Br"]

    def test_positions_consecutive(self):
        toks = tokenize("CC(=O)N")
        assert [t.position for t in toks] == list(range(len(toks)))

    def test_bracket_atom(self):
        toks = tokenize("[NH3+]")
        assert toks[0].kind == "bracket"
        assert toks[0].text == "[NH3+]"

    def test_stereo_marks_accepted(self):
        assert [t.kind for t in tokenize("F/C=C/F")].count("bond") == 3

    def test_unterminated_bracket(self):
        with pytest.raises(UnterminatedBracket):
            tokenize("C[NH2")

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            tokenize("C?C")

    def test_unknown_element_in_bracket(self):
        with pytest.raises(UnknownSymbol):
            tokenize("[Xe]")

    def test_dot_rejected(self):
        with pytest.raises(UnknownSymbol):
            tokenize("C.C")

    def test_matches_reference_tokenizer_on_corpus(self):
        for smiles in CORPUS_100:
            assert [t.text for t in tokenize(smiles)] == regex_tokenize(smiles)

    def test_round_trip_on_corpus(self):
        for smiles in build_corpus():
            assert detokenize(tokenize(smiles)) == smiles

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.text(alphabet="CNOcno()=#123[]HBrl+-%/\\@.PSF", max_size=24))
    def test_never_crashes_and_round_trips(self, text):
        try:
            toks = tokenize(text)
        except SmilesError:
            return
        assert detokenize(toks) == text


_SMILES_PIECES = ["C", "N", "O", "S", "P", "F", "Cl", "Br", "I", "B", "c", "n", "o", "s", "p",
                  "b", "[", "]", "H", "+", "-", "@", "(", ")", "=", "#", ":", "/", "\\", ".",
                  "%", "1", "2", "3", "9", "0", "*", "l", "r", "[NH4+]", "[O-]", "[C@@H]",
                  "c1ccccc1", "%12", " "]


class TestFrontEndFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.one_of(st.lists(st.sampled_from(_SMILES_PIECES), max_size=16).map("".join),
                     st.text(alphabet="".join(_SMILES_PIECES) + "XZaz$&~{}<>?!'", max_size=20)))
    def test_only_smiles_errors_escape(self, text):
        for call in (tokenize, parse_smiles):
            try:
                call(text)
            except SmilesError:
                pass


class TestParse:
    def test_ethanol(self):
        mol = parse_smiles("CCO")
        assert mol.n_atoms == 3
        assert len(mol.bonds) == 2
        assert [a.hydrogens for a in mol.atoms] == [3, 2, 1]
        assert all(b.order == 1 for b in mol.bonds)

    def test_cyclopropane_all_ring(self):
        mol = parse_smiles("C1CC1")
        assert mol.n_atoms == 3
        assert len(mol.bonds) == 3
        assert all(b.in_ring for b in mol.bonds)

    def test_benzene_aromatic(self):
        mol = parse_smiles("c1ccccc1")
        assert mol.n_atoms == 6
        assert len(mol.bonds) == 6
        assert all(b.aromatic and b.in_ring for b in mol.bonds)
        assert all(a.hydrogens == 1 for a in mol.atoms)

    def test_acyclic_bonds_not_ring_flagged(self):
        mol = parse_smiles("CCc1ccccc1")
        ring_flags = [b.in_ring for b in mol.bonds]
        assert ring_flags.count(True) == 6
        assert ring_flags.count(False) == 2

    def test_double_and_triple_bonds(self):
        mol = parse_smiles("C=CC#N")
        orders = sorted(b.order for b in mol.bonds)
        assert orders == [1, 2, 3]
        assert [a.hydrogens for a in mol.atoms] == [2, 1, 0, 0]

    def test_branching(self):
        mol = parse_smiles("CC(C)C")
        degree = [sum(i in (b.i, b.j) for b in mol.bonds) for i in range(4)]
        assert sorted(degree) == [1, 1, 1, 3]

    def test_bracket_hydrogens_explicit(self):
        mol = parse_smiles("[H][H]")
        assert mol.n_atoms == 2
        assert [a.hydrogens for a in mol.atoms] == [0, 0]

    def test_charge_stored(self):
        mol = parse_smiles("C[O-]")
        assert mol.atoms[1].charge == -1

    def test_source_token_indices_unique(self):
        mol = parse_smiles("CC(=O)OC")
        idx = [a.token_index for a in mol.atoms]
        assert len(set(idx)) == len(idx)

    def test_ring_digits_attributed_to_preceding_atom(self):
        mol = parse_smiles("C1CC1")
        assert mol.atom_token_sets[0] == (0, 1)  # atom token plus its ring digit

    def test_unmatched_ring(self):
        with pytest.raises(UnmatchedRingClosure):
            parse_smiles("C1CC")

    def test_unbalanced_branch(self):
        with pytest.raises(UnbalancedBranch):
            parse_smiles("CC(C")
        with pytest.raises(UnbalancedBranch):
            parse_smiles("CC)C")

    def test_valence_exceeded(self):
        with pytest.raises(ValenceExceeded):
            parse_smiles("C(=O)(=O)=O")

    def test_counts_match_reference_on_corpus(self):
        for smiles in CORPUS_100:
            mol = parse_smiles(smiles)
            assert mol.n_atoms == regex_atom_count(smiles), smiles
            assert len(mol.bonds) == regex_bond_count(smiles), smiles


class TestFragment:
    def test_small_molecule_single_fragment(self):
        frags = fragment(parse_smiles("CCO"))
        assert len(frags) == 1
        assert frags[0].atoms == (0, 1, 2)

    def test_ether_splits_in_two(self):
        frags = fragment(parse_smiles("CCOCC"))
        assert [f.atoms for f in frags] == [(0, 1), (2, 3, 4)]

    def test_ring_never_cleaved(self):
        assert len(fragment(parse_smiles("c1ccccc1"))) == 1

    def test_partition_properties_on_corpus(self):
        for smiles in CORPUS_100:
            mol = parse_smiles(smiles)
            frags = fragment(mol)
            seen = sorted(a for f in frags for a in f.atoms)
            assert seen == list(range(mol.n_atoms)), smiles
            for f in frags:
                assert _connected(mol, set(f.atoms)), (smiles, f.atoms)

    def test_deterministic(self):
        a = fragment(parse_smiles("CCOCCOCC"))
        b = fragment(parse_smiles("CCOCCOCC"))
        assert [f.atoms for f in a] == [f.atoms for f in b]


def _connected(mol, atoms: set[int]) -> bool:
    start = next(iter(atoms))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for b in mol.bonds:
            if b.i == cur and b.j in atoms and b.j not in seen:
                seen.add(b.j)
                stack.append(b.j)
            elif b.j == cur and b.i in atoms and b.i not in seen:
                seen.add(b.i)
                stack.append(b.i)
    return seen == atoms


class TestMask:
    def test_all_ones_is_identity(self):
        toks = tokenize("CCOCC")
        frags = fragment(parse_smiles("CCOCC"))
        assert mask_tokens(toks, frags, [1, 1]) == toks

    def test_single_fragment_all_masked(self):
        toks = tokenize("CCO")
        frags = fragment(parse_smiles("CCO"))
        masked = mask_tokens(toks, frags, [0])
        assert all(t.kind == "mask" for t in masked)
        assert all(t.text == MASK_TEXT for t in masked)

    def test_partial_mask(self):
        toks = tokenize("CCOCC")
        frags = fragment(parse_smiles("CCOCC"))
        masked = mask_tokens(toks, frags, [1, 0])
        assert [t.kind for t in masked] == ["atom", "atom", "mask", "mask", "mask"]

    def test_length_and_positions_preserved(self):
        toks = tokenize("CCOc1ccccc1")
        frags = fragment(parse_smiles("CCOc1ccccc1"))
        masked = mask_tokens(toks, frags, [0] * len(frags))
        assert len(masked) == len(toks)
        assert [t.position for t in masked] == [t.position for t in toks]

    def test_structural_tokens_untouched(self):
        toks = tokenize("c1ccccc1CC")
        frags = fragment(parse_smiles("c1ccccc1CC"))
        masked = mask_tokens(toks, frags, [0] * len(frags))
        for t in masked:
            assert t.kind in ("mask", "ring", "open", "close", "bond")

    def test_length_mismatch(self):
        toks = tokenize("CCOCC")
        frags = fragment(parse_smiles("CCOCC"))
        with pytest.raises(LengthMismatch):
            mask_tokens(toks, frags, [1])


class TestExpand:
    def test_water(self):
        xmol = expand_hydrogens(parse_smiles("O"))
        assert xmol.elements == ("O", "H", "H")
        assert xmol.parent == (0, 0, 0)
        assert len(xmol.bonds) == 2

    def test_token_sets_inherited(self):
        xmol = expand_hydrogens(parse_smiles("CO"))
        assert xmol.token_sets[2] == xmol.token_sets[0]  # first H of the carbon

    def test_expanded_fragments_cover_all_atoms(self):
        mol = parse_smiles("CCOCC")
        xmol = expand_hydrogens(mol)
        xfrags = expanded_fragments(xmol, fragment(mol))
        seen = sorted(a for f in xfrags for a in f)
        assert seen == list(range(xmol.n_atoms))
