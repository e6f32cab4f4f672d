"""Tokenizer, parser, fragmenter, and masking tests."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    fragment_by_relabelling,
    regex_atom_count,
    regex_bond_count,
    regex_tokenize,
    ring_flags_by_relabelling,
)
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
    Token,
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


# (string, exact error type, message) for the error paths of `parse`
_PARSE_ERRORS = [
    ("C11", UnmatchedRingClosure, "ring closure bonds atom 0 to itself"),
    ("C12CC12", UnmatchedRingClosure, "duplicate bond between atoms 0 and 2"),
    ("C(C1)1", UnmatchedRingClosure, "duplicate bond between atoms 1 and 0"),
    ("C=1CC-1", UnmatchedRingClosure, "conflicting bond orders on ring closure '1'"),
    ("C1CC", UnmatchedRingClosure, "unclosed ring closure(s): ['1']"),
    ("C%10CC", UnmatchedRingClosure, "unclosed ring closure(s): ['%10']"),
    ("1C", UnmatchedRingClosure, "ring closure '1' with no preceding atom"),
    ("C=", SmilesError, "dangling bond at end of string"),
    ("=C", SmilesError, "bond '=' with no preceding atom"),
    ("(C)", UnbalancedBranch, "branch opened before any atom"),
    ("CC)", UnbalancedBranch, "branch closed without matching open"),
    ("C(C", UnbalancedBranch, "1 branch(es) left open"),
    ("FF(F)", ValenceExceeded, "atom 1 (F) uses 2.0 bonds, valence is 1"),
]


class TestParseErrors:
    @pytest.mark.parametrize("smiles,kind,message", _PARSE_ERRORS)
    def test_type_and_message(self, smiles, kind, message):
        with pytest.raises(SmilesError) as info:
            parse_smiles(smiles)
        assert type(info.value) is kind
        assert str(info.value) == message

    @pytest.mark.parametrize("tokens,kind,message", [
        ([Token("atom", "C", 0), Token("mask", MASK_TEXT, 1)], UnknownSymbol,
         "mask tokens cannot be parsed into a graph"),
        ([Token("atom", "C", 0), Token("dot", ".", 1)], UnknownSymbol,
         "unknown token kind 'dot'"),
        ([], SmilesError, "no atoms in string"),
    ])
    def test_token_paths(self, tokens, kind, message):
        with pytest.raises(SmilesError) as info:
            parse(tokens)
        assert type(info.value) is kind
        assert str(info.value) == message


def _random_smiles(rng: random.Random) -> str:
    """A string from the branch and ring grammar. A closure never repeats a
    bond or closes on its own atom; bare atoms may still exceed their valence,
    which the caller skips."""
    out: list[str] = []
    open_at: dict[int, int] = {}  # ring label -> the atom that opened it
    pairs: set[tuple[int, int]] = set()
    count = 0

    def ring_text(label: int) -> str:
        return str(label) if label < 10 else f"%{label}"

    def chain(depth: int, prev: int) -> None:
        nonlocal count
        for _ in range(rng.randint(1 if depth else 3, 6)):
            atom, count = count, count + 1
            if prev >= 0:
                out.append(rng.choice(["", "", "", "", "-", "=", ":"]))
                pairs.add((prev, atom))
            out.append(rng.choice(["C", "C", "c", "[C]", "[CH2]", "[O]", "[N+]", "[H]"]))
            for _ in range(rng.choice([0, 0, 0, 0, 1, 2])):
                closable = [label for label, other in open_at.items()
                            if other != atom and (other, atom) not in pairs]
                if closable and rng.random() < 0.6:
                    label = rng.choice(closable)
                    pairs.add((open_at.pop(label), atom))
                else:
                    label = min(set(range(1, 20)) - open_at.keys())
                    open_at[label] = atom
                out.append(ring_text(label))
            while depth < 3 and rng.random() < 0.3:
                out.append("(")
                chain(depth + 1, atom)
                out.append(")")
            prev = atom

    chain(0, -1)
    if open_at:
        out.append("C")
    out.extend("C" + ring_text(label) for label in open_at)
    return "".join(out)


# pieces of the random joins: atoms, brackets (bad ones included), bonds, ring
# labels (a malformed %n too), parentheses and '.'
_PIECES = ["C", "c", "N", "n", "O", "o", "S", "s", "F", "Cl", "Br", "I", "B", "P", "X",
           "[C]", "[CH2]", "[nH]", "[NH4+]", "[O-]", "[H]", "[C@@H]", "[Fe]", "[]", "[C",
           "-", "=", "#", ":", "/", "\\", "1", "2", "3", "%10", "%1", "(", ")", "."]


_TREE_CASES = [
    "CC(C1)C1", "C1CC(CC1)C1CC1",  # closures after branches
    "C1C2CC12", "C12C3C1C23", "C1CC2CC1CC2",  # fused, bridged, spiro
    "C%10CC%10", "C%12CCC(C%12)CC%10CC%10", "C1CC%11CC1CC%11CCOCC",  # %nn closures
    "[H]C([H])([H])C", "[H]OCCOC[H]", "CC([H])CC[H]", "[H][H]",  # explicit [H]
]


class TestTreeWalks:
    """Ring flags and fragments read from the parse tree equal a connected-
    component relabelling per bond and per candidate cut."""

    @pytest.mark.parametrize("smiles", _TREE_CASES)
    def test_listed_shapes(self, smiles):
        mol = parse_smiles(smiles)
        assert [b.in_ring for b in mol.bonds] == ring_flags_by_relabelling(mol)
        assert fragment(mol) == fragment_by_relabelling(mol)

    def test_large_shapes(self):
        chain = parse_smiles("C" * 300)
        ring = parse_smiles("C1" + "C" * 298 + "C1")
        cyclopropanes = parse_smiles("C1CC1" * 50)
        assert not any(b.in_ring for b in chain.bonds)
        assert ring.n_atoms == 300 and all(b.in_ring for b in ring.bonds)
        assert len(fragment(cyclopropanes)) == 50
        for mol in (chain, ring, cyclopropanes):
            assert [b.in_ring for b in mol.bonds] == ring_flags_by_relabelling(mol)
            assert fragment(mol) == fragment_by_relabelling(mol)

    def test_random_grammar_strings(self):
        rng = random.Random(23)
        parsed = 0
        for _ in range(400):
            smiles = _random_smiles(rng)
            try:
                mol = parse_smiles(smiles)
            except SmilesError:
                continue
            parsed += 1
            assert [b.in_ring for b in mol.bonds] == ring_flags_by_relabelling(mol), smiles
            assert fragment(mol) == fragment_by_relabelling(mol), smiles
        assert parsed >= 150

    def test_parent_is_the_chain_or_branch_atom(self):
        assert parse_smiles("CC(C)(O)C").parent == [-1, 0, 1, 1, 1]
        assert parse_smiles("C1CC(CC1)C").parent == [-1, 0, 1, 2, 3, 2]


class TestFrontEndPinned:
    def test_corpus_parse_and_fragments_digest(self):
        """Atoms, bonds with ring flags, atom token sets and fragments of every
        bundled-corpus entry, hashed; a rewrite of the graph walks must keep it."""
        digest = hashlib.sha256()
        for smiles in build_corpus():
            mol = parse_smiles(smiles)
            row = (smiles,
                   [(a.element, a.aromatic, a.charge, a.hydrogens, a.token_index)
                    for a in mol.atoms],
                   [(b.i, b.j, b.order, b.aromatic, b.in_ring) for b in mol.bonds],
                   mol.atom_token_sets,
                   [(f.fragment_id, f.atoms, f.token_indices) for f in fragment(mol)])
            digest.update(repr(row).encode() + b"\n")
        assert digest.hexdigest() == ("279751886c4a1e1854942be5f93faac2"
                                      "f7843005cdadf0db20c2fbed9a43b481")

    def test_random_strings_outcome_digest(self):
        """Each seeded string's error type and message, or its atoms, bonds,
        token sets and parents, hashed. Half the strings come from the branch
        and ring grammar, half are random joins of `_PIECES`."""
        rng = random.Random(7)
        digest = hashlib.sha256()
        parsed = failed = 0
        for k in range(1600):
            if k % 2:
                smiles = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 14)))
            else:
                try:
                    smiles = _random_smiles(rng)
                except ValueError:  # all 19 ring labels open at once
                    continue
            try:
                mol = parse_smiles(smiles)
            except SmilesError as exc:
                failed += 1
                row = (smiles, type(exc).__name__, str(exc))
            else:
                parsed += 1
                row = (smiles,
                       [(a.element, a.aromatic, a.charge, a.hydrogens, a.token_index)
                        for a in mol.atoms],
                       [(b.i, b.j, b.order, b.aromatic, b.in_ring) for b in mol.bonds],
                       mol.atom_token_sets, mol.parent)
            digest.update(repr(row).encode() + b"\n")
        assert parsed >= 400 and failed >= 1000
        assert digest.hexdigest() == ("27e3b46d7f13ac1aaff03cbe7181c905"
                                      "37ad0e8ac8798bea62701ad6b303edc8")


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
