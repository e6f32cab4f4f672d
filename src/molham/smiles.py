"""SMILES tokenizer, parser, fragmenter, and fragment masking.

Scope: single-component SMILES over H, B, C, N, O, F, P, S, Cl, Br, I with
bracket atoms, aromatic lowercase forms, ring closures (1-9 and %nn), and
branches. Stereo markers (/, \\, @) are tokenized and ignored by the parser.
Isotopes, wildcards, and multi-component strings are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    LengthMismatch,
    SmilesError,
    UnbalancedBranch,
    UnknownSymbol,
    UnmatchedRingClosure,
    UnterminatedBracket,
    ValenceExceeded,
)

ORGANIC_SUBSET = ("Cl", "Br", "B", "C", "N", "O", "F", "P", "S", "I")
AROMATIC_SYMBOLS = ("b", "c", "n", "o", "p", "s")
BRACKET_ELEMENTS = ("Cl", "Br", "H", "B", "C", "N", "O", "F", "P", "S", "I")
BOND_CHARS = "-=#:/\\"

# Lowest standard valence used for implicit hydrogen filling. Bracket atoms
# carry their hydrogen count explicitly and bypass this table.
VALENCE = {"H": 1, "B": 3, "C": 4, "N": 3, "O": 2, "F": 1, "P": 3, "S": 2,
           "Cl": 1, "Br": 1, "I": 1}


@dataclass(frozen=True)
class Token:
    """One lexical unit of a SMILES string.

    kind is one of: atom, bracket, bond, ring, open, close, mask.
    Concatenating the texts of a tokenized string reproduces the input.
    """

    kind: str
    text: str
    position: int


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool
    charge: int
    hydrogens: int
    token_index: int


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: int
    aromatic: bool
    in_ring: bool = False


@dataclass
class MolGraph:
    """Parsed molecule over the atoms written in the SMILES string."""

    atoms: list[Atom]
    bonds: list[Bond]
    # token indices owned by each atom: its atom token plus any ring-closure
    # digits attributed to it
    atom_token_sets: list[tuple[int, ...]]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class Fragment:
    fragment_id: int
    atoms: tuple[int, ...]
    token_indices: tuple[int, ...]


MASK_TEXT = "[MASK]"


# --- tokenizer ---

def tokenize(smiles: str) -> list[Token]:
    """Split a SMILES string into tokens.

    Raises UnknownSymbol for unsupported characters or elements and
    UnterminatedBracket for an unclosed bracket atom.
    """
    if not smiles:
        raise UnknownSymbol("empty SMILES string")
    tokens: list[Token] = []
    i = 0
    n = len(smiles)
    while i < n:
        ch = smiles[i]
        if ch == "[":
            j = smiles.find("]", i)
            if j < 0:
                raise UnterminatedBracket(f"unterminated bracket at position {i}: {smiles[i:]!r}")
            text = smiles[i:j + 1]
            _bracket_fields(text)  # validate early
            tokens.append(Token("bracket", text, len(tokens)))
            i = j + 1
        elif smiles.startswith(("Cl", "Br"), i):
            tokens.append(Token("atom", smiles[i:i + 2], len(tokens)))
            i += 2
        elif ch in "BCNOFPSI":
            tokens.append(Token("atom", ch, len(tokens)))
            i += 1
        elif ch in AROMATIC_SYMBOLS:
            tokens.append(Token("atom", ch, len(tokens)))
            i += 1
        elif ch in BOND_CHARS:
            tokens.append(Token("bond", ch, len(tokens)))
            i += 1
        elif ch.isdigit():
            tokens.append(Token("ring", ch, len(tokens)))
            i += 1
        elif ch == "%":
            if i + 2 >= n or not (smiles[i + 1].isdigit() and smiles[i + 2].isdigit()):
                raise UnknownSymbol(f"malformed %nn ring closure at position {i}")
            tokens.append(Token("ring", smiles[i:i + 3], len(tokens)))
            i += 3
        elif ch == "(":
            tokens.append(Token("open", ch, len(tokens)))
            i += 1
        elif ch == ")":
            tokens.append(Token("close", ch, len(tokens)))
            i += 1
        elif ch == ".":
            raise UnknownSymbol("multi-component SMILES ('.') is not supported")
        else:
            raise UnknownSymbol(f"unsupported character {ch!r} at position {i}")
    return tokens


def detokenize(tokens: list[Token]) -> str:
    return "".join(t.text for t in tokens)


def _bracket_fields(text: str) -> tuple[str, bool, int, int]:
    """Parse '[...]' into (element, aromatic, charge, hydrogens)."""
    body = text[1:-1]
    if not body:
        raise UnknownSymbol(f"empty bracket atom {text!r}")
    i = 0
    # stereo marks before the element are accepted and ignored
    while i < len(body) and body[i] == "@":
        i += 1
    element = None
    aromatic = False
    for cand in BRACKET_ELEMENTS:
        if body.startswith(cand, i):
            element = cand
            i += len(cand)
            break
    if element is None and i < len(body) and body[i] in AROMATIC_SYMBOLS:
        element = body[i].upper()
        aromatic = True
        i += 1
    if element is None:
        raise UnknownSymbol(f"unsupported element in bracket atom {text!r}")
    while i < len(body) and body[i] == "@":
        i += 1
    hydrogens = 0
    if i < len(body) and body[i] == "H":
        i += 1
        digits = ""
        while i < len(body) and body[i].isdigit():
            digits += body[i]
            i += 1
        hydrogens = int(digits) if digits else 1
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symbol = body[i]
        i += 1
        digits = ""
        while i < len(body) and body[i].isdigit():
            digits += body[i]
            i += 1
        if digits:
            charge = sign * int(digits)
        else:
            count = 1
            while i < len(body) and body[i] == symbol:
                count += 1
                i += 1
            charge = sign * count
    if i != len(body):
        raise UnknownSymbol(f"unsupported bracket atom content {text!r}")
    return element, aromatic, charge, hydrogens


def atom_symbol_of(token: Token) -> tuple[str, bool]:
    """(element, aromatic) for an atom or bracket token."""
    if token.kind == "atom":
        if token.text in AROMATIC_SYMBOLS:
            return token.text.upper(), True
        return token.text, False
    if token.kind == "bracket":
        element, aromatic, _, _ = _bracket_fields(token.text)
        return element, aromatic
    raise UnknownSymbol(f"token {token.text!r} is not an atom token")


# --- parser ---

@dataclass
class _PendingAtom:
    element: str
    aromatic: bool
    charge: int
    bracket_h: int | None
    token_index: int


@dataclass
class _BondDraft:
    i: int
    j: int
    order: int
    aromatic: bool


@dataclass
class _ParseState:
    prev: int | None = None
    pending_bond: str | None = None
    branch_stack: list[int] = field(default_factory=list)
    open_rings: dict[str, tuple[int, str | None]] = field(default_factory=dict)


def parse(tokens: list[Token]) -> MolGraph:
    """Build a molecular graph from a token sequence.

    Implicit hydrogens are filled to the standard lowest valence for bare
    organic-subset atoms; bracket atoms keep exactly the written H count.
    Aromatic bonds count 1.5 toward valence; aromatic atoms are clamped at
    zero implicit hydrogens instead of raising, to absorb delocalization.
    """
    atoms: list[_PendingAtom] = []
    drafts: list[_BondDraft] = []
    token_sets: list[list[int]] = []
    state = _ParseState()

    def add_bond(i: int, j: int, symbol: str | None) -> None:
        if i == j:
            raise UnmatchedRingClosure(f"ring closure bonds atom {i} to itself")
        for d in drafts:
            if {d.i, d.j} == {i, j}:
                raise UnmatchedRingClosure(f"duplicate bond between atoms {i} and {j}")
        if symbol is None or symbol in "/\\":
            aromatic = atoms[i].aromatic and atoms[j].aromatic
            drafts.append(_BondDraft(i, j, 1, aromatic))
        elif symbol == ":":
            drafts.append(_BondDraft(i, j, 1, True))
        else:
            drafts.append(_BondDraft(i, j, {"-": 1, "=": 2, "#": 3}[symbol], False))

    for tok in tokens:
        if tok.kind in ("atom", "bracket"):
            if tok.kind == "atom":
                element, aromatic = atom_symbol_of(tok)
                if tok.text not in ORGANIC_SUBSET and tok.text not in AROMATIC_SYMBOLS:
                    raise UnknownSymbol(f"element {tok.text!r} requires brackets")
                atoms.append(_PendingAtom(element, aromatic, 0, None, tok.position))
            else:
                element, aromatic, charge, hyd = _bracket_fields(tok.text)
                atoms.append(_PendingAtom(element, aromatic, charge, hyd, tok.position))
            token_sets.append([tok.position])
            idx = len(atoms) - 1
            if state.prev is not None:
                add_bond(state.prev, idx, state.pending_bond)
            state.prev = idx
            state.pending_bond = None
        elif tok.kind == "bond":
            if state.prev is None:
                raise SmilesError(f"bond {tok.text!r} with no preceding atom")
            state.pending_bond = tok.text
        elif tok.kind == "ring":
            if state.prev is None:
                raise UnmatchedRingClosure(f"ring closure {tok.text!r} with no preceding atom")
            token_sets[state.prev].append(tok.position)
            key = tok.text
            if key in state.open_rings:
                other, opened_bond = state.open_rings.pop(key)
                symbol = state.pending_bond or opened_bond
                if state.pending_bond and opened_bond and state.pending_bond != opened_bond:
                    raise UnmatchedRingClosure(
                        f"conflicting bond orders on ring closure {key!r}")
                add_bond(other, state.prev, symbol)
            else:
                state.open_rings[key] = (state.prev, state.pending_bond)
            state.pending_bond = None
        elif tok.kind == "open":
            if state.prev is None:
                raise UnbalancedBranch("branch opened before any atom")
            state.branch_stack.append(state.prev)
        elif tok.kind == "close":
            if not state.branch_stack:
                raise UnbalancedBranch("branch closed without matching open")
            state.prev = state.branch_stack.pop()
        elif tok.kind == "mask":
            raise UnknownSymbol("mask tokens cannot be parsed into a graph")
        else:
            raise UnknownSymbol(f"unknown token kind {tok.kind!r}")

    if state.branch_stack:
        raise UnbalancedBranch(f"{len(state.branch_stack)} branch(es) left open")
    if state.open_rings:
        raise UnmatchedRingClosure(f"unclosed ring closure(s): {sorted(state.open_rings)}")
    if state.pending_bond is not None:
        raise SmilesError("dangling bond at end of string")
    if not atoms:
        raise SmilesError("no atoms in string")

    n = len(atoms)
    edges = [(d.i, d.j) for d in drafts]
    bonds = []
    for k, d in enumerate(drafts):
        # a ring bond's endpoints stay connected without it
        label = _components(n, edges[:k] + edges[k + 1:])
        bonds.append(Bond(d.i, d.j, d.order, d.aromatic, label[d.i] == label[d.j]))

    order_sum = [0.0] * n
    for b in bonds:
        for idx in (b.i, b.j):
            order_sum[idx] += 1.5 if b.aromatic else b.order
    final_atoms: list[Atom] = []
    for idx, a in enumerate(atoms):
        if a.bracket_h is not None:
            hydrogens = a.bracket_h
        else:
            valence = VALENCE[a.element]
            used = math.ceil(order_sum[idx])
            if used > valence and not a.aromatic:
                raise ValenceExceeded(
                    f"atom {idx} ({a.element}) uses {order_sum[idx]} bonds, valence is {valence}")
            hydrogens = max(0, valence - used)
        final_atoms.append(Atom(a.element, a.aromatic, a.charge, hydrogens, a.token_index))

    if any(_components(n, edges)):
        raise SmilesError("molecule graph is not connected")
    return MolGraph(final_atoms, bonds, [tuple(s) for s in token_sets])


def _components(n_atoms: int, edges: list[tuple[int, int]]) -> list[int]:
    """Connected-component label of each atom, components numbered in order
    of their lowest atom."""
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    label = [-1] * n_atoms
    count = 0
    for start in range(n_atoms):
        if label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if label[nxt] < 0:
                    label[nxt] = count
                    stack.append(nxt)
        count += 1
    return label


def parse_smiles(smiles: str) -> MolGraph:
    return parse(tokenize(smiles))


# --- fragmentation ---

def fragment(mol: MolGraph) -> list[Fragment]:
    """Partition atoms into connected fragments.

    Cleavage rule (a reduced retrosynthetic-style rule set): walk candidate
    bonds in index order and cut a bond iff it is an acyclic single
    non-aromatic bond between two non-hydrogen atoms and both components that
    the cut produces, within the current partition, keep at least two
    non-hydrogen atoms. Molecules with no cleavable bond yield one fragment.
    """
    n = mol.n_atoms
    heavy = [a.element != "H" for a in mol.atoms]
    active = [True] * len(mol.bonds)

    def labels(skip: int = -1) -> list[int]:
        return _components(n, [(b.i, b.j) for k, b in enumerate(mol.bonds)
                               if active[k] and k != skip])

    for k, b in enumerate(mol.bonds):
        if b.in_ring or b.aromatic or b.order != 1 or not (heavy[b.i] and heavy[b.j]):
            continue
        label = labels(skip=k)
        heavy_count = [0] * (max(label) + 1)
        for a, lab in enumerate(label):
            heavy_count[lab] += heavy[a]
        if heavy_count[label[b.i]] >= 2 and heavy_count[label[b.j]] >= 2:
            active[k] = False

    members: list[list[int]] = []
    for a, lab in enumerate(labels()):
        if lab == len(members):
            members.append([])
        members[lab].append(a)
    return [Fragment(fid, tuple(atoms),
                     tuple(sorted(t for a in atoms for t in mol.atom_token_sets[a])))
            for fid, atoms in enumerate(members)]


def mask_tokens(tokens: list[Token], fragments: list[Fragment], keep: list[int]) -> list[Token]:
    """Replace atom tokens of dropped fragments (keep[i] == 0) with mask tokens.

    Sequence length and token positions are unchanged; an all-ones vector is
    the identity.
    """
    if len(keep) != len(fragments):
        raise LengthMismatch(f"{len(keep)} mask bits for {len(fragments)} fragments")
    atom_token_positions: set[int] = set()
    for frag, bit in zip(fragments, keep):
        if bit:
            continue
        for t in frag.token_indices:
            if tokens[t].kind in ("atom", "bracket"):
                atom_token_positions.add(t)
    return [Token("mask", MASK_TEXT, t.position) if t.position in atom_token_positions else t
            for t in tokens]


# --- hydrogen expansion ---

@dataclass(frozen=True)
class ExpandedMol:
    """Molecule with implicit hydrogens made explicit.

    Written atoms keep their indices 0..n-1; fill hydrogens are appended in
    parent order. Each expanded atom inherits the token set and fragment of
    its parent written atom.
    """

    elements: tuple[str, ...]
    parent: tuple[int, ...]
    bonds: tuple[tuple[int, int], ...]
    token_sets: tuple[tuple[int, ...], ...]

    @property
    def n_atoms(self) -> int:
        return len(self.elements)


def expand_hydrogens(mol: MolGraph) -> ExpandedMol:
    elements = [a.element for a in mol.atoms]
    parent = list(range(mol.n_atoms))
    bonds = [(b.i, b.j) for b in mol.bonds]
    token_sets = [mol.atom_token_sets[i] for i in range(mol.n_atoms)]
    for idx, a in enumerate(mol.atoms):
        for _ in range(a.hydrogens):
            h = len(elements)
            elements.append("H")
            parent.append(idx)
            bonds.append((idx, h))
            token_sets.append(mol.atom_token_sets[idx])
    return ExpandedMol(tuple(elements), tuple(parent), tuple(bonds), tuple(token_sets))


def expanded_fragments(xmol: ExpandedMol, fragments: list[Fragment]) -> list[tuple[int, ...]]:
    """Fragment atom lists over the expanded molecule (hydrogens join parents)."""
    frag_of = {}
    for f in fragments:
        for a in f.atoms:
            frag_of[a] = f.fragment_id
    out: list[list[int]] = [[] for _ in fragments]
    for idx in range(xmol.n_atoms):
        out[frag_of[xmol.parent[idx]]].append(idx)
    return [tuple(sorted(members)) for members in out]
