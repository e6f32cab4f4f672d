"""SMILES tokenizer, parser, fragmenter, and fragment masking.

Scope: single-component SMILES over H, B, C, N, O, F, P, S, Cl, Br, I with
bracket atoms, aromatic lowercase forms, ring closures (1-9 and %nn), and
branches. Stereo markers (/, \\, @) are tokenized and ignored by the parser.
Isotopes, wildcards, and multi-component strings are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    # in string order: a chain or branch bond is (parent[j], j), any other
    # bond closes a ring
    bonds: list[Bond]
    # token indices owned by each atom: its atom token plus any ring-closure
    # digits attributed to it
    atom_token_sets: list[tuple[int, ...]]
    # the atom each atom follows in its chain or branch (-1 for atom 0); atom
    # order is the preorder of this tree, so each subtree is an index range
    parent: list[int]

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

def parse(tokens: list[Token]) -> MolGraph:
    """Build a molecular graph from a token sequence.

    Implicit hydrogens are filled to the standard lowest valence for bare
    organic-subset atoms; bracket atoms keep exactly the written H count.
    Aromatic bonds count 1.5 toward valence; aromatic atoms are clamped at
    zero implicit hydrogens instead of raising, to absorb delocalization.
    """
    # (element, aromatic, charge, bracket H count or None, token index)
    atoms: list[tuple[str, bool, int, int | None, int]] = []
    drafts: list[tuple[int, int, int, bool]] = []  # (i, j, order, aromatic)
    pairs: set[tuple[int, int]] = set()
    token_sets: list[list[int]] = []
    parent: list[int] = []
    prev = -1  # the atom that the next bond, ring label or branch attaches to
    pending_bond: str | None = None
    branch_stack: list[int] = []
    open_rings: dict[str, tuple[int, str | None]] = {}  # label -> (atom, bond)

    def add_bond(i: int, j: int, symbol: str | None) -> None:
        if i == j:
            raise UnmatchedRingClosure(f"ring closure bonds atom {i} to itself")
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            raise UnmatchedRingClosure(f"duplicate bond between atoms {i} and {j}")
        pairs.add(pair)
        if symbol is None or symbol in "/\\":
            drafts.append((i, j, 1, atoms[i][1] and atoms[j][1]))
        elif symbol == ":":
            drafts.append((i, j, 1, True))
        else:
            drafts.append((i, j, {"-": 1, "=": 2, "#": 3}[symbol], False))

    for tok in tokens:
        if tok.kind in ("atom", "bracket"):
            if tok.kind == "atom":
                element, aromatic = atom_symbol_of(tok)
                if tok.text not in ORGANIC_SUBSET and tok.text not in AROMATIC_SYMBOLS:
                    raise UnknownSymbol(f"element {tok.text!r} requires brackets")
                atoms.append((element, aromatic, 0, None, tok.position))
            else:
                atoms.append((*_bracket_fields(tok.text), tok.position))
            token_sets.append([tok.position])
            parent.append(prev)
            if prev >= 0:
                add_bond(prev, len(atoms) - 1, pending_bond)
            prev = len(atoms) - 1
            pending_bond = None
        elif tok.kind == "bond":
            if prev < 0:
                raise SmilesError(f"bond {tok.text!r} with no preceding atom")
            pending_bond = tok.text
        elif tok.kind == "ring":
            if prev < 0:
                raise UnmatchedRingClosure(f"ring closure {tok.text!r} with no preceding atom")
            token_sets[prev].append(tok.position)
            key = tok.text
            if key in open_rings:
                other, opened_bond = open_rings.pop(key)
                if pending_bond and opened_bond and pending_bond != opened_bond:
                    raise UnmatchedRingClosure(
                        f"conflicting bond orders on ring closure {key!r}")
                add_bond(other, prev, pending_bond or opened_bond)
            else:
                open_rings[key] = (prev, pending_bond)
            pending_bond = None
        elif tok.kind == "open":
            if prev < 0:
                raise UnbalancedBranch("branch opened before any atom")
            branch_stack.append(prev)
        elif tok.kind == "close":
            if not branch_stack:
                raise UnbalancedBranch("branch closed without matching open")
            prev = branch_stack.pop()
        elif tok.kind == "mask":
            raise UnknownSymbol("mask tokens cannot be parsed into a graph")
        else:
            raise UnknownSymbol(f"unknown token kind {tok.kind!r}")

    if branch_stack:
        raise UnbalancedBranch(f"{len(branch_stack)} branch(es) left open")
    if open_rings:
        raise UnmatchedRingClosure(f"unclosed ring closure(s): {sorted(open_rings)}")
    if pending_bond is not None:
        raise SmilesError("dangling bond at end of string")
    if not atoms:
        raise SmilesError("no atoms in string")

    n = len(atoms)
    # A bond is a ring bond iff it closes a ring or lies on the tree path its
    # closure spans. A tree bond (parent[j], j) is marked at its child j; an
    # ancestor has the lower index, so the larger end steps up until both meet.
    on_path = [False] * n
    for a, b, _, _ in drafts:
        if parent[b] != a:  # a closure: duplicates are rejected above
            while a != b:
                if a < b:
                    a, b = b, a
                on_path[a] = True
                a = parent[a]
    order_sum = [0.0] * n
    bonds: list[Bond] = []
    for i, j, order, aromatic in drafts:
        bonds.append(Bond(i, j, order, aromatic, parent[j] != i or on_path[j]))
        order_sum[i] += 1.5 if aromatic else order
        order_sum[j] += 1.5 if aromatic else order

    final_atoms: list[Atom] = []
    for idx, (element, aromatic, charge, hydrogens, token_index) in enumerate(atoms):
        if hydrogens is None:
            valence = VALENCE[element]
            used = math.ceil(order_sum[idx])
            if used > valence and not aromatic:
                raise ValenceExceeded(
                    f"atom {idx} ({element}) uses {order_sum[idx]} bonds, valence is {valence}")
            hydrogens = max(0, valence - used)
        final_atoms.append(Atom(element, aromatic, charge, hydrogens, token_index))

    return MolGraph(final_atoms, bonds, [tuple(s) for s in token_sets], parent)


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

    An acyclic bond is a tree bond (parent[j], j), and no other bond joins the
    subtree of j to the rest. Tree bonds come in order of j, so no cut inside
    that subtree has been made yet: the cut's child side is the whole subtree.
    A cut at j opens a new fragment, so fragments are numbered by their lowest
    atom.
    """
    n = mol.n_atoms
    heavy = [a.element != "H" for a in mol.atoms]
    below = [int(h) for h in heavy]  # heavy atoms in each atom's subtree
    for j in range(n - 1, 0, -1):
        below[mol.parent[j]] += below[j]
    frag = [0] * n
    members, heavy_count = [[0]], [below[0]]  # per fragment
    for b in mol.bonds:
        if mol.parent[b.j] != b.i:
            continue  # a ring closure
        f = frag[b.i]
        if (not (b.in_ring or b.aromatic) and b.order == 1 and heavy[b.i] and heavy[b.j]
                and below[b.j] >= 2 and heavy_count[f] - below[b.j] >= 2):
            heavy_count[f] -= below[b.j]
            f = len(members)
            members.append([])
            heavy_count.append(below[b.j])
        frag[b.j] = f
        members[f].append(b.j)
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
