"""Bundled SMILES corpus, generated combinatorially from templates.

The corpus is a pure function of the templates below: chains, branched
chains, substituted rings, and ring-linker-ring assemblies over
H/C/N/O/F/P/S, filtered to 3..30 written atoms. Sulfur- and
phosphorus-containing entries are included for the element-holdout split and
long assemblies provide the large-molecule tail for the size split.
"""

from __future__ import annotations

import hashlib

from .errors import SmilesError
from .smiles import parse_smiles

_CHAINS = ["C" * k for k in range(2, 13)]
_LONG_CHAINS = ["C" * k for k in range(13, 19)]
_XL_CHAINS = ["C" * k for k in range(19, 29)]
_TAILS = ["", "O", "N", "F", "S", "OC", "NC", "SC", "CO", "CN", "C#N", "C=C", "CC=O", "P"]
_SIDES = ["C", "O", "N", "F", "S", "CC", "OC", "C#N", "P(C)C", "SC"]
_PREFIXES = ["", "O", "N", "FC", "OC", "SC"]
_RINGS = [
    "C1CCCCC1", "C1CCCC1", "C1CCOC1", "C1CCNC1", "C1CCSC1",
    "c1ccccc1", "c1ccncc1", "c1ccoc1", "c1ccsc1", "c1cc[nH]c1",
]
_LINKERS = ["C", "CC", "CCC", "CCCC", "CCO", "CCN", "CCS", "COC", "CSC", "CCCCCC"]
_RING_PARTNERS = ["c1ccccc1", "C1CCCCC1", "c1ccsc1", "c1ccncc1"]

MIN_HEAVY = 3
MAX_HEAVY = 30


def _candidates() -> list[str]:
    seen: dict[str, None] = {}

    def add(s: str) -> None:
        seen.setdefault(s, None)

    for chain in _CHAINS + _LONG_CHAINS:
        for tail in _TAILS:
            add(chain + tail)
    for prefix in _PREFIXES:
        for chain in _CHAINS:
            for tail in _TAILS[:7]:
                add(prefix + chain + tail)
    for chain in _CHAINS:
        if len(chain) < 3:
            continue
        for side in _SIDES:
            for tail in _TAILS[:8]:
                add(f"CC({side}){chain[2:]}{tail}")
    for ring in _RINGS:
        add(ring)
        for tail in _TAILS:
            if tail:
                add(ring + tail)
        for side in _SIDES:
            for tail in ("", "O", "N", "C", "CC"):
                add(f"{ring}{side}{tail}")
    for ring in _RINGS:
        for linker in _LINKERS:
            for partner in _RING_PARTNERS:
                add(f"{ring}{linker}{partner}")
    # large assemblies populate the 20..30 written-atom tail
    for chain in _XL_CHAINS:
        for tail in ("", "O", "N", "S", "CC=O", "P"):
            add(chain + tail)
    for ring in _RINGS[:6]:
        for mid in ("CC", "CCCC", "CCCCCC"):
            for partner in _RING_PARTNERS[:2]:
                add(f"{ring}{mid}{partner}{mid}c1ccccc1")
    return list(seen)


_CACHE: list[str] | None = None


def build_corpus() -> list[str]:
    """Deterministic list of valid SMILES with 3..30 written atoms."""
    global _CACHE
    if _CACHE is None:
        kept = []
        for smiles in _candidates():
            try:
                mol = parse_smiles(smiles)
            except SmilesError:
                continue
            if MIN_HEAVY <= mol.n_atoms <= MAX_HEAVY:
                kept.append(smiles)
        _CACHE = kept
    return list(_CACHE)


def corpus_sha256(corpus: list[str]) -> str:
    return hashlib.sha256("\n".join(corpus).encode()).hexdigest()
