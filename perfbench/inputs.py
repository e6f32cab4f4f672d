"""Seeded workload inputs drawn from molham's bundled corpus.

Per-molecule cost grows steeply with size (a Jacobi round on n orbitals is
O(n^3)), so a plain random sample would let the seed move the timings
through the size mix alone. The samplers below fix the size profile, in
orbitals, and let the seed choose which molecules fill it: `quantile_sample`
takes one molecule at each of k evenly spaced size quantiles, and
`pair_rounds` repeats that in rounds of pairs without reusing a molecule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from molham.corpus import build_corpus
from molham.hamhead import layout
from molham.smiles import expand_hydrogens, parse_smiles


@dataclass(frozen=True)
class Mol:
    smiles: str
    atoms: int      # with hydrogens
    heavy: int
    orbitals: int


def corpus_table() -> list[Mol]:
    """Every corpus entry with its sizes, sorted by orbital count (ties in corpus order)."""
    table = []
    for smiles in build_corpus():
        mol = parse_smiles(smiles)
        xmol = expand_hydrogens(mol)
        table.append(Mol(smiles, xmol.n_atoms, mol.n_atoms, layout(xmol.elements).n_orb))
    table.sort(key=lambda m: m.orbitals)
    return table


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def quantile_sample(pop: list[Mol], k: int, rng: np.random.Generator,
                    exclude: frozenset[str] = frozenset()) -> list[Mol]:
    """k distinct molecules, one at each size quantile (i + 0.5) / k of `pop`.

    `pop` must be sorted by orbital count. For each quantile the seed picks
    among the unused molecules of exactly that size; when none is left it
    takes the nearest unused molecule in size order.
    """
    if not 0 < k <= len(pop):
        raise ValueError(f"cannot take {k} molecules from {len(pop)}")
    used = set(exclude)
    chosen = []
    for i in range(k):
        pos = int((i + 0.5) * len(pop) / k)
        same = [m for m in pop if m.orbitals == pop[pos].orbitals and m.smiles not in used]
        if not same:
            free = [j for j, m in enumerate(pop) if m.smiles not in used]
            nearest = min(abs(j - pos) for j in free)
            same = [pop[j] for j in free if abs(j - pos) == nearest]
        pick = same[int(rng.integers(len(same)))]
        used.add(pick.smiles)
        chosen.append(pick)
    return chosen


def pair_rounds(pop: list[Mol], k: int, rng: np.random.Generator,
                exclude: frozenset[str] = frozenset()):
    """Yield rounds of k `(quantile index, pair)` items, one pair at each of k size quantiles.

    Both molecules of a pair are drawn for the same quantile, so they have
    similar size; the pair order is shuffled every round. No molecule is
    yielded twice; the rounds stop when fewer than 2k unused molecules remain.
    """
    used = set(exclude)
    while len(pop) - len(used) >= 2 * k:
        first = quantile_sample(pop, k, rng, frozenset(used))
        used.update(m.smiles for m in first)
        second = quantile_sample(pop, k, rng, frozenset(used))
        used.update(m.smiles for m in second)
        pairs = list(zip(first, second))
        yield [(int(j), pairs[j]) for j in rng.permutation(k)]


def describe(mols: list[Mol]) -> dict:
    """Input description: counts, sizes and the share of repeated visits."""
    distinct = {m.smiles for m in mols}
    atoms = np.asarray([m.atoms for m in mols], dtype=float)
    orbitals = np.asarray([m.orbitals for m in mols], dtype=float)
    return {
        "molecules": len(distinct),
        "visits": len(mols),
        "atoms_mean": round(float(atoms.mean()), 2) if mols else 0.0,
        "atoms_max": int(atoms.max()) if mols else 0,
        "orbitals_mean": round(float(orbitals.mean()), 2) if mols else 0.0,
        "orbitals_max": int(orbitals.max()) if mols else 0,
        "repeated_share": round(1.0 - len(distinct) / len(mols), 4) if mols else 0.0,
    }
