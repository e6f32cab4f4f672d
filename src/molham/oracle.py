"""Deterministic ground-truth generator.

Coordinates come from a seeded spring-energy descent on the expanded
molecule (bond length target 1.5 angstrom, non-bonded repulsion floor
2.2 angstrom). Each step takes the gradient in closed form: squared distances
from the Gram matrix, |x_i|^2 + |x_j|^2 - 2 x_i.x_j, one pair-weight matrix
w_ij = 2 (d_ij - t_ij) / d_ij against the pair's target length t_ij, and
gradient = rowsum(w) x - w @ x. The minimum-distance check that accepts an
embedding uses exact coordinate differences, not the Gram form.

Labels follow the classic distance-dependent semi-empirical recipe: onsite
energies on the diagonal and K * S_uv * (e_u + e_v) / 2 off the diagonal
with K = 1.75, on top of the Gaussian overlap model. Both steps
depend on interatomic distances only, so labels are invariant to rigid
motions of the coordinates.
"""

from __future__ import annotations

import numpy as np

from .basis import DEFAULT_BASIS
from .errors import EmbedFailure
from .smiles import ExpandedMol
from .spectral import toy_overlap

WOLFSBERG_HELMHOLZ_K = 1.75
BOND_TARGET = 1.5      # angstrom
REPULSION_FLOOR = 2.2  # angstrom
MIN_DISTANCE = 0.7     # angstrom
_DESCENT_STEPS = 400
_DESCENT_RATE = 0.05
_RESEEDS = 3

# instrumentation for path audits: counts every coordinate-generation call
EMBED_CALLS = 0


def embed_3d(xmol: ExpandedMol, seed: int) -> np.ndarray:
    """Deterministic 3D coordinates (angstrom) for an expanded molecule.

    Same (molecule, seed) always yields bit-identical coordinates. Raises
    EmbedFailure if the minimum-distance constraint is still violated after
    the reseed budget.
    """
    global EMBED_CALLS
    EMBED_CALLS += 1
    n = xmol.n_atoms
    unbonded, floor = _spring_masks(n, xmol.bonds)

    for attempt in range(_RESEEDS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, attempt])))
        coords = _initial_sphere(rng, n)
        if n == 1:
            return coords
        for _ in range(_DESCENT_STEPS):
            coords -= _DESCENT_RATE * _spring_gradient(coords, unbonded, floor)
        dist = _pairwise(coords)
        np.fill_diagonal(dist, np.inf)
        if float(dist.min()) >= MIN_DISTANCE:
            return coords
    raise EmbedFailure(f"no embedding met the {MIN_DISTANCE} A floor after {_RESEEDS} seeds")


def _initial_sphere(rng: np.random.Generator, n: int) -> np.ndarray:
    radius = 1.2 * n ** (1.0 / 3.0) + 0.8
    raw = rng.standard_normal((n, 3))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    shells = radius * (0.5 + 0.5 * rng.random((n, 1)))
    return raw / norms * shells


def _pairwise(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _spring_masks(n: int, bonds) -> tuple[np.ndarray, np.ndarray]:
    """(unbonded, floor): a pair's target length is max(d * unbonded, floor).

    That is BOND_TARGET for a bond, max(d, REPULSION_FLOOR) for a non-bonded
    pair (no force beyond the floor) and d on the diagonal (no self-force).
    """
    bonded = np.zeros((n, n), dtype=bool)
    for i, j in bonds:
        bonded[i, j] = bonded[j, i] = True
    free = ~bonded
    np.fill_diagonal(free, False)
    return (~bonded).astype(np.float64), BOND_TARGET * bonded + REPULSION_FLOOR * free


def _spring_gradient(coords: np.ndarray, unbonded: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Gradient of sum_{i<j} (d_ij - target_ij)^2, i.e. sum_j w_ij (x_i - x_j).

    With w_ij = 2 (d_ij - target_ij) / d_ij that is rowsum(w) x - w @ x = L @ x
    for the Laplacian L = diag(rowsum(w)) - w, formed here in place.
    """
    sq = (coords * coords).sum(axis=1)
    dist = (-2.0 * coords) @ coords.T
    dist += sq[:, None]
    dist += sq
    # clamps rounding below 0 and puts 1 on the diagonal, so d_ii = 1 divides safely
    np.maximum(dist, np.eye(len(coords)), out=dist)
    np.sqrt(dist, out=dist)
    lap = np.maximum(dist * unbonded, floor)
    lap -= dist
    lap *= 2.0
    lap /= dist
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap @ coords


def huckel_labels(xmol: ExpandedMol, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H, S) label pair for an expanded molecule at the given coordinates."""
    s = toy_overlap(xmol.elements, coords)
    onsite = np.asarray([orb.onsite for e in xmol.elements for orb in DEFAULT_BASIS.orbitals_for(e)])
    esum = 0.5 * (onsite[:, None] + onsite[None, :])
    h = WOLFSBERG_HELMHOLZ_K * s * esum
    np.fill_diagonal(h, onsite)
    return 0.5 * (h + h.T), s
