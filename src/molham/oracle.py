"""Deterministic ground-truth generator.

Coordinates come from a seeded spring-energy descent on the expanded
molecule (bond length target 1.5 angstrom, non-bonded repulsion floor
2.2 angstrom). Each step takes the gradient in closed form: squared distances
from the Gram matrix, |x_i|^2 + |x_j|^2 - 2 x_i.x_j, one pair-weight matrix
w_ij = 2 (d_ij - t_ij) / d_ij against the pair's target length t_ij, and
gradient = rowsum(w) x - w @ x. The descent runs on a (B, N, 3) stack of
molecules padded to the largest one: `embed_batch` embeds a block at once,
and `embed_3d` runs each reseed attempt as a stack of one. The
minimum-distance check that accepts an embedding uses each molecule's exact
coordinate differences, not the Gram form.

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
_PAD_SPACING = 1e3     # angstrom between padding atoms, far beyond every spring's reach

# instrumentation for path audits: counts every molecule handed to an embedding call
EMBED_CALLS = 0


def embed_3d(xmol: ExpandedMol, seed: int) -> np.ndarray:
    """Deterministic 3D coordinates (angstrom) for an expanded molecule.

    Same (molecule, seed) always yields bit-identical coordinates. Raises
    EmbedFailure if the minimum-distance constraint is still violated after
    the reseed budget.
    """
    global EMBED_CALLS
    EMBED_CALLS += 1
    for attempt in range(_RESEEDS):
        coords = _embed_attempt([xmol], [seed], attempt)[0]
        if coords is not None:
            return coords
    raise EmbedFailure(f"no embedding met the {MIN_DISTANCE} A floor after {_RESEEDS} seeds")


def embed_batch(xmols: list[ExpandedMol], seeds: list[int]) -> list[np.ndarray | None]:
    """First-attempt coordinates of many molecules from one stacked descent.

    Each molecule starts where `embed_3d(xmol, seed)` starts and takes the same
    steps, so its coordinates agree with `embed_3d` up to the summation order
    of the padded block (about 1e-14 angstrom). A molecule that misses the
    minimum-distance floor comes back as None; `embed_3d` runs its reseeds.
    """
    global EMBED_CALLS
    EMBED_CALLS += len(xmols)
    return _embed_attempt(xmols, seeds, 0)


def _embed_attempt(xmols: list[ExpandedMol], seeds: list[int],
                   attempt: int) -> list[np.ndarray | None]:
    starts = []
    for xmol, seed in zip(xmols, seeds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, attempt])))
        starts.append((_initial_sphere(rng, xmol.n_atoms), xmol.bonds))
    coords, cap, floor = _spring_stack(starts)
    eye = np.eye(coords.shape[1])
    for _ in range(_DESCENT_STEPS if coords.shape[1] > 1 else 0):  # one atom: no pair, no force
        coords -= _DESCENT_RATE * _spring_gradient(coords, cap, floor, eye)
    out = []
    for (start, _), placed in zip(starts, coords):
        n = len(start)
        if n == 1:
            out.append(start)
            continue
        dist = _pairwise(placed[:n])
        np.fill_diagonal(dist, np.inf)
        out.append(placed[:n].copy() if float(dist.min()) >= MIN_DISTANCE else None)
    return out


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
    """(cap, floor): a pair's stretch d - target is min(d - floor, cap).

    cap is +inf for a bond and 0 elsewhere. So the target is BOND_TARGET for
    a bond, max(d, REPULSION_FLOOR) for a non-bonded pair (no force beyond
    the floor) and d on the diagonal (no self-force).
    """
    bonded = np.zeros((n, n), dtype=bool)
    for i, j in bonds:
        bonded[i, j] = bonded[j, i] = True
    free = ~bonded
    np.fill_diagonal(free, False)
    return np.where(bonded, np.inf, 0.0), BOND_TARGET * bonded + REPULSION_FLOOR * free


def _spring_stack(molecules) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coords, cap, floor) stacks (B, N, .) of (coords, bonds) pairs, N the largest size.

    A padding atom sits on its own point _PAD_SPACING apart from every other
    atom, with cap 0 and floor 0 to every atom: its stretch min(d, 0) is 0,
    so it exerts and feels exactly zero force and never moves.
    """
    size = max(len(c) for c, _ in molecules)
    pad = np.zeros((size, 3))
    pad[:, 0] = _PAD_SPACING * np.arange(1, size + 1)
    coords = np.repeat(pad[None], len(molecules), axis=0)
    cap = np.zeros((len(molecules), size, size))
    floor = np.zeros((len(molecules), size, size))
    for b, (c, bonds) in enumerate(molecules):
        n = len(c)
        coords[b, :n] = c
        cap[b, :n, :n], floor[b, :n, :n] = _spring_masks(n, bonds)
    return coords, cap, floor


def _spring_gradient(coords: np.ndarray, cap: np.ndarray, floor: np.ndarray,
                     eye: np.ndarray) -> np.ndarray:
    """Gradient of sum_{i<j} (d_ij - target_ij)^2 for each molecule of a (B, N, 3) stack.

    Per molecule it is sum_j w_ij (x_i - x_j) with w_ij = 2 (d_ij - target_ij) / d_ij,
    i.e. rowsum(w) x - w @ x = L @ x for the Laplacian L = diag(rowsum(w)) - w.
    It is formed in place as M @ (-2 x) with M = -L / 2 (m_ij = (d_ij - target_ij) / d_ij
    off the diagonal); scaling by -2 is exact, so this is bitwise L @ x. The
    stretch d_ij - target_ij is min(d_ij - floor_ij, cap_ij) (`_spring_masks`):
    a subtract and a minimum, exact against d - max(d * u, floor) with u = 0 on
    a bond and 1 elsewhere, since rounding is monotone. `eye` is the (N, N)
    identity.
    """
    scaled = -2.0 * coords
    sq = (coords * coords).sum(axis=-1)
    dist = scaled @ coords.transpose(0, 2, 1)
    dist += sq[:, :, None]
    dist += sq[:, None, :]
    # clamps rounding below 0 and puts 1 on the diagonal, so d_ii = 1 divides safely
    np.maximum(dist, eye, out=dist)
    np.sqrt(dist, out=dist)
    m = dist - floor
    np.minimum(m, cap, out=m)
    m /= dist
    size = coords.shape[1]
    np.negative(m.sum(axis=-1), out=m.reshape(len(m), size * size)[:, ::size + 1])
    return m @ scaled


def huckel_labels(xmol: ExpandedMol, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H, S) label pair for an expanded molecule at the given coordinates."""
    s = toy_overlap(xmol.elements, coords)
    onsite = np.asarray([orb.onsite for e in xmol.elements for orb in DEFAULT_BASIS.orbitals_for(e)])
    esum = 0.5 * (onsite[:, None] + onsite[None, :])
    h = WOLFSBERG_HELMHOLZ_K * s * esum
    np.fill_diagonal(h, onsite)
    return 0.5 * (h + h.T), s
