"""Spectral post-processing: overlap model, eigensolvers, and metrics.

The generalized problem H C = S C diag(eps) is reduced to a standard one
with the Cholesky factor S = L L^T: an eigensolver diagonalizes L^-1 H L^-T,
and C = L^-T V. The symmetric inverse square root S^(-1/2) stays available,
but no generalized solve uses it, since it costs an eigendecomposition of
its own.

Two eigensolvers sit behind the reduction. `eigh` is the LAPACK seam
(`numpy.linalg.eigh`). `orbitals` is the one generalized solve on it: its
`SpectralResult` carries the spectrum, the orbital coefficients that
evaluation compares, and the HOMO, LUMO and gap that labelling, prediction
and screening read, so no workflow runs Jacobi. `solve_gev` is `orbitals` on
the in-house `jacobi_eigh`, and `lowdin_inv_sqrt` runs Jacobi too: they stay
the reference the tests and `selftest` check the seam against, and the
benchmark's traced run times `jacobi_eigh` by name under `solve_gev`, so
`solve_gev` keeps Jacobi until that run can time the seam.

Jacobi sweeps follow the round-robin ordering of Brent and Luk (Golub & Van
Loan, section 8.5): each round rotates m/2 disjoint planes and a sweep of m-1
rounds visits every index pair exactly once (m is n, padded to even with one
decoupled zero index). Rotations in disjoint planes do not interact, so each
round zeroes its pivots exactly. The working matrix is kept in pair-adjacent
order: every round pairs positions (2k, 2k+1), so a round is one batched 2x2
rotation of row pairs and one of column pairs on strided views, with no
element gathers. One fixed tournament permutation, applied as whole-row
takes, then brings the next round's pairs together. Each round is O(n^2)
work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import ANGSTROM_TO_BOHR, DEFAULT_BASIS, HARTREE_TO_EV
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteCoordinate,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSymmetric,
    NoVirtualOrbital,
    OddElectronCount,
)

_SYMMETRY_TOL = 1e-12
_RIDGE = 1e-10
MAX_SWEEPS = 100


@dataclass(frozen=True)
class SpectralResult:
    eigenvalues: np.ndarray   # ascending, Hartree
    coefficients: np.ndarray  # columns are orbitals, S-orthonormal
    n_occupied: int
    homo_index: int
    lumo_index: int
    homo: float
    lumo: float
    gap_ev: float


def _check_square_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteValue(f"{name} has a non-finite entry")
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > _SYMMETRY_TOL:
        raise NotSymmetric(f"{name} asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL:.0e}")
    return a


def _tournament(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair-adjacent layout of the round-robin tournament of an even m, and its step.

    Position 2k holds player k and position 2k+1 holds player m-1-k, so the
    first round pairs positions (2k, 2k+1). Between rounds player 0 stays and
    the others rotate by one; in this layout that move is the same position
    permutation every round (`next = current.take(step)`), and m-1 steps
    return every player to its starting position.
    """
    k = np.arange(m // 2)
    layout = np.empty(m, dtype=np.intp)
    layout[0::2] = k
    layout[1::2] = m - 1 - k
    moved = np.concatenate(([0, m - 1], np.arange(1, m - 1)))
    return layout, np.argsort(layout)[moved[layout]]


def _offdiag_max(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def jacobi_eigh(a: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix."""
    a = _check_square_symmetric(a, "matrix")
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy(), np.ones((1, 1))

    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)

    # an odd n gets one zero row and column; that index is exactly decoupled,
    # so each of its rotations is the identity
    m = n + n % 2
    half = m // 2
    layout, step = _tournament(m)
    padded = np.zeros((m, m))
    padded[:n, :n] = 0.5 * (a + a.T)
    work = padded[np.ix_(layout, layout)]
    u = np.eye(m)[layout]  # rows: eigenvector estimates, in the order of `work`
    rt = np.empty((half, 2, 2))  # G^T blocks [[c, -s], [s, c]], one per pair
    rt_cos = rt.reshape(half, 4)[:, ::3]  # the two c entries of each block
    stop = 1e-13 * scale
    tiny = np.finfo(np.float64).tiny

    for _ in range(max_sweeps):
        work = 0.5 * (work + work.T)
        if _offdiag_max(work) <= stop:
            break
        for _ in range(m - 1):
            d = work.diagonal()
            diff = d[1::2] - d[0::2]
            two = 2.0 * work.diagonal(1)[0::2]
            # the smaller root of t^2 + 2 t diff/two - 1 = 0; the floor sends
            # two = diff = 0 to t = 0
            t = two / np.copysign(np.maximum(np.abs(diff) + np.hypot(diff, two), tiny), diff)
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            rt_cos[...] = c[:, None]
            rt[:, 1, 0] = s
            np.negative(s, out=rt[:, 0, 1])
            # rows, then columns by symmetry: P G^T (P G^T A)^T = P G^T A G P^T;
            # permuting whole rows twice is cheaper than one gather of entries
            x = (rt @ work.reshape(half, 2, m)).reshape(m, m).take(step, axis=0)
            x = np.ascontiguousarray(x.T).reshape(half, 2, m)
            work = (rt @ x).reshape(m, m).take(step, axis=0)
            u = (rt @ u.reshape(half, 2, m)).reshape(m, m).take(step, axis=0)
    else:
        raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps "
                            f"(off-diagonal max {_offdiag_max(work):.3e})")

    # whole sweeps end in the starting layout; back to original index order
    back = np.argsort(layout)[:n]
    eigenvalues = work.diagonal()[back]
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], np.ascontiguousarray(u[back[order], :n].T)


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a symmetric matrix, by LAPACK."""
    a = _check_square_symmetric(a, "matrix")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NoConvergence(f"LAPACK eigh did not converge: {err}") from None
    return w, v


def lowdin_inv_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root of a positive-definite matrix."""
    s = _check_square_symmetric(s, "overlap")
    w, v = jacobi_eigh(s)
    if w.min() <= _RIDGE:
        raise NotPositiveDefinite(f"overlap eigenvalue {w.min():.3e} at or below ridge {_RIDGE:.0e}")
    x = (v / np.sqrt(w)) @ v.T
    return 0.5 * (x + x.T)


def _cholesky_inverse(s: np.ndarray) -> np.ndarray:
    """Inverse of the lower Cholesky factor L of a positive-definite S = L L^T.

    Rejects S when factorization fails or the smallest squared pivot is at or
    below the ridge. A squared pivot is a Schur-complement diagonal, which
    bounds the smallest eigenvalue of S from above, so every S rejected here
    also fails the eigenvalue test of `lowdin_inv_sqrt`.
    """
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("overlap has no Cholesky factor") from None
    pivot = float(np.min(chol.diagonal())) ** 2
    if not pivot > _RIDGE:  # also rejects NaN
        raise NotPositiveDefinite(f"overlap pivot {pivot:.3e} at or below ridge {_RIDGE:.0e}")
    return np.linalg.inv(chol)


def _reduce(h: np.ndarray, s: np.ndarray, n_electrons: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate a closed-shell problem and reduce it to standard form.

    Returns (L^-1, the symmetrized L^-1 H L^-T, the occupied orbital count).
    Requires an even electron count (closed shell); occupation is the
    n_electrons / 2 lowest orbitals, and at least one orbital must stay empty.
    """
    h = _check_square_symmetric(h, "hamiltonian")
    s = _check_square_symmetric(s, "overlap")
    if h.shape != s.shape:
        raise DimensionMismatch(f"H is {h.shape} but S is {s.shape}")
    if n_electrons <= 0 or n_electrons % 2 != 0:
        raise OddElectronCount(f"need a positive even electron count, got {n_electrons}")
    n_occ = n_electrons // 2
    l_inv = _cholesky_inverse(s)
    h_ortho = l_inv @ h @ l_inv.T
    if n_occ >= h.shape[0]:
        raise NoVirtualOrbital(
            f"{n_occ} occupied orbitals fill all {h.shape[0]} basis functions; no gap exists")
    return l_inv, 0.5 * (h_ortho + h_ortho.T), n_occ


def _solve(h: np.ndarray, s: np.ndarray, n_electrons: int,
           eigensolver: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> SpectralResult:
    """H C = S C diag(eps) by Cholesky reduction and one call of `eigensolver`."""
    l_inv, h_ortho, n_occ = _reduce(h, s, n_electrons)
    eigenvalues, v = eigensolver(h_ortho)
    homo = float(eigenvalues[n_occ - 1])
    lumo = float(eigenvalues[n_occ])
    return SpectralResult(
        eigenvalues=eigenvalues,
        coefficients=l_inv.T @ v,
        n_occupied=n_occ,
        homo_index=n_occ - 1,
        lumo_index=n_occ,
        homo=homo,
        lumo=lumo,
        gap_ev=(lumo - homo) * HARTREE_TO_EV,
    )


def orbitals(h: np.ndarray, s: np.ndarray, n_electrons: int) -> SpectralResult:
    """Solve H C = S C diag(eps) by Cholesky reduction and one LAPACK solve."""
    return _solve(h, s, n_electrons, eigh)


def solve_gev(h: np.ndarray, s: np.ndarray, n_electrons: int) -> SpectralResult:
    """`orbitals` with one Jacobi solve in place of LAPACK: the reference route."""
    # the global is read per call, so a wrapper set on the module sees the solve
    return _solve(h, s, n_electrons, jacobi_eigh)


# --- overlap model ---

def toy_overlap(elements: list[str] | tuple[str, ...], coords: np.ndarray) -> np.ndarray:
    """Gram matrix of one normalized Gaussian per orbital.

    S_uv = (2 sqrt(a_u a_v) / (a_u + a_v))^(3/2) * exp(-(a_u a_v/(a_u + a_v)) r_uv^2)
    with exponents in bohr^-2 and center distances converted from angstrom.
    Same-orbital entries are exactly 1; distinct Gaussians make S positive
    definite.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] != len(elements):
        raise NonFiniteCoordinate(f"expected ({len(elements)}, 3) coordinates, got {coords.shape}")
    if not np.isfinite(coords).all():
        raise NonFiniteCoordinate("coordinates contain non-finite values")

    alphas: list[float] = []
    centers: list[int] = []
    for i, elem in enumerate(elements):
        for orb in DEFAULT_BASIS.orbitals_for(elem):
            alphas.append(orb.exponent)
            centers.append(i)
    al = np.asarray(alphas)
    ctr = np.asarray(centers)

    bohr = coords * ANGSTROM_TO_BOHR
    diff = bohr[ctr][:, None, :] - bohr[ctr][None, :, :]
    r2 = (diff * diff).sum(axis=-1)
    asum = al[:, None] + al[None, :]
    aprod = al[:, None] * al[None, :]
    prefactor = (2.0 * np.sqrt(aprod) / asum) ** 1.5
    s = prefactor * np.exp(-(aprod / asum) * r2)
    np.fill_diagonal(s, 1.0)
    return 0.5 * (s + s.T)


# --- evaluation metrics ---

def orbital_similarity(c_pred: np.ndarray, c_true: np.ndarray,
                       eps_pred: np.ndarray, eps_true: np.ndarray,
                       n_occ: int) -> float:
    """Mean |cosine| between occupied orbital coefficients paired by energy rank.

    Columns arrive energy-sorted, so rank pairing is positional; the absolute
    value removes the arbitrary sign of each orbital. A term |a·b| / sqrt((a·a)(b·b))
    is exactly 1.0 for identical columns, since sqrt(fl(s*s)) rounds back to s;
    it is clamped at 1, which near-parallel columns can exceed by an ulp.
    """
    if c_pred.shape != c_true.shape:
        raise DimensionMismatch(f"coefficient shapes differ: {c_pred.shape} vs {c_true.shape}")
    if n_occ < 1 or n_occ > c_pred.shape[1]:
        raise DimensionMismatch(f"occupation {n_occ} out of range for {c_pred.shape[1]} orbitals")
    order_p = np.argsort(eps_pred, kind="stable")[:n_occ]
    order_t = np.argsort(eps_true, kind="stable")[:n_occ]
    total = 0.0
    for cp, ct in zip(order_p, order_t):
        a = c_pred[:, cp]
        b = c_true[:, ct]
        total += min(1.0, abs(float(a @ b)) / math.sqrt(float(a @ a) * float(b @ b)))
    return total / n_occ


def mae_blocks(h_pred: np.ndarray, h_true: np.ndarray,
               lay) -> tuple[float, float, float]:
    """(diagonal-block MAE, off-diagonal-block MAE, full MAE) in Hartree."""
    if h_pred.shape != h_true.shape:
        raise DimensionMismatch(f"matrix shapes differ: {h_pred.shape} vs {h_true.shape}")
    if h_pred.shape[0] != lay.n_orb:
        raise DimensionMismatch(f"matrices of {h_pred.shape[0]} orbitals vs layout of {lay.n_orb}")
    atom = lay.atom_of_orbital()
    same = atom[:, None] == atom[None, :]
    err = np.abs(h_pred - h_true)
    return (float(err[same].mean()), float(err[~same].mean()) if (~same).any() else 0.0,
            float(err.mean()))


def mae_energies(eps_pred: np.ndarray, eps_true: np.ndarray, n_occ: int) -> float:
    """MAE over the occupied orbital energies, Hartree."""
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    eps_true = np.asarray(eps_true, dtype=np.float64)
    if eps_pred.shape != eps_true.shape:
        raise DimensionMismatch(f"spectra differ in shape: {eps_pred.shape} vs {eps_true.shape}")
    if n_occ < 1 or n_occ > eps_pred.size:
        raise DimensionMismatch(f"occupation {n_occ} out of range for {eps_pred.size} energies")
    return float(np.abs(np.sort(eps_pred)[:n_occ] - np.sort(eps_true)[:n_occ]).mean())
