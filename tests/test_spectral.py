"""Eigensolvers, overlap model, and evaluation metrics."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import molham.spectral as spectral
from _oracles import dense_jacobi_eigh, qr_eigvalsh, random_spd, random_symmetric, round_robin_schedule
from molham.basis import HARTREE_TO_EV, electron_count
from molham.corpus import build_corpus
from molham.errors import (
    DimensionMismatch,
    NoConvergence,
    NonFiniteCoordinate,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSymmetric,
    NoVirtualOrbital,
    OddElectronCount,
)
from molham.hamhead import layout
from molham.oracle import embed_3d, huckel_labels
from molham.smiles import expand_hydrogens, parse_smiles
from molham.spectral import (
    eigh,
    frontier,
    jacobi_eigh,
    lowdin_inv_sqrt,
    mae_blocks,
    mae_energies,
    orbital_similarity,
    orbitals,
    solve_gev,
    toy_overlap,
)

RNG = np.random.default_rng(990)


class TestJacobi:
    def test_diagonal_matrix(self):
        w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two_analytic(self):
        w, _ = jacobi_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_residual_and_orthogonality(self):
        for _ in range(150):
            n = int(RNG.integers(2, 51))
            a = random_symmetric(RNG, n)
            w, v = jacobi_eigh(a)
            scale = np.abs(a).max()
            assert np.max(np.abs(a @ v - v * w)) < 1e-10 * scale
            assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
            assert np.all(np.diff(w) >= 0.0)

    def test_agrees_with_qr_iteration_oracle(self):
        for _ in range(40):
            n = int(RNG.integers(2, 41))
            a = random_symmetric(RNG, n)
            w, _ = jacobi_eigh(a)
            ref = qr_eigvalsh(a)
            scale = max(1.0, np.abs(ref).max())
            assert np.max(np.abs(w - ref)) < 1e-9 * scale

    def test_zero_matrix(self):
        w, v = jacobi_eigh(np.zeros((4, 4)))
        assert np.all(w == 0.0)
        assert np.array_equal(v, np.eye(4))

    def test_not_symmetric_rejected(self):
        a = np.eye(3)
        a[0, 1] = 1e-9
        for solve in (jacobi_eigh, eigh):
            with pytest.raises(NotSymmetric):
                solve(a)

    def test_single_element(self):
        w, v = jacobi_eigh(np.array([[5.0]]))
        assert w[0] == 5.0 and v[0, 0] == 1.0


def _oracle_reduced(smiles):
    """L^-1 H L^-T of the oracle labels, the matrix each `solve_gev` diagonalizes."""
    xmol = expand_hydrogens(parse_smiles(smiles))
    h, s = huckel_labels(xmol, embed_3d(xmol, 7))
    l_inv = np.linalg.inv(np.linalg.cholesky(s))
    a = l_inv @ h @ l_inv.T
    return 0.5 * (a + a.T)


class TestPairAdjacentJacobi:
    """The pair-adjacent kernel against the dense-congruence reference."""

    rng = np.random.default_rng(4242)  # own stream: the shared RNG feeds the other classes

    def _assert_matches_dense(self, a):
        w, v = jacobi_eigh(a)
        ref, _ = dense_jacobi_eigh(a)
        scale = np.abs(a).max()
        assert np.max(np.abs(w - ref)) <= 1e-12 * scale
        assert np.max(np.abs(a @ v - v * w)) <= 1e-12 * scale
        assert np.max(np.abs(v.T @ v - np.eye(a.shape[0]))) <= 1e-12
        assert v.flags.c_contiguous

    def test_random_symmetric_odd_and_even(self):
        for n in range(2, 61):
            self._assert_matches_dense(random_symmetric(self.rng, n))

    def test_oracle_matrices_up_to_the_largest_molecule(self):
        sizes = sorted((layout(expand_hydrogens(parse_smiles(smi)).elements).n_orb, smi)
                       for smi in build_corpus())
        picks = [sizes[int(q * (len(sizes) - 1))] for q in (0.0, 0.25, 0.5, 0.75, 0.97, 1.0)]
        assert picks[-1][0] == 118
        for _, smiles in picks:
            self._assert_matches_dense(_oracle_reduced(smiles))

    def test_tournament_pairs_every_index_pair_once_per_sweep(self):
        for m in range(2, 41, 2):
            layout_, step = spectral._tournament(m)
            reference = round_robin_schedule(m)
            players = layout_.copy()
            seen = set()
            for p_arr, q_arr in reference:
                pairs = {frozenset(pq) for pq in players.reshape(-1, 2).tolist()}
                assert pairs == {frozenset(pq) for pq in zip(p_arr.tolist(), q_arr.tolist())}
                seen |= pairs
                players = players.take(step)
            assert len(seen) == m * (m - 1) // 2
            assert np.array_equal(players, layout_)

    def test_zero_coupling_pairs_stay_finite(self):
        a = np.eye(6)
        a[0, 5] = a[5, 0] = 0.5  # every other pair has a_pq = 0 and a_pp = a_qq
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, v = jacobi_eigh(a)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))
        assert np.allclose(w, [0.5, 1.0, 1.0, 1.0, 1.0, 1.5], atol=1e-15)

    def test_padding_of_odd_n_never_leaks(self):
        for n in (3, 7, 15, 29):
            for shift in (5.0, -5.0):  # spectrum bounded away from the pad's 0
                a = random_symmetric(self.rng, n) * 0.5 + shift * np.eye(n)
                w, v = jacobi_eigh(a)
                assert w.shape == (n,) and v.shape == (n, n)
                assert np.min(np.abs(w)) > 1.0
                assert np.max(np.abs(a @ v - v * w)) <= 1e-12 * np.abs(a).max()

    def test_one_sweep_is_not_enough(self):
        with pytest.raises(NoConvergence):
            jacobi_eigh(random_symmetric(self.rng, 30), max_sweeps=1)


class TestEighSeam:
    """The LAPACK seam against both Jacobi solvers."""

    rng = np.random.default_rng(1414)  # own stream: the shared RNG feeds the other classes

    def _assert_matches_jacobi(self, a):
        w, v = eigh(a)
        scale = np.abs(a).max()
        assert np.max(np.abs(w - jacobi_eigh(a)[0])) <= 1e-12 * scale
        assert np.max(np.abs(w - dense_jacobi_eigh(a)[0])) <= 1e-12 * scale
        assert np.max(np.abs(a @ v - v * w)) <= 1e-12 * scale
        assert np.max(np.abs(v.T @ v - np.eye(a.shape[0]))) <= 1e-12
        assert np.all(np.diff(w) >= 0.0)

    def test_random_symmetric(self):
        for n in range(1, 41):
            self._assert_matches_jacobi(random_symmetric(self.rng, n))

    def test_oracle_matrices(self):
        for smiles in ("O", "CCO", "c1ccccc1O", "CC(=O)NCCS", "CCCCCCCCP"):
            self._assert_matches_jacobi(_oracle_reduced(smiles))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NoConvergence, match="did not converge"):
            eigh(np.eye(3))


class TestLowdin:
    def test_identity(self):
        assert np.allclose(lowdin_inv_sqrt(np.eye(5)), np.eye(5))

    def test_scalar_diagonal(self):
        x = lowdin_inv_sqrt(np.diag([4.0]))
        assert np.allclose(x, [[0.5]])

    def test_defining_identity_random(self):
        for _ in range(40):
            n = int(RNG.integers(2, 40))
            s = random_spd(RNG, n)
            x = lowdin_inv_sqrt(s)
            assert np.max(np.abs(x @ s @ x - np.eye(n))) < 1e-8
            assert np.array_equal(x, x.T)

    def test_commutes_with_input(self):
        s = random_spd(RNG, 20)
        x = lowdin_inv_sqrt(s)
        assert np.max(np.abs(x @ s - s @ x)) < 1e-8

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite):
            lowdin_inv_sqrt(np.diag([1.0, -0.5]))


class TestSolveGev:
    def test_identity_overlap_reduces_to_eigh(self):
        h = random_symmetric(RNG, 8)
        res = solve_gev(h, np.eye(8), 4)
        w, _ = jacobi_eigh(h)
        assert np.allclose(res.eigenvalues, w)

    def test_h_equals_s_gives_unit_eigenvalues(self):
        s = random_spd(RNG, 6)
        res = solve_gev(s.copy(), s, 4)
        assert np.allclose(res.eigenvalues, 1.0)

    def test_residual_and_orthonormality(self):
        for _ in range(60):
            n = int(RNG.integers(2, 40))
            h = random_symmetric(RNG, n)
            s = random_spd(RNG, n)
            res = solve_gev(h, s, 2)
            assert np.max(np.abs(h @ res.coefficients
                                 - s @ res.coefficients * res.eigenvalues)) < 1e-8
            gram = res.coefficients.T @ s @ res.coefficients
            assert np.max(np.abs(gram - np.eye(n))) < 1e-8

    def test_frontier_bookkeeping(self):
        h = np.diag([-2.0, -1.0, 0.0, 1.0])
        res = solve_gev(h, np.eye(4), 4)
        assert res.n_occupied == 2
        assert res.homo_index == 1 and res.lumo_index == 2
        assert res.homo == -1.0 and res.lumo == 0.0
        assert res.gap_ev == pytest.approx(1.0 * HARTREE_TO_EV)

    def test_odd_electrons_rejected(self):
        for solve in (solve_gev, orbitals, frontier):
            with pytest.raises(OddElectronCount):
                solve(np.eye(3), np.eye(3), 3)

    def test_full_occupation_rejected(self):
        for solve in (solve_gev, orbitals, frontier):
            with pytest.raises(NoVirtualOrbital):
                solve(np.eye(2), np.eye(2), 4)

    def test_dimension_mismatch(self):
        for solve in (solve_gev, orbitals, frontier):
            with pytest.raises(DimensionMismatch):
                solve(np.eye(3), np.eye(4), 2)


def _lowdin_reference(h, s):
    """Eigenpairs of H C = S C eps through the symmetric S^(-1/2) reduction."""
    x = lowdin_inv_sqrt(s)
    h_ortho = x @ h @ x
    w, v = jacobi_eigh(0.5 * (h_ortho + h_ortho.T))
    return w, x @ v


def _oracle_pairs():
    for smiles in ("O", "CCO", "c1ccccc1O", "CC(=O)NCCS", "CCCCCCCCP"):
        xmol = expand_hydrogens(parse_smiles(smiles))
        h, s = huckel_labels(xmol, embed_3d(xmol, 7))
        yield h, s, electron_count(xmol.elements)


class TestCholeskyReduction:
    """Both coefficient routes, Jacobi (`solve_gev`) and LAPACK (`orbitals`),
    against the Loewdin reduction."""

    def _assert_matches_lowdin(self, h, s, n_electrons):
        w, c = _lowdin_reference(h, s)
        gaps = np.diff(w)
        simple = np.ones(len(w), dtype=bool)
        simple[:-1] &= gaps > 1e-6
        simple[1:] &= gaps > 1e-6
        for solve in (solve_gev, orbitals):
            res = solve(h, s, n_electrons)
            assert np.max(np.abs(res.eigenvalues - w)) < 1e-10 * max(1.0, np.abs(w).max())
            # S-inner product of S-normalized columns is +-1 for a simple eigenvalue
            cos = np.abs(np.sum(c * (s @ res.coefficients), axis=0))
            assert np.max(np.abs(cos[simple] - 1.0)) < 1e-8

    def test_matches_lowdin_on_random_spd_pairs(self):
        for _ in range(30):
            n = int(RNG.integers(2, 30))
            self._assert_matches_lowdin(random_symmetric(RNG, n), random_spd(RNG, n), 2)

    def test_matches_lowdin_on_oracle_labels(self):
        for h, s, n_electrons in _oracle_pairs():
            self._assert_matches_lowdin(h, s, n_electrons)

    def test_non_spd_overlap_rejected(self):
        for solve in (solve_gev, orbitals, frontier):
            with pytest.raises(NotPositiveDefinite):
                solve(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 2)

    def test_pivot_at_ridge_rejected(self):
        for solve in (solve_gev, orbitals, frontier):
            with pytest.raises(NotPositiveDefinite):
                solve(np.eye(2), np.diag([1.0, 1e-12]), 2)

    def test_one_eigensolve_per_call(self, monkeypatch):
        calls = {"jacobi": 0, "lowdin": 0}
        real_jacobi = spectral.jacobi_eigh

        def counting_jacobi(a, *args, **kwargs):
            calls["jacobi"] += 1
            return real_jacobi(a, *args, **kwargs)

        def forbidden_lowdin(s):
            calls["lowdin"] += 1
            return lowdin_inv_sqrt(s)

        monkeypatch.setattr(spectral, "jacobi_eigh", counting_jacobi)
        monkeypatch.setattr(spectral, "lowdin_inv_sqrt", forbidden_lowdin)
        h, s, n_electrons = next(_oracle_pairs())
        solve_gev(h, s, n_electrons)
        assert calls == {"jacobi": 1, "lowdin": 0}


class TestOrbitals:
    """`orbitals` is the LAPACK coefficient route evaluation runs."""

    def test_orthonormal_eigenpairs_on_oracle_labels(self):
        for h, s, n_electrons in _oracle_pairs():
            res = orbitals(h, s, n_electrons)
            c = res.coefficients
            assert np.max(np.abs(c.T @ s @ c - np.eye(len(c)))) <= 1e-10
            assert np.max(np.abs(h @ c - s @ c * res.eigenvalues)) <= 1e-10


class TestFrontier:
    """`frontier` gives `solve_gev`'s frontier levels without coefficients,
    and `orbitals`' bit for bit, since it is the same `eigh` call."""

    def test_matches_solve_gev_on_oracle_labels(self):
        for h, s, n_electrons in _oracle_pairs():
            res = solve_gev(h, s, n_electrons)
            homo, lumo, gap_ev = frontier(h, s, n_electrons)
            assert abs(homo - res.homo) <= 1e-10
            assert abs(lumo - res.lumo) <= 1e-10
            assert abs(gap_ev - res.gap_ev) <= 1e-10
            lapack = orbitals(h, s, n_electrons)
            assert (homo, lumo, gap_ev) == (lapack.homo, lapack.lumo, lapack.gap_ev)

    def test_bookkeeping(self):
        homo, lumo, gap_ev = frontier(np.diag([-2.0, -1.0, 0.0, 1.0]), np.eye(4), 4)
        assert (homo, lumo) == (-1.0, 0.0)
        assert gap_ev == 1.0 * HARTREE_TO_EV

    def test_runs_no_jacobi(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the LAPACK route ran Jacobi")

        monkeypatch.setattr(spectral, "jacobi_eigh", forbidden)
        monkeypatch.setattr(spectral, "lowdin_inv_sqrt", forbidden)
        h, s, n_electrons = next(_oracle_pairs())
        for solve in (frontier, orbitals):
            solve(h, s, n_electrons)


class TestNonFinite:
    """A NaN or infinite entry is rejected up front, with no numpy warning."""

    @staticmethod
    def _poisoned(a, value, entry):
        a = a.copy()
        a[entry] = a[entry[::-1]] = value
        return a

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [(3, 3), (2, 7)])
    @pytest.mark.parametrize("target", ["h", "s", "jacobi", "lowdin", "eigh", "frontier",
                                        "orbitals"])
    def test_rejected(self, target, entry, value):
        rng = np.random.default_rng(5)
        h, s = random_symmetric(rng, 12), random_spd(rng, 12)
        calls = {
            "h": lambda: solve_gev(self._poisoned(h, value, entry), s, 4),
            "s": lambda: solve_gev(h, self._poisoned(s, value, entry), 4),
            "jacobi": lambda: jacobi_eigh(self._poisoned(h, value, entry)),
            "lowdin": lambda: lowdin_inv_sqrt(self._poisoned(s, value, entry)),
            "eigh": lambda: eigh(self._poisoned(h, value, entry)),
            "frontier": lambda: frontier(h, self._poisoned(s, value, entry), 4),
            "orbitals": lambda: orbitals(self._poisoned(h, value, entry), s, 4),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteValue):
                calls[target]()

    def test_all_infinite_matrix_rejected(self):
        with pytest.raises(NonFiniteValue):
            jacobi_eigh(np.full((40, 40), np.inf))


class TestToyOverlap:
    def test_single_hydrogen(self):
        s = toy_overlap(["H"], np.zeros((1, 3)))
        assert np.array_equal(s, [[1.0]])

    def test_unit_diagonal_everywhere(self):
        xm = ["C", "O", "H", "H"]
        s = toy_overlap(xm, RNG.standard_normal((4, 3)) * 2.0)
        assert np.allclose(np.diag(s), 1.0)

    def test_identical_orbital_limits(self):
        near = toy_overlap(["H", "H"], np.array([[0.0, 0, 0], [1e-4, 0, 0]]))
        far = toy_overlap(["H", "H"], np.array([[0.0, 0, 0], [80.0, 0, 0]]))
        assert near[0, 1] > 0.999999
        assert far[0, 1] < 1e-12

    def test_positive_definite_random_geometry(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            elements = ["C", "N", "O", "H", "S"]
            coords = rng.standard_normal((5, 3)) * 1.7
            s = toy_overlap(elements, coords)
            w, _ = jacobi_eigh(s)
            assert w.min() > 0.0
            np.linalg.cholesky(s)  # independent SPD cross-check

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteCoordinate):
            toy_overlap(["H"], np.array([[np.nan, 0, 0]]))


class TestMetrics:
    def test_mae_blocks_hand_fixture(self):
        lay = layout(["C", "H"])  # orbital counts 2 + 1
        h_true = np.zeros((3, 3))
        h_pred = np.zeros((3, 3))
        h_pred[:2, :2] = 0.1
        h_pred[2, 2] = 0.3
        h_pred[:2, 2] = 0.2
        h_pred[2, :2] = 0.2
        diag, off, all_ = mae_blocks(h_pred, h_true, lay)
        assert diag == pytest.approx((4 * 0.1 + 0.3) / 5, abs=1e-12)
        assert off == pytest.approx(0.2, abs=1e-12)
        assert all_ == pytest.approx((0.4 + 0.3 + 0.8) / 9, abs=1e-12)

    def test_mae_blocks_identical(self):
        lay = layout(["O", "H", "H"])
        h = RNG.standard_normal((4, 4))
        assert mae_blocks(h, h.copy(), lay) == (0.0, 0.0, 0.0)

    def test_mae_blocks_diagonal_perturbation(self):
        lay = layout(["C", "C"])
        h = random_symmetric(RNG, 4)
        h2 = h.copy()
        atom = lay.atom_of_orbital()
        same = atom[:, None] == atom[None, :]
        h2[same] += 0.25
        diag, off, _ = mae_blocks(h2, h, lay)
        assert diag == pytest.approx(0.25, abs=1e-12)
        assert off == pytest.approx(0.0, abs=1e-12)

    def test_mae_energies(self):
        pred = np.array([-1.0, -0.5, 0.2])
        true = np.array([-0.9, -0.6, 0.0])
        assert mae_energies(pred, true, 2) == pytest.approx(0.1, abs=1e-12)
        assert mae_energies(true, true, 3) == 0.0

    def test_mae_energies_uniform_shift(self):
        true = np.sort(RNG.standard_normal(6))
        assert mae_energies(true + 0.07, true, 4) == pytest.approx(0.07, abs=1e-12)

    def test_similarity_identity_and_phase(self):
        eps = np.arange(5.0)
        for seed in range(200):  # unclamped |cos| terms read 1 + 1 ulp on some draws
            c = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))[0]
            assert orbital_similarity(c, c, eps, eps, 3) == pytest.approx(1.0)
            flip = c * np.array([1, -1, 1, -1, 1.0])
            assert orbital_similarity(flip, c, eps, eps, 3) == 1.0, seed

    def test_similarity_hand_fixture(self):
        c_true = np.eye(3)
        c_pred = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        eps = np.array([0.0, 1.0, 2.0])
        assert orbital_similarity(c_pred, c_true, eps, eps, 2) == 0.0
        assert orbital_similarity(np.diag([1.0, -1.0, 1.0]), c_true, eps, eps, 2) == 1.0

    def test_similarity_matches_bruteforce_pairing(self):
        for _ in range(10):
            n = 6
            cp = np.linalg.qr(RNG.standard_normal((n, n)))[0]
            ct = np.linalg.qr(RNG.standard_normal((n, n)))[0]
            ep = RNG.standard_normal(n)
            et = RNG.standard_normal(n)
            n_occ = 3
            op, ot = np.argsort(ep)[:n_occ], np.argsort(et)[:n_occ]
            brute = np.mean([abs(cp[:, a] @ ct[:, b]) for a, b in zip(op, ot)])
            assert orbital_similarity(cp, ct, ep, et, n_occ) == pytest.approx(brute, abs=1e-12)

    def test_sign_flip_invariance_exact(self):
        n = 7
        cp = np.linalg.qr(RNG.standard_normal((n, n)))[0]
        ct = np.linalg.qr(RNG.standard_normal((n, n)))[0]
        eps = np.arange(float(n))
        base = orbital_similarity(cp, ct, eps, eps, 4)
        signs = RNG.choice([-1.0, 1.0], size=n)
        assert orbital_similarity(cp * signs, ct, eps, eps, 4) == base
        assert orbital_similarity(cp, ct * signs, eps, eps, 4) == base
