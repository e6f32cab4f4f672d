"""Fast built-in invariant suite behind the `selftest` subcommand.

A condensed version of the property checks in the test suite; each check
prints one pass/fail line and the run succeeds only if all pass.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, constant
from .compensation import apply_compensation, build_rotation, neutral_params
from .corpus import build_corpus
from .hamhead import layout
from .oracle import embed_3d, huckel_labels
from .screening import classify_by_gap, default_thresholds
from .smiles import detokenize, expand_hydrogens, parse_smiles, tokenize
from .spectral import eigh, jacobi_eigh, lowdin_inv_sqrt, orbitals, solve_gev


def _check(name: str, ok: bool, results: list[bool]) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    results.append(ok)


def run_selftest() -> bool:
    rng = np.random.Generator(np.random.PCG64(20240501))
    results: list[bool] = []

    ok = True
    for smiles in build_corpus()[:50]:
        if detokenize(tokenize(smiles)) != smiles:
            ok = False
            break
    _check("tokenizer round-trip on corpus sample", ok, results)

    ok = agree = True
    for _ in range(25):
        n = int(rng.integers(2, 30))
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        w, v = jacobi_eigh(a)
        scale = np.abs(a).max()
        ok &= np.max(np.abs(a @ v - v * w)) < 1e-10 * scale
        ok &= np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
        agree &= np.max(np.abs(eigh(a)[0] - w)) <= 1e-10 * scale
    _check("eigensolver residual and orthogonality", ok, results)
    _check("LAPACK eigh eigenvalues match Jacobi", agree, results)

    ok = True
    for _ in range(10):
        n = int(rng.integers(2, 20))
        m = rng.standard_normal((n, n))
        s = m @ m.T / n + 0.5 * np.eye(n)
        x = lowdin_inv_sqrt(s)
        ok &= np.max(np.abs(x @ s @ x - np.eye(n))) < 1e-8
    _check("inverse square-root identity", ok, results)

    ok = True
    for _ in range(20):
        d = int(rng.integers(2, 33))
        angles = constant(rng.uniform(-np.pi, np.pi, (1, 1, d - 1)))
        r = build_rotation(angles, d).data[0]
        ok &= np.max(np.abs(r.T @ r - np.eye(d))) < 1e-10
    _check("rotation chain orthogonality", ok, results)

    t = rng.standard_normal((1, 5, 8))
    ident = apply_compensation(constant(t), neutral_params(8, 4)).data
    _check("neutral compensation is the identity", bool(np.array_equal(ident, t)), results)

    sm = ad.row_softmax(constant(rng.standard_normal((6, 6)))).data
    _check("attention rows sum to one",
           bool(np.max(np.abs(sm.sum(axis=1) - 1.0)) < 1e-12), results)

    tape = Tape()
    x = tape.leaf(rng.standard_normal((3, 3)))
    out = ad.sum_(ad.square(x))
    tape.backward(out)
    _check("quadratic gradient is exact",
           bool(np.max(np.abs(tape.grad(x) - 2.0 * x.data)) < 1e-12), results)

    xmol = expand_hydrogens(parse_smiles("O"))
    coords = embed_3d(xmol, 3)
    h, s = huckel_labels(xmol, coords)
    res = solve_gev(h, s, 4)
    _check("water labels give a positive gap", res.gap_ev > 0.0, results)
    c = res.coefficients
    _check("water orbitals: C^T S C = I and H C = S C eps",
           bool(np.max(np.abs(c.T @ s @ c - np.eye(len(c)))) < 1e-10
                and np.max(np.abs(h @ c - s @ c * res.eigenvalues)) < 1e-10), results)
    lapack = orbitals(h, s, 4)
    c = lapack.coefficients
    _check("water orbitals by LAPACK: C^T S C = I, H C = S C eps, Jacobi's eps",
           bool(np.max(np.abs(c.T @ s @ c - np.eye(len(c)))) < 1e-10
                and np.max(np.abs(h @ c - s @ c * lapack.eigenvalues)) < 1e-10
                and np.max(np.abs(lapack.eigenvalues - res.eigenvalues)) < 1e-10), results)

    lay = layout(xmol.elements)
    _check("water layout has 4 orbitals", lay.n_orb == 4, results)

    rows = classify_by_gap(np.array([0.1, 0.5]), np.array([0.1, 0.5]), default_thresholds())
    _check("perfect gaps classify perfectly",
           all(r.accuracy == 1.0 and r.recall == 1.0 for r in rows), results)

    print(f"{sum(results)}/{len(results)} checks passed")
    return all(results)
