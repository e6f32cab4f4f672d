"""Symmetric Hamiltonian prediction over the toy orbital basis.

The matrix is assembled block-wise: same-atom blocks from a per-atom network
and cross-atom blocks from a pair network fed with the order-invariant
combination (t_i + t_j, |t_i - t_j|). Each block is emitted as three values
(s-s, s-p, p-p), so swapping the two atoms of a pair leaves its block
unchanged. The per-atom and per-pair values are stacked into one table, and
the matrix is a single gather from it through an integer index matrix built
from the layout. That index is symmetric, so the output is symmetric
bit-exactly, and atom relabeling permutes it block-wise.

A batch stacks its molecules' tables (every padded atom row, then every
molecule's pairs) and gathers all their entries at once through the
molecules' index matrices, offset to their rows of the stacked table. One
molecule is a batch of one.

The pair net is one tape node, `autodiff.pair_net`, over the batch's atom
rows and its pairs' row indices. Since (t_i + t_j) @ W_sum = A[i] + A[j]
with A = rows @ W_sum, the sum term's product runs once per atom row, not
once per pair, and a batch has many more pairs than rows. The node keeps
only the pair differences and hidden activations for its backward, in place
of the dozen (P, d) and (P, hidden) arrays that a recorded chain holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .atomic import read_framed, write_framed
from .autodiff import Tensor, constant
from .basis import DEFAULT_BASIS
from .errors import CorruptFile, DimensionMismatch, ShapeMismatch, UnsupportedElement
from .nn import Mlp

# value-column layout of the 3-wide head outputs for a 2-orbital block: the
# column of entry (u, v) is kind(u) + kind(v), with kind 0 for s and 1 for p,
# so column 0 -> (s, s), column 1 -> (s, p) and (p, s), column 2 -> (p, p)
HEAD_VALUES = 3


@dataclass(frozen=True)
class BlockLayout:
    """Orbital bookkeeping for one molecule."""

    elements: tuple[str, ...]
    offsets: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def n_orb(self) -> int:
        return sum(self.counts)

    @property
    def n_atoms(self) -> int:
        return len(self.elements)

    def atom_of_orbital(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_atoms), self.counts)


def layout(elements: list[str] | tuple[str, ...]) -> BlockLayout:
    counts = tuple(len(DEFAULT_BASIS.orbitals_for(e)) for e in elements)
    offsets = []
    total = 0
    for c in counts:
        offsets.append(total)
        total += c
    return BlockLayout(tuple(elements), tuple(offsets), counts)


def stored_layout(elements: object) -> BlockLayout:
    """The layout of an element list read from a file. Anything but a
    non-empty list of strings raises TypeError or ValueError, and an element
    outside the basis raises UnsupportedElement."""
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise TypeError(f"elements must be a list of strings, got {elements!r}")
    if not elements:
        raise ValueError("elements is empty: a molecule has at least one atom")
    return layout(elements)


@dataclass
class PairNet:
    """Pair block network on the symmetric feature pair (sum, |difference|)."""

    w_sum: Tensor  # d x hidden
    w_gap: Tensor  # d x hidden
    b1: Tensor     # 1 x hidden
    w2: Tensor     # hidden x 3
    b2: Tensor     # 1 x 3

    def __call__(self, rows: Tensor, i: np.ndarray, j: np.ndarray) -> Tensor:
        """(P, 3) block values of the pairs (rows[i[p]], rows[j[p]]): one tape node."""
        return ad.pair_net(rows, i, j, self.w_sum, self.w_gap, self.b1, self.w2, self.b2)


@dataclass
class HeadParams:
    diag: Mlp      # d -> 3 block values per atom
    pair: PairNet  # per unordered atom pair


def _value_index(lay: BlockLayout) -> np.ndarray:
    """(n_orb, n_orb) index of each matrix entry into the flat value table.

    Table rows 0..n-1 hold the per-atom values and rows n.. the per-pair
    values, pairs (i < j) in row-major order. The index depends only on the
    unordered atom pair and on kind(u) + kind(v), so it is symmetric.
    """
    if max(lay.counts, default=0) > 2:
        raise DimensionMismatch(f"the head emits s and p blocks only; layout counts {lay.counts} "
                                "put more than 2 orbitals on an atom")
    n = lay.n_atoms
    atom = lay.atom_of_orbital()
    kind = np.arange(lay.n_orb) - np.asarray(lay.offsets, dtype=np.intp)[atom]
    lo, hi = np.minimum.outer(atom, atom), np.maximum.outer(atom, atom)
    row = np.where(lo == hi, lo, n + lo * n - lo * (lo + 1) // 2 + hi - lo - 1)
    return row * HEAD_VALUES + kind[:, None] + kind[None, :]


@dataclass(frozen=True)
class HeadPlan:
    """Where a batch's matrix entries read the stacked value table."""

    rows: int            # S * n rows of the (S, n, d) embedding block it reads
    pairs_i: np.ndarray  # (P,) embedding row of each pair's first atom
    pairs_j: np.ndarray  # (P,) embedding row of its second atom
    index: np.ndarray    # (E,) flat table position of every entry


def head_plan(indices: Sequence[np.ndarray], n_atoms: Sequence[int], rows: int) -> HeadPlan:
    """Plan for S molecules whose atoms sit at rows s * rows .. s * rows + n_s - 1
    of the flattened (S * rows, d) embedding block. `indices` are their
    `_value_index` matrices; the entries come out raveled and concatenated."""
    pair_base = len(indices) * rows
    pairs_i, pairs_j, parts = [], [], []
    for s, (index, n) in enumerate(zip(indices, n_atoms)):
        if n > rows or index.max() // HEAD_VALUES + 1 != n * (n + 1) // 2:
            raise ShapeMismatch(f"molecule {s}: a value index for another atom count than "
                                f"{n}, or more than {rows} rows")
        i, j = np.triu_indices(n, 1)
        pairs_i.append(s * rows + i)
        pairs_j.append(s * rows + j)
        flat = index.reshape(-1)
        shift = np.where(flat // HEAD_VALUES < n, s * rows, pair_base - n)
        parts.append(flat + HEAD_VALUES * shift)
        pair_base += i.size
    return HeadPlan(len(indices) * rows, np.concatenate(pairs_i), np.concatenate(pairs_j),
                    np.concatenate(parts))


def predict_hamiltonian(emb: Tensor, plan: HeadPlan, params: HeadParams) -> Tensor:
    """Every entry of S symmetric Hamiltonians, row-major and concatenated,
    from (S, n, d) per-atom embeddings and their `head_plan`."""
    if not isinstance(plan, HeadPlan):
        raise TypeError(f"predict_hamiltonian needs a head_plan, got {type(plan).__name__}")
    if emb.ndim != 3 or emb.shape[0] * emb.shape[1] != plan.rows:
        raise ShapeMismatch(f"embedding rows {emb.shape[:-1]} do not match the plan's {plan.rows}")
    rows = ad.reshape(emb, (-1, emb.shape[-1]))
    parts = [params.diag(rows)]
    if plan.pairs_i.size:  # a lone atom leaves the pair net off the tape, so its gradient stays None
        parts.append(params.pair(rows, plan.pairs_i, plan.pairs_j))
    table = ad.reshape(ad.concat_rows(parts), (-1, 1))
    return ad.reshape(ad.gather_rows(table, plan.index), plan.index.shape)


def fuse_modalities(t: Tensor, v: Tensor) -> Tensor:
    """Elementwise sum used by the string+geometry inference configuration."""
    if t.shape != v.shape:
        raise ShapeMismatch(f"cannot fuse shapes {t.shape} and {v.shape}")
    return t + v


def finetune_loss(h_star: Tensor, h: Tensor, molecule: np.ndarray, masked: np.ndarray,
                  lambda2: float) -> Tensor:
    """Entry-mean MAE+MSE of every predicted entry h against its target
    h_star, reduced to one loss per molecule in one stream.

    `molecule` names each entry's molecule and `masked` marks the entries
    predicted from a fragment-masked string. lambda2 weights the full-string
    branch and (1 - lambda2) the masked one; a molecule without masked
    entries puts weight 1 on its full branch.
    """
    if not 0.0 <= lambda2 <= 1.0:
        raise ValueError(f"lambda2 must lie in [0, 1], got {lambda2}")
    if not h_star.shape == h.shape == molecule.shape == masked.shape:
        raise ShapeMismatch(f"entry counts differ: target {h_star.shape}, predicted {h.shape}, "
                            f"molecule ids {molecule.shape}, masked flags {masked.shape}")
    counts = np.bincount(molecule[~masked])
    full_weight = np.ones(counts.size)
    full_weight[molecule[masked]] = lambda2
    weight = np.where(masked, 1.0 - lambda2, full_weight[molecule]) / counts[molecule]
    diff = h - h_star
    return ad.segment_sum((ad.abs_(diff) + ad.square(diff)) * constant(weight),
                          molecule, counts.size)


# --- serialization: a framed file (see `atomic`): elements in the manifest, triangle as blob ---

_MAGIC = b"MHAM0002"


def upper_triangle(h: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(h.shape[0])
    return np.ascontiguousarray(h[iu], dtype=np.float64)


def from_upper_triangle(vals: np.ndarray, n: int) -> np.ndarray:
    h = np.zeros((n, n), dtype=np.float64)
    h[np.triu_indices(n)] = vals
    return h + h.T - np.diag(np.diag(h))


def save_hamiltonian(path: str | Path, h: np.ndarray, lay: BlockLayout) -> None:
    n = h.shape[0]
    if h.shape != (n, n) or n != lay.n_orb:
        raise DimensionMismatch(f"matrix {h.shape} does not match layout of {lay.n_orb} orbitals")
    if lay != layout(lay.elements):  # only the elements are stored
        raise DimensionMismatch(f"{lay} is not the default-basis layout of its elements")
    write_framed(path, _MAGIC, {"elements": list(lay.elements)},
                 upper_triangle(h).astype("<f8").tobytes())


def load_hamiltonian(path: str | Path) -> tuple[np.ndarray, BlockLayout]:
    """The stored matrix and `layout` of its stored elements; the blob must be
    exactly the upper triangle of their orbitals."""
    header, blob = read_framed(path, _MAGIC, "Hamiltonian matrix")
    try:
        lay = stored_layout(header.get("elements"))
    except (TypeError, ValueError, UnsupportedElement) as err:
        raise CorruptFile(f"{path} manifest: {err}") from None
    n = lay.n_orb
    if len(blob) != 8 * (n * (n + 1) // 2):
        raise CorruptFile(f"{path} does not hold the upper triangle of {n} orbitals")
    return from_upper_triangle(np.frombuffer(blob, dtype="<f8"), n), lay
