"""Per-atom embeddings from the two input modalities.

The token encoder runs a small self-attention stack over the token sequence
and mean-pools each atom's tokens into one row, so masked and unmasked
strings produce same-shaped matrices. The geometry encoder builds features
from element identities and pairwise distances only, which makes it exactly
invariant to rigid motions of the coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .errors import NonFiniteCoordinate, UnknownTokenKind
from .smiles import AROMATIC_SYMBOLS, Token, atom_symbol_of

VOCAB_ELEMENTS = ("H", "B", "C", "N", "O", "F", "P", "S", "Cl", "Br", "I")


def _build_vocab() -> tuple[str, ...]:
    entries = ["<mask>"]
    entries += [f"atom:{e}" for e in VOCAB_ELEMENTS]
    entries += [f"arom:{s.upper()}" for s in AROMATIC_SYMBOLS]
    entries += [f"bond:{c}" for c in "-=#:/\\"]
    entries += [f"ring:{d}" for d in "123456789"]
    entries += ["ring:%", "open", "close"]
    return tuple(entries)


VOCAB = _build_vocab()
_VOCAB_INDEX = {name: i for i, name in enumerate(VOCAB)}


def token_vocab_id(token: Token) -> int:
    """Map a token to its vocabulary row; bracket content folds to element."""
    if token.kind == "mask":
        return _VOCAB_INDEX["<mask>"]
    if token.kind in ("atom", "bracket"):
        element, aromatic = atom_symbol_of(token)
        key = f"arom:{element}" if aromatic else f"atom:{element}"
    elif token.kind == "bond":
        key = f"bond:{token.text}"
    elif token.kind == "ring":
        key = f"ring:{token.text}" if len(token.text) == 1 else "ring:%"
    elif token.kind in ("open", "close"):
        key = token.kind
    else:
        raise UnknownTokenKind(f"token kind {token.kind!r} has no vocabulary entry")
    try:
        return _VOCAB_INDEX[key]
    except KeyError:
        raise UnknownTokenKind(f"no vocabulary entry for {key!r}") from None


def element_id(element: str) -> int:
    try:
        return VOCAB_ELEMENTS.index(element)
    except ValueError:
        raise UnknownTokenKind(f"element {element!r} has no embedding row") from None


def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """Standard fixed sin/cos positional table, shape (n, d)."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    half = np.arange(d // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * half / d)
    table = np.zeros((n, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


@dataclass
class TokenEncoderParams:
    """Weights of the token stack; `blocks` holds per-layer attention/ff weights."""

    embed: Tensor                    # vocab x d
    atom_refine: Tensor              # n_elements x d, added after pooling
    blocks: list[dict[str, Tensor]]  # wq, wk, wv, wf, wg per layer

    @property
    def width(self) -> int:
        return self.embed.data.shape[1]


def _pool_matrix(atom_token_sets: list[tuple[int, ...]], n_tokens: int) -> np.ndarray:
    pool = np.zeros((len(atom_token_sets), n_tokens))
    for row, members in enumerate(atom_token_sets):
        for t in members:
            if not 0 <= t < n_tokens:
                raise UnknownTokenKind(f"token index {t} outside sequence of {n_tokens}")
            pool[row, t] = 1.0 / len(members)
    return pool


def encode_tokens(tokens: list[Token],
                  atom_token_sets: list[tuple[int, ...]],
                  atom_elements: list[str],
                  params: TokenEncoderParams) -> Tensor:
    """One embedding row per atom, pooled from that atom's tokens.

    `atom_token_sets[i]` lists the token positions owned by output row i;
    hydrogen rows of an expanded molecule reuse their parent's tokens and are
    distinguished by the per-element refinement row.
    """
    d = params.width
    ids = np.asarray([token_vocab_id(t) for t in tokens], dtype=np.intp)
    x = ad.gather_rows(params.embed, ids)
    x = x + constant(sinusoidal_positions(len(tokens), d))

    scale = 1.0 / np.sqrt(d)
    for block in params.blocks:
        q = x @ block["wq"]
        k = x @ block["wk"]
        v = x @ block["wv"]
        attn = ad.row_softmax((q @ ad.transpose(k)) * scale)
        x = x + attn @ v
        x = x + ad.tanh(x @ block["wf"]) @ block["wg"]

    pooled = constant(_pool_matrix(atom_token_sets, len(tokens))) @ x
    elem_ids = np.asarray([element_id(e) for e in atom_elements], dtype=np.intp)
    return pooled + ad.gather_rows(params.atom_refine, elem_ids)


@dataclass
class GeomEncoderParams:
    """Weights of the distance-based message-passing stack."""

    elem_embed: Tensor               # n_elements x d
    rounds: list[dict[str, Tensor]]  # wf1, bf1, wf2, bf2, wmsg, bmsg, wupd, bupd
    cutoff: float
    n_rbf: int

    @property
    def width(self) -> int:
        return self.elem_embed.data.shape[1]


def radial_basis(dist: np.ndarray, cutoff: float, n_rbf: int) -> np.ndarray:
    """Gaussian expansion of distances on [0, cutoff], one row per pair."""
    centers = np.linspace(0.0, cutoff, n_rbf)
    width = centers[1] - centers[0]
    return np.exp(-((dist[:, None] - centers[None, :]) ** 2) / (2.0 * width * width))


def cutoff_envelope(dist: np.ndarray, cutoff: float) -> np.ndarray:
    """Smooth cosine taper that reaches exactly zero at the cutoff radius."""
    inside = dist < cutoff
    return np.where(inside, 0.5 * (np.cos(np.pi * dist / cutoff) + 1.0), 0.0)


def _distance_features(coords: np.ndarray, cutoff: float,
                       n_rbf: int) -> tuple[np.ndarray, np.ndarray]:
    """(rbf rows over ordered pairs (i, j), row i * n + j; (n, n, 1) gate)."""
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1)).reshape(-1)
    gate = cutoff_envelope(dist, cutoff).reshape(n, n)
    np.fill_diagonal(gate, 0.0)
    return radial_basis(dist, cutoff, n_rbf), gate[:, :, None]


def encode_geometry(elements: list[str], coords: np.ndarray,
                    params: GeomEncoderParams) -> Tensor:
    """One embedding row per atom from element identities and distances.

    Output depends on the pairwise distance matrix only, so rigid motions of
    the coordinates leave it unchanged and relabeling atoms permutes rows.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3 or coords.shape[0] != len(elements):
        raise NonFiniteCoordinate(f"expected ({len(elements)}, 3) coordinates, got {coords.shape}")
    if not np.isfinite(coords).all():
        raise NonFiniteCoordinate("coordinates contain non-finite values")

    n = len(elements)
    rbf_arr, gate_arr = _distance_features(coords, params.cutoff, params.n_rbf)
    rbf, gate = constant(rbf_arr), constant(gate_arr)

    elem_ids = np.asarray([element_id(e) for e in elements], dtype=np.intp)
    h = ad.gather_rows(params.elem_embed, elem_ids)

    for rnd in params.rounds:
        filt = ad.tanh(rbf @ rnd["wf1"] + rnd["bf1"]) @ rnd["wf2"] + rnd["bf2"]
        g = h @ rnd["wmsg"] + rnd["bmsg"]
        # message i = sum_j filt[i, j] * g[j] * gate[i, j]; g broadcasts as (1, n, d)
        msg = ad.sum_(ad.reshape(filt, (n, n, -1)) * g * gate, axis=1)
        h = ad.tanh(h @ rnd["wupd"] + rnd["bupd"] + msg)
    return h
