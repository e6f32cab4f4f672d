"""Per-atom embeddings from the two input modalities.

The token encoder runs a small self-attention stack over the token sequence
and mean-pools each atom's tokens into one row, so masked and unmasked
strings produce same-shaped matrices. The geometry encoder builds features
from element identities and pairwise distances only, which makes it exactly
invariant to rigid motions of the coordinates. Its continuous filter depends
on the distance alone, so it runs once per unordered pair, and each round's
messages over the ordered pairs are one `autodiff.pair_messages` node.

Both encoders run a whole batch as one block: S sequences (or B molecules)
padded to one length, giving (S, n, d) rows where rows past a molecule's
atom count are padding. Padded tokens are hidden from attention by an
additive -inf key bias and pool onto no atom; padded atoms receive no
geometry messages. Padding rows hold finite values, so masking them out
downstream never multiplies a NaN by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def element_ids(elements: Sequence[str]) -> np.ndarray:
    return np.asarray([element_id(e) for e in elements], dtype=np.intp)


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


def _pool_matrix(atom_token_sets: Sequence[tuple[int, ...]], n_tokens: int) -> np.ndarray:
    pool = np.zeros((len(atom_token_sets), n_tokens))
    for row, members in enumerate(atom_token_sets):
        for t in members:
            if not 0 <= t < n_tokens:
                raise UnknownTokenKind(f"token index {t} outside sequence of {n_tokens}")
            pool[row, t] = 1.0 / len(members)
    return pool


def token_sequence(tokens: Sequence[Token], atom_token_sets: Sequence[tuple[int, ...]],
                   atom_elements: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One molecule's token input: (vocabulary ids (L,), pooling weights (n, L),
    element ids (n,)).

    `atom_token_sets[i]` lists the token positions owned by atom row i;
    hydrogen rows of an expanded molecule reuse their parent's tokens and are
    distinguished by the per-element refinement row.
    """
    ids = np.asarray([token_vocab_id(t) for t in tokens], dtype=np.intp)
    return ids, _pool_matrix(atom_token_sets, len(tokens)), element_ids(atom_elements)


@dataclass(frozen=True)
class TokenBatch:
    """S token sequences padded to L tokens, each pooled onto n atom rows."""

    ids: np.ndarray       # (S, L) vocabulary rows; padding tokens hold row 0
    key_bias: np.ndarray  # (S, 1, L) 0 on real tokens, -inf on padding
    pool: np.ndarray      # (S, n, L) pooling weights; padding atoms and tokens are 0
    elem_ids: np.ndarray  # (S, n) refinement rows; padding atoms hold row 0


def token_batch(seqs: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> TokenBatch:
    """Pack `token_sequence` triples into one padded block."""
    n_seq = len(seqs)
    length = max(len(ids) for ids, _, _ in seqs)
    n = max(len(elems) for _, _, elems in seqs)
    ids = np.zeros((n_seq, length), dtype=np.intp)
    key_bias = np.full((n_seq, 1, length), -np.inf)
    pool = np.zeros((n_seq, n, length))
    elem = np.zeros((n_seq, n), dtype=np.intp)
    for s, (seq_ids, seq_pool, seq_elems) in enumerate(seqs):
        ids[s, :len(seq_ids)] = seq_ids
        key_bias[s, 0, :len(seq_ids)] = 0.0
        pool[s, :seq_pool.shape[0], :seq_pool.shape[1]] = seq_pool
        elem[s, :len(seq_elems)] = seq_elems
    return TokenBatch(ids, key_bias, pool, elem)


def encode_tokens(batch: TokenBatch, params: TokenEncoderParams) -> Tensor:
    """(S, n, d) atom rows of a packed token batch, pooled from each atom's tokens."""
    d = params.width
    x = ad.gather_rows(params.embed, batch.ids)
    x = x + constant(sinusoidal_positions(batch.ids.shape[1], d))
    bias = constant(batch.key_bias)

    scale = 1.0 / np.sqrt(d)
    for block in params.blocks:
        q = x @ block["wq"]
        k = x @ block["wk"]
        v = x @ block["wv"]
        attn = ad.row_softmax((q @ ad.transpose(k)) * scale + bias)
        x = x + attn @ v
        x = x + ad.tanh(x @ block["wf"]) @ block["wg"]

    pooled = constant(batch.pool) @ x
    return pooled + ad.gather_rows(params.atom_refine, batch.elem_ids)


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


@dataclass(frozen=True)
class GeomBatch:
    """B molecules padded to n atom rows, with their neighbour pairs (i != j,
    closer than the cutoff) concatenated over the batch.

    Each unordered pair {i, j} has one distance, so it has one row of radial
    features, and two ordered pairs: the message from j to i and the one from
    i to j. Ordered pairs run receiver-major within each molecule. Pair rows
    name flat atom rows b * n + i of the (B * n, d) block."""

    elem_ids: np.ndarray  # (B, n) element rows; padding atoms hold row 0
    rbf: np.ndarray       # (Q, n_rbf) radial basis of each unordered pair's distance
    gate: np.ndarray      # (P, 1) cutoff envelope of each ordered pair, P = 2Q
    src: np.ndarray       # (P,) row of the neighbour j sending the message
    dst: np.ndarray       # (P,) row of the atom i receiving it
    pair: np.ndarray      # (P,) unordered pair of each ordered pair
    ends: np.ndarray      # (Q, 2) the two ordered pairs of each unordered pair


def geom_batch(elem_ids: Sequence[np.ndarray], coords: Sequence[np.ndarray],
               cutoff: float, n_rbf: int) -> GeomBatch:
    """Distance features of a batch; pairs beyond the cutoff carry a zero gate
    and are left out."""
    n = max(len(e) for e in elem_ids)
    elem = np.zeros((len(elem_ids), n), dtype=np.intp)
    dists, src, dst, pair = [], [], [], []
    n_pairs = 0
    for b, (ids, xyz) in enumerate(zip(elem_ids, coords)):
        xyz = np.asarray(xyz, dtype=np.float64)
        if xyz.ndim != 2 or xyz.shape != (len(ids), 3):
            raise NonFiniteCoordinate(f"expected ({len(ids)}, 3) coordinates, got {xyz.shape}")
        if not np.isfinite(xyz).all():
            raise NonFiniteCoordinate("coordinates contain non-finite values")
        elem[b, :len(ids)] = ids
        diff = xyz[:, None, :] - xyz[None, :, :]
        # x_j - x_i is the exact negation of x_i - x_j, so dist is bit-symmetric
        dist = np.sqrt((diff * diff).sum(axis=-1))
        i, j = np.nonzero((dist < cutoff) & ~np.eye(len(ids), dtype=bool))
        upper = i < j
        label = np.zeros(dist.shape, dtype=np.intp)  # label[i, j] numbers the pair {i, j}
        label[i[upper], j[upper]] = np.arange(n_pairs, n_pairs + i.size // 2)
        dists.append(dist[i[upper], j[upper]])
        dst.append(b * n + i)
        src.append(b * n + j)
        pair.append((label + label.T)[i, j])
        n_pairs += i.size // 2
    dist, pair = np.concatenate(dists), np.concatenate(pair)
    return GeomBatch(elem, radial_basis(dist, cutoff, n_rbf),
                     cutoff_envelope(dist, cutoff)[pair, None],
                     np.concatenate(src), np.concatenate(dst), pair,
                     np.argsort(pair, kind="stable").reshape(-1, 2))


def encode_geometry(batch: GeomBatch, params: GeomEncoderParams) -> Tensor:
    """(B, n, d) atom rows from element identities and distances.

    Output depends on the pairwise distances only, so rigid motions of the
    coordinates leave it unchanged and relabeling atoms permutes rows. The
    filter depends on the distance only, so it runs once per unordered pair.
    """
    shape = batch.elem_ids.shape + (params.width,)
    rbf = constant(batch.rbf)
    h = ad.gather_rows(params.elem_embed, batch.elem_ids.reshape(-1))

    for rnd in params.rounds:
        filt = ad.tanh(rbf @ rnd["wf1"] + rnd["bf1"]) @ rnd["wf2"] + rnd["bf2"]
        g = h @ rnd["wmsg"] + rnd["bmsg"]
        msg = ad.pair_messages(g, filt, batch.gate, batch.src, batch.dst, batch.pair, batch.ends)
        h = ad.tanh(h @ rnd["wupd"] + rnd["bupd"] + msg)
    return ad.reshape(h, shape)
