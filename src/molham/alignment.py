"""Fragment-level multimodal alignment.

Embeddings are segmented by fragment, the token side is pooled with
cross-attention conditioned on the geometric side, and a pairwise sigmoid
contrastive objective pulls matching fragment vectors together. The default
objective is the log-sigmoid form; the printed sigmoid form is available
behind a flag for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .errors import EmptyBatch, IndexOutOfRange, ShapeMismatch
from .nn import pairwise_cosine

LOSS_FORMS = ("log_sigmoid", "literal")


@dataclass
class AlignmentParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    log_tau: Tensor  # temperature, stored on log scale to stay positive

    @property
    def tau(self) -> Tensor:
        return ad.exp(self.log_tau)


@dataclass
class FragmentEmbedding:
    fragment_id: int
    rows: Tensor  # |fragment| x d, member-atom rows in atom-index order


def segment_embeddings(emb: Tensor, fragments: list[tuple[int, ...]]) -> list[FragmentEmbedding]:
    """Gather each fragment's member-atom rows in ascending atom order."""
    n = emb.shape[0]
    out = []
    for fid, members in enumerate(fragments):
        ordered = sorted(members)
        for a in ordered:
            if not 0 <= a < n:
                raise IndexOutOfRange(f"fragment {fid} references atom {a} of {n}")
        out.append(FragmentEmbedding(fid, ad.gather_rows(emb, np.asarray(ordered, dtype=np.intp))))
    return out


def contextual_pool(t_frag: Tensor, v_frag: Tensor, params: AlignmentParams) -> Tensor:
    """Token-conditioned attention pooling of a fragment, reduced to one row."""
    d = params.wq.data.shape[0]
    if t_frag.shape[1] != d or v_frag.shape[1] != d:
        raise ShapeMismatch(
            f"fragment width mismatch: {t_frag.shape}, {v_frag.shape} vs weights of width {d}")
    q = t_frag @ params.wq
    k = v_frag @ params.wk
    attn = ad.row_softmax((q @ ad.transpose(k)) * (1.0 / np.sqrt(d)))
    mixed = attn @ (v_frag @ params.wv)
    return ad.mean(mixed, axis=0, keepdims=True)


def contrastive_loss(v_vecs: Tensor, t_vecs: Tensor, tau: Tensor,
                     form: str = "log_sigmoid") -> Tensor:
    """Pairwise sigmoid contrastive loss over pooled fragment vectors.

    Row i of each input is one fragment; the (i, j) pair is positive iff
    i == j. Negatives therefore span all other fragments in the batch, both
    within and across molecules.
    """
    if form not in LOSS_FORMS:
        raise ValueError(f"unknown loss form {form!r}; expected one of {LOSS_FORMS}")
    if v_vecs.shape[0] == 0:
        raise EmptyBatch("contrastive loss needs at least one fragment pair")
    if v_vecs.shape != t_vecs.shape:
        raise ShapeMismatch(f"fragment stacks differ: {v_vecs.shape} vs {t_vecs.shape}")
    n = v_vecs.shape[0]
    cosines = pairwise_cosine(v_vecs, t_vecs, "pooled fragment")
    labels = constant(2.0 * np.eye(n) - 1.0)
    z = labels * cosines / tau
    if form == "log_sigmoid":
        return ad.mean(ad.softplus(-z))  # -log sigmoid(z), finite for any z
    return ad.mean(-ad.sigmoid(-z))  # the printed sigmoid form, kept verbatim


def molecule_fragment_vectors(t_star: Tensor, v: Tensor,
                              fragments: list[tuple[int, ...]],
                              params: AlignmentParams) -> tuple[list[Tensor], list[Tensor]]:
    """Per-fragment pooled vectors: (geometric means, token-conditioned pools)."""
    t_parts = segment_embeddings(t_star, fragments)
    v_parts = segment_embeddings(v, fragments)
    v_out, t_out = [], []
    for tp, vp in zip(t_parts, v_parts):
        v_out.append(ad.mean(vp.rows, axis=0, keepdims=True))
        t_out.append(contextual_pool(tp.rows, vp.rows, params))
    return v_out, t_out


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Stack 1 x d tensors into an n x d tensor (differentiable)."""
    if not rows:
        raise EmptyBatch("nothing to stack")
    return ad.concat_rows(rows)
