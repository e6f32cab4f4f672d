"""Fragment-level multimodal alignment.

The token side of each fragment is pooled with cross-attention conditioned
on the geometric side, and a pairwise sigmoid contrastive objective pulls
matching fragment vectors together. The default objective is the
log-sigmoid form; the printed sigmoid form is available behind a flag for
comparison runs.

A batch pools every fragment at once on the padded (B, n, d) rows: an
additive key bias keeps each row's attention inside its own fragment, and a
(B, f, n) pooling matrix averages each fragment's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class FragmentPlan:
    """Where the fragments of a padded batch sit."""

    key_bias: np.ndarray  # (B, n, n) 0 within a fragment, -inf across; padding rows group together
    pool: np.ndarray      # (B, f, n) 1/|fragment| on each fragment's member rows
    rows: np.ndarray      # (F,) flat rows b * f + k of the batch's real fragments, in order


def fragment_plan(fragment_of: Sequence[np.ndarray], n_fragments: Sequence[int],
                  n: int) -> FragmentPlan:
    """Plan for B molecules padded to n rows; fragment_of[b][i] is the
    fragment of atom i of molecule b."""
    f = max(n_fragments)
    group = np.full((len(fragment_of), n), -1, dtype=np.intp)
    pool = np.zeros((len(fragment_of), f, n))
    rows = []
    for b, (frag, count) in enumerate(zip(fragment_of, n_fragments)):
        frag = np.asarray(frag, dtype=np.intp)
        if frag.size > n or (frag.size and (frag.min() < 0 or frag.max() >= count)):
            raise IndexOutOfRange(f"molecule {b}: fragment index outside [0, {count}) "
                                  f"or more than {n} atoms")
        sizes = np.bincount(frag, minlength=count)
        group[b, :frag.size] = frag
        pool[b, frag, np.arange(frag.size)] = 1.0 / sizes[frag]
        rows.append(b * f + np.arange(count))
    key_bias = np.where(group[:, :, None] == group[:, None, :], 0.0, -np.inf)
    return FragmentPlan(key_bias, pool, np.concatenate(rows))


def contextual_pool(t_frag: Tensor, v_frag: Tensor, params: AlignmentParams,
                    plan: FragmentPlan) -> Tensor:
    """Token-conditioned attention pooling: every row of the (B, n, d) block
    attends within its own fragment and each fragment's rows are averaged,
    giving (B, f, d)."""
    d = params.wq.data.shape[0]
    if t_frag.shape[-1] != d or v_frag.shape[-1] != d:
        raise ShapeMismatch(
            f"fragment width mismatch: {t_frag.shape}, {v_frag.shape} vs weights of width {d}")
    q = t_frag @ params.wq
    k = v_frag @ params.wk
    scores = (q @ ad.transpose(k)) * (1.0 / np.sqrt(d)) + constant(plan.key_bias)
    mixed = ad.row_softmax(scores) @ (v_frag @ params.wv)
    return constant(plan.pool) @ mixed


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


def molecule_fragment_vectors(t_star: Tensor, v: Tensor, plan: FragmentPlan,
                              params: AlignmentParams) -> tuple[Tensor, Tensor]:
    """Pooled vectors of every fragment in the batch, (F, d) each:
    (geometric means, token-conditioned pools)."""
    d = v.shape[-1]

    def real(x: Tensor) -> Tensor:
        return ad.gather_rows(ad.reshape(x, (-1, d)), plan.rows)

    return (real(constant(plan.pool) @ v),
            real(contextual_pool(t_star, v, params, plan)))
