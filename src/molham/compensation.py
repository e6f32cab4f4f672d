"""Geometry-to-token modality compensation.

The geometric embedding is disentangled through cross-modal attention into a
token-relevant part and a token-irrelevant remainder; the remainder drives a
per-molecule learnable affine map (plane-rotation chain, diagonal scaling,
rank-K shear, translation) plus a sinusoidal perturbation that turns token
embeddings into geometry-aware token embeddings.

Every function takes a padded batch's (B, n, d) rows and its `pad`,
(B, n, 1) with 1 on padding rows: attention hides padding keys, and
per-molecule means and losses weigh the real rows only. Per-molecule
transform parameters carry the batch axis: (B, 1, k) rows, (B, K, d) shears.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .errors import ShapeMismatch
from .nn import SOFTPLUS_INV_ONE, Mlp, key_bias, pairwise_cosine, row_weights


@dataclass
class DisentangleParams:
    u: Mlp        # projects geometric rows for the attention query side
    t: Mlp        # projects token rows for the attention key side
    v_plus: Mlp   # token-relevant value path
    v_minus: Mlp  # token-irrelevant value path


def attention_matrix(v: Tensor, t: Tensor, params: DisentangleParams,
                     pad: np.ndarray) -> Tensor:
    """Row-stochastic cross-modal attention from cosine affinities."""
    if v.shape != t.shape:
        raise ShapeMismatch(f"modalities differ in shape: {v.shape} vs {t.shape}")
    affinity = pairwise_cosine(params.u(v), params.t(t), "cross-modal projection", pad)
    return ad.row_softmax(affinity + constant(key_bias(pad)))


def disentangle(v: Tensor, t: Tensor, params: DisentangleParams,
                pad: np.ndarray) -> tuple[Tensor, Tensor]:
    """Split v into (token-relevant, token-irrelevant) parts via attention.

    For a single-atom molecule the attention matrix is [[1]], which forces the
    token-irrelevant part to be exactly zero. The rows of I - beta sum to zero,
    so an output bias of the v- MLP would cancel; the model gives it none.
    """
    beta = attention_matrix(v, t, params, pad)
    eye = constant(np.eye(v.shape[-2]))
    v_plus = beta @ params.v_plus(v)
    v_minus = (eye - beta) @ params.v_minus(v)
    return v_plus, v_minus


@dataclass
class CompensationParams:
    """Realized per-molecule transform parameters of a batch of B molecules."""

    angles: Tensor   # B x 1 x (d-1), one angle per adjacent plane
    scales: Tensor   # B x 1 x d, diagonal of the scaling factor
    shear_p: Tensor  # B x K x d shear directions
    shear_w: Tensor  # B x K x d shear directions
    shift: Tensor    # B x 1 x d translation
    amp: Tensor      # B x 1 x d sinusoid amplitudes
    freq: Tensor     # B x 1 x d sinusoid frequencies
    phase: Tensor    # B x 1 x d sinusoid phases

    @property
    def width(self) -> int:
        return self.scales.data.shape[-1]


def neutral_params(d: int, n_shear: int) -> CompensationParams:
    """Parameters of a batch of one under which the compensation map is the
    exact identity."""
    return CompensationParams(
        angles=constant(np.zeros((1, 1, d - 1))),
        scales=constant(np.ones((1, 1, d))),
        shear_p=constant(np.zeros((1, n_shear, d))),
        shear_w=constant(np.zeros((1, n_shear, d))),
        shift=constant(np.zeros((1, 1, d))),
        amp=constant(np.zeros((1, 1, d))),
        freq=constant(np.ones((1, 1, d))),
        phase=constant(np.zeros((1, 1, d))),
    )


def build_rotation(angles: Tensor, d: int) -> Tensor:
    """Chain of plane rotations over adjacent planes (1,2)(2,3)...(d-1,d).

    (B, 1, d-1) angles give B (d, d) rotations, composed left to right by one
    `plane_rotation_chain` node; each is orthogonal for any angles and the
    zero vector yields the identity exactly.
    """
    if angles.ndim != 3 or angles.shape[1:] != (1, d - 1):
        raise ShapeMismatch(f"need B x 1 x {d - 1} angles for width {d}, got {angles.shape}")
    return ad.plane_rotation_chain(ad.reshape(angles, (-1, d - 1)))


def build_affine(params: CompensationParams) -> Tensor:
    """Rotation @ scaling @ shear, with shear = I + sum_k p_k w_k^T; the
    diagonal scaling scales the rotation's columns."""
    d = params.width
    rot = build_rotation(params.angles, d)
    shear = constant(np.eye(d)) + ad.transpose(params.shear_p) @ params.shear_w
    return (rot * params.scales) @ shear


def apply_compensation(t: Tensor, params: CompensationParams) -> Tensor:
    """Per row: affine map of the embedding plus a sinusoidal perturbation."""
    affine = build_affine(params)
    deform = params.amp * ad.sin(t * params.freq + params.phase)
    return t @ ad.transpose(affine) + params.shift + deform


@dataclass
class ParamGenerator:
    """Maps the pooled token-irrelevant vector to CompensationParams.

    Every head is zero-initialized so an untrained generator realizes the
    identity transform (angles 0, scales 1, no shear, no shift, no sinusoid).
    """

    w_hidden: Tensor
    b_hidden: Tensor
    heads: dict[str, tuple[Tensor, Tensor]]  # name -> (weight, bias)
    n_shear: int

    @property
    def width(self) -> int:
        return self.w_hidden.data.shape[0]

    def __call__(self, v_minus: Tensor, pad: np.ndarray) -> CompensationParams:
        d = self.width
        # one transform per molecule, from the mean of its real rows: B x 1 x d
        pooled = ad.sum_(v_minus * row_weights(pad), axis=-2, keepdims=True)
        hidden = ad.tanh(pooled @ self.w_hidden + self.b_hidden)
        shear_shape = (pooled.shape[0], self.n_shear, d)

        def head(name: str) -> Tensor:
            w, b = self.heads[name]
            return hidden @ w + b

        return CompensationParams(
            angles=head("angles"),
            scales=ad.softplus(head("scales") + SOFTPLUS_INV_ONE),
            shear_p=ad.reshape(head("shear_p"), shear_shape),
            shear_w=ad.reshape(head("shear_w"), shear_shape),
            shift=head("shift"),
            amp=head("amp"),
            freq=head("freq") + 1.0,
            phase=head("phase"),
        )


def compensate(t: Tensor, v_minus: Tensor, generator: ParamGenerator,
               pad: np.ndarray) -> Tensor:
    """Geometry-aware token embeddings from tokens and the irrelevant part."""
    if t.shape != v_minus.shape:
        raise ShapeMismatch(f"token/geometry shapes differ: {t.shape} vs {v_minus.shape}")
    return apply_compensation(t, generator(v_minus, pad))


def mean_smooth_l1(a: Tensor, b: Tensor, pad: np.ndarray) -> Tensor:
    """Smooth-L1 distance averaged over each molecule's real entries, (B,)."""
    weights = row_weights(pad) / a.shape[-1]
    return ad.sum_(ad.smooth_l1(a, b) * weights, axis=(-2, -1))


def discrepancy_loss(v: Tensor, t_star: Tensor, t: Tensor, v_plus: Tensor,
                     lambda1: float, pad: np.ndarray) -> Tensor:
    """Mean smooth-L1 distance D(v, t*) + lambda1 * D(t, v+), per molecule."""
    for name, pair in (("v/t*", (v, t_star)), ("t/v+", (t, v_plus))):
        a, b = pair
        if a.shape != b.shape:
            raise ShapeMismatch(f"{name} shapes differ: {a.shape} vs {b.shape}")
    if lambda1 < 0:
        raise ValueError(f"lambda1 must be non-negative, got {lambda1}")
    return mean_smooth_l1(v, t_star, pad) + lambda1 * mean_smooth_l1(t, v_plus, pad)
