"""Geometry-to-token modality compensation.

The geometric embedding is disentangled through cross-modal attention into a
token-relevant part and a token-irrelevant remainder; the remainder drives a
per-molecule learnable affine map (plane-rotation chain, diagonal scaling,
rank-K shear, translation) plus a sinusoidal perturbation that turns token
embeddings into geometry-aware token embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .errors import ShapeMismatch
from .nn import SOFTPLUS_INV_ONE, Mlp, pairwise_cosine


@dataclass
class DisentangleParams:
    u: Mlp        # projects geometric rows for the attention query side
    t: Mlp        # projects token rows for the attention key side
    v_plus: Mlp   # token-relevant value path
    v_minus: Mlp  # token-irrelevant value path


def attention_matrix(v: Tensor, t: Tensor, params: DisentangleParams) -> Tensor:
    """Row-stochastic cross-modal attention from cosine affinities."""
    if v.shape != t.shape:
        raise ShapeMismatch(f"modalities differ in shape: {v.shape} vs {t.shape}")
    affinity = pairwise_cosine(params.u(v), params.t(t), "cross-modal projection")
    return ad.row_softmax(affinity)


def disentangle(v: Tensor, t: Tensor, params: DisentangleParams) -> tuple[Tensor, Tensor]:
    """Split v into (token-relevant, token-irrelevant) parts via attention.

    For a single-atom molecule the attention matrix is [[1]], which forces the
    token-irrelevant part to be exactly zero.
    """
    beta = attention_matrix(v, t, params)
    eye = constant(np.eye(v.shape[0]))
    v_plus = beta @ params.v_plus(v)
    v_minus = (eye - beta) @ params.v_minus(v)
    return v_plus, v_minus


@dataclass
class CompensationParams:
    """Realized per-molecule transform parameters (all 1 x d or K x d rows)."""

    angles: Tensor   # 1 x (d-1), one angle per adjacent plane
    scales: Tensor   # 1 x d, diagonal of the scaling factor
    shear_p: Tensor  # K x d shear directions
    shear_w: Tensor  # K x d shear directions
    shift: Tensor    # 1 x d translation
    amp: Tensor      # 1 x d sinusoid amplitudes
    freq: Tensor     # 1 x d sinusoid frequencies
    phase: Tensor    # 1 x d sinusoid phases

    @property
    def width(self) -> int:
        return self.scales.data.shape[1]


def neutral_params(d: int, n_shear: int) -> CompensationParams:
    """Parameters under which the compensation map is the exact identity."""
    return CompensationParams(
        angles=constant(np.zeros((1, d - 1))),
        scales=constant(np.ones((1, d))),
        shear_p=constant(np.zeros((n_shear, d))),
        shear_w=constant(np.zeros((n_shear, d))),
        shift=constant(np.zeros((1, d))),
        amp=constant(np.zeros((1, d))),
        freq=constant(np.ones((1, d))),
        phase=constant(np.zeros((1, d))),
    )


def build_rotation(angles: Tensor, d: int) -> Tensor:
    """Chain of plane rotations over adjacent planes (1,2)(2,3)...(d-1,d).

    Composed left to right as one tape node; the result is orthogonal for any
    angles and the zero vector yields the identity exactly.
    """
    if angles.data.size != d - 1:
        raise ShapeMismatch(f"need {d - 1} angles for width {d}, got {angles.data.size}")
    return ad.plane_rotation_chain(angles)


def build_affine(params: CompensationParams) -> Tensor:
    """Rotation @ scaling @ shear, with shear = I + sum_k p_k w_k^T."""
    d = params.width
    rot = build_rotation(params.angles, d)
    scale = constant(np.eye(d)) * params.scales  # broadcast row over the identity
    shear = constant(np.eye(d)) + ad.transpose(params.shear_p) @ params.shear_w
    return rot @ scale @ shear


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

    def __call__(self, v_minus: Tensor) -> CompensationParams:
        d = self.width
        pooled = ad.mean(v_minus, axis=0, keepdims=True)  # 1 x d, one transform per molecule
        hidden = ad.tanh(pooled @ self.w_hidden + self.b_hidden)

        def head(name: str) -> Tensor:
            w, b = self.heads[name]
            return hidden @ w + b

        return CompensationParams(
            angles=head("angles"),
            scales=ad.softplus(head("scales") + SOFTPLUS_INV_ONE),
            shear_p=ad.reshape(head("shear_p"), (self.n_shear, d)),
            shear_w=ad.reshape(head("shear_w"), (self.n_shear, d)),
            shift=head("shift"),
            amp=head("amp"),
            freq=head("freq") + 1.0,
            phase=head("phase"),
        )


def compensate(t: Tensor, v_minus: Tensor, generator: ParamGenerator) -> Tensor:
    """Geometry-aware token embeddings from tokens and the irrelevant part."""
    if t.shape != v_minus.shape:
        raise ShapeMismatch(f"token/geometry shapes differ: {t.shape} vs {v_minus.shape}")
    return apply_compensation(t, generator(v_minus))


def discrepancy_loss(v: Tensor, t_star: Tensor, t: Tensor, v_plus: Tensor,
                     lambda1: float) -> Tensor:
    """Mean smooth-L1 distance D(v, t*) + lambda1 * D(t, v+)."""
    for name, pair in (("v/t*", (v, t_star)), ("t/v+", (t, v_plus))):
        a, b = pair
        if a.shape != b.shape:
            raise ShapeMismatch(f"{name} shapes differ: {a.shape} vs {b.shape}")
    if lambda1 < 0:
        raise ValueError(f"lambda1 must be non-negative, got {lambda1}")
    main = ad.mean(ad.smooth_l1(v, t_star))
    aux = ad.mean(ad.smooth_l1(t, v_plus))
    return main + lambda1 * aux
