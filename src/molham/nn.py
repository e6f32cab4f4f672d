"""Small building blocks shared by the embedding and prediction networks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ZeroNormRow


@dataclass
class Mlp:
    """Two-layer perceptron with tanh hidden activation."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return ad.tanh(x @ self.w1 + self.b1) @ self.w2 + self.b2


def normalize_rows(x: Tensor, what: str = "embedding", pad: np.ndarray | None = None) -> Tensor:
    """Scale each row (last axis) to unit L2 norm; zero rows are rejected, not clamped.

    `pad` marks padding rows with 1 (shape x.shape[:-1] + (1,)). They are
    exempt from the zero-norm check and have 1 added to their squared norm,
    so they stay finite whatever they hold.
    """
    sq = ad.sum_(ad.square(x), axis=-1, keepdims=True)
    real = sq.data if pad is None else sq.data[pad == 0.0]
    if np.any(real == 0.0):
        raise ZeroNormRow(f"{what} contains a zero-norm row; cosine is undefined")
    return x / ad.sqrt(sq if pad is None else sq + pad)


def pairwise_cosine(a: Tensor, b: Tensor, what: str = "embedding",
                    pad: np.ndarray | None = None) -> Tensor:
    """Cosines between every row of `a` and every row of `b`, per batch entry."""
    return normalize_rows(a, what, pad) @ ad.transpose(normalize_rows(b, what, pad))


def row_weights(pad: np.ndarray) -> np.ndarray:
    """Weights that average over the real rows of each block: (1 - pad)
    divided by each block's count of real rows."""
    real = 1.0 - pad
    return real / real.sum(axis=-2, keepdims=True)


def key_bias(pad: np.ndarray) -> np.ndarray:
    """Additive attention bias (B, 1, n) that hides padding keys: -inf there, 0 elsewhere."""
    return np.where(np.swapaxes(pad, -1, -2) > 0.0, -np.inf, 0.0)


SOFTPLUS_INV_ONE = float(np.log(np.expm1(1.0)))  # softplus(x + this) == 1 at x == 0
