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


def normalize_rows(x: Tensor, what: str = "embedding") -> Tensor:
    """Scale each row to unit L2 norm; zero rows are rejected, not clamped."""
    sq = ad.sum_(ad.square(x), axis=1, keepdims=True)
    if np.any(sq.data == 0.0):
        raise ZeroNormRow(f"{what} contains a zero-norm row; cosine is undefined")
    return x / ad.sqrt(sq)


def pairwise_cosine(a: Tensor, b: Tensor, what: str = "embedding") -> Tensor:
    """Matrix of cosines between every row of `a` and every row of `b`."""
    return normalize_rows(a, what) @ ad.transpose(normalize_rows(b, what))


SOFTPLUS_INV_ONE = float(np.log(np.expm1(1.0)))  # softplus(x + this) == 1 at x == 0
