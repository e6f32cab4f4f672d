"""Parameter registry and forward passes wiring the pipeline together.

The model owns plain float64 arrays; every forward pass wraps them as tape
leaves (or constants, for frozen groups) so training steps stay functional:
run forward, backward, update arrays, discard the tape.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import alignment as al
from . import autodiff as ad
from . import compensation as comp
from . import encoders as enc
from . import hamhead as hh
from .autodiff import Tape, Tensor, constant
from .errors import VersionMismatch
from .nn import Mlp
from .smiles import ExpandedMol, Fragment, Token, expanded_fragments


@dataclass(frozen=True)
class ModelConfig:
    width: int = 32
    token_layers: int = 2
    geom_rounds: int = 3
    cutoff: float = 5.0
    n_rbf: int = 16
    n_shear: int = 4
    head_hidden: int = 64
    compensation: bool = True
    loss_form: str = "log_sigmoid"

    def __post_init__(self):
        if self.width % 2 != 0:
            raise ValueError("embedding width must be even for the positional table")
        if self.loss_form not in al.LOSS_FORMS:
            raise ValueError(f"loss form must be one of {al.LOSS_FORMS}")


_GENERATOR_HEADS = ("angles", "scales", "shear_p", "shear_w", "shift", "amp", "freq", "phase")


def _head_width(name: str, d: int, n_shear: int) -> int:
    if name == "angles":
        return d - 1
    if name in ("shear_p", "shear_w"):
        return n_shear * d
    return d


class Model:
    """All trainable arrays of the pipeline, keyed by dotted names."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "Model":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
        d = config.width
        params: dict[str, np.ndarray] = {}

        def rand(name: str, shape: tuple[int, ...], fan_in: int) -> None:
            params[name] = rng.standard_normal(shape) / np.sqrt(fan_in)

        def zeros(name: str, shape: tuple[int, ...]) -> None:
            params[name] = np.zeros(shape)

        rand("token.embed", (len(enc.VOCAB), d), 1)
        rand("token.refine", (len(enc.VOCAB_ELEMENTS), d), 1)
        for layer in range(config.token_layers):
            for w in ("wq", "wk", "wv", "wf", "wg"):
                rand(f"token.block{layer}.{w}", (d, d), d)

        rand("geom.embed", (len(enc.VOCAB_ELEMENTS), d), 1)
        for rnd in range(config.geom_rounds):
            rand(f"geom.round{rnd}.wf1", (config.n_rbf, d), config.n_rbf)
            zeros(f"geom.round{rnd}.bf1", (1, d))
            rand(f"geom.round{rnd}.wf2", (d, d), d)
            zeros(f"geom.round{rnd}.bf2", (1, d))
            rand(f"geom.round{rnd}.wmsg", (d, d), d)
            zeros(f"geom.round{rnd}.bmsg", (1, d))
            rand(f"geom.round{rnd}.wupd", (d, d), d)
            zeros(f"geom.round{rnd}.bupd", (1, d))

        for mlp in ("u", "t", "vplus", "vminus"):
            rand(f"comp.{mlp}.w1", (d, d), d)
            zeros(f"comp.{mlp}.b1", (1, d))
            rand(f"comp.{mlp}.w2", (d, d), d)
            zeros(f"comp.{mlp}.b2", (1, d))
        rand("gen.hidden.w", (d, d), d)
        zeros("gen.hidden.b", (1, d))
        for head in _GENERATOR_HEADS:
            # zero heads realize the identity transform before training
            zeros(f"gen.{head}.w", (d, _head_width(head, d, config.n_shear)))
            zeros(f"gen.{head}.b", (1, _head_width(head, d, config.n_shear)))

        for w in ("wq", "wk", "wv"):
            rand(f"align.{w}", (d, d), d)
        params["align.log_tau"] = np.full((1, 1), np.log(0.5))

        h = config.head_hidden
        rand("head.diag.w1", (d, h), d)
        zeros("head.diag.b1", (1, h))
        zeros("head.diag.w2", (h, hh.HEAD_VALUES))
        zeros("head.diag.b2", (1, hh.HEAD_VALUES))
        rand("head.pair.wsum", (d, h), d)
        rand("head.pair.wgap", (d, h), d)
        zeros("head.pair.b1", (1, h))
        zeros("head.pair.w2", (h, hh.HEAD_VALUES))
        zeros("head.pair.b2", (1, hh.HEAD_VALUES))

        return cls(config, params)

    # --- tape wiring ---

    def leaves(self, tape: Tape | None, frozen_prefixes: tuple[str, ...] = ()) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, arr in self.params.items():
            if tape is None or name.startswith(frozen_prefixes):
                out[name] = constant(arr)
            else:
                out[name] = tape.leaf(arr)
        return out

    def grads(self, tape: Tape, leaves: dict[str, Tensor]) -> dict[str, np.ndarray | None]:
        return {name: tape.grad(leaf) for name, leaf in leaves.items()}

    # --- parameter views ---

    def token_encoder(self, lv: dict[str, Tensor]) -> enc.TokenEncoderParams:
        blocks = [{w: lv[f"token.block{layer}.{w}"] for w in ("wq", "wk", "wv", "wf", "wg")}
                  for layer in range(self.config.token_layers)]
        return enc.TokenEncoderParams(lv["token.embed"], lv["token.refine"], blocks)

    def geom_encoder(self, lv: dict[str, Tensor]) -> enc.GeomEncoderParams:
        rounds = [{w: lv[f"geom.round{r}.{w}"]
                   for w in ("wf1", "bf1", "wf2", "bf2", "wmsg", "bmsg", "wupd", "bupd")}
                  for r in range(self.config.geom_rounds)]
        return enc.GeomEncoderParams(lv["geom.embed"], rounds, self.config.cutoff, self.config.n_rbf)

    def disentangler(self, lv: dict[str, Tensor]) -> comp.DisentangleParams:
        def mlp(name: str) -> Mlp:
            return Mlp(lv[f"comp.{name}.w1"], lv[f"comp.{name}.b1"],
                       lv[f"comp.{name}.w2"], lv[f"comp.{name}.b2"])
        return comp.DisentangleParams(mlp("u"), mlp("t"), mlp("vplus"), mlp("vminus"))

    def generator(self, lv: dict[str, Tensor]) -> comp.ParamGenerator:
        heads = {name: (lv[f"gen.{name}.w"], lv[f"gen.{name}.b"]) for name in _GENERATOR_HEADS}
        return comp.ParamGenerator(lv["gen.hidden.w"], lv["gen.hidden.b"], heads,
                                   self.config.n_shear)

    def aligner(self, lv: dict[str, Tensor]) -> al.AlignmentParams:
        return al.AlignmentParams(lv["align.wq"], lv["align.wk"], lv["align.wv"],
                                  lv["align.log_tau"])

    def head(self, lv: dict[str, Tensor]) -> hh.HeadParams:
        diag = Mlp(lv["head.diag.w1"], lv["head.diag.b1"], lv["head.diag.w2"], lv["head.diag.b2"])
        pair = hh.PairNet(lv["head.pair.wsum"], lv["head.pair.wgap"], lv["head.pair.b1"],
                          lv["head.pair.w2"], lv["head.pair.b2"])
        return hh.HeadParams(diag, pair)

    # --- forward passes ---

    def token_matrix(self, lv: dict[str, Tensor], tokens: list[Token], xmol: ExpandedMol) -> Tensor:
        return enc.encode_tokens(tokens, list(xmol.token_sets), list(xmol.elements),
                                 self.token_encoder(lv))

    def geom_matrix(self, lv: dict[str, Tensor], xmol: ExpandedMol, coords: np.ndarray) -> Tensor:
        return enc.encode_geometry(list(xmol.elements), coords, self.geom_encoder(lv))

    def pretrain_molecule(self, lv: dict[str, Tensor], tokens: list[Token], xmol: ExpandedMol,
                          fragments: list[Fragment], coords: np.ndarray,
                          lambda1: float) -> tuple[Tensor, list[Tensor], list[Tensor]]:
        """Per-molecule discrepancy loss plus pooled fragment vector lists."""
        t = self.token_matrix(lv, tokens, xmol)
        v = self.geom_matrix(lv, xmol, coords)
        if self.config.compensation:
            v_plus, v_minus = comp.disentangle(v, t, self.disentangler(lv))
            t_star = comp.compensate(t, v_minus, self.generator(lv))
            loss_d = comp.discrepancy_loss(v, t_star, t, v_plus, lambda1)
        else:
            t_star = t
            loss_d = ad.mean(ad.smooth_l1(v, t))  # direct alignment, no compensation
        xfrags = expanded_fragments(xmol, fragments)
        v_vecs, t_vecs = al.molecule_fragment_vectors(t_star, v, xfrags, self.aligner(lv))
        return loss_d, v_vecs, t_vecs

    def pretrain_batch_loss(self, lv: dict[str, Tensor], molecules: list[dict],
                            lambda1: float) -> tuple[Tensor, Tensor, Tensor]:
        """(total, discrepancy part, contrastive part) over a molecule batch."""
        d_losses = []
        v_all: list[Tensor] = []
        t_all: list[Tensor] = []
        for m in molecules:
            loss_d, v_vecs, t_vecs = self.pretrain_molecule(
                lv, m["tokens"], m["xmol"], m["fragments"], m["coords"], lambda1)
            d_losses.append(loss_d)
            v_all.extend(v_vecs)
            t_all.extend(t_vecs)
        total_d = d_losses[0]
        for term in d_losses[1:]:
            total_d = total_d + term
        total_d = total_d * (1.0 / len(d_losses))
        contrast = al.contrastive_loss(al.stack_rows(v_all), al.stack_rows(t_all),
                                       self.aligner(lv).tau, self.config.loss_form)
        return total_d + contrast, total_d, contrast

    def hamiltonian_from_tokens(self, lv: dict[str, Tensor], tokens: list[Token],
                                xmol: ExpandedMol, lay: hh.BlockLayout) -> Tensor:
        return hh.predict_hamiltonian(self.token_matrix(lv, tokens, xmol), lay, self.head(lv))

    def hamiltonian_fused(self, lv: dict[str, Tensor], tokens: list[Token], xmol: ExpandedMol,
                          lay: hh.BlockLayout, coords: np.ndarray) -> Tensor:
        fused = hh.fuse_modalities(self.token_matrix(lv, tokens, xmol),
                                   self.geom_matrix(lv, xmol, coords))
        return hh.predict_hamiltonian(fused, lay, self.head(lv))

    # --- checkpoint compatibility ---

    def config_dict(self) -> dict:
        return asdict(self.config)


def check_compatible(expected: ModelConfig, found: ModelConfig,
                     found_shapes: dict[str, tuple[int, ...]]) -> None:
    if expected == found:
        return
    detail = ", ".join(f"{k}={v}" for k, v in sorted(found_shapes.items())[:4])
    raise VersionMismatch(
        f"checkpoint built for {found} does not match requested {expected}; "
        f"stored shapes include {detail}")
