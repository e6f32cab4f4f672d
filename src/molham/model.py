"""Parameter registry and forward passes wiring the pipeline together.

The model owns one float64 vector; every forward pass wraps its groups as tape
leaves (or constants, for frozen groups) so training steps stay functional:
run forward, backward, update the vector in place, discard the tape.

Every forward pass runs a packed batch. Training builds each molecule's
integer structures (`MolStructure`) once; a pass packs them into padded
(B, n, d) atom rows (`pad` marks rows past each molecule's atoms) with
concatenated pair lists, and every loss comes out per molecule. Fine-tuning
and inference share one prediction forward, `predict_entries`. Every
one-molecule prediction (`predict`, `bench`, evaluation and screening) goes
through `hamiltonian_from_tokens` or `hamiltonian_fused`, which run it as a
batch of one from the tokens, the expanded molecule and the layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

import numpy as np

from . import alignment as al
from . import autodiff as ad
from . import compensation as comp
from . import encoders as enc
from . import hamhead as hh
from .autodiff import Tape, Tensor, constant
from .nn import Mlp
from .smiles import ExpandedMol, Fragment, Token, expanded_fragments

MASK_ID = enc.token_vocab_id(Token("mask", "", 0))
TokenInput = tuple[np.ndarray, np.ndarray, np.ndarray]  # enc.token_sequence output


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

    def __post_init__(self):
        # `not` around each bound so that a NaN fails it too
        for key, least in (("width", 2), ("n_rbf", 2), ("n_shear", 1), ("head_hidden", 1),
                           ("token_layers", 0), ("geom_rounds", 0)):
            if not getattr(self, key) >= least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if not 0.0 < self.cutoff < np.inf:
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")
        if self.width % 2 != 0:
            raise ValueError("embedding width must be even for the positional table")


_GENERATOR_HEADS = ("angles", "scales", "shear_p", "shear_w", "shift", "amp", "freq", "phase")


@dataclass(frozen=True)
class MolStructure:
    """One molecule's integer structures, built once from its strings."""

    tokens: TokenInput
    token_fragment: np.ndarray  # (L,) fragment of each atom token, -1 on other tokens
    fragment_of: np.ndarray     # (n,) fragment of each expanded atom
    n_fragments: int
    value_index: np.ndarray     # hamhead._value_index of the molecule's layout

    @property
    def elem_ids(self) -> np.ndarray:
        return self.tokens[2]

    @property
    def n_atoms(self) -> int:
        return self.elem_ids.size

    def masked(self, keep: Sequence[int]) -> TokenInput:
        """Token input with the atom tokens of dropped fragments (keep 0) masked,
        as `smiles.mask_tokens` does."""
        ids, pool, elems = self.tokens
        drop = np.append(np.asarray(keep) == 0, False)[self.token_fragment]
        return np.where(drop, MASK_ID, ids), pool, elems


def mol_structure(tokens: list[Token], xmol: ExpandedMol, fragments: list[Fragment],
                  lay: hh.BlockLayout) -> MolStructure:
    """Structures of a molecule, with the head's value index for its layout."""
    token_fragment = np.full(len(tokens), -1, dtype=np.intp)
    for f in fragments:
        for t in f.token_indices:
            if tokens[t].kind in ("atom", "bracket"):
                token_fragment[t] = f.fragment_id
    fragment_of = np.empty(xmol.n_atoms, dtype=np.intp)
    for fid, members in enumerate(expanded_fragments(xmol, fragments)):
        fragment_of[list(members)] = fid
    return MolStructure(enc.token_sequence(tokens, xmol.token_sets, xmol.elements),
                        token_fragment, fragment_of, len(fragments), hh._value_index(lay))


def padding(n_atoms: Sequence[int]) -> np.ndarray:
    """(B, n, 1) block marking with 1 the rows past each molecule's atom count."""
    n_atoms = np.asarray(n_atoms)
    return (np.arange(n_atoms.max())[None, :] >= n_atoms[:, None]).astype(np.float64)[:, :, None]


def _head_width(name: str, d: int, n_shear: int) -> int:
    if name == "angles":
        return d - 1
    if name in ("shear_p", "shear_w"):
        return n_shear * d
    return d


class Model:
    """All trainable values in one float64 `vector`. `params` maps dotted group
    names, in vector order, to views of it (read-only: updates write in place),
    and `slices` maps them to their spans."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.vector = np.concatenate([np.ravel(a) for a in params.values()], dtype=np.float64)
        ends = np.cumsum([np.size(a) for a in params.values()]).tolist()
        self.slices = {n: slice(e - np.size(a), e) for (n, a), e in zip(params.items(), ends)}
        self.params = MappingProxyType({name: self.vector[s].reshape(np.shape(params[name]))
                                        for name, s in self.slices.items()})

    @staticmethod
    def layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], int]]:
        """Each group's shape and the fan-in that scales its initial draw, in
        vector order; fan-in 0 marks a group that is not drawn."""
        d, h = config.width, config.head_hidden
        groups: dict[str, tuple[tuple[int, ...], int]] = {}
        groups["token.embed"] = (len(enc.VOCAB), d), 1
        groups["token.refine"] = (len(enc.VOCAB_ELEMENTS), d), 1
        for layer in range(config.token_layers):
            for w in ("wq", "wk", "wv", "wf", "wg"):
                groups[f"token.block{layer}.{w}"] = (d, d), d

        groups["geom.embed"] = (len(enc.VOCAB_ELEMENTS), d), 1
        for rnd in range(config.geom_rounds):
            groups[f"geom.round{rnd}.wf1"] = (config.n_rbf, d), config.n_rbf
            groups[f"geom.round{rnd}.bf1"] = (1, d), 0
            for w in ("f2", "msg", "upd"):
                groups[f"geom.round{rnd}.w{w}"] = (d, d), d
                groups[f"geom.round{rnd}.b{w}"] = (1, d), 0

        for mlp in ("u", "t", "vplus", "vminus"):
            for layer in ("1", "2"):
                groups[f"comp.{mlp}.w{layer}"] = (d, d), d
                if (mlp, layer) != ("vminus", "2"):  # rows of I - beta sum to zero: no bias
                    groups[f"comp.{mlp}.b{layer}"] = (1, d), 0
        groups["gen.hidden.w"] = (d, d), d
        groups["gen.hidden.b"] = (1, d), 0
        for head in _GENERATOR_HEADS:
            # zero heads realize the identity transform before training
            groups[f"gen.{head}.w"] = (d, _head_width(head, d, config.n_shear)), 0
            groups[f"gen.{head}.b"] = (1, _head_width(head, d, config.n_shear)), 0

        for w in ("wq", "wk", "wv"):
            groups[f"align.{w}"] = (d, d), d
        groups["align.log_tau"] = (1, 1), 0  # set to log(0.5) by `init`

        groups["head.diag.w1"] = (d, h), d
        groups["head.diag.b1"] = (1, h), 0
        groups["head.diag.w2"] = (h, hh.HEAD_VALUES), 0
        groups["head.diag.b2"] = (1, hh.HEAD_VALUES), 0
        groups["head.pair.wsum"] = (d, h), d
        groups["head.pair.wgap"] = (d, h), d
        groups["head.pair.b1"] = (1, h), 0
        groups["head.pair.w2"] = (h, hh.HEAD_VALUES), 0
        groups["head.pair.b2"] = (1, hh.HEAD_VALUES), 0
        return groups

    @classmethod
    def zeros(cls, config: ModelConfig) -> "Model":
        """A model of `config`'s layout holding zeros, with no random draw."""
        return cls(config, {name: np.zeros(shape)
                            for name, (shape, _) in cls.layout(config).items()})

    @classmethod
    def init(cls, config: ModelConfig, seed: int) -> "Model":
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
        params = {name: rng.standard_normal(shape) / np.sqrt(fan_in) if fan_in else np.zeros(shape)
                  for name, (shape, fan_in) in cls.layout(config).items()}
        params["align.log_tau"] = np.full((1, 1), np.log(0.5))
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

    def grads(self, tape: Tape, leaves: dict[str, Tensor]) -> tuple[np.ndarray, np.ndarray]:
        """A `vector`-shaped gradient, zero outside the groups that got one, and
        `live`, the mask of those groups."""
        grad, live = np.zeros_like(self.vector), np.zeros(self.vector.shape, dtype=bool)
        for name, leaf in leaves.items():
            g = tape.grad(leaf)
            if g is not None:
                grad[self.slices[name]] = g.ravel()
                live[self.slices[name]] = True
        return grad, live

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
        v_minus = Mlp(lv["comp.vminus.w1"], lv["comp.vminus.b1"], lv["comp.vminus.w2"],
                      constant(np.zeros((1, self.config.width))))  # no output bias, see `layout`
        return comp.DisentangleParams(mlp("u"), mlp("t"), mlp("vplus"), v_minus)

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

    def _geometry(self, lv: dict[str, Tensor], elem_ids: Sequence[np.ndarray],
                  coords: Sequence[np.ndarray]) -> Tensor:
        cfg = self.config
        batch = enc.geom_batch(elem_ids, coords, cfg.cutoff, cfg.n_rbf)
        return enc.encode_geometry(batch, self.geom_encoder(lv))

    def pretrain_batch_loss(self, lv: dict[str, Tensor], structs: Sequence[MolStructure],
                            coords: Sequence[np.ndarray],
                            lambda1: float) -> tuple[Tensor, Tensor, Tensor]:
        """(total, per-molecule discrepancy terms (B,), contrastive part).

        Molecule b has structure structs[b] and coordinates coords[b]. The
        total is the mean discrepancy term plus the contrastive part.
        """
        pad = padding([s.n_atoms for s in structs])
        t = enc.encode_tokens(enc.token_batch([s.tokens for s in structs]), self.token_encoder(lv))
        v = self._geometry(lv, [s.elem_ids for s in structs], coords)
        if self.config.compensation:
            v_plus, v_minus = comp.disentangle(v, t, self.disentangler(lv), pad)
            t_star = comp.compensate(t, v_minus, self.generator(lv), pad)
            d_terms = comp.discrepancy_loss(v, t_star, t, v_plus, lambda1, pad)
        else:
            t_star = t
            d_terms = comp.mean_smooth_l1(v, t, pad)  # direct alignment, no compensation
        plan = al.fragment_plan([s.fragment_of for s in structs],
                                [s.n_fragments for s in structs], pad.shape[1])
        v_vecs, t_vecs = al.molecule_fragment_vectors(t_star, v, plan, self.aligner(lv))
        contrast = al.contrastive_loss(v_vecs, t_vecs, self.aligner(lv).tau)
        return ad.mean(d_terms) + contrast, d_terms, contrast

    def predict_entries(self, lv: dict[str, Tensor], seqs: Sequence[TokenInput],
                        molecule: Sequence[int], indices: Sequence[np.ndarray],
                        coords: Sequence[np.ndarray] | None = None) -> Tensor:
        """The packed prediction forward: every entry of the Hamiltonians that
        S token sequences predict, row-major and concatenated.

        Sequence s (a `token_sequence` triple) is a string of molecule
        `molecule[s]`, and molecule b's own string is sequence b. Molecule b's
        head value index is `indices[b]`; with `coords` (fusion) its geometry
        rows, from coords[b], are added to each of its sequences.
        """
        t = enc.encode_tokens(enc.token_batch(seqs), self.token_encoder(lv))
        if coords is not None:
            v = self._geometry(lv, [seq[2] for seq in seqs[:len(coords)]], coords)
            v = ad.gather_rows(ad.reshape(v, (len(coords), -1)), molecule)
            t = hh.fuse_modalities(t, ad.reshape(v, t.shape))
        plan = hh.head_plan([indices[b] for b in molecule], [seq[2].size for seq in seqs],
                            t.shape[1])
        return hh.predict_hamiltonian(t, plan, self.head(lv))

    def finetune_batch_loss(self, lv: dict[str, Tensor], structs: Sequence[MolStructure],
                            keeps: Sequence[Sequence[int]], targets: Sequence[np.ndarray],
                            lambda2: float, coords: Sequence[np.ndarray] | None = None) -> Tensor:
        """Per-molecule fine-tuning losses (B,).

        The B full strings and the masked strings of the molecules whose keep
        bits drop a fragment run as one stack of sequences, and all their
        entries reach `hamhead.finetune_loss` as one stream. With `coords`
        (fusion) each molecule's geometry rows are added to all its branches.
        """
        # every fragment owns an atom token, so a dropped fragment changes the ids
        branch = [b for b, keep in enumerate(keeps) if 0 in keep]
        rows = list(range(len(structs))) + branch  # the molecule of each sequence
        entries = self.predict_entries(
            lv, [s.tokens for s in structs] + [structs[b].masked(keeps[b]) for b in branch],
            rows, [s.value_index for s in structs], coords)
        sizes = [structs[b].value_index.size for b in rows]
        h_star = constant(np.concatenate([np.asarray(targets[b]).reshape(-1) for b in rows]))
        masked = np.repeat(np.arange(len(rows)) >= len(structs), sizes)
        return hh.finetune_loss(h_star, entries, np.repeat(rows, sizes), masked, lambda2)

    def hamiltonian_from_tokens(self, lv: dict[str, Tensor], tokens: list[Token],
                                xmol: ExpandedMol, lay: hh.BlockLayout) -> Tensor:
        return self._hamiltonian(lv, tokens, xmol, lay, None)

    def hamiltonian_fused(self, lv: dict[str, Tensor], tokens: list[Token], xmol: ExpandedMol,
                          lay: hh.BlockLayout, coords: np.ndarray) -> Tensor:
        return self._hamiltonian(lv, tokens, xmol, lay, [coords])

    def _hamiltonian(self, lv: dict[str, Tensor], tokens: list[Token], xmol: ExpandedMol,
                     lay: hh.BlockLayout, coords: list[np.ndarray] | None) -> Tensor:
        """One molecule's (n_orb, n_orb) matrix: `predict_entries` on a batch of one."""
        index = hh._value_index(lay)
        seq = enc.token_sequence(tokens, xmol.token_sets, xmol.elements)
        return ad.reshape(self.predict_entries(lv, [seq], [0], [index], coords), index.shape)
