"""SMILES-driven molecular Hamiltonian prediction at desk scale.

Pipeline: parse SMILES into graphs and fragments, pre-train token and
geometry encoders with modality compensation and fragment-level contrastive
alignment, fine-tune a symmetric Hamiltonian head on masked strings, then
post-process spectra for orbital energies, gaps, and screening reports. A
deterministic semi-empirical oracle supplies labels end to end.
"""

__version__ = "0.1.0"

from .basis import DEFAULT_BASIS, HARTREE_TO_EV
from .model import Model, ModelConfig
from .smiles import MolGraph, fragment, parse_smiles, tokenize
from .spectral import eigh, jacobi_eigh, lowdin_inv_sqrt, orbitals, solve_gev
from .training import TrainConfig, evaluate, finetune, pretrain

__all__ = [
    "DEFAULT_BASIS",
    "HARTREE_TO_EV",
    "Model",
    "ModelConfig",
    "MolGraph",
    "TrainConfig",
    "eigh",
    "evaluate",
    "finetune",
    "fragment",
    "jacobi_eigh",
    "lowdin_inv_sqrt",
    "orbitals",
    "parse_smiles",
    "pretrain",
    "solve_gev",
    "tokenize",
    "__version__",
]
