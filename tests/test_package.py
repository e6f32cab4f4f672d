"""Package-wide structure checks."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import molham


def test_no_module_level_caches():
    """Only the corpus keeps a module-level cache: one list computed from constants."""
    found = []
    for info in pkgutil.iter_modules(molham.__path__):
        module = importlib.import_module(f"molham.{info.name}")
        found += [f"{module.__name__}.{attr}" for attr in vars(module) if attr.endswith("_CACHE")]
    assert found == ["molham.corpus._CACHE"]
    assert not isinstance(molham.corpus._CACHE, dict)


def test_layers_take_only_the_packed_batch():
    """No layer regains a single-molecule form: its padding, plan or entry
    bookkeeping never defaults to None."""
    from molham import alignment, compensation, hamhead, nn

    guarded = ("pad", "plan", "molecule", "masked")
    layers = [compensation.attention_matrix, compensation.disentangle, compensation.compensate,
              compensation.ParamGenerator.__call__, compensation.mean_smooth_l1,
              compensation.discrepancy_loss, nn.row_weights, alignment.contextual_pool,
              hamhead.finetune_loss]
    forks = []
    for fn in layers:
        params = inspect.signature(fn).parameters
        assert any(name in params for name in guarded), fn.__qualname__
        forks += [f"{fn.__qualname__}({name})" for name in guarded
                  if name in params and params[name].default is None]
    assert forks == []


def test_workflows_stay_on_the_lapack_seam():
    """Only the spectral module, the self-test and the package exports name
    the Jacobi reference route; every workflow diagonalises through the seam."""
    reference = {"jacobi_eigh", "solve_gev", "lowdin_inv_sqrt"}
    allowed = {"spectral", "selftest", "__init__"}
    found = []
    for path in sorted(Path(molham.__path__[0]).glob("*.py")):
        if path.stem in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ({node.id} if isinstance(node, ast.Name)
                     else {node.attr} if isinstance(node, ast.Attribute)
                     else {a.name for a in node.names} if isinstance(node, (ast.Import, ast.ImportFrom))
                     else set())
            found += [f"{path.stem}:{node.lineno} {name}" for name in names & reference]
    assert found == []


def test_one_training_step_loop():
    """Both training stages run one step loop: a single function of the
    training module builds a `Tape` or an `Adam`."""
    path = Path(molham.__path__[0]) / "training.py"
    builders = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        functions = top.body if isinstance(top, ast.ClassDef) else [top]
        for fn in functions:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                builders |= {fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                             and getattr(node.func, "id", getattr(node.func, "attr", None))
                             in ("Tape", "Adam")}
    assert len(builders) == 1, sorted(builders)


def test_one_binary_frame():
    """Only the atomic module packs bytes by hand: every binary file goes
    through its `write_framed` and `read_framed`."""
    importers = []
    for path in sorted(Path(molham.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        modules |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        if "struct" in modules:
            importers.append(path.stem)
    assert importers == ["atomic"]


def test_one_lapack_entry():
    """One generalized solve reaches LAPACK: in the spectral module, the only
    public function besides `eigh` itself that names `eigh` is `orbitals`."""
    path = Path(molham.__path__[0]) / "spectral.py"
    entries = []
    for fn in ast.parse(path.read_text(), str(path)).body:
        if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                and fn.name != "eigh"
                and any(getattr(node, "id", getattr(node, "attr", None)) == "eigh"
                        for node in ast.walk(fn) if isinstance(node, (ast.Name, ast.Attribute)))):
            entries.append(fn.name)
    assert entries == ["orbitals"]


def test_parser_defines_no_private_types():
    """The SMILES parser keeps its walk in locals: the smiles module defines
    only the public types it returns."""
    path = Path(molham.__path__[0]) / "smiles.py"
    private = [node.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ClassDef) and node.name.startswith("_")]
    assert private == []
