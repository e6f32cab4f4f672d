"""Package-wide structure checks."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

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
