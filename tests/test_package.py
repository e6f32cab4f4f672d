"""Package-wide structure checks."""

from __future__ import annotations

import importlib
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
