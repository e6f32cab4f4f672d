"""Span tracer that times molham's layers from outside the package.

The traced run rebinds each layer's public functions and methods to timing
wrappers, in every module namespace that holds them (a function imported by
name, such as `molham.dataset.embed_3d`, is rebound there too), and restores
the original objects afterwards. Spans stay in memory as
`[name, parent, start, end]` rows, where `parent` is the index of the
enclosing span or -1, and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, hook=None):
        """Timing wrapper around `fn`; `hook(tracer, args)` may return an after-call callback."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            after = hook(self, args) if hook is not None else None
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if after is not None:
                    after()

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total self seconds and total inclusive seconds."""
    out: dict[str, dict] = {}
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += end - start
    return out


def covered_seconds(spans: list[list]) -> float:
    """Wall time covered by at least one span (spans nest, so the roots suffice)."""
    return sum(end - start for _, parent, start, end in spans if parent < 0)


def _scanned_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n.split(".")[0] in ("molham", "perfbench"))]


def _resolve(path: str):
    """`molham.autodiff.Tape` -> the class; `molham.oracle` -> the module."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


def install(tracer: Tracer, targets) -> tuple[list, list[str]]:
    """Rebind every target; returns (restore records, targets that do not exist).

    A target is `(owner, attribute, span name, hook)`. A class owner has the
    method replaced on the class; a module owner has the function replaced in
    every molham or perfbench module namespace that holds that same object.
    """
    records, missing = [], []
    for owner_path, attr, name, hook in targets:
        try:
            owner = _resolve(owner_path)
        except (ImportError, AttributeError):
            missing.append(f"{owner_path}.{attr}")
            continue
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            records.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, hook))
            continue
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{owner_path}.{attr}")
            continue
        wrapped = tracer.wrap(original, name, hook)
        for module in _scanned_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    records.append((module, key, original))
                    setattr(module, key, wrapped)
    return records, missing


def restore(records: list) -> None:
    for owner, attr, original in reversed(records):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer: Tracer, targets):
    """Install the wrappers for the duration of the block; yields the missing targets."""
    records, tracer.missing = install(tracer, targets)
    try:
        yield tracer.missing
    finally:
        restore(records)
