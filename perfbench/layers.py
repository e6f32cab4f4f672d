"""Which molham functions the traced run wraps, and the per-layer metrics they yield.

Span names are `<layer>.<what>`. A layer's time metric is the summed self
time of its spans divided by the work items of the traced phase (molecule
steps on `train`, molecules on `label`, molecule visits on `screen`), so it
reads in ms per item; `*_per_step` metrics divide by optimizer steps instead.
Counts read the same way, per item.
"""

from __future__ import annotations

import sys

from .tracer import Tracer, covered_seconds, summarize


def _tape_nodes(tracer: Tracer, args):
    tracer.count("autodiff.tape_nodes", len(args[0]))


def _jacobi_dim(tracer: Tracer, args):
    tracer.count("spectral.jacobi_dim_sum", len(args[0]))


def _geom_cache(tracer: Tracer, args):
    cache = getattr(sys.modules["molham.encoders"], "_GEOM_CACHE", None)
    if cache is None:
        return None
    before = len(cache)

    def after():
        tracer.count("encoders.geom_cache_hits", int(len(cache) == before))
    return after


# (owner, attribute, span name, hook)
TARGETS = [
    ("molham.smiles", "tokenize", "smiles.tokenize", None),
    ("molham.smiles", "parse_smiles", "smiles.parse_smiles", None),
    ("molham.smiles", "expand_hydrogens", "smiles.expand_hydrogens", None),
    ("molham.smiles", "fragment", "smiles.fragment", None),
    ("molham.smiles", "mask_tokens", "smiles.mask_tokens", None),
    ("molham.smiles", "expanded_fragments", "smiles.expanded_fragments", None),
    ("molham.autodiff.Tape", "backward", "autodiff.backward", _tape_nodes),
    ("molham.encoders", "encode_tokens", "encoders.token", None),
    ("molham.encoders", "encode_geometry", "encoders.geom", _geom_cache),
    ("molham.compensation", "disentangle", "compensation.disentangle", None),
    ("molham.compensation", "compensate", "compensation.compensate", None),
    ("molham.compensation", "build_rotation", "compensation.rotation", None),
    ("molham.alignment", "molecule_fragment_vectors", "alignment.fragment", None),
    ("molham.alignment", "contrastive_loss", "alignment.contrastive", None),
    ("molham.hamhead", "predict_hamiltonian", "hamhead.predict", None),
    ("molham.hamhead", "finetune_loss", "hamhead.loss", None),
    ("molham.model.Model", "leaves", "model.leaves", None),
    ("molham.model.Model", "grads", "model.grads", None),
    ("molham.model.Model", "pretrain_batch_loss", "model.pretrain_batch_loss", None),
    ("molham.model.Model", "hamiltonian_from_tokens", "model.hamiltonian_from_tokens", None),
    ("molham.model.Model", "hamiltonian_fused", "model.hamiltonian_fused", None),
    ("molham.training.Adam", "step", "training.adam", None),
    ("molham.training", "prepare", "training.prepare", None),
    ("molham.training", "save_checkpoint", "training.checkpoint.save", None),
    ("molham.training", "load_checkpoint", "training.checkpoint.load", None),
    ("molham.oracle", "embed_3d", "oracle.embed", None),
    ("molham.oracle", "huckel_labels", "oracle.labels", None),
    ("molham.spectral", "solve_gev", "spectral.solve_gev", None),
    ("molham.spectral", "jacobi_eigh", "spectral.jacobi", _jacobi_dim),
    ("molham.spectral", "lowdin_inv_sqrt", "spectral.lowdin", None),
    ("molham.spectral", "orbital_similarity", "spectral.metric.orbital_similarity", None),
    ("molham.spectral", "mae_blocks", "spectral.metric.mae_blocks", None),
    ("molham.spectral", "mae_energies", "spectral.metric.mae_energies", None),
    ("molham.dataset.DatasetRecord", "to_json", "dataset.write", None),
    ("molham.dataset", "load_split", "dataset.load", None),
    ("molham.dataset.Dataset", "get_coords", "dataset.coords_read", None),
    ("molham.screening", "classify_by_gap", "screening.classify", None),
]

# per-item self time (ms) of every span whose name starts with one of the prefixes
TIME_METRICS = {
    "smiles.ms": ("smiles.",),
    "encoders.token_ms": ("encoders.token",),
    "encoders.geom_ms": ("encoders.geom",),
    "compensation.disentangle_ms": ("compensation.disentangle",),
    "compensation.compensate_ms": ("compensation.compensate",),
    "compensation.rotation_ms": ("compensation.rotation",),
    "alignment.fragment_ms": ("alignment.fragment",),
    "alignment.contrastive_ms": ("alignment.contrastive",),
    "hamhead.predict_ms": ("hamhead.predict",),
    "hamhead.loss_ms": ("hamhead.loss",),
    "model.self_ms": ("model.",),
    "training.prepare_ms": ("training.prepare",),
    "training.checkpoint_ms": ("training.checkpoint.",),
    "oracle.embed_ms": ("oracle.embed",),
    "oracle.labels_ms": ("oracle.labels",),
    "spectral.solve_gev_ms": ("spectral.solve_gev",),
    "spectral.jacobi_ms": ("spectral.jacobi",),
    "spectral.lowdin_ms": ("spectral.lowdin",),
    "spectral.metric_ms": ("spectral.metric.",),
    "dataset.write_ms": ("dataset.write",),
    "dataset.load_ms": ("dataset.load",),
    "screening.classify_ms": ("screening.classify",),
}

# per-item call counts
COUNT_METRICS = {
    "smiles.calls": ("smiles.",),
    "oracle.embed_calls": ("oracle.embed",),
    "spectral.jacobi_calls": ("spectral.jacobi",),
    "dataset.coords_reads": ("dataset.coords_read",),
}


UNITS = {
    **{m: "ms" for m in TIME_METRICS},
    **{m: "1/mol" for m in COUNT_METRICS},
    "autodiff.backward_ms_per_step": "ms",
    "training.adam_ms_per_step": "ms",
    "autodiff.tape_nodes_per_mol": "1/mol",
    "spectral.jacobi_mean_dim": "orbitals",
    "encoders.geom_cache_hit_ratio": "ratio",
    "encoders.cache_entries": "count",
    "dataset.skipped_ratio": "ratio",
    "trace.uncovered_share": "ratio",
    "trace.overhead": "ratio",
}


def cache_entries() -> dict[str, int]:
    """Sizes of molham's module-level `*_CACHE` dictionaries."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "molham":
            continue
        for attr, value in vars(module).items():
            if attr.endswith("_CACHE") and isinstance(value, dict):
                out[f"{name}.{attr}"] = len(value)
    return out


def layer_metrics(tracer: Tracer, wall_s: float, items: int) -> tuple[dict[str, float], dict]:
    """(per-layer metric values, per-span-name summary) for one traced phase."""
    summary = summarize(tracer.spans)
    items = max(items, 1)

    def matching(prefixes):
        return [row for name, row in summary.items() if name.startswith(prefixes)]

    out: dict[str, float] = {}
    for metric, prefixes in TIME_METRICS.items():
        out[metric] = 1000.0 * sum(r["self_s"] for r in matching(prefixes)) / items
    for metric, prefixes in COUNT_METRICS.items():
        out[metric] = sum(r["calls"] for r in matching(prefixes)) / items

    def per_call_ms(name):
        row = summary.get(name)
        return 1000.0 * row["self_s"] / row["calls"] if row else 0.0

    out["autodiff.backward_ms_per_step"] = per_call_ms("autodiff.backward")
    out["training.adam_ms_per_step"] = per_call_ms("training.adam")
    out["autodiff.tape_nodes_per_mol"] = tracer.counts.get("autodiff.tape_nodes", 0) / items
    jacobi = summary.get("spectral.jacobi", {}).get("calls", 0)
    out["spectral.jacobi_mean_dim"] = (tracer.counts.get("spectral.jacobi_dim_sum", 0) / jacobi
                                       if jacobi else 0.0)
    geom = summary.get("encoders.geom", {}).get("calls", 0)
    out["encoders.geom_cache_hit_ratio"] = (tracer.counts.get("encoders.geom_cache_hits", 0) / geom
                                            if geom else 0.0)
    out["encoders.cache_entries"] = float(sum(cache_entries().values()))
    out["trace.uncovered_share"] = max(0.0, 1.0 - covered_seconds(tracer.spans) / wall_s)
    return out, summary
