"""Tests of the benchmark's own machinery: seeded inputs, wrapper restore, self times."""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import inputs, layers, tracer, workloads  # noqa: E402


@pytest.fixture(scope="module")
def table():
    return inputs.corpus_table()


def selections(table, seed):
    """Every input list the three workloads draw for one seed."""
    wls = {name: cls(seed, table, Path("."), workloads.Tally())
           for name, cls in workloads.WORKLOADS.items()}
    label = wls["label"]
    return {
        "train": [m.smiles for m in wls["train"].mols],
        "label_calibration": [m.smiles for m in label.calibration],
        "label_pairs": [[m.smiles for m in p] for r in islice(label.rounds, 2) for _, p in r],
        "screen_train": [m.smiles for m in wls["screen"].train_mols],
        "screen_test": [m.smiles for m in wls["screen"].test_mols],
        "screen_order": list(wls["screen"].order),
    }


def test_same_seed_same_inputs_and_other_seed_other_inputs(table):
    first, again, other = selections(table, 3), selections(table, 3), selections(table, 4)
    assert first == again
    for key in first:
        assert first[key] != other[key], key


def test_inputs_keep_the_size_profile_across_seeds(table):
    small = [m for m in table if m.heavy <= 9]
    sizes = {seed: sorted(m.orbitals for m in inputs.quantile_sample(small, 32, inputs.rng_for(seed, 1)))
             for seed in (1, 2)}
    assert sizes[1] == sizes[2]
    seen = set()
    for rnd in islice(inputs.pair_rounds(table, 16, inputs.rng_for(1, 2)), 3):
        assert sorted(q for q, _ in rnd) == list(range(16))
        for _, pair in rnd:
            assert len(pair) == 2
            seen.update(m.smiles for m in pair)
    assert len(seen) == 3 * 16 * 2  # no molecule repeats


def namespace_snapshot():
    """Every attribute of every molham/perfbench module and of their classes, by identity."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] not in ("molham", "perfbench"):
            continue
        for key, value in vars(module).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = member
    return snap


def test_traced_run_restores_every_wrapped_function():
    from molham import dataset, spectral, smiles
    from molham.training import Adam

    before = namespace_snapshot()
    t = tracer.Tracer()
    with tracer.traced(t, layers.TARGETS) as missing:
        assert missing == []
        assert dataset.embed_3d is not before[("molham.dataset", "embed_3d")]
        assert Adam.__dict__["step"] is not before[("molham.training", "Adam", "step")]
        smiles.tokenize("CCO")
        spectral.solve_gev(np.diag([-1.0, 0.5]), np.eye(2), 2)
    names = [s[0] for s in t.spans]
    assert "smiles.tokenize" in names and "spectral.jacobi" in names
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; d [12, 13] is a second root
    spans = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
        ["d", -1, 12.0, 13.0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    summary = tracer.summarize(spans + [["a", 3, 6.0, 7.0]])
    assert summary["a"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0}
    assert summary["b"]["self_s"] == 3.0
    assert tracer.covered_seconds(spans) == 11.0


def test_layer_metrics_divide_by_items():
    t = tracer.Tracer()
    t.spans = [["spectral.solve_gev", -1, 0.0, 0.010],
               ["spectral.jacobi", 0, 0.001, 0.007],
               ["autodiff.backward", -1, 0.010, 0.012]]
    t.counts = {"spectral.jacobi_dim_sum": 24, "autodiff.tape_nodes": 300}
    out, _ = layers.layer_metrics(t, wall_s=0.016, items=2)
    assert out["spectral.jacobi_ms"] == pytest.approx(3.0)
    assert out["spectral.solve_gev_ms"] == pytest.approx(2.0)
    assert out["spectral.jacobi_calls"] == 0.5
    assert out["spectral.jacobi_mean_dim"] == 24
    assert out["autodiff.backward_ms_per_step"] == pytest.approx(2.0)
    assert out["autodiff.tape_nodes_per_mol"] == 150
    assert out["trace.uncovered_share"] == pytest.approx(0.25)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**layers.UNITS,
                                                                  **workloads.STAGE_METRICS}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_trace_target_is_reported():
    t = tracer.Tracer()
    with tracer.traced(t, [("molham.spectral", "no_such_solver", "spectral.none", None),
                           ("molham.no_such_module", "f", "none.f", None)]) as missing:
        pass
    assert missing == ["molham.spectral.no_such_solver", "molham.no_such_module.f"]


def test_profile_is_the_mean_over_slots_of_each_slot_median():
    s = workloads.Samples()
    for ms in (10.0, 11.0, 50.0):  # one slow visit of the small molecule
        s.add("item", "small", ms)
    for ms in (100.0, 90.0, 95.0):
        s.add("item", "large", ms)
    assert s.profile("item") == pytest.approx((11.0 + 95.0) / 2)
    assert s.p90("item") == workloads.p90([10.0, 11.0, 50.0, 100.0, 90.0, 95.0])
    assert s.profile("none") == 0.0 and s.counts() == {"item": 6}
