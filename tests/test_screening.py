"""Threshold classification, report formats, and the timing harness."""

from __future__ import annotations

import json

import numpy as np
import pytest

from molham.corpus import build_corpus
from molham.dataset import Dataset, generate_records
from molham.errors import EmptyThresholds, LengthMismatch, NonFiniteValue
from molham.model import Model, ModelConfig
from molham.screening import (
    bench_pipelines,
    classify_by_gap,
    default_thresholds,
    report_to_csv,
    report_to_json,
    screen_dataset,
)
from molham.smiles import parse_smiles


class TestThresholds:
    def test_default_values_exact(self):
        assert default_thresholds() == [0.26, 0.28, 0.30, 0.32, 0.34, 0.36]

    def test_ascending(self):
        vals = default_thresholds()
        assert vals == sorted(vals)


class TestClassify:
    def test_perfect_predictions(self):
        gaps = np.array([0.1, 0.25, 0.3, 0.5])
        rows = classify_by_gap(gaps, gaps.copy(), default_thresholds())
        for r in rows:
            assert r.accuracy == 1.0 and r.recall == 1.0
            assert r.fp == 0 and r.fn == 0

    def test_threshold_below_all_gaps(self):
        true = np.array([0.5, 0.6, 0.7])
        pred = np.array([0.45, 0.8, 0.55])
        (row,) = classify_by_gap(pred, true, [0.1])
        assert row.tp == 3 and row.recall == 1.0 and row.accuracy == 1.0

    def test_hand_confusion_matrix(self):
        gaps_true = np.array([0.20, 0.25, 0.28, 0.31, 0.33, 0.40])
        gaps_pred = np.array([0.22, 0.29, 0.27, 0.35, 0.30, 0.41])
        (row,) = classify_by_gap(gaps_pred, gaps_true, [0.30])
        assert (row.tp, row.fp, row.tn, row.fn) == (2, 0, 3, 1)
        assert row.accuracy == pytest.approx(5 / 6, abs=1e-12)
        assert row.recall == pytest.approx(2 / 3, abs=1e-12)
        assert row.precision == 1.0

    def test_counts_exhaustive_per_threshold(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(0.1, 0.5, 40)
        true = rng.uniform(0.1, 0.5, 40)
        for row in classify_by_gap(pred, true, default_thresholds()):
            assert row.tp + row.fp + row.tn + row.fn == 40

    def test_positive_count_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.0, 1.0, 60)
        true = rng.uniform(0.0, 1.0, 60)
        rows = classify_by_gap(pred, true, default_thresholds())
        positives = [r.tp + r.fp for r in rows]
        assert positives == sorted(positives, reverse=True)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            classify_by_gap(np.zeros(3), np.zeros(4), [0.3])

    def test_empty_thresholds(self):
        with pytest.raises(EmptyThresholds):
            classify_by_gap(np.zeros(3), np.zeros(3), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold(self, bad):
        with pytest.raises(NonFiniteValue):
            classify_by_gap(np.zeros(3), np.zeros(3), [0.3, bad])


class TestReports:
    def _rows(self):
        return classify_by_gap(np.array([0.2, 0.4]), np.array([0.25, 0.38]), [0.3])

    def test_csv_header_and_rows(self):
        text = report_to_csv(self._rows())
        lines = text.strip().splitlines()
        assert lines[0] == "threshold_ev,tp,fp,tn,fn,accuracy,recall,precision"
        assert len(lines) == 2

    def test_json_round_trip(self):
        payload = json.loads(report_to_json(self._rows(), {"thresholds": [0.3]}))
        assert payload["thresholds"] == [0.3]
        assert payload["rows"][0]["tp"] == 1


@pytest.fixture(scope="module")
def setup():
    corpus = [s for s in build_corpus() if parse_smiles(s).n_atoms <= 6][:10]
    recs = generate_records(corpus, seed=2).records
    ds = Dataset(recs)
    model = Model.init(ModelConfig(width=8, token_layers=1, geom_rounds=1, n_rbf=4,
                                   n_shear=2, head_hidden=6), seed=1)
    return model, ds


class TestBench:
    def test_string_path_strictly_faster_and_no_embedding(self, setup):
        model, ds = setup
        report = bench_pipelines(model, ds, repeat=3, limit=6)
        assert report.embed_calls_string_path == 0
        assert report.string_path_s_per_1000 < report.geometry_path_s_per_1000
        assert report.repeat == 3
        assert report.n_molecules == 6

    def test_json_fields(self, setup):
        model, ds = setup
        report = bench_pipelines(model, ds, repeat=2, limit=4)
        payload = json.loads(report.to_json())
        for key in ("string_path_s_per_1000", "geometry_path_s_per_1000",
                    "reference_path_s_per_1000", "repeat", "embed_calls_string_path"):
            assert key in payload

    @pytest.mark.parametrize("key, value", [("repeat", 0), ("limit", 0), ("limit", -1)])
    def test_count_below_one_rejected(self, setup, key, value):
        model, ds = setup
        with pytest.raises(ValueError, match=key):
            bench_pipelines(model, ds, **{key: value})

    def test_screen_dataset_rows(self, setup):
        model, ds = setup
        rows = screen_dataset(model, ds, [0.3, 10.0])
        assert len(rows) == 2
        assert all(r.tp + r.fp + r.tn + r.fn == len(ds) for r in rows)
