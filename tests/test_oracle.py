"""Coordinate embedding, semi-empirical labels, and dataset generation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from _oracles import embed_3d_pairwise, spring_gradient_pairwise
from molham import corpus
from molham.basis import DEFAULT_BASIS, electron_count
from molham.corpus import build_corpus, corpus_sha256
from molham.dataset import (
    Dataset,
    DatasetRecord,
    SplitConfig,
    assign_split,
    gen_dataset,
    generate_records,
    load_split,
)
from molham.errors import CorruptFile, EmptySplit, UnsupportedElement
from molham.oracle import (BOND_TARGET, MIN_DISTANCE, REPULSION_FLOOR, _spring_gradient,
                           _spring_masks, embed_3d, huckel_labels)
from molham.smiles import expand_hydrogens, parse_smiles
from molham.spectral import solve_gev, toy_overlap

RNG = np.random.default_rng(23)


def _xmol(smiles):
    return expand_hydrogens(parse_smiles(smiles))


class TestCorpus:
    def test_size_and_digest_pinned(self):
        kept = build_corpus()
        assert len(kept) == 2213
        assert corpus_sha256(kept) == ("14434b496de1045c1568a40692b6ec91"
                                       "acd7a6152f69e299df399268fb0b5e94")

    def test_non_smiles_error_propagates(self, monkeypatch):
        def broken(smiles):
            raise RuntimeError(f"parser bug on {smiles}")

        monkeypatch.setattr(corpus, "_CACHE", None)
        monkeypatch.setattr(corpus, "parse_smiles", broken)
        with pytest.raises(RuntimeError, match="parser bug"):
            corpus.build_corpus()


class TestEmbed:
    def test_diatomic_bond_length(self):
        coords = embed_3d(_xmol("[H][H]"), 1)
        assert np.linalg.norm(coords[0] - coords[1]) == pytest.approx(1.5, rel=0.1)

    def test_deterministic(self):
        xm = _xmol("CCO")
        assert np.array_equal(embed_3d(xm, 42), embed_3d(xm, 42))

    def test_seed_changes_coordinates(self):
        xm = _xmol("CCO")
        assert not np.array_equal(embed_3d(xm, 1), embed_3d(xm, 2))

    def test_corpus_embeds_with_distance_floor(self):
        for i, smiles in enumerate(build_corpus()[:50]):
            coords = embed_3d(_xmol(smiles), 1000 + i)
            dist = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
            np.fill_diagonal(dist, np.inf)
            assert dist.min() >= MIN_DISTANCE, smiles

    def test_methane_shape(self):
        coords = embed_3d(_xmol("C"), 5)
        assert coords.shape == (5, 3)

    def test_matches_pairwise_descent_across_sizes(self):
        corpus = build_corpus()
        by_size = {}
        for smiles in corpus:
            by_size.setdefault(_xmol(smiles).n_atoms, smiles)
        sizes = [n for n in sorted(by_size) if n <= 66]
        picks = ["[H]", "[H][H]"] + [by_size[sizes[round(q * (len(sizes) - 1))]]
                                     for q in np.linspace(0.0, 1.0, 10)]
        assert _xmol(picks[0]).n_atoms == 1 and _xmol(picks[-1]).n_atoms == 66
        for k, smiles in enumerate(picks):
            xm = _xmol(smiles)
            got = embed_3d(xm, 700 + k)
            assert np.max(np.abs(got - embed_3d_pairwise(xm, 700 + k))) < 1e-9, smiles


def _spring_case(rng, n=14):
    """Jittered chain: bonded neighbours, close i/i+2 pairs, and far pairs."""
    coords = np.cumsum(rng.normal(0.0, 0.45, (n, 3)) + [1.0, 0.0, 0.0], axis=0)
    bonds = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    bonded = np.zeros((n, n), dtype=bool)
    for i, j in bonds:
        bonded[i, j] = bonded[j, i] = True
    np.fill_diagonal(bonded, True)
    dist = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
    close = ~bonded & (dist < REPULSION_FLOOR)
    assert close.any() and (~bonded & (dist > REPULSION_FLOOR)).any()
    return coords, bonds, bonded


def _spring_energy(coords, bonded):
    n = len(coords)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            d = np.linalg.norm(coords[i] - coords[j])
            if bonded[i, j]:
                total += (d - BOND_TARGET) ** 2
            elif d < REPULSION_FLOOR:
                total += (REPULSION_FLOOR - d) ** 2
    return total


class TestSpringGradient:
    def test_matches_pairwise_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            coords, bonds, bonded = _spring_case(rng)
            coords += rng.normal(0.0, 5.0, 3)  # off-origin, so the Gram form must cancel
            ref = spring_gradient_pairwise(coords, bonded)
            got = _spring_gradient(coords, *_spring_masks(len(coords), bonds))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        coords, bonds, bonded = _spring_case(rng)
        got = _spring_gradient(coords, *_spring_masks(len(coords), bonds))
        eps = 1e-6
        fd = np.zeros_like(coords)
        for idx in np.ndindex(*coords.shape):
            step = np.zeros_like(coords)
            step[idx] = eps
            fd[idx] = (_spring_energy(coords + step, bonded)
                       - _spring_energy(coords - step, bonded)) / (2 * eps)
        assert np.max(np.abs(got - fd)) < 1e-6


class TestHuckelLabels:
    def test_single_hydrogen_onsite(self):
        xm = _xmol("[H][H]")
        # one isolated H: take the diagonal of a far-separated pair
        coords = np.array([[0.0, 0.0, 0.0], [60.0, 0.0, 0.0]])
        h, s = huckel_labels(xm, coords)
        assert h[0, 0] == -0.5
        assert h[1, 1] == -0.5
        assert abs(h[0, 1]) < 1e-12  # vanishing overlap kills the coupling

    def test_offdiagonal_proportional_to_overlap(self):
        xm = _xmol("CO")
        coords = embed_3d(xm, 3)
        h, s = huckel_labels(xm, coords)
        onsite = np.asarray([orb.onsite for e in xm.elements
                             for orb in DEFAULT_BASIS.orbitals_for(e)])
        for i in range(len(onsite)):
            for j in range(len(onsite)):
                if i != j:
                    expect = 1.75 * s[i, j] * 0.5 * (onsite[i] + onsite[j])
                    assert h[i, j] == pytest.approx(expect, abs=1e-12)

    def test_symmetric_and_matching_overlap(self):
        xm = _xmol("CCO")
        coords = embed_3d(xm, 4)
        h, s = huckel_labels(xm, coords)
        assert np.array_equal(h, h.T)
        assert np.array_equal(s, toy_overlap(xm.elements, coords))

    def test_water_positive_gap(self):
        xm = _xmol("O")
        h, s = huckel_labels(xm, embed_3d(xm, 3))
        res = solve_gev(h, s, electron_count(xm.elements))
        assert res.gap_ev > 0.0

    def test_rigid_motion_invariance(self):
        xm = _xmol("CCO")
        coords = embed_3d(xm, 5)
        h0, s0 = huckel_labels(xm, coords)
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            moved = coords @ q.T + rng.standard_normal(3) * 5.0
            h1, s1 = huckel_labels(xm, moved)
            assert np.max(np.abs(h1 - h0)) < 1e-10
            assert np.max(np.abs(s1 - s0)) < 1e-10

    def test_unsupported_element(self):
        xm = _xmol("CBr")
        with pytest.raises(UnsupportedElement):
            huckel_labels(xm, np.zeros((xm.n_atoms, 3)))


class TestSplits:
    def _records(self, n=30):
        corpus = build_corpus()
        sizes = sorted(range(len(corpus)), key=lambda i: len(corpus[i]))
        picks = [corpus[i] for i in sizes[:: len(sizes) // n][:n]]
        return generate_records(picks, seed=3).records

    def test_random_split_fractions(self):
        recs = self._records()
        train, test = assign_split(recs, SplitConfig("random-id", seed=1, train_fraction=0.8))
        assert len(train) + len(test) == len(recs)
        assert len(train) == round(0.8 * len(recs))
        assert not set(train) & set(test)

    def test_size_split_constraints(self):
        recs = self._records(40)
        train, test = assign_split(recs, SplitConfig("size-ood", seed=1))
        assert all(len(recs[i].elements) < 20 for i in train)
        assert all(len(recs[i].elements) > 23 for i in test)

    def test_element_split_constraints(self):
        recs = self._records(40)
        train, test = assign_split(recs, SplitConfig("element-ood", seed=1))
        for i in train:
            assert not any(e in ("S", "P") for e in recs[i].elements)
        for i in test:
            assert any(e in ("S", "P") for e in recs[i].elements)
        # the test side is exactly the S/P-containing records
        assert sorted(train + test) == list(range(len(recs)))

    def test_empty_split_rejected(self):
        recs = self._records(6)
        small = [r for r in recs if len(r.elements) < 20]
        with pytest.raises(EmptySplit):
            assign_split(small, SplitConfig("size-ood", seed=1))


class TestGenDataset:
    def test_reproducible_bytes(self, tmp_path):
        corpus = build_corpus()[:12]
        cfg = SplitConfig("random-id", seed=9)
        gen_dataset(corpus, cfg, tmp_path / "a")
        gen_dataset(corpus, cfg, tmp_path / "b")
        for name in ("train.jsonl", "test.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_failed_rewrite_keeps_previous_files(self, tmp_path, monkeypatch):
        corpus = build_corpus()[:6]
        gen_dataset(corpus, SplitConfig("random-id", seed=2), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real = DatasetRecord.to_json
        calls = []

        def fail_on_second(self):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("serialization failed")
            return real(self)

        monkeypatch.setattr(DatasetRecord, "to_json", fail_on_second)
        with pytest.raises(RuntimeError, match="serialization failed"):
            gen_dataset(corpus, SplitConfig("random-id", seed=3), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_manifest_contents(self, tmp_path):
        corpus = build_corpus()[:10]
        manifest = gen_dataset(corpus, SplitConfig("random-id", seed=5), tmp_path)
        assert manifest["corpus_sha256"] == corpus_sha256(corpus)
        assert manifest["n_train"] + manifest["n_test"] == manifest["n_generated"]
        assert manifest["seed"] == 5
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest

    def test_stored_gap_recomputable(self, tmp_path):
        gen_dataset(build_corpus()[:10], SplitConfig("random-id", seed=5), tmp_path)
        train, test, _ = load_split(tmp_path)
        for ds in (train, test):
            for rec in ds.records:
                res = solve_gev(rec.h, rec.s, rec.n_electrons)
                assert abs(res.gap_ev - rec.gap_ev) < 1e-10

    def test_round_trip_record_fields(self, tmp_path):
        gen_dataset(build_corpus()[:6], SplitConfig("random-id", seed=1), tmp_path)
        train, _, _ = load_split(tmp_path)
        rec = train.records[0]
        again = DatasetRecord.from_json(rec.to_json())
        assert again.smiles == rec.smiles
        assert np.array_equal(again.coords, rec.coords)
        assert np.array_equal(again.h, rec.h)
        assert np.array_equal(again.s, rec.s)

    def test_record_without_hamiltonian_rejected(self):
        rec = generate_records(build_corpus()[:1], seed=1).records[0]
        raw = json.loads(rec.to_json())
        del raw["h_upper"]
        with pytest.raises(CorruptFile, match="h_upper"):
            DatasetRecord.from_json(json.dumps(raw))

    @pytest.mark.parametrize("edit", [
        lambda raw: "{not json",
        lambda raw: json.dumps([raw]),
        lambda raw: json.dumps({**raw, "elements": 5}),
        lambda raw: json.dumps({**raw, "n_electrons": None}),
        lambda raw: json.dumps({**raw, "coords": [[0.0, 0.0, 0.0], [1.0]]}),
        lambda raw: json.dumps({**raw, "h_upper": "0.5"}),
        lambda raw: json.dumps({**raw, "h_upper": raw["h_upper"][:-1]}),
        lambda raw: json.dumps({**raw, "smiles": 5}),
        lambda raw: json.dumps({**raw, "split": ["x"]}),
        lambda raw: json.dumps({**raw, "elements": "".join(raw["elements"])}),
        lambda raw: json.dumps({**raw, "elements": raw["elements"][:-1] + [1]}),
        lambda raw: json.dumps({**raw, "s_upper": raw["s_upper"][:-1]}),
        lambda raw: json.dumps({**raw, "h_upper": raw["h_upper"][:3], "s_upper": raw["s_upper"][:3]}),
        lambda raw: json.dumps({**raw, "elements": raw["elements"] + ["Xx"]}),
    ], ids=["not-json", "array", "elements-int", "electrons-null", "ragged-coords",
            "string-h", "short-triangle", "smiles-int", "split-list", "elements-string",
            "element-int", "short-s-triangle", "triangles-of-another-size", "unknown-element"])
    def test_malformed_record_rejected(self, tmp_path, edit):
        rec = generate_records(build_corpus()[:1], seed=1).records[0]
        line = edit(json.loads(rec.to_json()))
        with pytest.raises(CorruptFile):
            DatasetRecord.from_json(line)
        for name in ("train", "test"):
            (tmp_path / f"{name}.jsonl").write_text(rec.to_json() + "\n\n" + line + "\n")
        with pytest.raises(CorruptFile, match=r"train\.jsonl line 3: "):
            load_split(tmp_path)

    @pytest.mark.parametrize("raw", [b'{"n_train": 3', b"[1, 2]", b"\xff{}"],
                             ids=["truncated", "array", "not-utf8"])
    def test_malformed_manifest_rejected(self, tmp_path, raw):
        gen_dataset(build_corpus()[:6], SplitConfig("random-id", seed=1), tmp_path)
        (tmp_path / "manifest.json").write_bytes(raw)
        with pytest.raises(CorruptFile, match="manifest.json"):
            load_split(tmp_path)

    def test_coords_reads_counter(self):
        recs = generate_records(build_corpus()[:3], seed=1).records
        ds = Dataset(recs)
        assert ds.coords_reads == 0
        ds.get_coords(0)
        ds.get_coords(1)
        assert ds.coords_reads == 2
