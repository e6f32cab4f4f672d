"""Coordinate embedding, semi-empirical labels, and dataset generation."""

from __future__ import annotations

import base64
import hashlib
import json
import struct

import numpy as np
import pytest

from _oracles import (embed_3d_pairwise, generate_records_per_molecule, list_form_line,
                      read_list_form_line, spring_gradient_pairwise)
from molham import corpus, dataset, oracle
from molham.basis import DEFAULT_BASIS, electron_count
from molham.corpus import build_corpus, corpus_sha256
from molham.dataset import (
    BLOCK_SIZE,
    BLOCK_SPREAD,
    DATASET_VERSION,
    Dataset,
    DatasetRecord,
    SplitConfig,
    assign_split,
    gen_dataset,
    generate_records,
    load_split,
)
from molham.errors import (CorruptFile, EmbedFailure, EmptySplit, UnsupportedElement,
                           VersionMismatch)
from molham.oracle import (BOND_TARGET, MIN_DISTANCE, REPULSION_FLOOR, _spring_gradient,
                           _spring_stack, embed_3d, embed_batch, huckel_labels)
from molham.smiles import expand_hydrogens, parse_smiles
from molham.spectral import solve_gev, toy_overlap

RNG = np.random.default_rng(23)


def _xmol(smiles):
    return expand_hydrogens(parse_smiles(smiles))


def _first_of_each_size():
    """{atom count: the first corpus molecule of that many atoms}."""
    by_size = {}
    for smiles in build_corpus():
        by_size.setdefault(_xmol(smiles).n_atoms, smiles)
    return by_size


def _size_picks():
    """[H], [H][H] and the first corpus molecule at 10 size quantiles up to 66 atoms."""
    by_size = _first_of_each_size()
    sizes = [n for n in sorted(by_size) if n <= 66]
    return ["[H]", "[H][H]"] + [by_size[sizes[round(q * (len(sizes) - 1))]]
                                for q in np.linspace(0.0, 1.0, 10)]


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

    def test_floor_miss_after_reseeds_raises(self, monkeypatch):
        attempts, real = [], oracle._embed_attempt

        def counted(xmols, seeds, attempt):
            attempts.append(attempt)
            return real(xmols, seeds, attempt)

        monkeypatch.setattr(oracle, "_embed_attempt", counted)
        monkeypatch.setattr(oracle, "MIN_DISTANCE", 100.0)
        with pytest.raises(EmbedFailure, match="100.0 A floor"):
            embed_3d(_xmol("CCO"), 1)
        assert attempts == list(range(oracle._RESEEDS))

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

    def test_bytes_pinned_across_sizes(self):
        # the coordinates of the molecule-at-a-time descent, before blocks, for 1 to 66 atoms
        digest = hashlib.sha256()
        for k, smiles in enumerate(_size_picks()):
            digest.update(embed_3d(_xmol(smiles), 700 + k).tobytes())
        assert digest.hexdigest() == ("d5f8d408164ac1932cd0aa3253575aa3"
                                      "73f55d6b81a501052ac214b39cbcd3c0")


def _limit_block():
    """A molecule of each size from s to 1.5 s, s the least size >= 10 that has both."""
    by_size = _first_of_each_size()
    low = next(n for n in sorted(by_size) if n >= 10 and BLOCK_SPREAD * n in by_size)
    return [by_size[n] for n in sorted(by_size) if low <= n <= BLOCK_SPREAD * low]


class TestEmbedBatch:
    @pytest.mark.parametrize("block", [
        lambda: ["[O-2]", "[H][H]", "CCO", "[H][H]", "C1CCCCC1", "[O-2]"],
        _size_picks,
        _limit_block,
    ], ids=["one-and-two-atoms", "one-to-66-atoms", "at-the-spread-limit"])
    def test_each_molecule_matches_its_own_descent(self, block):
        smiles = block()
        xmols = [_xmol(s) for s in smiles]
        seeds = [31 + 7 * k for k in range(len(smiles))]
        placed = embed_batch(xmols, seeds)
        for s, xm, seed, coords in zip(smiles, xmols, seeds, placed):
            alone = embed_3d(xm, seed)
            assert coords.shape == alone.shape, s
            assert np.max(np.abs(coords - alone)) <= 1e-12, s

    def test_calls_counter_advances_by_block_size(self):
        xmols = [_xmol(s) for s in ("CCO", "CCN", "C", "[H][H]", "CCF")]
        before = oracle.EMBED_CALLS
        embed_batch(xmols, list(range(5)))
        assert oracle.EMBED_CALLS - before == 5

    def test_floor_miss_is_none(self, monkeypatch):
        monkeypatch.setattr(oracle, "MIN_DISTANCE", 100.0)
        placed = embed_batch([_xmol("[O-2]"), _xmol("CCO"), _xmol("[H][H]")], [1, 2, 3])
        assert placed[0].shape == (1, 3)
        assert placed[1] is None and placed[2] is None


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


def _stack_gradient(molecules):
    """_spring_gradient of the padded stack of (coords, bonds) pairs."""
    coords, cap, floor = _spring_stack(molecules)
    return _spring_gradient(coords, cap, floor, np.eye(coords.shape[1]))


class TestSpringGradient:
    def test_matches_pairwise_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            coords, bonds, bonded = _spring_case(rng)
            coords += rng.normal(0.0, 5.0, 3)  # off-origin, so the Gram form must cancel
            ref = spring_gradient_pairwise(coords, bonded)
            got = _stack_gradient([(coords, bonds)])[0]
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_padded_stack_matches_each_molecule(self):
        rng = np.random.default_rng(43)
        cases = [_spring_case(rng, n) for n in (14, 6, 9)] + [(np.zeros((1, 3)), [], None)]
        got = _stack_gradient([(coords, bonds) for coords, bonds, _ in cases])
        for b, (coords, bonds, _) in enumerate(cases):
            n = len(coords)
            alone = _stack_gradient([(coords, bonds)])[0]
            scale = max(np.max(np.abs(alone)), 1e-300)
            assert np.max(np.abs(got[b, :n] - alone)) <= 1e-12 * scale
            assert np.all(got[b, n:] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        coords, bonds, bonded = _spring_case(rng)
        got = _stack_gradient([(coords, bonds)])[0]
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


def _min_distance(coords):
    dist = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


class TestBlockedGeneration:
    def test_matches_per_molecule_generation(self):
        corpus = build_corpus()[:40]
        corpus[3:3] = ["C1CC"]      # parse error
        corpus[11:11] = ["CBr"]     # no basis entry for Br: fails at the labels
        corpus[20:20] = ["[O-2]"]   # one atom
        got = generate_records(corpus, seed=4)
        ref = generate_records_per_molecule(corpus, seed=4)
        assert [r.smiles for r in got.records] == [r.smiles for r in ref.records]
        assert "[O-2]" in [r.smiles for r in got.records]
        assert json.dumps(got.skipped) == json.dumps(ref.skipped)
        assert [s["error"] for s in got.skipped] == ["UnmatchedRingClosure", "UnsupportedElement"]
        for a, b in zip(got.records, ref.records):
            assert a.elements == b.elements and a.n_electrons == b.n_electrons
            assert np.max(np.abs(a.coords - b.coords)) <= 1e-9, a.smiles
            assert np.max(np.abs(a.h - b.h)) <= 1e-10 and np.max(np.abs(a.s - b.s)) <= 1e-10
            assert abs(a.gap_ev - b.gap_ev) <= 1e-10

    def test_embed_failure_is_a_skip(self, monkeypatch):
        monkeypatch.setattr(oracle, "MIN_DISTANCE", 100.0)
        report = generate_records(["CCO", "[O-2]"], seed=1)
        assert [r.smiles for r in report.records] == ["[O-2]"]
        assert [(s["index"], s["smiles"], s["error"]) for s in report.skipped] == [
            (0, "CCO", "EmbedFailure")]

    def test_floor_miss_takes_the_reseeds_alone(self, monkeypatch):
        corpus = build_corpus()[:12]
        before = generate_records(corpus, seed=6).records
        floors = sorted((_min_distance(r.coords), i) for i, r in enumerate(before))
        miss = floors[0][1]
        monkeypatch.setattr(oracle, "MIN_DISTANCE", 0.5 * (floors[0][0] + floors[1][0]))
        calls = []
        monkeypatch.setattr(dataset, "embed_3d",
                            lambda xmol, seed: calls.append(seed) or embed_3d(xmol, seed))
        after = generate_records(corpus, seed=6).records
        assert calls == [dataset._record_seed(6, miss)]
        assert len(after) == len(before)
        for i, (a, b) in enumerate(zip(after, before)):
            if i == miss:
                assert np.array_equal(a.coords, embed_3d(_xmol(corpus[i]), calls[0]))
                assert _min_distance(a.coords) >= oracle.MIN_DISTANCE
                assert not np.allclose(a.coords, b.coords)
            else:
                assert np.array_equal(a.coords, b.coords) and np.array_equal(a.h, b.h)

    def test_embeds_by_blocks(self, monkeypatch):
        corpus = build_corpus()[:40]
        sizes = sorted(_xmol(s).n_atoms for s in corpus)
        blocks = 0
        for k, n in enumerate(sizes):   # greedy: a block opens at 16 or past 1.5x its first
            if k == 0 or k - first == 16 or n > 1.5 * sizes[first]:
                blocks, first = blocks + 1, k
        batches, solo = [], []

        def counted_batch(xmols, seeds):
            batches.append(len(xmols))
            return embed_batch(xmols, seeds)

        monkeypatch.setattr(dataset, "embed_batch", counted_batch)
        monkeypatch.setattr(dataset, "embed_3d",
                            lambda xmol, seed: solo.append(seed) or embed_3d(xmol, seed))
        calls = oracle.EMBED_CALLS
        report = generate_records(corpus, seed=2)
        assert len(report.records) == 40
        assert solo == []
        assert len(batches) <= blocks < 40
        assert sum(batches) == 40 and oracle.EMBED_CALLS - calls == 40

    def test_block_rule(self):
        assert (BLOCK_SIZE, BLOCK_SPREAD) == (16, 1.5)
        sizes = {i: n for i, n in enumerate([20] * 17 + [6, 3, 2, 6, 9, 4, 10])}
        assert dataset._size_blocks(sizes) == [
            [19, 18], [22, 17, 20], [21, 23], list(range(16)), [16]]


def _h_bytes(raw: dict) -> bytes:
    return base64.b64decode(raw["h_upper"])


def _with_h(raw: dict, blob: bytes) -> str:
    return json.dumps({**raw, "h_upper": base64.b64encode(blob).decode()})


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

    def test_overlap_formed_on_first_read(self, tmp_path, monkeypatch):
        gen_dataset(build_corpus()[:6], SplitConfig("random-id", seed=1), tmp_path)
        calls = []

        def counted(elements, coords):
            calls.append(len(elements))
            return toy_overlap(elements, coords)

        monkeypatch.setattr(dataset, "toy_overlap", counted)
        train, _, _ = load_split(tmp_path)
        assert calls == []
        rec = train.records[0]
        first = rec.s
        assert len(calls) == 1
        assert rec.s is first and len(calls) == 1
        assert np.array_equal(first, toy_overlap(rec.elements, rec.coords))

    def test_to_json_stores_h_as_float64_bytes(self):
        recs = generate_records(build_corpus()[::150][:6], seed=2).records
        assert len(recs) >= 4 and max(len(r.elements) for r in recs) > 20
        for rec in recs:
            raw = json.loads(rec.to_json())
            n = len(rec.h)
            assert base64.b64decode(raw["h_upper"]) == b"".join(
                struct.pack("<d", rec.h[i, j]) for i in range(n) for j in range(i, n))
            assert rec.to_json() == json.dumps({
                "smiles": rec.smiles,
                "elements": rec.elements,
                "coords": [[float(x) for x in row] for row in rec.coords],
                "h_upper": raw["h_upper"],
                "n_electrons": rec.n_electrons,
                "gap_ev": rec.gap_ev,
                "split": rec.split,
            })

    def test_lines_round_trip_bit_for_bit_across_sizes(self):
        """From the corpus's smallest size through its quartiles to its largest
        (88 atoms): the loaded H, coords and gap are the generated ones, the
        rebuilt S is the S of generation, and both equal what the list form
        gives back. Coordinates stay text, so lines of small molecules shrink
        less than 3x."""
        by_size = _first_of_each_size()
        sizes = (8, 20, 28, 37, 63, max(by_size))
        recs = generate_records([by_size[n] for n in sizes], seed=4).records
        assert [len(r.elements) for r in recs] == [8, 20, 28, 37, 63, 88]
        total_list = total_line = 0
        for rec in recs:
            line, list_line = rec.to_json(), list_form_line(rec)
            back, before = DatasetRecord.from_json(line), read_list_form_line(list_line)
            for name in ("h", "s", "coords"):
                got = getattr(back, name)
                assert got.dtype == np.float64
                assert got.tobytes() == getattr(rec, name).tobytes() == before[name].tobytes()
            assert back.gap_ev == rec.gap_ev == before["gap_ev"]
            assert len(list_line) >= (3 if len(rec.elements) >= 20 else 2) * len(line)
            total_list += len(list_line)
            total_line += len(line)
        assert total_list >= 3.5 * total_line

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
        lambda raw: _with_h(raw, _h_bytes(raw)[:-8]),
        lambda raw: json.dumps({**raw, "smiles": 5}),
        lambda raw: json.dumps({**raw, "split": ["x"]}),
        lambda raw: json.dumps({**raw, "elements": "".join(raw["elements"])}),
        lambda raw: json.dumps({**raw, "elements": raw["elements"][:-1] + [1]}),
        lambda raw: _with_h(raw, _h_bytes(raw) + struct.pack("<d", 0.5)),
        lambda raw: _with_h(raw, _h_bytes(raw)[:24]),
        lambda raw: json.dumps({**raw, "elements": raw["elements"] + ["Xx"]}),
        lambda raw: json.dumps({**raw, "coords": raw["coords"][:-1]}),
        lambda raw: json.dumps({**raw, "coords": [row[:2] for row in raw["coords"]]}),
        lambda raw: json.dumps({**raw, "coords": [[float("nan"), *raw["coords"][0][1:]]]
                                + raw["coords"][1:]}),
        lambda raw: json.dumps({**raw, "n_electrons": raw["n_electrons"] + 0.7}),
        lambda raw: json.dumps({**raw, "n_electrons": -4}),
        lambda raw: json.dumps({**raw, "n_electrons": True}),
        lambda raw: json.dumps({**raw, "gap_ev": float("nan")}),
        lambda raw: _with_h(raw, struct.pack("<d", float("nan")) + _h_bytes(raw)[8:]),
        lambda raw: _with_h(raw, _h_bytes(raw)[:-8] + struct.pack("<d", float("inf"))),
        lambda raw: json.dumps({**raw, "h_upper": raw["h_upper"][:8] + "*" + raw["h_upper"][8:]}),
        lambda raw: json.dumps({**raw, "h_upper": np.frombuffer(_h_bytes(raw), "<f8").tolist()}),
        lambda raw: json.dumps({**raw, "elements": [], "coords": [], "h_upper": ""}),
    ], ids=["not-json", "array", "elements-int", "electrons-null", "ragged-coords",
            "string-h", "short-triangle", "smiles-int", "split-list", "elements-string",
            "element-int", "long-triangle", "triangles-of-another-size", "unknown-element",
            "coords-short-row", "coords-two-columns", "coords-nan", "electrons-fraction",
            "electrons-negative", "electrons-bool", "gap-nan", "h-nan", "h-inf",
            "h-not-base64", "h-list", "elements-empty"])
    def test_malformed_record_rejected(self, tmp_path, edit):
        rec = generate_records(build_corpus()[:1], seed=1).records[0]
        line = edit(json.loads(rec.to_json()))
        with pytest.raises(CorruptFile):
            DatasetRecord.from_json(line)
        (tmp_path / "manifest.json").write_text(json.dumps({"format_version": DATASET_VERSION}))
        for name in ("train", "test"):
            (tmp_path / f"{name}.jsonl").write_text(rec.to_json() + "\n\n" + line + "\n")
        with pytest.raises(CorruptFile, match=r"train\.jsonl line 3: "):
            load_split(tmp_path)

    @pytest.mark.parametrize("version", [None, 1, 3, "2"], ids=["missing", "1", "3", "string"])
    def test_other_format_version_rejected(self, tmp_path, version):
        gen_dataset(build_corpus()[:6], SplitConfig("random-id", seed=1), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["format_version"] == DATASET_VERSION == 2
        if version is None:
            del manifest["format_version"]
        else:
            manifest["format_version"] = version
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VersionMismatch, match=r"manifest\.json"):
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
