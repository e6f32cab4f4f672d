"""Training loops, optimizer behavior, checkpoints, and audits."""

from __future__ import annotations

import gc
import hashlib
import json
import struct

import numpy as np
import pytest
from _oracles import GroupAdam, finetune_reference, pretrain_reference

from molham.corpus import build_corpus
from molham.dataset import Dataset, DatasetRecord, SplitConfig, assign_split, generate_records
from molham.errors import CorruptFile, TrainingAborted
from molham.model import Model, ModelConfig
from molham.smiles import parse_smiles
from molham.autodiff import Tape
from molham.training import (
    Adam,
    TraceRow,
    TrainConfig,
    evaluate,
    finetune,
    load_checkpoint,
    prepare,
    pretrain,
    save_checkpoint,
    write_trace,
)

SMALL_CFG = ModelConfig(width=8, token_layers=1, geom_rounds=1, n_rbf=4, n_shear=2,
                        head_hidden=6)


def _tiny_sets(n=24, seed=3):
    corpus = [s for s in build_corpus() if parse_smiles(s).n_atoms <= 6][:n]
    recs = generate_records(corpus, seed=seed).records
    train_idx, test_idx = assign_split(recs, SplitConfig("random-id", seed=seed))
    return (Dataset([recs[i] for i in train_idx]),
            Dataset([recs[i] for i in test_idx]))


TRAIN, TEST = _tiny_sets()


def _fresh_train() -> Dataset:
    return Dataset(TRAIN.records)


def _rewrite_manifest(path, edit):
    """Rewrite a checkpoint with its manifest bytes replaced by edit(manifest dict)."""
    raw = path.read_bytes()
    magic, size = raw[:8], struct.unpack("<Q", raw[8:16])[0]
    payload = edit(json.loads(raw[16:16 + size]))
    path.write_bytes(magic + struct.pack("<Q", len(payload)) + payload + raw[16 + size:])


def _drop_manifest_field(path, field):
    """Rewrite a checkpoint with one key removed from its JSON manifest."""
    def edit(manifest):
        del manifest[field]
        return json.dumps(manifest, sort_keys=True).encode()

    _rewrite_manifest(path, edit)


class TestPretrain:
    def test_zero_lr_keeps_parameters(self):
        model = Model.init(SMALL_CFG, seed=1)
        before = {k: v.copy() for k, v in model.params.items()}
        rows, _ = pretrain(model, _fresh_train(),
                           TrainConfig("pretrain", epochs=2, lr=0.0, seed=1,
                                       batch_size=len(TRAIN.records)))
        for k in before:
            assert np.array_equal(model.params[k], before[k]), k
        # full-set batches with frozen parameters give a constant loss trace
        losses = [r.parts["loss_total"] for r in rows]
        assert len(set(losses)) == 1

    def test_deterministic_trace(self):
        def run():
            model = Model.init(SMALL_CFG, seed=2)
            rows, _ = pretrain(model, _fresh_train(),
                               TrainConfig("pretrain", epochs=2, seed=5, batch_size=8))
            return [r.parts["loss_total"] for r in rows], model.params

        (trace_a, params_a), (trace_b, params_b) = run(), run()
        assert trace_a == trace_b
        for k in params_a:
            assert np.array_equal(params_a[k], params_b[k])

    def test_loss_decreases_over_epochs(self):
        model = Model.init(SMALL_CFG, seed=1)
        rows, _ = pretrain(model, _fresh_train(),
                           TrainConfig("pretrain", epochs=10, seed=1, batch_size=8))
        per_epoch = {}
        for r in rows:
            per_epoch.setdefault(r.epoch, []).append(r.parts["loss_total"])
        means = [np.mean(per_epoch[e]) for e in sorted(per_epoch)]
        drops = sum(1 for a, b in zip(means, means[1:]) if b < a)
        assert drops / (len(means) - 1) >= 0.9

    def test_lambda1_zero_freezes_relevant_value_path(self):
        model = Model.init(SMALL_CFG, seed=4)
        before = {k: v.copy() for k, v in model.params.items() if k.startswith("comp.vplus")}
        pretrain(model, _fresh_train(),
                 TrainConfig("pretrain", epochs=1, seed=1, lambda1=0.0, batch_size=8))
        for k, v in before.items():
            assert np.array_equal(model.params[k], v), k
        # sanity: with the weight on, the same groups do move
        model2 = Model.init(SMALL_CFG, seed=4)
        pretrain(model2, _fresh_train(),
                 TrainConfig("pretrain", epochs=1, seed=1, lambda1=0.5, batch_size=8))
        assert any(not np.array_equal(model2.params[k], v) for k, v in before.items())


class TestFinetune:
    def test_string_path_never_reads_coordinates(self):
        ds = _fresh_train()
        model = Model.init(SMALL_CFG, seed=1)
        finetune(model, ds, TrainConfig("finetune", epochs=1, seed=1, batch_size=8))
        assert ds.coords_reads == 0

    def test_fusion_path_reads_coordinates_and_freezes_tokens(self):
        ds = _fresh_train()
        model = Model.init(SMALL_CFG, seed=1)
        token_before = {k: v.copy() for k, v in model.params.items() if k.startswith("token.")}
        geom_before = {k: v.copy() for k, v in model.params.items() if k.startswith("geom.")}
        finetune(model, ds, TrainConfig("finetune", epochs=1, seed=1, batch_size=8, fusion=True))
        assert ds.coords_reads > 0
        for k, v in token_before.items():
            assert np.array_equal(model.params[k], v), k
        assert any(not np.array_equal(model.params[k], v) for k, v in geom_before.items())

    def test_keep_probability_one_mask_is_identity(self):
        # with every fragment kept the masked branch equals the full branch,
        # so lambda2 has no effect on the loss trace
        model_a = Model.init(SMALL_CFG, seed=6)
        rows_a, _ = finetune(model_a, _fresh_train(),
                             TrainConfig("finetune", epochs=1, seed=2, mask_keep_prob=1.0,
                                         lambda2=0.3, batch_size=8))
        model_b = Model.init(SMALL_CFG, seed=6)
        rows_b, _ = finetune(model_b, _fresh_train(),
                             TrainConfig("finetune", epochs=1, seed=2, mask_keep_prob=1.0,
                                         lambda2=0.9, batch_size=8))
        assert [r.parts for r in rows_a] == [r.parts for r in rows_b]

    def test_lambda2_one_ignores_masked_branch(self):
        # with full weight on the unmasked branch, the mask draw cannot
        # influence the loss value or any gradient
        from molham.hamhead import layout
        from molham.model import mol_structure
        from molham.smiles import expand_hydrogens, fragment, parse_smiles, tokenize

        model = Model.init(SMALL_CFG, seed=7)
        smiles = "CCOCC"
        mol = parse_smiles(smiles)
        xmol = expand_hydrogens(mol)
        lay = layout(xmol.elements)
        structure = mol_structure(tokenize(smiles), xmol, fragment(mol), lay)
        target = np.linspace(-0.5, 0.5, lay.n_orb * lay.n_orb).reshape(lay.n_orb, -1)

        def grads_for(mask_bits):
            tape = Tape()
            lv = model.leaves(tape)
            loss = model.finetune_batch_loss(lv, [structure], [mask_bits], [target], 1.0)
            tape.backward(loss)
            return loss.item(), {k: tape.grad(v) for k, v in lv.items()}

        loss_a, grads_a = grads_for([1, 0])
        loss_b, grads_b = grads_for([0, 1])
        assert loss_a == loss_b
        for k in grads_a:
            ga, gb = grads_a[k], grads_b[k]
            if ga is None and gb is None:
                continue
            assert np.array_equal(ga, gb), k

    def test_improves_over_untrained(self):
        model = Model.init(SMALL_CFG, seed=1)
        base = evaluate(model, TEST)["mae_all"]
        finetune(model, _fresh_train(),
                 TrainConfig("finetune", epochs=45, seed=1, lr=3e-3, batch_size=8))
        trained = evaluate(model, TEST)["mae_all"]
        assert trained * 5.0 <= base

    def test_deterministic(self):
        def run():
            model = Model.init(SMALL_CFG, seed=3)
            rows, _ = finetune(model, _fresh_train(),
                               TrainConfig("finetune", epochs=2, seed=9, batch_size=8))
            return [r.parts["loss_total"] for r in rows], model.params

        (ta, pa), (tb, pb) = run(), run()
        assert ta == tb
        for k in pa:
            assert np.array_equal(pa[k], pb[k])


class TestFrontEnd:
    def test_each_record_tokenized_once(self, monkeypatch):
        import molham.smiles as smiles
        import molham.training as training

        calls = []

        def counting(text, _real=smiles.tokenize):
            calls.append(text)
            return _real(text)

        monkeypatch.setattr(smiles, "tokenize", counting)
        monkeypatch.setattr(training, "tokenize", counting)
        prepare(TEST)
        evaluate(Model.init(SMALL_CFG, seed=1), TEST)
        assert calls == [r.smiles for r in TEST.records] * 2

    def test_evaluation_predicts_through_the_per_molecule_entry(self, monkeypatch):
        import molham.training as training

        def no_fragments(mol):
            raise AssertionError("evaluation fragmented a molecule")

        calls = []
        for name in ("hamiltonian_from_tokens", "hamiltonian_fused"):
            def counted(self, *args, _real=getattr(Model, name), _name=name):
                calls.append(_name)
                return _real(self, *args)
            monkeypatch.setattr(Model, name, counted)
        monkeypatch.setattr(training, "fragment", no_fragments)
        model = Model.init(SMALL_CFG, seed=1)
        evaluate(model, TEST)
        training.gap_predictions(model, TEST, fusion=True)
        n = len(TEST.records)
        assert calls == ["hamiltonian_from_tokens"] * n + ["hamiltonian_fused"] * n


class TestEigensolverRoutes:
    """No workflow runs Jacobi: generation, gap screening and evaluation all
    diagonalise through the LAPACK seam."""

    @staticmethod
    def _count(monkeypatch, name) -> list[int]:
        import molham.spectral as spectral

        calls = []

        def counting(a, *args, _real=getattr(spectral, name)):
            calls.append(len(a))
            return _real(a, *args)

        monkeypatch.setattr(spectral, name, counting)
        return calls

    def test_generation_and_gap_screening_run_no_jacobi(self, monkeypatch):
        import molham.training as training

        calls = self._count(monkeypatch, "jacobi_eigh")
        report = generate_records([r.smiles for r in TEST.records], seed=3)
        assert len(report.records) == len(TEST.records)
        model = Model.init(SMALL_CFG, seed=1)
        for fusion in (False, True):
            training.gap_predictions(model, TEST, fusion=fusion)
        assert calls == []

    def test_evaluation_runs_two_lapack_solves_per_record(self, monkeypatch):
        jacobi = self._count(monkeypatch, "jacobi_eigh")
        lapack = self._count(monkeypatch, "eigh")
        evaluate(Model.init(SMALL_CFG, seed=1), TEST)
        assert jacobi == []
        assert lapack == [len(r.h) for r in TEST.records for _ in range(2)]

    def test_evaluation_matches_the_jacobi_route(self, monkeypatch):
        import molham.spectral as spectral
        import molham.training as training

        model = Model.init(SMALL_CFG, seed=1)
        lapack = evaluate(model, TEST)
        monkeypatch.setattr(training, "orbitals", spectral.solve_gev)
        jacobi = evaluate(model, TEST)
        for key in ("mae_diag", "mae_offdiag", "mae_all", "count"):
            assert lapack[key] == jacobi[key], key
        assert abs(lapack["mae_eps_occ"] - jacobi["mae_eps_occ"]) <= 1e-10
        # a degenerate occupied eigenspace may be spanned by other vectors
        assert abs(lapack["psi_occ"] - jacobi["psi_occ"]) <= 1e-8


class TestGradientGuard:
    """A non-finite gradient aborts the step before Adam writes any parameter."""

    @pytest.mark.parametrize("run, stage", [(pretrain, "pre-training"),
                                            (finetune, "fine-tuning")])
    def test_nan_gradient_aborts_without_update(self, monkeypatch, run, stage):
        model = Model.init(SMALL_CFG, seed=5)
        real_grads = Model.grads
        seen = {}

        def poisoned(self, tape, leaves):
            grad, live = real_grads(self, tape, leaves)
            seen["calls"] = seen.get("calls", 0) + 1
            if seen["calls"] == 2:  # the second step
                seen["before"] = {k: v.copy() for k, v in self.params.items()}
                for name in ("token.refine", "token.embed"):  # embed comes first
                    grad[self.slices[name].start] = np.nan
            return grad, live

        monkeypatch.setattr(Model, "grads", poisoned)
        cfg = TrainConfig(run.__name__, epochs=1, seed=1, batch_size=4)
        with pytest.raises(TrainingAborted) as info:
            run(model, Dataset(TRAIN.records[:12]), cfg)
        assert str(info.value) == f"non-finite {stage} gradient of token.embed at step 1"
        for name, before in seen["before"].items():
            assert np.array_equal(model.params[name], before), name


class TestOptimizer:
    """Adam updates the parameter vector in its live runs only."""

    def test_matches_the_group_by_group_update(self):
        rng = np.random.default_rng(2)
        shapes = {"token.a": (2, 3), "head.b": (4,), "geom.c": (1, 2), "head.d": (3, 1)}
        params = {n: rng.standard_normal(s) for n, s in shapes.items()}
        model = Model(SMALL_CFG, params)
        reference = GroupAdam(1e-2, {"token.": 0.3, "geom.": 0.3})
        rates = np.full(model.vector.shape, 1e-2)
        for name, s in model.slices.items():
            if name.startswith(("token.", "geom.")):
                rates[s] = 1e-2 * 0.3
        opt = Adam(rates)
        # head.b (alone, then with geom.c) is a dead run between two live runs
        for dead in [("head.b",), (), ("head.b", "geom.c"), ("token.a", "head.d"), ()]:
            grads = {n: None if n in dead else rng.standard_normal(s) for n, s in shapes.items()}
            reference.step(params, grads)
            grad = np.zeros_like(model.vector)
            live = np.zeros(model.vector.shape, dtype=bool)
            for name, g in grads.items():
                if g is not None:
                    grad[model.slices[name]], live[model.slices[name]] = g.ravel(), True
            opt.step(model.vector, grad, live)
            for name in shapes:
                assert np.array_equal(model.params[name], params[name]), name
                if name in reference.m:
                    assert np.array_equal(opt.m[model.slices[name]], reference.m[name].ravel())
                    assert np.array_equal(opt.v[model.slices[name]], reference.v[name].ravel())
                else:
                    assert not opt.m[model.slices[name]].any()

    def test_group_without_gradient_keeps_its_values(self, monkeypatch):
        """A batch of one-atom molecules has no atom pairs, so the pair network
        gets no gradient on that step and must not move through its moments."""
        def atom(smiles, element, h):
            return DatasetRecord(smiles, [element], np.zeros((1, 3)), np.array(h), 4, 1.0,
                                 "train")

        records = [atom("[C]", "C", [[-0.5, 0.1], [0.1, -0.3]]),
                   atom("[N]", "N", [[-0.6, 0.2], [0.2, -0.4]])]
        records += generate_records(["CCO", "CCN"], seed=1).records
        model = Model.init(SMALL_CFG, seed=1)
        pair = np.zeros(model.vector.shape, dtype=bool)
        for name, s in model.slices.items():
            pair[s] = name.startswith("head.pair.")
        real_loss, real_step = Model.finetune_batch_loss, Adam.step
        one_atom, dead = [], []

        def loss(self, lv, structs, *args):
            one_atom.append(all(s.n_atoms == 1 for s in structs))
            return real_loss(self, lv, structs, *args)

        def step(self, vector, grad, live):
            before = vector.copy()
            real_step(self, vector, grad, live)
            if one_atom[-1]:
                dead.append(self.step_count)
                assert np.array_equal(vector[pair], before[pair])
                assert not live[pair].any()
                assert not np.array_equal(vector[live], before[live])

        monkeypatch.setattr(Model, "finetune_batch_loss", loss)
        monkeypatch.setattr(Adam, "step", step)
        finetune(model, Dataset(records), TrainConfig("finetune", epochs=4, seed=3, batch_size=2))
        assert dead and dead[0] > 1  # the pair groups already hold moments


class TestStepLoop:
    """Both stages run one step loop; it trains exactly as the two loops it replaced."""

    def test_matches_the_two_stage_loops(self):
        ragged = dict(batch_size=5, seed=3)
        assert len(TRAIN) % ragged["batch_size"], "the last batch must be short"
        stages = [(pretrain, pretrain_reference, TrainConfig("pretrain", epochs=2, **ragged))]
        stages += [(finetune, finetune_reference,
                    TrainConfig("finetune", epochs=2, encoder_lr_scale=0.3, mask_keep_prob=0.5,
                                fusion=fusion, **ragged)) for fusion in (False, True)]
        model, reference = Model.init(SMALL_CFG, seed=1), Model.init(SMALL_CFG, seed=1)
        for run, run_reference, cfg in stages:
            data, data_reference = _fresh_train(), _fresh_train()
            rows, state = run(model, data, cfg)
            rows_ref, state_ref = run_reference(reference, data_reference, cfg)
            assert model.vector.tobytes() == reference.vector.tobytes(), cfg
            assert rows == rows_ref and state == state_ref, cfg
            assert data.coords_reads == data_reference.coords_reads, cfg

    @pytest.mark.parametrize("run, other", [(pretrain, "finetune"), (finetune, "pretrain")])
    def test_config_of_the_other_stage_rejected(self, run, other):
        model = Model.init(SMALL_CFG, seed=1)
        before = model.vector.copy()
        with pytest.raises(ValueError, match=f"got stage '{other}'"):
            run(model, _fresh_train(), TrainConfig(other, epochs=1))
        assert np.array_equal(model.vector, before)


class TestMemory:
    """Tapes are freed by reference counting: the cyclic collector finds nothing."""

    def test_training_leaves_no_cyclic_garbage(self):
        model = Model.init(SMALL_CFG, seed=4)
        ds = Dataset(TRAIN.records[:6])
        gc.collect()
        gc.disable()
        try:
            pretrain(model, ds, TrainConfig("pretrain", epochs=1, seed=4, batch_size=3))
            finetune(model, ds, TrainConfig("finetune", epochs=1, seed=4, batch_size=3))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_forward_dropped_before_backward_leaves_no_cyclic_garbage(self):
        model = Model.init(SMALL_CFG, seed=4)
        s = prepare(Dataset(TRAIN.records[:1]))[0]
        gc.collect()
        gc.disable()
        try:
            tape = Tape()
            model.predict_entries(model.leaves(tape), [s.tokens], [0], [s.value_index])
            del tape  # as when a non-finite loss aborts the step
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCheckpoints:
    def test_save_load_save_identical(self, tmp_path):
        model = Model.init(SMALL_CFG, seed=1)
        cfg = TrainConfig("pretrain", epochs=1, seed=1)
        p1, p2 = tmp_path / "a.mh", tmp_path / "b.mh"
        save_checkpoint(p1, model, cfg, {"note": 1})
        loaded, train_cfg, rng_state = load_checkpoint(p1)
        save_checkpoint(p2, loaded, TrainConfig(**train_cfg), rng_state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_pinned(self, tmp_path):
        # format 2: the manifest lost `loss_form` and the blob lost comp.vminus.b2's
        # 8 zeros; every other byte of the blob is the format-1 writer's
        rng = np.random.default_rng(5)
        rng.standard_normal(3)
        path, again = tmp_path / "a.mh", tmp_path / "b.mh"
        save_checkpoint(path, Model.init(SMALL_CFG, seed=1),
                        TrainConfig("finetune", epochs=2, seed=3), rng.bit_generator.state)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "89fdce99053925a2633fb2cc64886057bc026c6ac7bb2faae7667e21834ff053")
        loaded, train_cfg, rng_state = load_checkpoint(path)
        save_checkpoint(again, loaded, TrainConfig(**train_cfg), rng_state)
        assert again.read_bytes() == path.read_bytes()

    def test_load_draws_no_random_values(self, tmp_path, monkeypatch):
        model = Model.init(SMALL_CFG, seed=2)
        save_checkpoint(tmp_path / "m.mh", model, None, None)

        class NoDraws(np.random.Generator):  # the type is immutable, so patch its name
            def standard_normal(self, *args, **kwargs):
                raise AssertionError("load_checkpoint drew random values")

        monkeypatch.setattr(np.random, "Generator", NoDraws)
        with pytest.raises(AssertionError):
            Model.init(SMALL_CFG, seed=2)
        loaded, _, _ = load_checkpoint(tmp_path / "m.mh")
        assert loaded.vector.tobytes() == model.vector.tobytes()
        assert list(loaded.params) == list(model.params)

    def test_parameters_bit_exact(self, tmp_path):
        model = Model.init(SMALL_CFG, seed=2)
        save_checkpoint(tmp_path / "m.mh", model, None, None)
        loaded, _, _ = load_checkpoint(tmp_path / "m.mh")
        assert loaded.config == model.config
        for k in model.params:
            assert np.array_equal(loaded.params[k], model.params[k])

    def test_truncated_rejected(self, tmp_path):
        model = Model.init(SMALL_CFG, seed=2)
        path = tmp_path / "m.mh"
        save_checkpoint(path, model, None, None)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_corrupted_blob_rejected(self, tmp_path):
        model = Model.init(SMALL_CFG, seed=2)
        path = tmp_path / "m.mh"
        save_checkpoint(path, model, None, None)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            load_checkpoint(path)

    def test_manifest_without_checksum_rejected(self, tmp_path):
        path = tmp_path / "m.mh"
        save_checkpoint(path, Model.init(SMALL_CFG, seed=2), None, None)
        _drop_manifest_field(path, "blob_sha256")
        with pytest.raises(CorruptFile, match="blob_sha256"):
            load_checkpoint(path)

    def test_unreadable_manifest_or_model_config_rejected(self, tmp_path):
        def set_model_config(key, value):
            def edit(manifest):
                manifest["model_config"][key] = value
                return json.dumps(manifest).encode()
            return edit

        def set_params(change):
            def edit(manifest):
                manifest["params"] = change(manifest["params"])
                return json.dumps(manifest).encode()
            return edit

        def swap_offsets(a, b):
            def change(params):
                at = {e["name"]: e["offset"] for e in params}
                swap = {a: at[b], b: at[a]}
                return [{**e, "offset": swap.get(e["name"], e["offset"])} for e in params]
            return change

        bad_params = "m.mh has a malformed params list"
        cases = [(lambda m: b"{not json", "not UTF-8 JSON"),
                 (lambda m: b'{"format_version": "\xff"}', "not UTF-8 JSON"),
                 (lambda m: b"[1]", "not a JSON object"),
                 (set_model_config("bogus", 1), "invalid model_config.*bogus"),
                 (set_model_config("width", 7), "invalid model_config.*even"),
                 (set_model_config("n_rbf", 1), "invalid model_config.*n_rbf"),
                 (set_params(lambda p: [{k: v for k, v in e.items() if k != "shape"}
                                        for e in p]), bad_params),
                 (set_params(lambda p: 5), bad_params),
                 (set_params(lambda p: {"name": "x"}), bad_params),
                 (set_params(lambda p: p[:-1] + [{**p[-1], "offset": p[-1]["offset"] + 8}]),
                  bad_params),
                 (set_params(lambda p: [{**p[0], "offset": -8}] + p[1:]), bad_params),
                 (set_params(swap_offsets("token.block0.wq", "token.block0.wk")), bad_params),
                 (set_params(lambda p: [e for e in p if e["name"] != "token.embed"]),
                  r"m\.mh params do not match its model_config at token\.embed"),
                 (set_params(lambda p: [{**e, "shape": e["shape"][::-1]}
                                        if e["name"] == "token.embed" else e for e in p]),
                  r"params do not match its model_config at token\.embed"),
                 (set_params(lambda p: p + [{**p[0], "name": "token.extra"}]),
                  r"params do not match its model_config at token\.extra")]
        for edit, what in cases:
            path = tmp_path / "m.mh"
            save_checkpoint(path, Model.init(SMALL_CFG, seed=2), None, None)
            _rewrite_manifest(path, edit)
            with pytest.raises(CorruptFile, match=what):
                load_checkpoint(path)


class TestTrace:
    def test_csv_layout(self, tmp_path):
        model = Model.init(SMALL_CFG, seed=1)
        rows, _ = pretrain(model, _fresh_train(), TrainConfig("pretrain", epochs=1, seed=1))
        path = tmp_path / "trace.csv"
        write_trace(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,epoch,loss_contrastive,loss_discrepancy,loss_total"
        assert len(lines) == len(rows) + 1

    def test_failed_rewrite_keeps_previous_trace(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [TraceRow(0, 0, {"loss_total": 1.0})])
        before = path.read_bytes()
        rows = [TraceRow(1, 0, {"loss_total": 2.0}), TraceRow(2, 0, {})]
        with pytest.raises(KeyError):
            write_trace(path, rows)  # the second row lacks a column
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


class TestConfigValidation:
    def test_bad_stage(self):
        with pytest.raises(ValueError):
            TrainConfig(stage="warmup")

    def test_bad_lambda2(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda2=1.2)

    def test_bad_keep_prob(self):
        with pytest.raises(ValueError):
            TrainConfig(mask_keep_prob=-0.1)

    @pytest.mark.parametrize("key", ["lr", "lambda1", "encoder_lr_scale"])
    @pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf")])
    def test_rate_or_weight_negative_or_not_finite(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_zero_rate_and_weights_allowed(self):
        TrainConfig(lr=0.0, lambda1=0.0, encoder_lr_scale=0.0)

    @pytest.mark.parametrize("key, value", [
        ("width", 0), ("width", -2), ("n_rbf", 1), ("n_rbf", 0), ("n_shear", 0),
        ("head_hidden", 0), ("token_layers", -1), ("geom_rounds", -1), ("cutoff", 0.0),
        ("cutoff", -1.0), ("cutoff", float("nan")), ("cutoff", float("inf"))])
    def test_model_setting_that_cannot_train(self, key, value):
        with pytest.raises(ValueError, match=key):
            ModelConfig(**{key: value})

    def test_smallest_model_settings_allowed(self):
        ModelConfig(width=2, n_rbf=2, n_shear=1, head_hidden=1, token_layers=0, geom_rounds=0,
                    cutoff=1e-3)
