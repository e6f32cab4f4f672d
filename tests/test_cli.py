"""Command-line interface: exit codes, file outputs, and an end-to-end run."""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest

from _oracles import list_form_line
from molham import cli, screening
from molham.cli import main
from molham.corpus import build_corpus
from molham.dataset import load_split
from molham.hamhead import layout, load_hamiltonian
from molham.model import ModelConfig
from molham.smiles import parse_smiles
from molham.training import TrainConfig, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.smi"
    picks = [s for s in build_corpus() if parse_smiles(s).n_atoms <= 6][:20]
    path.write_text("\n".join(picks) + "\n")
    return path


def _edited_checkpoint(ckpt, dest, edit):
    """Copy a checkpoint to dest with edit(manifest dict) applied to its JSON manifest."""
    raw = ckpt.read_bytes()
    size = struct.unpack("<Q", raw[8:16])[0]
    manifest = json.loads(raw[16:16 + size])
    edit(manifest)
    payload = json.dumps(manifest).encode()
    dest.write_bytes(raw[:8] + struct.pack("<Q", len(payload)) + payload + raw[16 + size:])
    return dest


MODEL_FLAGS = ["--width", "8", "--token-layers", "1", "--geom-rounds", "1",
               "--n-rbf", "4", "--n-shear", "2", "--head-hidden", "6"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, corpus_file):
    """gen-data + short finetune once for the read-only command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    run = root / "ft"
    assert main(["gen-data", "--out", str(data), "--corpus", str(corpus_file),
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out", str(run),
                 "--epochs", "2", "--seed", "1"] + MODEL_FLAGS) == 0
    return data, run / "checkpoint.mh"


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert main(["gen-data", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_one(self):
        assert main([]) == 1

    def test_unknown_subcommand_exits_one(self):
        assert main(["frobnicate"]) == 1

    def test_config_flag_only_where_it_is_read(self, tmp_path, pipeline):
        data, ckpt = pipeline
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"fusion": True, "seed": 9}))
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "e"), "--config", str(cfg)]) == 1
        assert not (tmp_path / "e").exists()


class TestDefaults:
    def test_flag_free_pretrain_uses_the_config_defaults(self, tmp_path, pipeline, monkeypatch):
        data, _ = pipeline
        seen = {}

        def record(model, dataset, config):
            seen["model"], seen["train"] = model.config, config
            return [], None

        monkeypatch.setattr(cli, "pretrain", record)
        out = tmp_path / "pre"
        assert main(["pretrain", "--data", str(data), "--out", str(out)]) == 0
        assert seen == {"model": ModelConfig(), "train": TrainConfig(stage="pretrain")}
        resolved = json.loads((out / "run-manifest.json").read_text())["config"]
        defaults = {**asdict(ModelConfig()), **asdict(TrainConfig())}
        assert set(resolved) >= set(asdict(ModelConfig()))
        assert resolved == {k: defaults[k] for k in resolved}


class TestConfigFlags:
    """pretrain and finetune take exactly the config fields as flags."""

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_flags_are_the_config_fields(self, command, tmp_path):
        (sub,) = [a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        flags = {a.dest: a.option_strings for a in sub.choices[command]._actions}
        for own in ("help", "data", "out", "config", "init"):
            flags.pop(own, None)
        names = {f.name for f in fields(ModelConfig) + fields(TrainConfig)} - {"stage"}
        assert set(flags) == names
        assert all(flags[k] == ["--" + k.replace("_", "-")] for k in names)
        # Adam's settings are constants, and the contrastive loss has one form
        for removed in (["--beta1", "0.5"], ["--loss-form", "literal"]):
            assert main([command, "--data", str(tmp_path), "--out", str(tmp_path / "run")]
                        + removed) == 1
        assert not (tmp_path / "run").exists()


class TestCounts:
    """A count below 1, from a flag or a config file, exits 2 with one error
    line naming its key and writes nothing."""

    def _rejected(self, capsys, argv, out, key):
        code = main(argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: "), err
        assert key in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("limit", 0), ("limit", -2), ("max_heavy_atoms", 0)])
    def test_gen_data_flag(self, tmp_path, corpus_file, capsys, key, value):
        out = tmp_path / "ds"
        self._rejected(capsys, ["gen-data", "--out", str(out), "--corpus", str(corpus_file),
                                "--" + key.replace("_", "-"), str(value)], out, key)

    @pytest.mark.parametrize("key, value", [("limit", 0), ("limit", -2), ("max_heavy_atoms", 0)])
    def test_gen_data_config_key(self, tmp_path, corpus_file, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "ds"
        self._rejected(capsys, ["gen-data", "--out", str(out), "--corpus", str(corpus_file),
                                "--config", str(cfg)], out, key)

    @pytest.mark.parametrize("key, value", [("limit", -1), ("limit", 0), ("repeat", 0)])
    def test_bench_flag(self, tmp_path, pipeline, capsys, key, value):
        data, ckpt = pipeline
        out = tmp_path / "bench"
        self._rejected(capsys, ["bench", "--checkpoint", str(ckpt), "--data", str(data),
                                "--out", str(out), "--" + key, str(value)], out, key)

    @pytest.mark.parametrize("flag, key", [("--n-rbf=1", "n_rbf"), ("--cutoff=0", "cutoff"),
                                           ("--lr=-1e-3", "lr")])
    def test_training_setting_that_cannot_train(self, tmp_path, pipeline, capsys, flag, key):
        data, _ = pipeline
        out = tmp_path / "run"
        self._rejected(capsys, ["pretrain", "--data", str(data), "--out", str(out), flag],
                       out, key)


class TestGenData:
    def test_writes_outputs_and_manifest(self, tmp_path, corpus_file):
        out = tmp_path / "ds"
        assert main(["gen-data", "--out", str(out), "--corpus", str(corpus_file),
                     "--seed", "1"]) == 0
        for name in ("train.jsonl", "test.jsonl", "manifest.json", "run-manifest.json"):
            assert (out / name).exists()
        run_manifest = json.loads((out / "run-manifest.json").read_text())
        assert run_manifest["command"] == "gen-data"
        assert run_manifest["config"]["seed"] == 1
        assert run_manifest["inputs"]

    def test_reproducible_outputs(self, tmp_path, corpus_file):
        args = ["gen-data", "--corpus", str(corpus_file), "--seed", "4"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("train.jsonl", "test.jsonl", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, corpus_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "split": "random-id"}))
        out = tmp_path / "ds"
        assert main(["gen-data", "--out", str(out), "--corpus", str(corpus_file),
                     "--config", str(cfg), "--seed", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2  # flag wins over config file

    def test_jobs_key_and_flag_rejected(self, tmp_path, corpus_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 2, "jobs": 4}))
        out = tmp_path / "ds"
        assert main(["gen-data", "--out", str(out), "--corpus", str(corpus_file),
                     "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'jobs'" in err[0]
        assert not out.exists()
        assert main(["gen-data", "--out", str(out), "--corpus", str(corpus_file),
                     "--jobs", "2"]) == 1

    def test_max_heavy_atoms_records_malformed_entry(self, tmp_path, capsys):
        corpus = tmp_path / "bad.smi"
        corpus.write_text("CCO\nC1CC\nCCN\nCC(=O)O\nc1ccccc1\n")
        out = tmp_path / "ds"
        assert main(["gen-data", "--out", str(out), "--corpus", str(corpus),
                     "--max-heavy-atoms", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["n_generated"] == 3  # benzene filtered
        skipped = json.loads((out / "manifest.json").read_text())["skipped"]
        assert [(s["index"], s["smiles"], s["error"]) for s in skipped] == [
            (1, "C1CC", "UnmatchedRingClosure")]

    def test_max_heavy_atoms_ignores_explicit_hydrogens(self, tmp_path, capsys):
        corpus = tmp_path / "h.smi"
        corpus.write_text("CCO\n[H]OC([H])([H])[H]\nCC(C)O\n")
        out = tmp_path / "ds"
        assert main(["gen-data", "--out", str(out), "--corpus", str(corpus),
                     "--max-heavy-atoms", "3", "--train-fraction", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["n_generated"] == 2  # CC(C)O has 4
        records = [json.loads(line)["smiles"] for name in ("train.jsonl", "test.jsonl")
                   for line in (out / name).read_text().splitlines()]
        assert sorted(records) == ["CCO", "[H]OC([H])([H])[H]"]


class TestConfigFile:
    """A bad pretrain config exits 2 with one error line and writes nothing."""

    def _pretrain(self, tmp_path, pipeline, capsys, config):
        data, _ = pipeline
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        code = main(["pretrain", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--config", str(cfg)] + MODEL_FLAGS)
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "run").exists()
        return err[0]

    def test_json_that_is_not_an_object(self, tmp_path, pipeline, capsys):
        assert "bad.json" in self._pretrain(tmp_path, pipeline, capsys, ["epochs"])

    @pytest.mark.parametrize("raw", [b"{not json", b"\xff{}"], ids=["not-json", "not-utf8"])
    def test_bytes_that_are_not_utf8_json(self, tmp_path, pipeline, capsys, raw):
        assert "bad.json is not UTF-8 JSON" in self._pretrain(tmp_path, pipeline, capsys, raw)

    def test_value_of_the_wrong_type(self, tmp_path, pipeline, capsys):
        assert "'epochs'" in self._pretrain(tmp_path, pipeline, capsys, {"epochs": "3"})

    def test_boolean_of_the_wrong_type(self, tmp_path, pipeline, capsys):
        assert "'fusion'" in self._pretrain(tmp_path, pipeline, capsys, {"fusion": "no"})

    def test_zero_batch_size(self, tmp_path, pipeline, capsys):
        assert "batch_size" in self._pretrain(tmp_path, pipeline, capsys, {"batch_size": 0})

    def test_negative_epochs(self, tmp_path, pipeline, capsys):
        assert "epochs" in self._pretrain(tmp_path, pipeline, capsys, {"epochs": -1})

    def test_unknown_key(self, tmp_path, pipeline, capsys):
        # a misspelt setting and a retired Adam setting, rather than other training
        err = self._pretrain(tmp_path, pipeline, capsys, {"beta1": 0.5, "epoch": 3})
        assert "config keys that are not settings: 'beta1', 'epoch'" in err


class TestTrainEvalScreenBench:
    def test_eval_writes_metrics(self, tmp_path, pipeline):
        data, ckpt = pipeline
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("mae_diag", "mae_offdiag", "mae_all", "mae_eps_occ", "psi_occ"):
            assert key in metrics

    def test_screen_default_thresholds(self, tmp_path, pipeline):
        data, ckpt = pipeline
        out = tmp_path / "screen"
        assert main(["screen", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 0
        payload = json.loads((out / "screen.json").read_text())
        assert payload["thresholds"] == [0.26, 0.28, 0.30, 0.32, 0.34, 0.36]
        assert (out / "screen.csv").read_text().startswith("threshold_ev,")

    def test_screen_single_threshold_override(self, tmp_path, pipeline):
        data, ckpt = pipeline
        out = tmp_path / "screen1"
        assert main(["screen", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out), "--thresholds", "0.3"]) == 0
        payload = json.loads((out / "screen.json").read_text())
        assert len(payload["rows"]) == 1

    def test_screen_empty_threshold_override_exits_two(self, tmp_path, pipeline):
        data, ckpt = pipeline
        assert main(["screen", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "s"), "--thresholds", " "]) == 2

    def test_bench_orders_paths(self, tmp_path, pipeline):
        data, ckpt = pipeline
        out = tmp_path / "bench"
        assert main(["bench", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out), "--repeat", "2", "--limit", "3"]) == 0
        payload = json.loads((out / "bench.json").read_text())
        assert payload["embed_calls_string_path"] == 0
        assert payload["string_path_s_per_1000"] < payload["geometry_path_s_per_1000"]

    @pytest.mark.parametrize("command", ["eval", "screen", "bench"])
    def test_manifest_records_the_test_split(self, tmp_path, pipeline, command):
        data, ckpt = pipeline
        out = tmp_path / command
        extra = ["--repeat", "1", "--limit", "2"] if command == "bench" else []
        assert main([command, "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)] + extra) == 0
        inputs = json.loads((out / "run-manifest.json").read_text())["inputs"]
        test_path = data / "test.jsonl"
        assert inputs == {str(ckpt): hashlib.sha256(ckpt.read_bytes()).hexdigest(),
                          str(test_path): hashlib.sha256(test_path.read_bytes()).hexdigest()}

    def test_manifest_records_the_thread_environment(self, tmp_path, pipeline, monkeypatch):
        data, ckpt = pipeline
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out)]) == 0
        env = json.loads((out / "run-manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert env["OMP_NUM_THREADS"] == "3" and env["MKL_NUM_THREADS"] is None
        assert set(env) == {"numpy", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS"}

    def test_predict_writes_matrix(self, tmp_path, pipeline):
        _, ckpt = pipeline
        out = tmp_path / "pred"
        assert main(["predict", "--checkpoint", str(ckpt), "--smiles", "CCO",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["hamiltonian.bin", "prediction.json",
                                                         "run-manifest.json"]
        summary = json.loads((out / "prediction.json").read_text())
        assert summary["n_orbitals"] == 12
        h, lay = load_hamiltonian(out / "hamiltonian.bin")
        assert h.shape == (12, 12) and lay == layout(("C", "C", "O") + ("H",) * 6)

    def test_predict_unsupported_element_exits_two(self, tmp_path, pipeline, capsys):
        _, ckpt = pipeline
        code = main(["predict", "--checkpoint", str(ckpt), "--smiles", "CCl",
                     "--out", str(tmp_path / "p")])
        assert code == 2
        assert "Cl" in capsys.readouterr().err

    def test_missing_checkpoint_exits_two(self, tmp_path, pipeline):
        data, _ = pipeline
        assert main(["eval", "--checkpoint", str(tmp_path / "none.mh"),
                     "--data", str(data), "--out", str(tmp_path / "e")]) == 2

    def test_out_under_a_regular_file_exits_two(self, tmp_path, pipeline, capsys):
        _, ckpt = pipeline
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["predict", "--checkpoint", str(ckpt), "--smiles", "CCO",
                     "--out", str(blocker / "pred")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fusion_finetune_and_eval(self, tmp_path, pipeline):
        data, _ = pipeline
        run = tmp_path / "fused"
        assert main(["finetune", "--data", str(data), "--out", str(run),
                     "--epochs", "1", "--seed", "1", "--fusion", "true"] + MODEL_FLAGS) == 0
        out = tmp_path / "fe"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.mh"),
                     "--data", str(data), "--out", str(out), "--fusion", "true"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert np.isfinite(metrics["mae_all"])


class TestCorruptInputs:
    def test_checkpoint_without_checksum_exits_two(self, tmp_path, pipeline, capsys):
        _, ckpt = pipeline
        bad = _edited_checkpoint(ckpt, tmp_path / "bad.mh", lambda m: m.pop("blob_sha256"))
        assert main(["predict", "--checkpoint", str(bad), "--smiles", "CCO",
                     "--out", str(tmp_path / "p")]) == 2
        assert "blob_sha256" in capsys.readouterr().err

    def test_checkpoint_with_unknown_model_config_key_exits_two(self, tmp_path, pipeline,
                                                                capsys):
        _, ckpt = pipeline
        bad = _edited_checkpoint(ckpt, tmp_path / "bad.mh",
                                 lambda m: m["model_config"].update(bogus=1))
        assert main(["predict", "--checkpoint", str(bad), "--smiles", "CCO",
                     "--out", str(tmp_path / "p")]) == 2
        assert "model_config" in capsys.readouterr().err

    def test_checkpoint_with_malformed_params_exits_two(self, tmp_path, pipeline, capsys):
        _, ckpt = pipeline
        bad = _edited_checkpoint(ckpt, tmp_path / "bad.mh",
                                 lambda m: [e.pop("shape") for e in m["params"]])
        assert main(["predict", "--checkpoint", str(bad), "--smiles", "CCO",
                     "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "bad.mh" in err[0]

    def test_record_with_wrong_field_type_exits_two(self, tmp_path, pipeline, capsys):
        data, ckpt = pipeline
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        lines = (bad / "test.jsonl").read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "elements": 5})
        (bad / "test.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(bad),
                     "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "test.jsonl line 2" in err[0]

    def test_record_without_atoms_exits_two(self, tmp_path, pipeline, capsys):
        data, ckpt = pipeline
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        lines = (bad / "test.jsonl").read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "elements": []})
        (bad / "test.jsonl").write_text("\n".join(lines) + "\n")
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(bad),
                     "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "test.jsonl line 2" in err[0] and "at least one atom" in err[0]

    @pytest.mark.parametrize("command", ["eval", "screen"])
    def test_record_with_short_triangles_exits_two(self, tmp_path, pipeline, capsys, command):
        data, ckpt = pipeline
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        lines = (bad / "test.jsonl").read_text().splitlines()
        raw = json.loads(lines[1])
        lines[1] = json.dumps({**raw, "h_upper": raw["h_upper"][:32]})  # the first 3 floats
        (bad / "test.jsonl").write_text("\n".join(lines) + "\n")
        assert main([command, "--checkpoint", str(ckpt), "--data", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "test.jsonl line 2" in err[0] and "h_upper holds 24 bytes" in err[0]

    def test_dataset_in_the_list_format_exits_two(self, tmp_path, pipeline, capsys):
        """A dataset written before format version 2: no version in its
        manifest, and both triangles stored as float lists."""
        data, ckpt = pipeline
        old = tmp_path / "data"
        shutil.copytree(data, old)
        train, test, manifest = load_split(data)
        for name, ds in (("train", train), ("test", test)):
            (old / f"{name}.jsonl").write_text("".join(list_form_line(r) + "\n" for r in ds.records))
        del manifest["format_version"]
        (old / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(old),
                     "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "manifest.json" in err[0] and "dataset format None != 2" in err[0]

    def test_checkpoint_without_a_parameter_exits_two(self, tmp_path, pipeline, capsys):
        _, ckpt = pipeline
        bad = _edited_checkpoint(ckpt, tmp_path / "bad.mh", lambda m: m.update(
            params=[e for e in m["params"] if e["name"] != "token.embed"]))
        assert main(["predict", "--checkpoint", str(bad), "--smiles", "CCO",
                     "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "bad.mh" in err[0] and "token.embed" in err[0]

    def test_record_without_hamiltonian_exits_two(self, tmp_path, pipeline, capsys):
        data, _ = pipeline
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        lines = (bad / "train.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        del first["h_upper"]
        (bad / "train.jsonl").write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
        assert main(["finetune", "--data", str(bad), "--out", str(tmp_path / "ft"),
                     "--epochs", "1", "--seed", "1"] + MODEL_FLAGS) == 2
        assert "h_upper" in capsys.readouterr().err

    def test_nan_weight_aborts_finetune_with_exit_two(self, tmp_path, pipeline, capsys):
        data, ckpt = pipeline
        model, train_cfg, rng_state = load_checkpoint(ckpt)
        model.params["head.diag.b2"][:] = np.nan
        bad = tmp_path / "nan.mh"
        save_checkpoint(bad, model, None, None)
        with np.errstate(invalid="ignore"):
            code = main(["finetune", "--data", str(data), "--out", str(tmp_path / "ft"),
                         "--init", str(bad), "--epochs", "1", "--seed", "1"] + MODEL_FLAGS)
        assert code == 2
        assert "non-finite fine-tuning loss at record" in capsys.readouterr().err


class TestOlderCheckpoint:
    def test_format_one_checkpoint_is_refused(self, tmp_path, pipeline, capsys):
        """Format 1 still had the `loss_form` setting and the v- output bias."""
        _, ckpt = pipeline
        old = _edited_checkpoint(ckpt, tmp_path / "old.mh", lambda m: (
            m.update(format_version=1), m["model_config"].update(loss_form="log_sigmoid")))
        err = _exits_two(capsys, ["predict", "--checkpoint", str(old), "--smiles", "CCO",
                                  "--out", str(tmp_path / "p")], tmp_path / "p")
        assert "checkpoint format 1 != 2" in err

    def test_adam_keys_in_train_config_still_load(self, tmp_path, pipeline):
        """Checkpoints from before the Adam settings became constants carry
        beta1, beta2 and adam_eps in their train_config."""
        data, ckpt = pipeline
        old = _edited_checkpoint(ckpt, tmp_path / "old.mh", lambda m: m["train_config"].update(
            beta1=0.9, beta2=0.999, adam_eps=1e-8))
        _, train_cfg, _ = load_checkpoint(old)
        assert (train_cfg["beta1"], train_cfg["beta2"], train_cfg["adam_eps"]) == (0.9, 0.999, 1e-8)
        run = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(run), "--init", str(old),
                     "--epochs", "1", "--seed", "1"] + MODEL_FLAGS) == 0
        _, train_cfg, _ = load_checkpoint(run / "checkpoint.mh")
        assert TrainConfig(**train_cfg) == TrainConfig(stage="finetune", epochs=1, seed=1)


def _exits_two(capsys, argv, out):
    """Run argv; it must exit 2 with one `error:` line, print nothing else and
    leave `out` uncreated."""
    code = main(argv)
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error: "), err
    assert captured.out == ""
    assert not out.exists()
    return err[0]


class TestInitCheckpoint:
    """finetune --init takes the checkpoint's model settings unless one is given."""

    def test_model_settings_come_from_the_checkpoint(self, tmp_path, pipeline):
        data, _ = pipeline
        pre = tmp_path / "pre"
        assert main(["pretrain", "--data", str(data), "--out", str(pre), "--epochs", "1",
                     "--seed", "1", "--compensation", "false"] + MODEL_FLAGS) == 0
        init, _, _ = load_checkpoint(pre / "checkpoint.mh")
        assert (init.config.compensation, init.config.width) == (False, 8)
        run = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(run), "--epochs", "1",
                     "--seed", "1", "--init", str(pre / "checkpoint.mh")]) == 0
        model, _, _ = load_checkpoint(run / "checkpoint.mh")
        assert model.config == init.config
        resolved = json.loads((run / "run-manifest.json").read_text())["config"]
        assert {k: resolved[k] for k in asdict(init.config)} == asdict(init.config)

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_model_setting_that_differs_exits_two(self, tmp_path, pipeline, capsys, how):
        data, ckpt = pipeline
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 16}))
        given = ["--width", "16"] if how == "flag" else ["--config", str(cfg)]
        run = tmp_path / "ft"
        err = _exits_two(capsys, ["finetune", "--data", str(data), "--out", str(run),
                                  "--init", str(ckpt), "--epochs", "1"] + given, run)
        assert str(ckpt) in err and err.count("ModelConfig(") == 2
        assert "width=8" in err and "width=16" in err


class TestUnusableInputs:
    """An empty split file or a threshold that is not finite exits 2 and writes nothing."""

    @pytest.fixture
    def emptied(self, tmp_path, pipeline):
        def empty(name):
            data = tmp_path / "data"
            shutil.copytree(pipeline[0], data)
            (data / name).write_text("\n")  # blank lines are skipped, not records
            return data
        return empty

    @pytest.mark.parametrize("command", ["eval", "screen", "bench"])
    def test_empty_test_split(self, tmp_path, pipeline, emptied, capsys, command):
        data, out = emptied("test.jsonl"), tmp_path / "out"
        err = _exits_two(capsys, [command, "--checkpoint", str(pipeline[1]), "--data", str(data),
                                  "--out", str(out)], out)
        assert str(data / "test.jsonl") in err

    def test_empty_train_split(self, tmp_path, emptied, capsys):
        data, out = emptied("train.jsonl"), tmp_path / "out"
        err = _exits_two(capsys, ["pretrain", "--data", str(data), "--out", str(out)], out)
        assert str(data / "train.jsonl") in err

    def test_threshold_that_is_not_finite(self, tmp_path, pipeline, capsys, monkeypatch):
        """The thresholds are refused before any test molecule is predicted."""
        def no_predictions(*args, **kwargs):
            raise AssertionError("screen predicted gaps before checking its thresholds")

        monkeypatch.setattr(screening, "gap_predictions", no_predictions)
        data, ckpt = pipeline
        out = tmp_path / "screen"
        err = _exits_two(capsys, ["screen", "--checkpoint", str(ckpt), "--data", str(data),
                                  "--out", str(out), "--thresholds", "nan,inf"], out)
        assert "finite" in err


class TestCoordinateAudit:
    def test_string_finetune_that_reads_coordinates_exits_two(self, tmp_path, pipeline,
                                                              monkeypatch, capsys):
        data, _ = pipeline
        real_finetune = cli.finetune

        def leaky_finetune(model, dataset, config):
            out = real_finetune(model, dataset, config)
            dataset.coords_reads = 1
            return out

        monkeypatch.setattr(cli, "finetune", leaky_finetune)
        run = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(run),
                     "--epochs", "1", "--seed", "1"] + MODEL_FLAGS) == 2
        assert "read coordinates" in capsys.readouterr().err
        assert not (run / "checkpoint.mh").exists()


class TestSizeOodEndToEnd:
    def test_gen_finetune_eval_chain(self, tmp_path):
        corpus = build_corpus()
        small = [s for s in corpus if parse_smiles(s).n_atoms <= 5][:8]
        large = [s for s in corpus if 11 <= parse_smiles(s).n_atoms <= 13][:4]
        corpus_path = tmp_path / "mixed.smi"
        corpus_path.write_text("\n".join(small + large) + "\n")

        data = tmp_path / "data"
        assert main(["gen-data", "--out", str(data), "--corpus", str(corpus_path),
                     "--split", "size-ood", "--seed", "2"]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["split"]["mode"] == "size-ood"

        run = tmp_path / "ft"
        assert main(["finetune", "--data", str(data), "--out", str(run),
                     "--epochs", "1", "--seed", "1"] + MODEL_FLAGS) == 0

        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(run / "checkpoint.mh"),
                     "--data", str(data), "--out", str(out)]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"mae_diag", "mae_offdiag", "mae_all",
                                "mae_eps_occ", "psi_occ"}


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
