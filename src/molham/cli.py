"""Command-line entry point.

Subcommands: gen-data, pretrain, finetune, predict, eval, screen, bench,
selftest. gen-data, pretrain and finetune can also read options from a JSON
config file (--config), with explicit flags taking precedence. Every run
writes a run-manifest JSON with the fully resolved configuration, seed,
version, and input hashes next to its outputs.

Exit codes: 0 success, 1 usage error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .alignment import LOSS_FORMS
from .atomic import atomic_write_text
from .basis import electron_count
from .corpus import build_corpus, corpus_sha256
from .dataset import SPLIT_MODES, SplitConfig, gen_dataset, load_split
from .errors import AuditFailed, EmptyThresholds, MolhamError, json_object
from .hamhead import layout, save_hamiltonian
from .model import Model, ModelConfig
from .oracle import embed_3d, huckel_labels
from .screening import (bench_pipelines, default_thresholds, report_to_csv, report_to_json,
                        screen_dataset)
from .smiles import expand_hydrogens, parse, parse_smiles, tokenize
from .spectral import frontier
from .training import (TrainConfig, evaluate, finetune, load_checkpoint, pretrain,
                       save_checkpoint, write_trace)

USAGE_EXIT = 1
DATA_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_EXIT)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, resolved: dict, inputs: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "config": resolved,
        "inputs": inputs,
    }
    atomic_write_text(out_dir / "run-manifest.json", json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    return json_object(Path(path).read_bytes(), f"config file {path}")


def _check_kind(key: str, value, kind: type) -> None:
    """Reject a config-file value of the wrong JSON type; a float key takes an integer."""
    kinds = (int, float) if kind is float else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _merge(defaults: dict, config_file: dict, args: argparse.Namespace,
           kinds: dict[str, type]) -> dict:
    """defaults < config file < explicit flags, for the keys of `defaults`. A
    config-file value must have its key's kind, or be null where the default is."""
    out = dict(defaults)
    for k in defaults:
        if k in config_file:
            if config_file[k] is not None or defaults[k] is not None:
                _check_kind(k, config_file[k], kinds[k])
            out[k] = config_file[k]
    for k in defaults:
        v = getattr(args, k.replace("-", "_"), None)
        if v is not None:
            out[k] = v
    return out


# pretrain/finetune take every config field as a flag and config key, except
# the stage, which the subcommand fixes
_MODEL_DEFAULTS = asdict(ModelConfig())
_TRAIN_DEFAULTS = {k: v for k, v in asdict(TrainConfig()).items() if k != "stage"}
_TRAIN_KINDS = {k: type(v) for k, v in {**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS}.items()}
_SPLIT = SplitConfig()
_GEN_DEFAULTS = {"split": _SPLIT.mode, "seed": _SPLIT.seed, "train_fraction": _SPLIT.train_fraction,
                 "limit": None, "max_heavy_atoms": None, "corpus": None}
_GEN_KINDS = {"split": str, "seed": int, "train_fraction": float, "limit": int,
              "max_heavy_atoms": int, "corpus": str}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per config field, typed by its default."""
    for key, kind in _TRAIN_KINDS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=_bool_flag if kind is bool else kind,
                       choices=LOSS_FORMS if key == "loss_form" else None)


def _bool_flag(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="molham", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled dataset from a SMILES corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--corpus", help="path to a SMILES list; default is the bundled corpus")
    p.add_argument("--split", choices=SPLIT_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--train-fraction", type=float, dest="train_fraction")
    p.add_argument("--limit", type=int, help="use only the first N corpus entries")
    p.add_argument("--max-heavy-atoms", type=int, dest="max_heavy_atoms")

    p = sub.add_parser("pretrain", help="both-modality pre-training")
    p.add_argument("--data", required=True, help="dataset directory from gen-data")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    _add_config_flags(p)

    p = sub.add_parser("finetune", help="masked weakly-supervised fine-tuning")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", help="checkpoint to start from (omit for a fresh model)")
    p.add_argument("--config")
    _add_config_flags(p)

    p = sub.add_parser("predict", help="predict a Hamiltonian for one SMILES string")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--smiles", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for geometry when --fusion")
    p.add_argument("--fusion", type=_bool_flag, default=False)

    p = sub.add_parser("eval", help="metrics on a dataset's test half")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fusion", type=_bool_flag, default=False)

    p = sub.add_parser("screen", help="gap-threshold screening report")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--thresholds", help="comma-separated eV thresholds")
    p.add_argument("--fusion", type=_bool_flag, default=False)

    p = sub.add_parser("bench", help="wall-clock comparison of the inference routes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--limit", type=int)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--out")

    return parser


# --- subcommand bodies ---

def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg_file = _load_config_file(args.config)
    resolved = _merge(_GEN_DEFAULTS, cfg_file, args, _GEN_KINDS)
    for key in ("limit", "max_heavy_atoms"):
        if resolved[key] is not None and resolved[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {resolved[key]}")
    inputs = {}
    if resolved["corpus"]:
        corpus = [line.strip() for line in Path(resolved["corpus"]).read_text().splitlines()
                  if line.strip()]
        inputs[resolved["corpus"]] = _sha256(Path(resolved["corpus"]))
    else:
        corpus = build_corpus()
        inputs["<bundled corpus>"] = corpus_sha256(corpus)
    if resolved["max_heavy_atoms"]:
        corpus = [s for s in corpus
                  if parse_smiles(s).n_atoms <= resolved["max_heavy_atoms"]]
    if resolved["limit"]:
        corpus = corpus[:resolved["limit"]]
    split = SplitConfig(mode=resolved["split"], seed=resolved["seed"],
                        train_fraction=resolved["train_fraction"])
    out = Path(args.out)
    manifest = gen_dataset(corpus, split, out)
    _write_manifest(out, "gen-data", resolved, inputs)
    print(json.dumps({k: manifest[k] for k in
                      ("n_generated", "n_train", "n_test", "n_skipped")}))
    return 0


def _train_common(args: argparse.Namespace, stage: str) -> int:
    cfg_file = _load_config_file(args.config)
    resolved = _merge({**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS}, cfg_file, args, _TRAIN_KINDS)
    out = Path(args.out)
    data_dir = Path(args.data)
    train_set, _, _ = load_split(data_dir)

    train_cfg = TrainConfig(stage=stage, **{k: resolved[k] for k in _TRAIN_DEFAULTS})
    model_cfg = ModelConfig(**{k: resolved[k] for k in _MODEL_DEFAULTS})

    init_path = getattr(args, "init", None)
    if stage == "finetune" and init_path:
        model, _, _ = load_checkpoint(init_path, expect=model_cfg)
        inputs = {init_path: _sha256(Path(init_path))}
    else:
        model = Model.init(model_cfg, train_cfg.seed)
        inputs = {}
    for name in ("train.jsonl", "test.jsonl"):
        inputs[str(data_dir / name)] = _sha256(data_dir / name)

    run = pretrain if stage == "pretrain" else finetune
    rows, rng_state = run(model, train_set, train_cfg)
    if stage == "finetune" and not train_cfg.fusion and train_set.coords_reads:
        raise AuditFailed(f"string-only fine-tuning read coordinates "
                          f"{train_set.coords_reads} times")
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.mh", model, train_cfg, rng_state)
    write_trace(out / "trace.csv", rows)
    _write_manifest(out, stage, resolved, inputs)
    print(json.dumps({"steps": len(rows),
                      "final_loss": rows[-1].parts["loss_total"] if rows else None}))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    tokens = tokenize(args.smiles)
    xmol = expand_hydrogens(parse(tokens))
    lay = layout(xmol.elements)
    leaves = model.leaves(None)
    coords = embed_3d(xmol, args.seed)  # evaluation-time overlap geometry
    if args.fusion:
        h = model.hamiltonian_fused(leaves, tokens, xmol, lay, coords).data
    else:
        h = model.hamiltonian_from_tokens(leaves, tokens, xmol, lay).data
    _, s = huckel_labels(xmol, coords)
    homo, lumo, gap_ev = frontier(h, s, electron_count(xmol.elements))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_hamiltonian(out / "hamiltonian.bin", h, lay)
    summary = {"smiles": args.smiles, "n_orbitals": lay.n_orb,
               "homo_hartree": homo, "lumo_hartree": lumo, "gap_ev": gap_ev}
    atomic_write_text(out / "prediction.json", json.dumps(summary, indent=1) + "\n")
    _write_manifest(out, "predict",
                    {"smiles": args.smiles, "fusion": args.fusion, "seed": args.seed},
                    {args.checkpoint: _sha256(Path(args.checkpoint))})
    print(json.dumps(summary))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    _, test_set, _ = load_split(Path(args.data))
    metrics = evaluate(model, test_set, fusion=args.fusion)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "metrics.json", json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    _write_manifest(out, "eval", {"fusion": args.fusion},
                    {args.checkpoint: _sha256(Path(args.checkpoint)),
                     str(Path(args.data) / "test.jsonl"): _sha256(Path(args.data) / "test.jsonl")})
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _cmd_screen(args: argparse.Namespace) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    _, test_set, _ = load_split(Path(args.data))
    if args.thresholds is not None:
        thresholds = [float(x) for x in args.thresholds.split(",") if x.strip()]
        if not thresholds:
            raise EmptyThresholds("threshold override is empty")
    else:
        thresholds = default_thresholds()
    rows = screen_dataset(model, test_set, thresholds, fusion=args.fusion)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "screen.csv", report_to_csv(rows))
    atomic_write_text(out / "screen.json", report_to_json(rows, {"thresholds": thresholds}))
    _write_manifest(out, "screen", {"thresholds": thresholds, "fusion": args.fusion},
                    {args.checkpoint: _sha256(Path(args.checkpoint))})
    print(report_to_csv(rows).strip())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    _, test_set, _ = load_split(Path(args.data))
    report = bench_pipelines(model, test_set, repeat=args.repeat, limit=args.limit)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "bench.json", report.to_json())
    _write_manifest(out, "bench", {"repeat": args.repeat, "limit": args.limit},
                    {args.checkpoint: _sha256(Path(args.checkpoint))})
    print(report.to_json().strip())
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest
    ok = run_selftest()
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_manifest(Path(args.out), "selftest", {}, {})
    return 0 if ok else DATA_EXIT


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen-data": _cmd_gen_data,
        "pretrain": lambda a: _train_common(a, "pretrain"),
        "finetune": lambda a: _train_common(a, "finetune"),
        "predict": _cmd_predict,
        "eval": _cmd_eval,
        "screen": _cmd_screen,
        "bench": _cmd_bench,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.subcommand](args)
    except (MolhamError, OSError, ValueError) as err:  # JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {err}\n")
        return DATA_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
