"""Golden run: two fixed command-line sequences whose outcomes are pinned.

The two tiers guard different things.

- Value tier (`test_value_tier`). It runs the default `ModelConfig` on 48
  corpus molecules of at most 9 heavy atoms: `gen-data`, one pre-training
  epoch, one fine-tuning epoch, then `eval`. It pins the loss traces, the
  eval metrics, the sum and sum of squares of both checkpoints' parameters,
  and the largest |value| of each fine-tuned parameter group, at 1e-9
  relative, with no absolute floor. BLAS thread counts and summation order
  move these figures by about 1e-14 relative, far inside that bound. So a
  refactor that only reassociates arithmetic passes, and a change of
  behaviour fails: a wrong formula, a swapped loss weight, a dropped layer.
- Digest tier (`test_digest_tier`). It runs the small-model sequence of
  acceptance criterion 10 and pins the SHA-256 of both dataset halves, both
  checkpoints and `metrics.json`. It moves on any change of arithmetic, down
  to the last bit. A change that moves it re-pins it from `digest_run` and
  says why; the value tier then shows that the behaviour held.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json

from molham.cli import main
from molham.corpus import build_corpus
from molham.smiles import parse_smiles
from molham.training import load_checkpoint

REL = 1e-9

VALUES = {
    'pre.loss_contrastive.0': 0.6392149319980872,
    'pre.loss_discrepancy.0': 2.2428805402859213,
    'pre.loss_total.0': 2.8820954722840084,
    'pre.loss_contrastive.1': 0.48521865788406604,
    'pre.loss_discrepancy.1': 2.0131204817154282,
    'pre.loss_total.1': 2.4983391395994943,
    'pre.loss_contrastive.2': 0.4363843882424752,
    'pre.loss_discrepancy.2': 1.7501028179677842,
    'pre.loss_total.2': 2.1864872062102596,
    'pre.sum': 32.32428915931049,
    'pre.sum_sq': 3123.2286035758743,
    'ft.loss_total.0': 0.1245458984363303,
    'ft.loss_total.1': 0.12887817374229796,
    'ft.loss_total.2': 0.11945800609288632,
    'ft.sum': 32.29793035051234,
    'ft.sum_sq': 3123.3840225416247,
    'eval.count': 10.0,
    'eval.mae_all': 0.08323857565841072,
    'eval.mae_diag': 0.5403195191556681,
    'eval.mae_eps_occ': 0.5112745319576386,
    'eval.mae_offdiag': 0.03977330710070136,
    'eval.psi_occ': 0.21004643255534794,
    'ft.max_abs.token.embed': 3.2351550572649814,
    'ft.max_abs.token.refine': 3.077252617477743,
    'ft.max_abs.token.block0.wq': 0.5650551048658863,
    'ft.max_abs.token.block0.wk': 0.5489286612930727,
    'ft.max_abs.token.block0.wv': 0.609636098798721,
    'ft.max_abs.token.block0.wf': 0.6107745567654866,
    'ft.max_abs.token.block0.wg': 0.6121578239846587,
    'ft.max_abs.token.block1.wq': 0.6423815232743415,
    'ft.max_abs.token.block1.wk': 0.6171714107031252,
    'ft.max_abs.token.block1.wv': 0.6347931040120834,
    'ft.max_abs.token.block1.wf': 0.5910622585393567,
    'ft.max_abs.token.block1.wg': 0.6083269965405916,
    'ft.max_abs.geom.embed': 3.2204485511023075,
    'ft.max_abs.geom.round0.wf1': 0.6818334426449145,
    'ft.max_abs.geom.round0.bf1': 0.003002989164540888,
    'ft.max_abs.geom.round0.wf2': 0.5797469446952394,
    'ft.max_abs.geom.round0.bf2': 0.0030037558620730313,
    'ft.max_abs.geom.round0.wmsg': 0.6154058376422002,
    'ft.max_abs.geom.round0.bmsg': 0.00299768764338233,
    'ft.max_abs.geom.round0.wupd': 0.6627226279118683,
    'ft.max_abs.geom.round0.bupd': 0.0030013738494775446,
    'ft.max_abs.geom.round1.wf1': 0.8711599898180651,
    'ft.max_abs.geom.round1.bf1': 0.002986798987427343,
    'ft.max_abs.geom.round1.wf2': 0.5761926871386097,
    'ft.max_abs.geom.round1.bf2': 0.003000379760410698,
    'ft.max_abs.geom.round1.wmsg': 0.5714561404546016,
    'ft.max_abs.geom.round1.bmsg': 0.0029757638827852487,
    'ft.max_abs.geom.round1.wupd': 0.6171779790562695,
    'ft.max_abs.geom.round1.bupd': 0.002992530779727179,
    'ft.max_abs.geom.round2.wf1': 0.8384034615633362,
    'ft.max_abs.geom.round2.bf1': 0.002998650013665594,
    'ft.max_abs.geom.round2.wf2': 0.6390515873310257,
    'ft.max_abs.geom.round2.bf2': 0.003003390203388307,
    'ft.max_abs.geom.round2.wmsg': 0.8741385970600201,
    'ft.max_abs.geom.round2.bmsg': 0.0029940943258825272,
    'ft.max_abs.geom.round2.wupd': 0.5262116784415437,
    'ft.max_abs.geom.round2.bupd': 0.0030014585518739175,
    'ft.max_abs.comp.u.w1': 0.5960824668768435,
    'ft.max_abs.comp.u.b1': 0.002842840881988482,
    'ft.max_abs.comp.u.w2': 0.6040485253301637,
    'ft.max_abs.comp.u.b2': 0.0029440099114119082,
    'ft.max_abs.comp.t.w1': 0.6857223702693827,
    'ft.max_abs.comp.t.b1': 0.0029440397079270103,
    'ft.max_abs.comp.t.w2': 0.634944901570475,
    'ft.max_abs.comp.t.b2': 0.002997623177106677,
    'ft.max_abs.comp.vplus.w1': 0.5821132751783514,
    'ft.max_abs.comp.vplus.b1': 0.0030041376567991095,
    'ft.max_abs.comp.vplus.w2': 0.6485839598816404,
    'ft.max_abs.comp.vplus.b2': 0.003001538854269116,
    'ft.max_abs.comp.vminus.w1': 0.5520154962724667,
    'ft.max_abs.comp.vminus.b1': 0.0016020788814168116,
    'ft.max_abs.comp.vminus.w2': 0.6208983855279522,
    'ft.max_abs.gen.hidden.w': 0.5926642132943724,
    'ft.max_abs.gen.hidden.b': 0.0016017458304975994,
    'ft.max_abs.gen.angles.w': 0.0030048108597533043,
    'ft.max_abs.gen.angles.b': 0.003000662807337956,
    'ft.max_abs.gen.scales.w': 0.003004537368953566,
    'ft.max_abs.gen.scales.b': 0.00300345948746838,
    'ft.max_abs.gen.shear_p.w': 0.0,
    'ft.max_abs.gen.shear_p.b': 0.0,
    'ft.max_abs.gen.shear_w.w': 0.0,
    'ft.max_abs.gen.shear_w.b': 0.0,
    'ft.max_abs.gen.shift.w': 0.0030033847700667035,
    'ft.max_abs.gen.shift.b': 0.0030015002020238996,
    'ft.max_abs.gen.amp.w': 0.003004010794002844,
    'ft.max_abs.gen.amp.b': 0.003004428171216549,
    'ft.max_abs.gen.freq.w': 0.0015641805448960702,
    'ft.max_abs.gen.freq.b': 0.0016029132187752705,
    'ft.max_abs.gen.phase.w': 0.0014576989237568149,
    'ft.max_abs.gen.phase.b': 0.0016018477663251559,
    'ft.max_abs.align.wq': 0.5708639599971711,
    'ft.max_abs.align.wk': 0.5604145687762548,
    'ft.max_abs.align.wv': 0.5671600286858395,
    'ft.max_abs.align.log_tau': 0.6959892093828738,
    'ft.max_abs.head.diag.w1': 0.6441904463229817,
    'ft.max_abs.head.diag.b1': 0.0016031724762591236,
    'ft.max_abs.head.diag.w2': 0.003004900298440777,
    'ft.max_abs.head.diag.b2': 0.0029905933143293097,
    'ft.max_abs.head.pair.wsum': 0.6500409550461665,
    'ft.max_abs.head.pair.wgap': 0.6181612550641415,
    'ft.max_abs.head.pair.b1': 0.001603610261527178,
    'ft.max_abs.head.pair.w2': 0.002999971082197653,
    'ft.max_abs.head.pair.b2': 0.0026354532926334403,
}

DIGESTS = {
    "train": "cb4be440867454d5da588e9a7fca37a6d37a4725b52fdeaaecbe2cf10c2f057d",
    "test": "26423b61c116c99b0c1c64e12d95e7588657efdaa5aa95f7528091ef8a0de4ad",
    "pre": "895fdfd1d3e543f8c4943c9dba2b1306c3ae18156a2d1929eaf8c6690efbd685",
    "ft": "0fd6766710c00cf7b511d699775a252c931ee53f5f04d3b4a2cb49575d03a792",
    "metrics": "acb13eb774a01078c9a8ec7d1d623ef6a6597ae24f8994984081e220f3cb6faa",
}


def _run(root, corpus: list[str], epochs: int, flags: list[str]) -> None:
    """gen-data, pretrain, finetune from the pre-trained checkpoint, eval."""
    corpus_path = root / "corpus.smi"
    corpus_path.write_text("\n".join(corpus) + "\n")
    data, common = str(root / "data"), ["--epochs", str(epochs), "--seed", "5"] + flags
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--out", data, "--corpus", str(corpus_path), "--seed", "5"]) == 0
        assert main(["pretrain", "--data", data, "--out", str(root / "pre")] + common) == 0
        assert main(["finetune", "--data", data, "--out", str(root / "ft"),
                     "--init", str(root / "pre" / "checkpoint.mh")] + common) == 0
        assert main(["eval", "--checkpoint", str(root / "ft" / "checkpoint.mh"),
                     "--data", data, "--out", str(root / "eval")]) == 0


def _values(root) -> dict[str, float]:
    out = {}
    for stage in ("pre", "ft"):
        with open(root / stage / "trace.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                for col in sorted(row.keys() - {"step", "epoch"}):
                    out[f"{stage}.{col}.{row['step']}"] = float(row[col])
        model = load_checkpoint(root / stage / "checkpoint.mh")[0]
        out[f"{stage}.sum"] = float(model.vector.sum())
        out[f"{stage}.sum_sq"] = float(model.vector @ model.vector)
    for key, value in json.loads((root / "eval" / "metrics.json").read_text()).items():
        out[f"eval.{key}"] = float(value)
    # fine-tuning leaves the groups it does not train at their pre-trained values
    for name, a in model.params.items():
        out[f"ft.max_abs.{name}"] = float(abs(a).max())
    return out


def _digests(root) -> dict[str, str]:
    paths = {"train": "data/train.jsonl", "test": "data/test.jsonl",
             "pre": "pre/checkpoint.mh", "ft": "ft/checkpoint.mh",
             "metrics": "eval/metrics.json"}
    return {k: hashlib.sha256((root / p).read_bytes()).hexdigest() for k, p in paths.items()}


def value_run(root) -> dict[str, float]:
    heavy = [s for s in build_corpus()
             if sum(a.element != "H" for a in parse_smiles(s).atoms) <= 9][:48]
    _run(root, heavy, 1, [])
    return _values(root)


def digest_run(root) -> dict[str, str]:
    small = [s for s in build_corpus() if parse_smiles(s).n_atoms <= 6][:40]
    _run(root, small, 2, ["--width", "8", "--token-layers", "1", "--geom-rounds", "1",
                          "--n-rbf", "4", "--n-shear", "2", "--head-hidden", "6"])
    return _digests(root)


def test_value_tier(tmp_path):
    got = value_run(tmp_path)
    assert got.keys() == VALUES.keys()
    off = {k: (got[k], v) for k, v in VALUES.items() if abs(got[k] - v) > REL * abs(v)}
    assert not off, off


def test_digest_tier(tmp_path):
    assert digest_run(tmp_path) == DIGESTS
