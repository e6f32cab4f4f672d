"""The three benchmark workloads and their timed loops.

Every workload is a closed loop driven by one caller with no threads: the
next call into molham starts when the previous one has returned. Work is
timed in whole rounds (a training schedule, a round of size-matched pairs, or
a pass over the test molecules) until the time budget is spent. Every
timing is built from medians over repeated samples of each size slot (see
`Samples`).

- `train`: seeded pre-training then masked fine-tuning on 64 small molecules
  (at most 9 heavy atoms), repeated from the same initial model every round.
  Time goes to the tape, encoders, compensation, alignment, head and Adam;
  nothing reaches `spectral` or `oracle`. Inputs repeat, so module caches hit.
- `label`: `gen_dataset` plus `load_split` on pairs of distinct molecules
  drawn at 17 size quantiles of the whole corpus (up to 66 atoms). Time goes
  to `oracle.embed_3d` and the Jacobi solves; no tape is recorded and no
  input repeats.
- `screen`: set-up trains a short model on 16 small molecules of the
  `size-ood` train side; the timed passes run `evaluate`, fused-path
  `gap_predictions` plus `classify_by_gap`, and string-path prediction on 17
  molecules of the test side (more than 23 atoms). It is tape-free inference
  at large n and spends most of its time in `spectral`.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from molham import oracle
from molham.dataset import (SIZE_TEST_ABOVE, SIZE_TRAIN_BELOW, Dataset, SplitConfig,
                            gen_dataset, generate_records, load_split)
from molham.errors import MolhamError
from molham.hamhead import layout
from molham.model import Model, ModelConfig
from molham.screening import classify_by_gap, default_thresholds
from molham.smiles import expand_hydrogens, parse_smiles, tokenize
from molham.spectral import solve_gev
from molham.training import (TrainConfig, evaluate, finetune, gap_predictions, load_checkpoint,
                             pretrain, save_checkpoint)

from .inputs import Mol, corpus_table, describe, pair_rounds, quantile_sample, rng_for
from .layers import TARGETS, cache_entries, layer_metrics
from .tracer import Tracer, traced

SETUP_REPEATS = 5
CHECK_TOL = 1e-8
# Initial weights, batch and mask draws and the oracle's conformer draws stay
# fixed, so the workload seed picks only the molecules: with per-seed weights
# alone, the cost of a training step moved by 15 % between seeds.
FIXED_SEED = 0


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def p90(xs: list[float]) -> float:
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[8]


def file_sha256(*paths: Path) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(p.read_bytes())
    return digest.hexdigest()


class Tally:
    """Operations attempted and failed; a failed output check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class Samples:
    """Timing samples in ms per molecule, by stage and by size slot, and the items processed.

    A slot is one place in the workload's fixed size profile: one molecule on
    `screen`, one size quantile on `label`, the whole schedule on `train`.
    Every round adds one sample to each slot. A stage's per-molecule figure is
    the mean over slots of each slot's median: every size in the profile
    counts, in proportion to its cost, and a slowdown of a single visit does
    not. Tail percentiles are taken over all samples. Stage `item` sums every
    timed stage and yields the gated `ms_per_mol`.
    """

    def __init__(self):
        self.ms: dict[str, dict] = defaultdict(lambda: defaultdict(list))
        self.items = 0

    def add(self, stage: str, slot, ms: float) -> None:
        self.ms[stage][slot].append(ms)

    def profile(self, stage: str) -> float:
        slots = self.ms.get(stage)
        return statistics.fmean(median(v) for v in slots.values()) if slots else 0.0

    def p90(self, stage: str) -> float:
        return p90([x for v in self.ms.get(stage, {}).values() for x in v])

    def counts(self) -> dict[str, int]:
        return {stage: sum(map(len, slots.values())) for stage, slots in self.ms.items()}


def symmetric_finite(a: np.ndarray) -> bool:
    return bool(np.isfinite(a).all() and np.max(np.abs(a - a.T), initial=0.0) <= 1e-12)


class Train:
    name = "train"
    N_MOLS = 64
    BATCH = 8
    PRE_EPOCHS = 1
    FT_EPOCHS = 2
    stages = {"pretrain_ms_per_mol_step": "pretrain", "finetune_ms_per_mol_step": "finetune"}

    def __init__(self, seed: int, table: list[Mol], workdir: Path, tally: Tally):
        self.workdir, self.tally = workdir, tally
        small = [m for m in table if m.heavy <= 9]
        self.mols = quantile_sample(small, self.N_MOLS, rng_for(seed, 1))
        self.visits: list[Mol] = []
        self.first: tuple | None = None
        self.quality: dict[str, float] = {}

    def setup(self) -> None:
        report = generate_records([m.smiles for m in self.mols], FIXED_SEED)
        for skipped in report.skipped:
            self.tally.op(False, f"gen skipped {skipped['smiles']}")
        self.dataset = Dataset(report.records)

    def round(self, samples: Samples) -> bool:
        n = len(self.dataset)
        pre_cfg = TrainConfig(epochs=self.PRE_EPOCHS, batch_size=self.BATCH, seed=FIXED_SEED)
        ft_cfg = TrainConfig(stage="finetune", epochs=self.FT_EPOCHS, batch_size=self.BATCH,
                             seed=FIXED_SEED)
        model = Model.init(ModelConfig(), FIXED_SEED)
        try:
            t0 = time.perf_counter()
            pre_rows, _ = pretrain(model, self.dataset, pre_cfg)
            t1 = time.perf_counter()
            ft_rows, rng_state = finetune(model, self.dataset, ft_cfg)
            t2 = time.perf_counter()
        except MolhamError as err:
            self.tally.op(False, f"training aborted: {err}")
            return True
        samples.add("pretrain", 0, (t1 - t0) * 1000.0 / (self.PRE_EPOCHS * n))
        samples.add("finetune", 0, (t2 - t1) * 1000.0 / (self.FT_EPOCHS * n))
        samples.add("item", 0, (t2 - t0) * 1000.0 / ((self.PRE_EPOCHS + self.FT_EPOCHS) * n))
        samples.items += (self.PRE_EPOCHS + self.FT_EPOCHS) * n
        self.visits.extend(self.mols * (self.PRE_EPOCHS + self.FT_EPOCHS))

        for row in pre_rows + ft_rows:
            self.tally.op(all(np.isfinite(v) for v in row.values()), "finite training loss")
        path = self.workdir / "train.ckpt"
        save_checkpoint(path, model, ft_cfg, rng_state)
        loaded, _, _ = load_checkpoint(path)
        self.tally.op(all(np.array_equal(loaded.params[k], v) for k, v in model.params.items()),
                      "checkpoint round trip")
        last = [r.parts["loss_total"] for r in ft_rows if r.epoch == self.FT_EPOCHS - 1]
        outcome = (file_sha256(path), float(np.mean(last)))
        if self.first is None:
            self.first = outcome
            self.quality = {"finetune_final_loss": outcome[1]}
        else:
            self.tally.op(outcome == self.first, "training repeats bit-for-bit")
        return True

    def finish(self) -> dict:
        return {"inputs": describe(self.visits),
                "checkpoint_sha256": self.first[0] if self.first else None}


class Label:
    name = "label"
    N_QUANTILES = 17
    N_CALIBRATION = 16
    SPECTRAL_CHECK_EVERY = 8
    stages = {"gen_ms_per_mol": "item", "gen_ms_p90": ("item", "p90")}

    def __init__(self, seed: int, table: list[Mol], workdir: Path, tally: Tally):
        self.workdir, self.tally = workdir, tally
        rng = rng_for(seed, 2)
        self.calibration = quantile_sample(table, self.N_CALIBRATION, rng)
        self.rounds = pair_rounds(table, self.N_QUANTILES, rng,
                                  exclude=frozenset(m.smiles for m in self.calibration))
        self.check_rng = rng_for(seed, 5)
        self.pair_config = SplitConfig("random-id", FIXED_SEED, train_fraction=0.5)  # 1 train, 1 test
        self.visits: list[Mol] = []
        self.to_check = []
        self.generated = 0
        self.skipped = 0
        self.first_round: list[tuple[list[str], str]] | None = None
        self.quality: dict[str, float] = {}

    def _gen(self, smiles: list[str], out: Path, config: SplitConfig):
        """gen_dataset then load_split; (train + test records, manifest) or None on a split error."""
        try:
            manifest = gen_dataset(smiles, config, out)
        except MolhamError as err:
            for s in smiles:
                self.tally.op(False, f"gen of {s}: {err}")
            return None
        train, test, _ = load_split(out)
        return train.records + test.records, manifest

    def setup(self) -> None:
        out = self.workdir / "label-calibration"
        got = self._gen([m.smiles for m in self.calibration], out, SplitConfig("random-id", FIXED_SEED))
        if got is not None:
            self.tally.op(got[1]["n_skipped"] == 0, "calibration set generated")

    def round(self, samples: Samples) -> bool:
        pairs = next(self.rounds, None)
        if pairs is None:
            return False
        record_round = self.first_round is None
        if record_round:
            self.first_round = []
        out = self.workdir / "label-pair"
        for quantile, pair in pairs:
            smiles = [m.smiles for m in pair]
            t0 = time.perf_counter()
            got = self._gen(smiles, out, self.pair_config)
            t1 = time.perf_counter()
            if got is None:
                continue
            records, manifest = got
            samples.add("item", quantile, (t1 - t0) * 1000.0 / len(pair))
            samples.items += len(pair)
            self.visits.extend(pair)
            self.generated += manifest["n_generated"]
            self.skipped += manifest["n_skipped"]
            for s in smiles:
                self.tally.op(s in {r.smiles for r in records}, f"gen of {s}")
            for r in records:
                self.tally.op(symmetric_finite(r.h) and symmetric_finite(r.s),
                              f"symmetric finite H and S for {r.smiles}")
            if self.check_rng.random() < 1.0 / self.SPECTRAL_CHECK_EVERY:
                self.to_check.append(records[0])
            if record_round:
                self.first_round.append(
                    (smiles, file_sha256(out / "train.jsonl", out / "test.jsonl",
                                         out / "manifest.json")))
        return True

    def finish(self) -> dict:
        for rec in self.to_check:
            res = solve_gev(rec.h, rec.s, rec.n_electrons)
            c, eps = res.coefficients, res.eigenvalues
            ortho = np.max(np.abs(c.T @ rec.s @ c - np.eye(len(eps))))
            resid = np.max(np.abs(rec.h @ c - rec.s @ c * eps)) / max(1.0, np.max(np.abs(rec.h)))
            self.tally.op(ortho <= CHECK_TOL and resid <= CHECK_TOL
                          and abs(res.gap_ev - rec.gap_ev) <= CHECK_TOL,
                          f"C^T S C = I and H C = S C eps for {rec.smiles}")
        dataset_sha = None
        if self.first_round:
            smiles, sha = self.first_round[0]
            out = self.workdir / "label-repeat"
            if self._gen(smiles, out, self.pair_config):
                self.tally.op(file_sha256(out / "train.jsonl", out / "test.jsonl",
                                          out / "manifest.json") == sha,
                              "dataset repeats for a fixed seed")
            dataset_sha = hashlib.sha256("".join(s for _, s in self.first_round).encode()).hexdigest()
        return {"inputs": describe(self.visits), "dataset_sha256": dataset_sha,
                "spectral_checks": len(self.to_check),
                "skipped_ratio": self.skipped / max(1, self.generated + self.skipped)}


class Screen:
    name = "screen"
    N_TRAIN = 16
    N_TEST = 17
    BATCH = 8
    PRE_EPOCHS = 2
    FT_EPOCHS = 4
    stages = {
        "eval_ms_per_mol": "eval",
        "eval_ms_p90": ("eval", "p90"),
        "screen_ms_per_mol": "screen",
        "predict_ms_per_mol": "predict",
        "predict_ms_p90": ("predict", "p90"),
    }

    def __init__(self, seed: int, table: list[Mol], workdir: Path, tally: Tally):
        self.workdir, self.tally = workdir, tally
        self.train_mols = quantile_sample([m for m in table if m.atoms < SIZE_TRAIN_BELOW],
                                          self.N_TRAIN, rng_for(seed, 3))
        self.test_mols = quantile_sample([m for m in table if m.atoms > SIZE_TEST_ABOVE],
                                         self.N_TEST, rng_for(seed, 4))
        self.by_smiles = {m.smiles: m for m in self.test_mols}
        self.order = rng_for(seed, 6).permutation(self.N_TEST)
        self.visits: list[Mol] = []
        self.first_pass: dict[str, tuple] = {}
        self.quality: dict[str, float] = {}

    def setup(self) -> None:
        out = self.workdir / "screen-data"
        manifest = gen_dataset([m.smiles for m in self.train_mols + self.test_mols],
                               SplitConfig("size-ood", FIXED_SEED), out)
        self.tally.op(manifest["n_skipped"] == 0, "screen data generated")
        train, test, _ = load_split(out)
        model = Model.init(ModelConfig(), FIXED_SEED)
        pretrain(model, train, TrainConfig(epochs=self.PRE_EPOCHS, batch_size=self.BATCH,
                                           seed=FIXED_SEED))
        ft_cfg = TrainConfig(stage="finetune", epochs=self.FT_EPOCHS, batch_size=self.BATCH,
                             seed=FIXED_SEED)
        _, rng_state = finetune(model, train, ft_cfg)
        path = self.workdir / "screen.ckpt"
        save_checkpoint(path, model, ft_cfg, rng_state)
        self.model, _, _ = load_checkpoint(path)
        self.test = [test.records[i] for i in self.order if i < len(test.records)]

    def round(self, samples: Samples) -> bool:
        model, thresholds = self.model, default_thresholds()
        leaves = model.leaves(None)
        embeds = oracle.EMBED_CALLS
        for rec in self.test:
            string_ds, fused_ds = Dataset([rec]), Dataset([rec])
            t0 = time.perf_counter()
            ev = evaluate(model, string_ds)
            t1 = time.perf_counter()
            pred, true = gap_predictions(model, fused_ds, fusion=True)
            rows = classify_by_gap(pred, true, thresholds)
            t2 = time.perf_counter()
            xmol = expand_hydrogens(parse_smiles(rec.smiles))
            h = model.hamiltonian_from_tokens(leaves, tokenize(rec.smiles), xmol,
                                              layout(xmol.elements)).data
            t3 = time.perf_counter()
            for stage, ms in (("eval", t1 - t0), ("screen", t2 - t1), ("predict", t3 - t2),
                              ("item", t3 - t0)):
                samples.add(stage, rec.smiles, ms * 1000.0)
            samples.items += 1
            self.visits.append(self.by_smiles[rec.smiles])

            values = (ev["mae_all"], ev["psi_occ"], ev["mae_eps_occ"], float(pred[0]))
            self.tally.op(string_ds.coords_reads == 0, "string-path eval reads no coordinates")
            self.tally.op(all(np.isfinite(values)), f"finite metrics for {rec.smiles}")
            self.tally.op(all(r.tp + r.fp + r.tn + r.fn == 1 for r in rows), "classified once")
            self.tally.op(h.shape == rec.h.shape and symmetric_finite(h),
                          f"string-path H for {rec.smiles}")
            first = self.first_pass.setdefault(rec.smiles, values)
            self.tally.op(first == values, f"inference repeats for {rec.smiles}")
        self.tally.op(oracle.EMBED_CALLS == embeds, "no coordinate generation while screening")
        if not self.quality:
            firsts = list(self.first_pass.values())
            self.quality = {"eval_mae_all": float(np.mean([v[0] for v in firsts])),
                            "eval_psi_occ": float(np.mean([v[1] for v in firsts]))}
        return True

    def finish(self) -> dict:
        return {"inputs": describe(self.visits),
                "train_inputs": describe(self.train_mols)}


WORKLOADS = {w.name: w for w in (Train, Label, Screen)}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ms_per_mol": "ms"}

STAGE_METRICS = {
    "pretrain_ms_per_mol_step": "ms", "finetune_ms_per_mol_step": "ms",
    "gen_ms_per_mol": "ms", "gen_ms_p90": "ms",
    "eval_ms_per_mol": "ms", "eval_ms_p90": "ms", "screen_ms_per_mol": "ms",
    "predict_ms_per_mol": "ms", "predict_ms_p90": "ms",
    "finetune_final_loss": "hartree", "eval_mae_all": "hartree", "eval_psi_occ": "ratio",
    "failed_frac": "ratio",
}


def measure(wl, seconds: float, tracer: Tracer | None = None) -> tuple[Samples, Samples, float]:
    """Run whole rounds for about `seconds` (at least one round).

    With a tracer, untraced and traced rounds alternate, so both sides meet the
    same machine conditions. Returns (untraced samples, traced samples,
    traced wall seconds).
    """
    # No collection between rounds: the tapes' reference cycles then meet the
    # collector at a different phase each round, as in a long training run, and
    # the peak RSS reads the worst phase instead of the one a seed happens to
    # fix (forcing a collection per round split `train` into 205 and 245 MB
    # modes by seed).
    plain, spanned, traced_wall = Samples(), Samples(), 0.0
    end = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if wl.round(plain) is False:
            break
        if tracer is not None:
            t0 = time.perf_counter()
            with traced(tracer, TARGETS):
                more = wl.round(spanned)
            traced_wall += time.perf_counter() - t0
            if more is False:
                break
        now = time.perf_counter()
        if now + (now - start) / 2 >= end:  # stop within half a round of `seconds`
            break
    return plain, spanned, traced_wall


def stage_values(wl, samples: Samples, tally: Tally) -> dict[str, float]:
    """The workload's own stage timings, its quality guards and the failed share."""
    out = {}
    for name, spec in wl.stages.items():
        key, stat = spec if isinstance(spec, tuple) else (spec, "profile")
        out[name] = samples.p90(key) if stat == "p90" else samples.profile(key)
    out.update(wl.quality)
    out["failed_frac"] = tally.failed / max(1, tally.attempted)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One workload run; returns the full result record (metrics plus details)."""
    tally = Tally()
    workdir = out_dir / f"tmp-{workload}-{seed}-{trace:d}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](seed, corpus_table(), workdir, tally)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # tapes hold reference cycles; every set-up starts alike
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        gc.collect()

        details: dict = {"setup_samples_s": setup_s}
        tracer = Tracer() if trace else None
        samples, traced_samples, traced_wall = measure(wl, seconds, tracer)
        if not trace:
            metrics = {
                "setup_s": median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ms_per_mol": samples.profile("item"),
            }
        else:
            metrics, summary = layer_metrics(tracer, traced_wall, traced_samples.items)
            untraced = samples.profile("item")
            metrics["trace.overhead"] = (traced_samples.profile("item") / untraced - 1.0
                                         if untraced else 0.0)
            tracer.write(out_dir / f"{workload}-seed{seed}-spans.jsonl")
            # a target that no longer exists would read as a layer cost of 0
            for target in tracer.missing:
                tally.op(False, f"trace target missing: {target}")
            details.update({"spans": len(tracer.spans), "traced_wall_s": traced_wall,
                            "traced_items": traced_samples.items, "missing_targets": tracer.missing,
                            "span_summary": summary, "cache_entries": cache_entries()})
        details.update(wl.finish())
        stages = stage_values(wl, samples, tally)
        if trace:
            metrics["dataset.skipped_ratio"] = details.get("skipped_ratio", 0.0)
            metrics.update({name: stages.get(name, 0.0) for name in STAGE_METRICS})
        details.update({
            "stages": stages,
            "sample_counts": samples.counts(),
            "items": samples.items,
            "failures": tally.failures,
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "details": details}
