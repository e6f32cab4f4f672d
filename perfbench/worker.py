"""One workload in one process; started by `perfbench/run.py`, which pins the BLAS threads.

Prints a readable table, writes the full result record under `.bench_out/`
of the checkout, and ends with the one-line JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def environment(seed: int) -> dict:
    """Machine, interpreter, numpy/BLAS and source revision of this run."""
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import molham
    if not Path(molham.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"molham was imported from {molham.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    from perfbench.layers import UNITS as LAYER_UNITS
    from perfbench.workloads import END_TO_END, STAGE_METRICS, WORKLOADS, run
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT_DIR.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    result["details"]["environment"] = environment(args.seed)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, default=float) + "\n")

    details = result["details"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    print("inputs " + json.dumps(details["inputs"]))
    print("environment " + json.dumps(details["environment"]))
    print("samples " + json.dumps(details["sample_counts"]))
    for name, value in details["stages"].items():
        if name not in result["metrics"]:
            print(f"  {name:<32} {value:>14.6g} {STAGE_METRICS[name]}")
    units = {**END_TO_END, **STAGE_METRICS, **LAYER_UNITS}
    metrics = {}
    for name, value in result["metrics"].items():
        unit = units[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>14.6g} {unit}")
    if result["failed"]:
        print("failures " + json.dumps(details["failures"]))
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
