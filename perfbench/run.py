"""hpstep benchmark entry point.

    python3 perfbench/run.py --workload {swirl,oscillator,poisson} \
        --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout. The workload pass runs in a
process of its own with the BLAS thread count pinned to the number of
usable cores (the OpenBLAS default). With `--trace 1` a short traced
reference pass follows with one BLAS thread, for information. Every
result is checked. Output: one JSON line of facts (environment, load,
informational timings, the reference pass), then, as the last line, the
result

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

holding the end-to-end metrics of BENCHMARK.json, or its per-layer
metrics with `--trace 1`. Exits nonzero without a result line when a
pass fails to run.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_STEPS = 8
TIME_LIMIT_S = 170.0


def loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except FileNotFoundError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_pass(args, threads: int, seconds: float, deadline: float, max_steps=None) -> dict:
    """One worker process; its last stdout line is its report."""
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
    ]
    if max_steps is not None:
        cmd += ["--max-steps", str(max_steps)]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} pass with {threads} BLAS threads exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("swirl", "oscillator", "poisson"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    load_before = loadavg()
    try:
        passes = [run_pass(args, nproc, args.seconds, deadline)]
        if args.trace:
            passes.append(run_pass(args, 1, 0, deadline, max_steps=REFERENCE_STEPS))
        main_pass = passes[0]
        metrics = {m["name"]: {"value": main_pass["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "git_commit": git_commit(),
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "main": main_pass["info"],
        "reference_1_blas_thread": passes[1] if args.trace else None,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
