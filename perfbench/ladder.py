"""Informational size ladder beside the seed figures in ROADMAP.md.

    python3 perfbench/ladder.py [--blas-threads N]

Runs from the root of a source checkout and prints a markdown table.
The BLAS thread count (default: the number of usable cores, as in the
benchmark's workload pass) is fixed before numpy is imported. Calls
`hpstep.studies.complexity_study` from outside for the p=8 ladder
(4/8/16/32 panels) and for 16x16 and 24x24 at p=16, times the
constant-coefficient 16x16 p=12 build, and times swirl steps. Solves are
warm; each ladder size is built once, so its build time is one sample.
"""
from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--blas-threads", type=int, default=len(os.sched_getaffinity(0)))
    args = ap.parse_args()
    os.environ["OPENBLAS_NUM_THREADS"] = str(args.blas_threads)
    sys.path.insert(0, str(ROOT / "src"))

    from hpstep.mesh import build_mesh
    from hpstep.operators import laplace_operator
    from hpstep.problems import PROBLEMS, make_stepper
    from hpstep.solver import build_factorization
    from hpstep.studies import complexity_study

    rows = []
    complexity_study(panel_counts=(4, 8), p=8)  # lazy initialization
    seed_figures = {(32, 8): "68 ms solve", (24, 16): "75 ms solve"}
    for panels, p in (((4, 8, 16, 32), 8), ((16, 24), 16)):
        ladder = complexity_study(panel_counts=panels, p=p)
        for n, size, build, solve in zip(
            panels, ladder["n_nodes"], ladder["build_seconds"], ladder["solve_seconds"]
        ):
            rows.append((
                f"{n}x{n} p={p} (N={size})",
                f"{build:.3f} s",
                f"{1e3 * solve:.1f} ms",
                seed_figures.get((n, p), ""),
            ))
        if p == 8:
            exponents = (ladder["build_exponent"], ladder["solve_exponent"])

    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 16, 16, p=12)
    op = laplace_operator().shifted(1.0, 1.0)
    builds = []
    for _ in range(4):
        t0 = time.perf_counter()
        build_factorization(mesh, op)
        builds.append(time.perf_counter() - t0)
    rows.append((
        f"16x16 p=12 constant-coefficient build (N={mesh.n_nodes})",
        f"{statistics.median(builds[1:]):.3f} s (median of 3)",
        "",
        "0.44 s build",
    ))

    case = PROBLEMS["burgers-rotating"](n=8, p=12)
    stepper = make_stepper(case, 1.0 / 80, order=5, formulation="stages")
    u, steps = case.u0, []
    for i in range(20):
        t0 = time.perf_counter()
        u = stepper.step(i * stepper.dt, u)
        steps.append(time.perf_counter() - t0)
    rows.append((
        "burgers-rotating 8x8 p=12 ARK5 step",
        "",
        f"{1e3 * statistics.median(steps):.1f} ms (median of 20)",
        "66 ms step",
    ))

    print(f"BLAS threads: {args.blas_threads}\n")
    print("| size | build | solve or step | ROADMAP seed figure |")
    print("| --- | --- | --- | --- |")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print(f"\np=8 fitted exponents: build {exponents[0]:.2f}, solve {exponents[1]:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
