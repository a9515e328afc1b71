"""One pass of one benchmark workload, in a process of its own.

Run by `run.py` with the BLAS thread count already fixed in the
environment; prints one JSON line with the pass's metrics, correctness
counts and facts about the process. Each solution is one closed loop: a
fresh setup, then every step to `t_end` (or the fixed solve count), each
starting when the previous one ends.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
import scipy

import hpstep
import hpstep.solver
from hpstep.mesh import build_mesh
from hpstep.operators import laplace_operator
from hpstep.problems import PROBLEMS, make_stepper

from tracing import Tracer, layer_metrics, trace_factorization, trace_stepper, traced_setup


@dataclass(frozen=True)
class Stepping:
    """A shipped transient case stepped from its initial data to `t_end`."""

    problem: str
    n: int
    p: int
    order: int
    formulation: str
    steps: int
    max_error: float | None = None  # against the exact solution at the last step
    max_growth: float | None = None  # peak |u| over the run / initial peak
    extra_setups: int = 0  # setup-only repetitions for the setup_s median

    def inputs(self, seed: int):
        return None  # shipped initial data; the seed is only recorded

    def setup(self, inputs):
        case = PROBLEMS[self.problem](n=self.n, p=self.p)
        t0 = time.perf_counter()
        stepper = make_stepper(
            case, case.t_end / self.steps, order=self.order, formulation=self.formulation
        )
        return case, stepper, time.perf_counter() - t0

    def solves_per_unit(self, case, stepper) -> int:
        counter = Tracer()
        trace_factorization(counter, stepper.fact)
        stepper.step(0.0, case.u0)
        return counter.calls("solver.solve")

    def solve(self, case, stepper, units, tracer):
        if tracer is not None:
            trace_stepper(tracer, stepper)
        u = case.u0
        peak0 = peak = float(np.abs(u).max())
        times = []
        for i in range(units):
            t0 = time.perf_counter()
            u = stepper.step(i * stepper.dt, u)
            times.append(time.perf_counter() - t0)
            if self.max_growth is not None:
                peak = max(peak, float(np.abs(u).max()))
        checks = {"finite": bool(np.isfinite(u).all())}
        ok = checks["finite"]
        if self.max_growth is not None:
            checks["growth"] = peak / peak0
            ok = ok and checks["growth"] <= self.max_growth
        if self.max_error is not None:
            t = units * stepper.dt
            checks["error"] = float(np.abs(u - case.exact(t, case.mesh.x, case.mesh.y)).max())
            ok = ok and checks["error"] <= self.max_error
        return times, [ok], hashlib.sha256(u.tobytes()).hexdigest(), checks


@dataclass(frozen=True)
class Poisson:
    """Factor the shifted Laplacian u - lap(u) on the unit square once,
    then solve against seeded manufactured solutions, one right-hand side
    per call."""

    n: int
    p: int
    steps: int  # solves per solution
    max_error: float = 1e-9
    pool: int = 8
    extra_setups: int = 3

    def inputs(self, seed: int):
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), self.n, self.n, p=self.p)
        rng = np.random.default_rng(seed)
        data = []
        for _ in range(self.pool):
            kx, ky = rng.uniform(1.0, 4.0, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            exact = np.sin(kx * mesh.x + ky * mesh.y + phase)
            data.append((exact, (1.0 + kx**2 + ky**2) * exact))
        return mesh, data

    def setup(self, inputs):
        mesh, _ = inputs
        op = laplace_operator().shifted(1.0, 1.0)
        t0 = time.perf_counter()
        fact = hpstep.solver.build_factorization(mesh, op)
        return inputs, fact, time.perf_counter() - t0

    def solves_per_unit(self, inputs, fact) -> int:
        return 1

    def solve(self, inputs, fact, units, tracer):
        if tracer is not None:
            trace_factorization(tracer, fact)
        _, data = inputs
        times, oks, errors = [], [], []
        digest = hashlib.sha256()
        for i in range(units):
            exact, load = data[i % len(data)]
            g = exact[fact.gamma_ids]
            t0 = time.perf_counter()
            u = fact.solve(load, g)
            times.append(time.perf_counter() - t0)
            errors.append(float(np.abs(u - exact).max()))
            oks.append(errors[-1] <= self.max_error)
            digest.update(u.tobytes())
        return times, oks, digest.hexdigest(), {"max_error": max(errors)}


WORKLOADS = {
    "swirl": Stepping(
        "burgers-rotating", 8, 12, 5, "stages", 80, max_growth=1.05, extra_setups=36
    ),
    "oscillator": Stepping("schrodinger-harmonic", 16, 12, 3, "slopes", 40, max_error=1e-3),
    "poisson": Poisson(32, 8, 32),
}


def run_solution(work, inputs, units, tracer=None) -> dict:
    """One setup plus `units` steps or solves, closed loop."""
    gc.collect()
    with traced_setup(tracer) if tracer is not None else nullcontext():
        obj, solver, setup_s = work.setup(inputs)
    times, oks, digest, checks = work.solve(obj, solver, units, tracer)
    return {
        "setup_s": setup_s,
        "unit_s": times,
        "time_to_solution_s": setup_s + sum(times),
        "oks": oks,
        "digest": digest,
        "checks": checks,
    }


def blas_facts() -> dict:
    """Build and effective thread count of every OpenBLAS in the process."""
    libs = sorted(
        {line.split()[-1] for line in open("/proc/self/maps") if "openblas" in line and ".so" in line}
    )
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                found[os.path.basename(path)] = {
                    "config": config().decode(),
                    "threads": int(threads()),
                }
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-steps", type=int, default=None)
    args = ap.parse_args(argv)

    want = int(os.environ["OPENBLAS_NUM_THREADS"])
    blas = blas_facts()
    if not blas or any(b["threads"] != want for b in blas.values()):
        print(f"BLAS thread count is not pinned to {want}: {blas}", file=sys.stderr)
        return 3

    work = WORKLOADS[args.workload]
    units = work.steps if args.max_steps is None else min(work.steps, args.max_steps)
    inputs = work.inputs(args.seed)

    # the first build in the process pays lazy initialization
    obj, solver, first_build_s = work.setup(inputs)
    solves_per_unit = work.solves_per_unit(obj, solver)
    del obj, solver

    setups = []
    for _ in range(0 if args.trace else work.extra_setups):
        gc.collect()
        setups.append(work.setup(inputs)[2])

    solutions, ratios, digests_match = [], [], []
    tracer = Tracer() if args.trace else None
    traced = []
    deadline = time.perf_counter() + args.seconds
    while True:
        solutions.append(run_solution(work, inputs, units))
        if tracer is not None:
            traced.append(run_solution(work, inputs, units, tracer))
            ratios.append(traced[-1]["time_to_solution_s"] / solutions[-1]["time_to_solution_s"])
            digests_match.append(traced[-1]["digest"] == solutions[-1]["digest"])
        if time.perf_counter() >= deadline:
            break

    setups += [s["setup_s"] for s in solutions]
    oks = [ok for s in solutions + traced for ok in s["oks"]] + digests_match
    unit_s = [t for s in solutions for t in s["unit_s"]]
    steps_per_s = len(unit_s) / sum(unit_s)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "steps_per_s": steps_per_s,
            "solves_per_s": steps_per_s * solves_per_unit,
            "time_to_solution_s": statistics.median(s["time_to_solution_s"] for s in solutions),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
    print(json.dumps({
        "workload": args.workload,
        "attempted": len(oks),
        "failed": oks.count(False),
        "metrics": metrics,
        "info": {
            "blas_threads": want,
            "blas": blas,
            "first_build_s": first_build_s,
            "solutions": len(solutions),
            "units_per_solution": units,
            "solves_per_unit": solves_per_unit,
            "unit_ms_p50": 1e3 * float(np.percentile(unit_s, 50)),
            "unit_ms_p90": 1e3 * float(np.percentile(unit_s, 90)),
            "setup_s_all": setups,
            "checks": [s["checks"] for s in solutions + traced],
            "traced_equals_untraced": digests_match,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "hpstep": hpstep.__version__,
            },
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
