"""The final fields of the benchmark workloads and of every shipped case:
their SHA-256 and max|u|, and, against another revision, how far each moved.

    python scripts/numbers.py                          # writes numbers.json
    python scripts/numbers.py --against HEAD~          # identical, or max|d|/max|u|
    python scripts/numbers.py --case heat1d-bc-slopes --out /tmp/numbers.json

Every side runs in its own process at one BLAS thread, importing `hpstep`
from a source tree (this checkout's `src` by default). `--against REV`
exports REV with `git archive` into a temporary directory and runs the
same cases there, so a revision without this script can be measured too.
The exit status is 1 when a field differs in shape or dtype, or drifts by
more than MAX_DRIFT (1e-13) of its max|u|.

Cases, each the last field of its run:
    swirl                    burgers-rotating 8x8 p=12, ARK5 stages, 80 steps to t=1
    oscillator               schrodinger-harmonic 16x16 p=12, ARK3 slopes, 40 steps
    poisson-1 .. -4          u - lap(u) = f on 32x32 p=8, seeds 1-4 as in perfbench,
                             the 8 solves of each seed stacked
    heat1d-bc-slopes         heat1d-bc at its defaults (dt=0.1, 20 steps, ARK3)
    heat1d-bc-stages         the same in the stages formulation
    heat1d-kink-corrected    heat1d-kink at its defaults, dt=0.1, 100 steps, as in
                             criterion 3 of `hpstep.studies.CLAIMS`
    heat1d-kink-uncorrected  the same without the derivative-jump penalty
    schrodinger-asymmetric   schrodinger-asymmetric at its defaults, 25 steps to t=1
    general-sampled          u - lap(u) + (1 + x^2 + y^2) u = f on 16x16 p=8, the general
                             leaf form with a sampled coefficient: seeds 1-4's random
                             loads and boundary data solved as one stack of four rows
    burgers-cross            burgers-cross 8x8 p=12 at its dt=1/80, 3 steps (max|u| 13.8
                             from 6.96); its 4th step reaches 5.6e7, its 5th is not finite
    tableau-q3 .. -q5        the float arrays A_im, A_ex, b and c of each order's pair,
                             concatenated; no other case steps the order-4 pair
"""
from __future__ import annotations

import os
import sys

# this file's name would shadow the standard `numbers` module, which numpy imports
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or os.curdir) != _HERE]

import argparse  # noqa: E402 (after the path fix)
import hashlib
import json
import subprocess
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MAX_DRIFT = 1e-13
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _stepped(problem, n, p, order, formulation, steps=None, *, dt=None, corrected=True):
    """`steps` steps of `dt`, by default steps of the case's dt to its t_end."""

    def run():
        from hpstep.problems import PROBLEMS, make_stepper

        case = PROBLEMS[problem](n=n, p=p)
        count = steps if steps is not None else round(case.t_end / case.dt)
        st = make_stepper(
            case, dt or case.t_end / count,
            order=order, formulation=formulation, corrected=corrected,
        )
        return st.run(0.0, case.u0, count)

    return run


def _poisson(seed, n=32, p=8, solves=8):
    def run():
        from hpstep.mesh import build_mesh
        from hpstep.operators import laplace_operator
        from hpstep.solver import build_factorization

        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), n, n, p=p)
        fact = build_factorization(mesh, laplace_operator().shifted(1.0, 1.0))
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(solves):
            kx, ky = rng.uniform(1.0, 4.0, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            exact = np.sin(kx * mesh.x + ky * mesh.y + phase)
            out.append(fact.solve((1.0 + kx**2 + ky**2) * exact, exact[fact.gamma_ids]))
        return np.stack(out)

    return run


def _general_sampled(n=16, p=8, seeds=(1, 2, 3, 4)):
    def run():
        from hpstep.mesh import build_mesh
        from hpstep.operators import EllipticOperator
        from hpstep.solver import build_factorization

        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), n, n, p=p)
        op = EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: 1.0 + x**2 + y**2)
        fact = build_factorization(mesh, op.shifted(1.0, 1.0))
        rngs = [np.random.default_rng(seed) for seed in seeds]
        load = np.stack([rng.standard_normal(mesh.n_nodes) for rng in rngs])
        dirichlet = np.stack([rng.standard_normal(fact.gamma_ids.size) for rng in rngs])
        return fact.solve(load, dirichlet)

    return run


def _tableau(order):
    def run():
        from hpstep.tableaus import load_tableau

        tab = load_tableau(order)
        return np.concatenate([tab.A_im.ravel(), tab.A_ex.ravel(), tab.b, tab.c])

    return run


CASES = {
    "swirl": _stepped("burgers-rotating", 8, 12, 5, "stages", 80),
    "oscillator": _stepped("schrodinger-harmonic", 16, 12, 3, "slopes", 40),
    **{f"poisson-{seed}": _poisson(seed) for seed in range(1, 5)},
    "heat1d-bc-slopes": _stepped("heat1d-bc", 3, 20, 3, "slopes"),
    "heat1d-bc-stages": _stepped("heat1d-bc", 3, 20, 3, "stages"),
    "heat1d-kink-corrected": _stepped("heat1d-kink", 2, 9, 3, "slopes", 100),
    "heat1d-kink-uncorrected": _stepped("heat1d-kink", 2, 9, 3, "slopes", 100, corrected=False),
    "schrodinger-asymmetric": _stepped("schrodinger-asymmetric", 8, 8, 3, "stages", 25),
    "general-sampled": _general_sampled(),
    "burgers-cross": _stepped("burgers-cross", 8, 12, 5, "stages", 3, dt=1.0 / 80),
    **{f"tableau-q{order}": _tableau(order) for order in (3, 4, 5)},
}


def fields(src: Path, cases: list[str]) -> dict[str, np.ndarray]:
    """Run the cases in a fresh one-thread process importing hpstep from src."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.npz"
        cmd = [sys.executable, __file__, "--src", str(src), "--fields", str(path), "--case", *cases]
        subprocess.run(cmd, check=True, env={**os.environ, **ONE_THREAD})
        with np.load(path) as saved:
            return {name: saved[name] for name in cases}


def summary(u: np.ndarray) -> dict:
    return {
        "sha256": hashlib.sha256(np.ascontiguousarray(u).tobytes()).hexdigest(),
        "max_abs": float(np.abs(u).max()),
        "shape": list(u.shape),
        "dtype": str(u.dtype),
    }


def drift(new: np.ndarray, old: np.ndarray) -> float | None:
    """max|new - old| / max|old|; 0.0 when the bytes agree, None when the
    shapes or dtypes differ."""
    if new.shape != old.shape or new.dtype != old.dtype:
        return None
    if new.tobytes() == old.tobytes():
        return 0.0
    return float(np.abs(new - old).max() / np.abs(old).max())


def describe(d: float | None) -> str:
    if d is None:
        return "differs in shape or dtype"
    return "identical" if d == 0.0 else f"{d:.3g} of max|u|"


def export(rev: str, into: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--case", nargs="+", choices=list(CASES), default=list(CASES))
    ap.add_argument("--out", type=Path, default=Path("numbers.json"))
    ap.add_argument("--against", metavar="REV", help="git revision to compare with")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    ap.add_argument("--fields", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.fields is not None:  # the measuring process
        sys.path.insert(0, str(args.src.resolve()))
        np.savez(args.fields, **{name: CASES[name]() for name in args.case})
        return 0

    new = fields(args.src, args.case)
    record = {"blas_threads": 1, "cases": {name: summary(u) for name, u in new.items()}}
    if args.against is None:
        for name, case in record["cases"].items():
            print(f"{name:24s} {case['sha256'][:16]}  max|u| {case['max_abs']:.6g}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            old = fields(export(args.against, Path(tmp)), args.case)
        record["against"] = args.against
        for name in args.case:
            d = drift(new[name], old[name])
            record["cases"][name]["drift"] = d
            print(f"{name:24s} {describe(d)}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    drifts = [c["drift"] for c in record["cases"].values() if "drift" in c]
    return 1 if any(d is None or d > MAX_DRIFT for d in drifts) else 0


if __name__ == "__main__":
    sys.exit(main())
