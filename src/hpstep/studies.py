"""Experiment drivers shared by the command line and the acceptance tests.

Each study builds its own cases, runs them and returns plain data
(series of errors with fitted rates, tables, timings); serialization is
left to the caller. Every convergence study, and every `hpstep sweep`,
is one call to `resolution_series`, which runs a refinement ladder and
measures it against the exact solution, the finest mesh or one extra
halving of the step; `extrapolation_table` serves both step-doubling
extrapolations.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import fit_rate, max_error, richardson, richardson_errors
from .mesh import build_mesh
from .operators import laplace_operator, scatter_mean
from .problems import (
    TransientCase,
    burgers_rotating,
    decaying_sine_case,
    heat_cosine,
    heat_kink,
    make_stepper,
    resolution_step_count,
    schrodinger_asymmetric,
    schrodinger_harmonic,
)
from .oracle import OracleCompleter
from .solver import build_factorization
from .stepping import Evolution, ImexStepper


@dataclass
class Series:
    """One error-versus-resolution curve."""

    label: str
    axis: str
    values: list
    errors: list
    rate: float | None = None


def fit_series(label, axis, values, errors, *, strict=True) -> Series:
    """A `Series` whose rate is fitted over the points that carry an error.

    A series that cannot be fitted (fewer than two such points, or fewer
    than two above the rounding floor) raises, unless `strict` is false:
    then it keeps `rate=None`.
    """
    kept = [(v, e) for v, e in zip(values, errors) if e is not None]
    try:
        rate = fit_rate(*np.array(kept, dtype=float).reshape(-1, 2).T)
    except ValueError:
        if strict:
            raise
        rate = None
    return Series(label, axis, list(values), list(errors), rate)


def advance(case: TransientCase, count: int, **stepper_kw):
    """`case` and its field after `count` equal steps to `case.t_end`."""
    st = make_stepper(case, case.t_end / count, **stepper_kw)
    return case, st.run(0.0, case.u0, count)


def resolution_series(
    label, axis, values, run, reference="exact", *,
    reference_run=None, strict=True,
) -> Series:
    """Run `run(value)` for every value of a refinement ladder and measure
    each final field against one reference; see `fit_series` for the fit.

    `run` returns `(case, u)`, the case it built and its field at
    `case.t_end`, as `advance` does. `reference` is one of
    - "exact": the case's known solution at `case.t_end`;
    - "finest": a finer run on another mesh, through
      `max_error(reference=...)`. It is the last value's own run, which
      then carries no error, unless `reference_run` gives one from outside
      the ladder;
    - "halving": `run(2 * values[-1])`, the same mesh after one extra
      halving of the step, subtracted directly.
    """
    if reference not in ("exact", "finest", "halving"):
        raise ValueError(f"unknown reference kind {reference!r}")
    values = measured = list(values)
    if reference == "finest" and reference_run is None:
        *measured, finest = values
        reference_run = run(finest)
    elif reference == "halving":
        reference_run = run(2 * values[-1])
    errors = [_error(*run(v), reference, reference_run) for v in measured]
    errors += [None] * (len(values) - len(measured))
    return fit_series(label, axis, values, errors, strict=strict)


def _error(case, u, reference, reference_run) -> float:
    """Max-norm error of one run's field against the series' reference."""
    if reference == "exact":
        return max_error(u, case.mesh, exact=case.exact, t=case.t_end)
    ref_case, ref_u = reference_run
    if reference == "finest":
        return max_error(u, case.mesh, reference=(ref_case.mesh, ref_u))
    return float(np.abs(u - ref_u).max())


def extrapolation_table(
    case: TransientCase, counts, order: int, formulation: str | None = None
) -> list[list[float]]:
    """Errors of the step-doubling extrapolation table against the exact
    solution at `case.t_end`.

    `counts` must double from one entry to the next. Row i holds the errors
    of R[i][0..i]: column 0 is the raw run with `counts[i]` steps, and each
    further column cancels one more term of the time-error expansion.
    """
    finals = [advance(case, c, order=order, formulation=formulation)[1] for c in counts]
    exact = case.exact(case.t_end, case.mesh.x, case.mesh.y)
    return richardson_errors(richardson(finals, order), exact)


# -- time-order studies on the space-uniform diffusion case --------------


def order_study(
    orders=(3, 4, 5),
    step_counts=(5, 10, 20, 40, 80, 160),
    formulation: str = "slopes",
    *,
    n: int = 8,
    p: int = 16,
    single_step: bool = False,
) -> list[Series]:
    """Observed time orders on the problem with solution cos(t).

    Global errors integrate to t_end; with `single_step` the error after
    one step of size t_end / count is measured instead, which exposes the
    local accuracy.
    """
    case = heat_cosine(n=n, p=p)
    kind = "step" if single_step else "global"

    def run(count, q):
        if single_step:  # one step of size t_end / count
            short = replace(case, t_end=case.t_end / count)
            return advance(short, 1, order=q, formulation=formulation)
        return advance(case, count, order=q, formulation=formulation)

    return [
        resolution_series(
            f"{formulation}-q{q}-{kind}", "steps", step_counts,
            lambda count, q=q: run(count, q),
        )
        for q in orders
    ]


def richardson_study(
    levels: int = 5,
    base_steps: int = 10,
    *,
    n: int = 10,
    p: int = 12,
    half: float = 6.0,
) -> dict:
    """Step-doubling extrapolation of the oscillator run in time.

    The mesh is fixed and fine enough that the spatial error sits below
    1e-8, so the extrapolation table exposes the time-error expansion
    until it reaches that floor.
    """
    case = schrodinger_harmonic(n=n, p=p, half=half)
    counts = [base_steps * 2**i for i in range(levels)]
    errs = extrapolation_table(case, counts, case.order, "slopes")
    return {
        "order": case.order,
        "step_counts": counts,
        "errors": errs,
        "raw": [row[0] for row in errs],
        "diagonal": [row[-1] for row in errs],
    }


# -- spatial sweeps ------------------------------------------------------


def harmonic_resolution_sweep(
    p: int,
    panel_counts=(16, 24, 32),
    formulations=("stages", "slopes"),
) -> dict:
    """Error at one revolution of the oscillator phase versus panel count.

    The step size follows the resolution rule of the case, so the time
    error shrinks with the spatial one; each mesh runs under every
    requested formulation and `best` takes the smaller error per mesh.
    """

    def run(n_panels, form):
        case = schrodinger_harmonic(n=n_panels, p=p)
        return advance(case, resolution_step_count(case, case.order), formulation=form)

    per_form = {
        form: resolution_series(
            f"p{p}-{form}", "panels", panel_counts,
            lambda n_panels, form=form: run(n_panels, form),
        )
        for form in formulations
    }
    best_errors = [min(errs) for errs in zip(*(s.errors for s in per_form.values()))]
    best = fit_series(f"p{p}-best", "panels", panel_counts, best_errors)
    return {"per_form": per_form, "best": best}


def asymmetric_self_convergence(
    panel_counts=(2, 4, 8, 16),
    p: int = 8,
    reference=(16, 10),
    order: int = 5,
    n_steps: int = 25,
    t_end: float | None = None,
) -> Series:
    """Cross-mesh convergence for the tilted-well oscillator.

    All runs share the step count, so the common time error largely
    cancels and the differences against the fine reference are spatial.
    `t_end` overrides the case's final time (the longer canonical run
    lives in the full-scale script).
    """

    def run(n_panels, q=p):
        case = schrodinger_asymmetric(n=n_panels, p=q)
        if t_end is not None:
            case.t_end = t_end
        return advance(case, n_steps, order=order)

    return resolution_series(
        f"asymmetric-p{p}", "panels", panel_counts, run, "finest",
        reference_run=run(*reference),
    )


# -- kink and interface-treatment studies --------------------------------


def kink_study(dt: float = 0.1, t_end: float = 10.0) -> dict:
    """Corrected versus uncorrected treatment of a derivative kink."""
    out = {}
    for corrected in (True, False):
        case = heat_kink()
        st = make_stepper(case, dt, corrected=corrected)
        u = st.run(0.0, case.u0, round(t_end / dt))
        out["corrected" if corrected else "uncorrected"] = {
            "final_max": float(np.abs(u).max()),
            "drift_from_start": float(np.abs(u - case.u0).max()),
        }
    return out


class AveragedSlopeStepper(ImexStepper):
    """Slope stepper whose first-stage rate takes one-sided means of the
    operator values on the interfaces instead of derivative continuity.
    It is kept only to show the instability that continuity avoids, on a
    1D mesh: 2D edge values would read the zero leaf corners."""

    def __init__(self, evo: Evolution, *args, **kwargs):
        if evo.mesh.dim != 1:
            raise ValueError("AveragedSlopeStepper needs a 1D mesh")
        super().__init__(evo, *args, **kwargs)

    def _first_slope(self, t: float, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        evo = self.evo
        k1 = evo.lam * scatter_mean(evo.mesh, self.applier.leaf_values(u))
        f = self._forcing_field(t)
        k1 = k1 if f is None else k1 + f
        k1[..., self._gids] = g
        return k1


def averaged_instability(n: int = 8, p: int = 16, max_steps: int = 500) -> dict:
    """Noise injection of the averaged first-stage interface treatment.

    On decaying sine data the continuity-enforced first stage lets the
    field relax to roundoff, while one-sided averaging (the "averaged"
    run of `AveragedSlopeStepper`) keeps feeding a marginal interface
    mode whose noise floor sits orders of magnitude higher; the end-norm
    ratio records the separation. Runs take steps of 0.1 and stop early
    if a norm passes 1e6. The tridiagonal route is checked on the way
    against a stepper whose `completer` is the dense oracle's ("solve").
    """
    results = {}
    case = decaying_sine_case(n=n, p=p)
    oracle = make_stepper(case, 0.1, corrected=False)
    oracle.completer = OracleCompleter(case.mesh)
    steppers = {
        "solve": oracle,
        "tridiagonal": make_stepper(case, 0.1, corrected=False),
        "averaged": AveragedSlopeStepper(case.evolution, oracle.tab, 0.1, corrected=False),
    }
    for method, st in steppers.items():
        norms = [float(np.abs(case.u0).max())]

        def watch(i, t, u):
            m = float(np.abs(u).max())
            norms.append(m)
            return m > 1e6

        st.run(0.0, case.u0, max_steps, callback=watch)
        results[method] = {"norms": norms, "steps": len(norms) - 1}
    a = np.array(results["solve"]["norms"])
    b = np.array(results["tridiagonal"]["norms"])
    k = min(a.size, b.size)
    results["route_mismatch"] = float(np.abs(a[:k] - b[:k]).max())
    end = results["averaged"]["norms"][-1]
    ratio = np.inf
    if np.isfinite(end) and a[-1] > 0:
        ratio = end / a[-1]
    results["growth_ratio"] = float(ratio)
    return results


# -- viscous advection ---------------------------------------------------


def burgers_stability() -> dict:
    """Sup-norm history of the rotating-swirl run over one time unit, at
    the case's own step."""
    case = burgers_rotating()
    st = make_stepper(case, case.dt)
    peak = float(np.abs(case.u0).max())
    history = [peak]

    def watch(i, t, u):
        history.append(float(np.abs(u).max()))
        return False

    st.run(0.0, case.u0, round(case.t_end / case.dt), callback=watch)
    return {"initial_max": peak, "overall_max": max(history), "history": history}


def burgers_self_convergence() -> Series:
    """Step-size convergence of the rotating-swirl run on a fixed mesh.

    The advection split is explicit, so the 8x8 mesh caps the step at
    about 1/40; the halving ladder therefore runs 80 and 160 steps and
    measures both against one extra halving, 320.
    """
    case = burgers_rotating()
    return resolution_series(
        "swirl-steps", "steps", (80, 160), lambda count: advance(case, count), "halving"
    )


# -- cost scaling --------------------------------------------------------


def complexity_study(
    panel_counts=(4, 8, 16), p: int = 8, solves: int = 5
) -> dict:
    """Build and solve wall times against problem size: per size, the
    fastest of five builds, each on a fresh mesh so that making its merge
    plan is part of it, and of 5 * `solves` warm solves.

    Fitted exponents are informational; timing noise on small problems
    is real, so nothing here should be turned into a hard gate.
    """
    op = laplace_operator().shifted(1.0, 1.0)
    sizes = [0] * len(panel_counts)
    build_s = [math.inf] * len(panel_counts)
    solve_s = [math.inf] * len(panel_counts)
    # the sizes take turns over five rounds, so neither the first build's
    # lazy set-up nor one host hiccup decides an exponent
    for _ in range(5):
        for i, n_panels in enumerate(panel_counts):
            mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), n_panels, n_panels, p=p)
            t0 = time.perf_counter()
            fact = build_factorization(mesh, op)
            build_s[i] = min(build_s[i], time.perf_counter() - t0)
            rng = np.random.default_rng(0)
            load = rng.standard_normal(mesh.n_nodes)
            g = rng.standard_normal(fact.gamma_ids.size)
            fact.solve(load, g)  # warm caches before timing
            for _ in range(solves):
                t0 = time.perf_counter()
                fact.solve(load, g)
                solve_s[i] = min(solve_s[i], time.perf_counter() - t0)
            sizes[i] = mesh.n_nodes
    return {
        "panel_counts": list(panel_counts),
        "n_nodes": sizes,
        "build_seconds": build_s,
        "solve_seconds": solve_s,
        "build_exponent": float(np.polyfit(np.log(sizes), np.log(build_s), 1)[0]),
        "solve_exponent": float(np.polyfit(np.log(sizes), np.log(solve_s), 1)[0]),
    }
