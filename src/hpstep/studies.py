"""Experiment drivers and the paper's desk-scale claims.

Each driver builds its own cases, runs them and returns plain data
(series of errors with fitted rates, tables, timings); serialization is
left to the caller. Every convergence study, and every `hpstep sweep`,
is one call to `resolution_series`, which runs a refinement ladder and
measures it against the exact solution, the finest mesh or one extra
halving of the step; `extrapolation_table` serves both step-doubling
extrapolations.

`CLAIMS` maps each acceptance criterion to a zero-argument function that
states its desk parameters once and returns the numbers it is judged on.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import fit_rate, interval_rates, max_error, richardson, richardson_errors
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
from .verification import oracle_equivalence_report, tableau_report


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


def asymmetric_self_convergence(n_steps: int = 25, t_end: float | None = None) -> Series:
    """Cross-mesh convergence for the tilted-well oscillator: 2, 4, 8 and
    16 panels at p=8 against a 16x16 p=10 reference, order 5.

    All runs share the step count, so the common time error largely
    cancels and the differences against the fine reference are spatial.
    `t_end` overrides the case's final time (the longer canonical run
    lives in the full-scale script).
    """

    def run(n_panels, p=8):
        case = schrodinger_asymmetric(n=n_panels, p=p)
        if t_end is not None:
            case.t_end = t_end
        return advance(case, n_steps, order=5)

    return resolution_series(
        "asymmetric-p8", "panels", (2, 4, 8, 16), run, "finest", reference_run=run(16, 10)
    )


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


# -- the paper's desk-scale claims, one per acceptance criterion ----------


def _report(checks) -> dict:
    """How many checks ran, and the line of each that failed."""
    return {"checks": len(checks), "failed": [c.line() for c in checks if not c.ok]}


def _max_norms(stepper: ImexStepper, u0, steps: int, blowup: float = math.inf) -> list:
    """max|u| of `u0` and after each step; the run stops once one passes
    `blowup`."""
    norms = [float(np.abs(u0).max())]

    def watch(i, t, u):
        norms.append(float(np.abs(u).max()))
        return norms[-1] > blowup

    stepper.run(0.0, u0, steps, callback=watch)
    return norms


def _oracle_equivalence() -> dict:
    checks = oracle_equivalence_report()
    return {**_report(checks), "worst": max(c.value for c in checks)}


def _order_reduction() -> dict:
    """Observed time orders on the problem with solution cos(t), at 5 to
    160 steps. A global error integrates to t_end; a step error follows
    one step of size t_end / count, which exposes the local accuracy."""
    case = heat_cosine(n=8, p=16)

    def rate(q, formulation, kind):
        def run(count):
            if kind == "step":
                short = replace(case, t_end=case.t_end / count)
                return advance(short, 1, order=q, formulation=formulation)
            return advance(case, count, order=q, formulation=formulation)

        counts = (5, 10, 20, 40, 80, 160)
        return resolution_series(f"{formulation}-q{q}-{kind}", "steps", counts, run).rate

    runs = [(q, "slopes", kind) for kind in ("global", "step") for q in (3, 4, 5)]
    runs += [(q, "stages", "global") for q in (4, 5)]
    return {f"{form} q{q} {kind}": rate(q, form, kind) for q, form, kind in runs}


def _kink() -> dict:
    """The heat kink after 100 steps of 0.1, relaxed by the derivative-jump
    penalty and pinned without it."""
    case = heat_kink()

    def final(corrected):
        return make_stepper(case, 0.1, corrected=corrected).run(0.0, case.u0, 100)

    return {
        "corrected_final_max": float(np.abs(final(True)).max()),
        "uncorrected_drift": float(np.abs(final(False) - case.u0).max()),
    }


def _harmonic_rates() -> dict:
    """The oscillator's error at one revolution of its phase against the
    panel count 16, 24, 32, per leaf order p. The step follows the case's
    resolution rule, so the time error shrinks with the spatial one; each
    mesh runs in both formulations and the rate is fitted to the smaller
    error per mesh."""
    panels = (16, 24, 32)

    def errors(p, formulation):
        def run(n_panels):
            case = schrodinger_harmonic(n=n_panels, p=p)
            steps = resolution_step_count(case, case.order)
            return advance(case, steps, formulation=formulation)

        return resolution_series(f"p{p}-{formulation}", "panels", panels, run).errors

    rates = {}
    for p in (4, 6, 8):
        best = [min(e) for e in zip(errors(p, "stages"), errors(p, "slopes"))]
        rates[f"p={p}"] = fit_series(f"p{p}-best", "panels", panels, best).rate
    return rates


def _richardson() -> dict:
    """Step-doubling extrapolation of the oscillator from 10 to 160 steps,
    on a mesh that puts the spatial error below 1e-8. `gain` is the
    thrice-extrapolated error at the finest level over the raw one."""
    case = schrodinger_harmonic(n=10, p=12, half=6.0)
    counts = [10 * 2**i for i in range(5)]
    errs = extrapolation_table(case, counts, case.order, "slopes")
    raw, diagonal = [row[0] for row in errs], [row[-1] for row in errs]
    return {"step_counts": counts, "raw": raw, "diagonal": diagonal, "gain": errs[-1][3] / raw[-1]}


def _asymmetric() -> dict:
    series = asymmetric_self_convergence()
    rates = interval_rates(series.values, series.errors)
    return {"panels": series.values, "errors": series.errors, "last_rate": rates[-1]}


def _tableaus() -> dict:
    return _report(tableau_report())


def _averaged_instability() -> dict:
    """Up to 500 steps of 0.1 on decaying sine data, stopped early if a
    norm passes 1e6. The continuity-enforced first stage lets the field
    relax to roundoff, while one-sided averaging (`AveragedSlopeStepper`)
    keeps feeding a marginal interface mode; `growth_ratio` is its end
    norm over the continuity run's. The tridiagonal route is checked on
    the way against a stepper whose `completer` is the dense oracle's."""
    case = decaying_sine_case(n=8, p=16)
    oracle = make_stepper(case, 0.1, corrected=False)
    oracle.completer = OracleCompleter(case.mesh)
    steppers = {
        "solve": oracle,
        "tridiagonal": make_stepper(case, 0.1, corrected=False),
        "averaged": AveragedSlopeStepper(case.evolution, oracle.tab, 0.1, corrected=False),
    }
    norms = {m: _max_norms(st, case.u0, 500, blowup=1e6) for m, st in steppers.items()}
    a, b = np.array(norms["solve"]), np.array(norms["tridiagonal"])
    k = min(a.size, b.size)
    end = norms["averaged"][-1]
    return {
        "steps": {m: len(n) - 1 for m, n in norms.items()},
        "continuity_peak": max(norms["solve"]),
        "growth_ratio": float(end / a[-1] if np.isfinite(end) and a[-1] > 0 else np.inf),
        "route_mismatch": float(np.abs(a[:k] - b[:k]).max()),
    }


def _burgers() -> dict:
    """The rotating swirl's max|u| over one time unit at its own step, then
    its step-size convergence: the explicit advection split caps the 8x8
    mesh's step at about 1/40, so the ladder runs 80 and 160 steps against
    one extra halving, 320."""
    case = burgers_rotating()
    history = _max_norms(make_stepper(case, case.dt), case.u0, round(case.t_end / case.dt))
    halving = resolution_series(
        "swirl-steps", "steps", (80, 160), lambda count: advance(case, count), "halving"
    )
    return {
        "steps": len(history) - 1,
        "finite": bool(np.isfinite(history).all()),
        "initial_max": history[0],
        "overall_max": max(history),
        "dt_halving_rate": halving.rate,
    }


def _complexity() -> dict:
    """Informational: build and solve time against N at p=8."""
    out = complexity_study(panel_counts=(4, 8, 16, 32))
    return {key: out[key] for key in ("n_nodes", "build_exponent", "solve_exponent")}


CLAIMS = {
    1: _oracle_equivalence, 2: _order_reduction, 3: _kink, 4: _harmonic_rates,
    5: _richardson, 6: _asymmetric, 7: _tableaus,
    8: _averaged_instability, 9: _burgers, 10: _complexity,
}
