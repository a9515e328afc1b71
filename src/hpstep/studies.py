"""Experiment drivers shared by the command line and the acceptance tests.

Each study builds its own cases, runs them and returns plain data
(series of errors with fitted rates, tables, timings); serialization is
left to the caller.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .analysis import RateFit, fit_rate, max_error, richardson, richardson_errors
from .mesh import build_mesh
from .operators import laplace_operator
from .problems import (
    TransientCase,
    burgers_rotating,
    heat_cosine,
    heat_kink,
    make_stepper,
    resolution_step_count,
    schrodinger_asymmetric,
    schrodinger_harmonic,
)
from .oracle import OracleCompleter
from .solver import build_factorization
from .stepping import Evolution, InterfaceCompleter


@dataclass
class Series:
    """One error-versus-resolution curve."""

    label: str
    axis: str
    values: list
    errors: list
    fit: RateFit | None = None
    extra: dict = field(default_factory=dict)


def _fit(values, errors) -> RateFit:
    return fit_rate(np.asarray(values, dtype=float), np.asarray(errors, dtype=float))


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
    completer = InterfaceCompleter(case.mesh)
    out = []
    for q in orders:
        errors = []
        for count in step_counts:
            dt = case.t_end / count
            st = make_stepper(
                case, dt, order=q, formulation=formulation,
                interface_method=completer,
            )
            if single_step:
                u = st.step(0.0, case.u0)
                t_at = dt
            else:
                u = st.run(0.0, case.u0, count)
                t_at = case.t_end
            errors.append(max_error(u, case.mesh, exact=case.exact, t=t_at))
        kind = "step" if single_step else "global"
        out.append(
            Series(
                label=f"{formulation}-q{q}-{kind}",
                axis="steps",
                values=list(step_counts),
                errors=errors,
                fit=_fit(step_counts, errors),
                extra={"order": q, "formulation": formulation, "kind": kind},
            )
        )
    return out


def richardson_study(
    order: int = 3,
    levels: int = 5,
    base_steps: int = 10,
    *,
    n: int = 10,
    p: int = 12,
    half: float = 6.0,
    threads: int = 1,
) -> dict:
    """Step-doubling extrapolation of the oscillator run in time.

    The mesh is fixed and fine enough that the spatial error sits below
    1e-8, so the extrapolation table exposes the time-error expansion
    until it reaches that floor.
    """
    case = schrodinger_harmonic(n=n, p=p, half=half)
    counts = [base_steps * 2**i for i in range(levels)]
    finals = []
    for count in counts:
        st = make_stepper(
            case, case.t_end / count, order=order, formulation="slopes",
            threads=threads,
        )
        finals.append(st.run(0.0, case.u0, count))
    table = richardson(finals, order)
    exact = case.exact(case.t_end, case.mesh.x, case.mesh.y)
    errs = richardson_errors(table, exact)
    return {
        "order": order,
        "step_counts": counts,
        "errors": errs,
        "raw": [row[0] for row in errs],
        "diagonal": [errs[i][i] for i in range(len(errs))],
    }


# -- spatial sweeps ------------------------------------------------------


def harmonic_resolution_sweep(
    p: int,
    panel_counts=(16, 24, 32),
    order: int = 3,
    formulations=("stages", "slopes"),
    threads: int = 1,
) -> dict:
    """Error at one revolution of the oscillator phase versus panel count.

    The step size follows the resolution rule of the case, so the time
    error shrinks with the spatial one; each mesh runs under every
    requested formulation and `best` takes the smaller error per mesh.
    """
    per_form: dict[str, Series] = {}
    for form in formulations:
        errors = []
        for n_panels in panel_counts:
            case = schrodinger_harmonic(n=n_panels, p=p)
            count = resolution_step_count(case, order)
            st = make_stepper(
                case, case.t_end / count, order=order, formulation=form,
                threads=threads,
            )
            u = st.run(0.0, case.u0, count)
            errors.append(max_error(u, case.mesh, exact=case.exact, t=case.t_end))
        per_form[form] = Series(
            label=f"p{p}-{form}",
            axis="panels",
            values=list(panel_counts),
            errors=errors,
            fit=_fit(panel_counts, errors),
            extra={"p": p, "order": order, "formulation": form},
        )
    best_errors = [
        min(per_form[f].errors[i] for f in per_form) for i in range(len(panel_counts))
    ]
    best = Series(
        label=f"p{p}-best",
        axis="panels",
        values=list(panel_counts),
        errors=best_errors,
        fit=_fit(panel_counts, best_errors),
        extra={"p": p, "order": order},
    )
    return {"per_form": per_form, "best": best}


def asymmetric_self_convergence(
    panel_counts=(2, 4, 8, 16),
    p: int = 8,
    reference=(16, 10),
    order: int = 5,
    n_steps: int = 25,
    t_end: float | None = None,
    threads: int = 1,
) -> Series:
    """Cross-mesh convergence for the tilted-well oscillator.

    All runs share the step count, so the common time error largely
    cancels and the differences against the fine reference are spatial.
    `t_end` overrides the case's final time (the longer canonical run
    lives in the full-scale script).
    """
    ref_case = schrodinger_asymmetric(n=reference[0], p=reference[1])
    dt = (t_end if t_end is not None else ref_case.t_end) / n_steps
    ref_st = make_stepper(ref_case, dt, order=order, threads=threads)
    u_ref = ref_st.run(0.0, ref_case.u0, n_steps)
    errors = []
    for n_panels in panel_counts:
        case = schrodinger_asymmetric(n=n_panels, p=p)
        st = make_stepper(case, dt, order=order, threads=threads)
        u = st.run(0.0, case.u0, n_steps)
        errors.append(max_error(u, case.mesh, reference=(ref_case.mesh, u_ref)))
    pair_rates = [
        math.log(errors[i] / errors[i + 1])
        / math.log(panel_counts[i + 1] / panel_counts[i])
        for i in range(len(errors) - 1)
    ]
    return Series(
        label=f"asymmetric-p{p}",
        axis="panels",
        values=list(panel_counts),
        errors=errors,
        fit=_fit(panel_counts, errors),
        extra={"p": p, "order": order, "pair_rates": pair_rates},
    )


# -- kink and interface-treatment studies --------------------------------


def kink_study(
    p: int = 9, dt: float = 0.1, t_end: float = 10.0, order: int = 3
) -> dict:
    """Corrected versus uncorrected treatment of a derivative kink."""
    out = {}
    for corrected in (True, False):
        case = heat_kink(p=p)
        st = make_stepper(case, dt, order=order, corrected=corrected)
        u = st.run(0.0, case.u0, round(t_end / dt))
        out["corrected" if corrected else "uncorrected"] = {
            "final_max": float(np.abs(u).max()),
            "drift_from_start": float(np.abs(u - case.u0).max()),
            "field": u,
        }
    return out


def decaying_sine_case(n: int = 8, p: int = 16) -> TransientCase:
    """Heat flow of a single sine mode with homogeneous walls."""
    mesh = build_mesh((0.0, math.pi), n, p=p)
    evo = Evolution(
        mesh=mesh,
        operator=laplace_operator(1.0),
        lam=-1.0,
        bc=lambda t, x, y: np.zeros_like(x),
        bc_rate=lambda t, x, y: np.zeros_like(x),
    )
    return TransientCase(
        name="decaying-sine",
        evolution=evo,
        u0=np.sin(mesh.x),
        t_end=1.0,
        exact=lambda t, x, y: np.exp(-t) * np.sin(x),
    )


def averaged_instability(
    n: int = 8,
    p: int = 16,
    dt: float = 0.1,
    max_steps: int = 500,
    order: int = 3,
    blowup: float = 1e6,
) -> dict:
    """Noise injection of the averaged first-stage interface treatment.

    On decaying sine data the continuity-enforced first stage lets the
    field relax to roundoff, while one-sided averaging keeps feeding a
    marginal interface mode whose noise floor sits orders of magnitude
    higher; the end-norm ratio records the separation. Runs stop early
    if a norm passes `blowup`. The tridiagonal continuity route is
    checked on the way against the dense oracle's completion of the same
    system, whose run is reported under "solve".
    """
    results = {}
    case = decaying_sine_case(n=n, p=p)
    routes = {
        "solve": OracleCompleter(case.mesh),
        "tridiagonal": "tridiagonal",
        "averaged": "averaged",
    }
    for method, route in routes.items():
        st = make_stepper(
            case, dt, order=order, formulation="slopes",
            interface_method=route, corrected=False,
        )
        norms = [float(np.abs(case.u0).max())]

        def watch(i, t, u):
            m = float(np.abs(u).max())
            norms.append(m)
            return m > blowup

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


def burgers_stability(
    n: int = 8, p: int = 12, n_steps: int = 80, threads: int = 1
) -> dict:
    """Sup-norm history of the rotating-swirl run over one time unit."""
    case = burgers_rotating(n=n, p=p)
    st = make_stepper(case, case.t_end / n_steps, threads=threads)
    peak = float(np.abs(case.u0).max())
    history = [peak]

    def watch(i, t, u):
        history.append(float(np.abs(u).max()))
        return False

    u = st.run(0.0, case.u0, n_steps, callback=watch)
    return {
        "initial_max": peak,
        "overall_max": float(max(history)),
        "final_max": history[-1],
        "history": history,
        "final_field": u,
        "case": case,
    }


def burgers_self_convergence(
    n: int = 8,
    p: int = 12,
    step_counts=(80, 160),
    ref_steps: int = 320,
    threads: int = 1,
) -> Series:
    """Step-size convergence of the rotating-swirl run on a fixed mesh.

    The advection split is explicit, so the 8x8 mesh caps the step at
    about 1/40; the halving ladder therefore starts at the canonical 80
    steps and refines from there.
    """
    case = burgers_rotating(n=n, p=p)
    ref = make_stepper(case, case.t_end / ref_steps, threads=threads).run(
        0.0, case.u0, ref_steps
    )
    errors = []
    for count in step_counts:
        st = make_stepper(case, case.t_end / count, threads=threads)
        u = st.run(0.0, case.u0, count)
        errors.append(float(np.abs(u - ref).max()))
    return Series(
        label="swirl-steps",
        axis="steps",
        values=list(step_counts),
        errors=errors,
        fit=_fit(step_counts, errors),
        extra={"n": n, "p": p, "ref_steps": ref_steps},
    )


# -- cost scaling --------------------------------------------------------


def complexity_study(
    panel_counts=(4, 8, 16), p: int = 8, solves: int = 5
) -> dict:
    """Build and solve wall times against problem size.

    Fitted exponents are informational; timing noise on small problems
    is real, so nothing here should be turned into a hard gate.
    """
    sizes, build_s, solve_s = [], [], []
    op = laplace_operator().shifted(1.0, 1.0)
    for n_panels in panel_counts:
        mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), n_panels, n_panels, p=p)
        t0 = time.perf_counter()
        fact = build_factorization(mesh, op)
        t1 = time.perf_counter()
        rng = np.random.default_rng(0)
        load = rng.standard_normal(mesh.n_nodes)
        g = rng.standard_normal(fact.gamma_ids.size)
        fact.solve(load, g)  # warm caches before timing
        t2 = time.perf_counter()
        for _ in range(solves):
            fact.solve(load, g)
        t3 = time.perf_counter()
        sizes.append(mesh.n_nodes)
        build_s.append(t1 - t0)
        solve_s.append((t3 - t2) / solves)
    return {
        "panel_counts": list(panel_counts),
        "n_nodes": sizes,
        "build_seconds": build_s,
        "solve_seconds": solve_s,
        "build_exponent": float(np.polyfit(np.log(sizes), np.log(build_s), 1)[0]),
        "solve_exponent": float(np.polyfit(np.log(sizes), np.log(solve_s), 1)[0]),
    }
