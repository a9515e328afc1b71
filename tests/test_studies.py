"""Fast, reduced-size runs of the experiment drivers.

The heavyweight parameter sets live in the acceptance suite; here each
driver runs on a small problem so structure and rough behavior stay
covered by the regular test loop.
"""
import numpy as np
import pytest

from hpstep.analysis import max_error
from hpstep.studies import (
    averaged_instability,
    asymmetric_self_convergence,
    complexity_study,
    decaying_sine_case,
    harmonic_resolution_sweep,
    kink_study,
    order_study,
    richardson_study,
)


def test_order_study_third_order_small():
    (series,) = order_study(orders=(3,), step_counts=(5, 10, 20), n=4, p=12)
    assert series.label == "slopes-q3-global"
    assert series.values == [5, 10, 20]
    assert len(series.errors) == 3
    assert series.fit.rate == pytest.approx(3.0, abs=0.4)


def test_order_study_single_step_mode():
    (series,) = order_study(
        orders=(3,), step_counts=(5, 10), n=4, p=12, single_step=True
    )
    assert series.label == "slopes-q3-step"
    # one step of the third-order scheme is fourth-order accurate
    ratio = series.errors[0] / series.errors[1]
    assert np.log2(ratio) == pytest.approx(4.0, abs=0.5)


def test_richardson_study_small():
    out = richardson_study(order=3, levels=3, base_steps=5, n=4, p=10, half=6.0)
    assert out["step_counts"] == [5, 10, 20]
    raw = out["raw"]
    diag = out["diagonal"]
    assert raw[0] > raw[1] > raw[2]
    # extrapolation beats the raw run once a column is available
    assert diag[1] < raw[1]
    assert diag[2] < raw[2]


def test_harmonic_sweep_structure():
    out = harmonic_resolution_sweep(
        4, panel_counts=(6, 8), order=3, formulations=("stages",)
    )
    stages = out["per_form"]["stages"]
    best = out["best"]
    assert stages.values == [6, 8]
    assert best.errors == stages.errors
    assert stages.errors[1] < stages.errors[0]


def test_asymmetric_self_convergence_small():
    series = asymmetric_self_convergence(
        panel_counts=(2, 4), p=6, reference=(8, 8), order=3, n_steps=6
    )
    assert series.errors[1] < series.errors[0]
    assert len(series.extra["pair_rates"]) == 1
    assert series.extra["pair_rates"][0] > 1.0


def test_kink_study_modes_differ():
    out = kink_study(p=9, dt=0.25, t_end=2.0)
    # the uncorrected steady state is the kink itself
    assert out["uncorrected"]["drift_from_start"] < 1e-10
    # the corrected run relaxes it toward zero
    assert out["corrected"]["final_max"] < out["uncorrected"]["final_max"]


def test_decaying_sine_case_exact_solution():
    case = decaying_sine_case(n=6, p=12)
    from hpstep.problems import make_stepper

    st = make_stepper(case, 0.05, order=4, formulation="slopes")
    u = st.run(0.0, case.u0, 20)
    assert max_error(u, case.mesh, exact=case.exact, t=1.0) < 1e-7


def test_averaged_instability_structure():
    out = averaged_instability(n=4, p=10, dt=0.1, max_steps=40)
    assert out["route_mismatch"] < 1e-11
    for method in ("solve", "tridiagonal", "averaged"):
        assert out[method]["steps"] == 40
        assert np.isfinite(out[method]["norms"]).all()
    assert np.isfinite(out["growth_ratio"])


def test_complexity_study_reports_positive_exponents():
    out = complexity_study(panel_counts=(2, 4), p=6, solves=2)
    assert out["n_nodes"][1] > out["n_nodes"][0]
    assert all(t > 0 for t in out["build_seconds"] + out["solve_seconds"])
    assert out["build_exponent"] > 0
    assert out["solve_exponent"] > 0
