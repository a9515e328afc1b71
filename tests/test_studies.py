"""Fast, reduced-size runs of the experiment drivers.

The desk-scale parameter sets live in `studies.CLAIMS`; here each
driver runs on a small problem so structure and rough behavior stay
covered by the regular test loop.
"""
import contextlib
import csv
import importlib.util
import inspect
import io
import json
from pathlib import Path

import numpy as np
import pytest

from hpstep import studies
from hpstep.analysis import fit_rate, interval_rates, max_error
from hpstep.cli import main
from hpstep.problems import PROBLEMS, make_stepper, schrodinger_harmonic
from hpstep.studies import (
    advance,
    asymmetric_self_convergence,
    complexity_study,
    decaying_sine_case,
    extrapolation_table,
    fit_series,
    resolution_series,
)

ROOT = Path(__file__).resolve().parent.parent


def _final(case, count):
    st = make_stepper(case, case.t_end / count, order=3)
    return st.run(0.0, case.u0, count)


def _asymmetric(n):
    case = PROBLEMS["schrodinger-asymmetric"](n=n, p=6)
    case.t_end = 1.0
    return case


def _by_exact():
    case = decaying_sine_case(n=4, p=10)
    run = lambda count: advance(case, count, order=3)
    errors = [
        max_error(_final(case, c), case.mesh, exact=case.exact, t=case.t_end)
        for c in (4, 8, 16)
    ]
    return "exact", (4, 8, 16), run, errors


def _by_finest():
    run = lambda n: advance(_asymmetric(n), 4, order=3)
    fine = _asymmetric(8)
    u_fine = _final(fine, 4)
    errors = []
    for n in (2, 4):
        case = _asymmetric(n)
        errors.append(max_error(_final(case, 4), case.mesh, reference=(fine.mesh, u_fine)))
    return "finest", (2, 4, 8), run, errors + [None]


def _by_halving():
    case = _asymmetric(2)
    run = lambda count: advance(case, count, order=3)
    ref = _final(case, 32)
    errors = [float(np.abs(_final(case, c) - ref).max()) for c in (4, 8, 16)]
    return "halving", (4, 8, 16), run, errors


@pytest.mark.parametrize(
    "setup", [_by_exact, _by_finest, _by_halving], ids=["exact", "finest", "halving"]
)
def test_resolution_series_matches_a_hand_written_loop(setup):
    reference, values, run, want = setup()
    series = resolution_series("s", "steps", values, run, reference)
    assert series.values == list(values)
    assert series.errors == want
    # a point without an error (the finest mesh itself) stays out of the fit
    kept = [(v, e) for v, e in zip(values, want) if e is not None]
    rate = fit_rate(np.array([v for v, _ in kept], dtype=float), np.array([e for _, e in kept]))
    assert series.rate == rate


def test_fit_series_at_the_rounding_floor_raises_unless_lenient():
    values, errors = [5, 10, 20], [1.2e-13, 7.5e-15, 1.9e-14]
    with pytest.raises(ValueError, match="rounding floor"):
        fit_series("s", "steps", values, errors)
    assert fit_series("s", "steps", values, errors, strict=False).rate is None


def test_asymmetric_self_convergence_small(monkeypatch):
    # a `t_end` override reaches every run, the reference included
    runs = []

    def recording(case, count, **kw):
        runs.append((case.t_end, count))
        return advance(case, count, **kw)

    monkeypatch.setattr(studies, "advance", recording)
    series = asymmetric_self_convergence(n_steps=2, t_end=0.1)
    assert runs == [(0.1, 2)] * 5
    assert series.values == [2, 4, 8, 16]
    assert all(b < a for a, b in zip(series.errors, series.errors[1:]))
    assert min(interval_rates(series.values, series.errors)) > 1.0


def test_decaying_sine_case_exact_solution():
    case = decaying_sine_case(n=6, p=12)
    from hpstep.problems import make_stepper

    st = make_stepper(case, 0.05, order=4, formulation="slopes")
    u = st.run(0.0, case.u0, 20)
    assert max_error(u, case.mesh, exact=case.exact, t=1.0) < 1e-7


def test_complexity_study_reports_positive_exponents():
    out = complexity_study(panel_counts=(2, 4), p=6, solves=2)
    assert out["n_nodes"][1] > out["n_nodes"][0]
    assert all(t > 0 for t in out["build_seconds"] + out["solve_seconds"])
    assert out["build_exponent"] > 0
    assert out["solve_exponent"] > 0


def test_full_scale_table_binds_to_the_study_signature(monkeypatch):
    # the full-size table takes about 10 s, so the script stops at its study call
    spec = importlib.util.spec_from_file_location(
        "full_scale", ROOT / "scripts" / "full_scale.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    signature = inspect.signature(script.asymmetric_self_convergence)

    class Bound(Exception):
        pass

    def bind(*args, **kwargs):
        signature.bind(*args, **kwargs)
        raise Bound

    monkeypatch.setattr(script, "asymmetric_self_convergence", bind)
    with pytest.raises(Bound):
        script.main()


def test_extrapolation_sweep_is_the_richardson_study(tmp_path):
    # the full-size Richardson table is this sweep of a shipped config;
    # at desk size it writes `extrapolation_table`'s table
    config = {
        "experiment": "schrodinger-harmonic",
        "mesh": {"n1": 4, "n2": 4, "p": 10},
        "formulation": "slopes",
        "q_rk": 3,
        "dt": 2 * np.pi / 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["sweep", str(path), "--axis", "extrapolation-level", "--points", "3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with open(tmp_path / "out" / "extrapolation_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    table = [[float(row[f"extrap_{k}"]) for k in range(i + 1)] for i, row in enumerate(rows)]
    case = schrodinger_harmonic(n=4, p=10)
    assert table == extrapolation_table(case, [5, 10, 20], case.order, "slopes")


def test_resolution_series_rejects_unknown_reference():
    with pytest.raises(ValueError, match="unknown reference kind 'oracle'"):
        resolution_series("s", "steps", [5, 10], lambda count: None, "oracle")
