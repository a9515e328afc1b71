"""End-to-end acceptance runs, one test per shipped claim.

`pytest tests/test_acceptance.py -v` prints exactly one pass/fail line
per criterion. Each test re-runs its experiment from scratch at the
committed desk-scale parameters; the full-size variants live in
scripts/full_scale.py and are not exercised here.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from hpstep.analysis import interval_rates
from hpstep.cli import load_config
from hpstep.studies import (
    asymmetric_self_convergence,
    averaged_instability,
    burgers_self_convergence,
    burgers_stability,
    complexity_study,
    harmonic_resolution_sweep,
    kink_study,
    order_study,
    richardson_study,
)
from hpstep.verification import oracle_equivalence_report, tableau_report

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_criterion_01_oracle_equivalence():
    checks = oracle_equivalence_report()
    assert len(checks) == 36
    bad = [c.line() for c in checks if not c.ok]
    assert not bad, "\n".join(bad)
    print(f"criterion 1: worst mismatch {max(c.value for c in checks):.2e} <= 1e-9")


def test_criterion_02_order_reduction_study():
    t0 = time.perf_counter()
    counts = (5, 10, 20, 40, 80, 160)
    slopes = order_study(orders=(3, 4, 5), step_counts=counts)
    single = order_study(orders=(3, 4, 5), step_counts=counts, single_step=True)
    stages = order_study(orders=(4, 5), step_counts=counts, formulation="stages")
    elapsed = time.perf_counter() - t0

    got = {}
    for series, want in zip(slopes, (3, 4, 5)):
        got[f"slopes q{want} global"] = series.rate
        assert series.rate == pytest.approx(want, abs=0.4), series.label
    for q, series, want in zip((3, 4, 5), single, (4, 6, 6)):
        got[f"slopes q{q} step"] = series.rate
        assert series.rate == pytest.approx(want, abs=0.5), series.label
    for q, series in zip((4, 5), stages):
        got[f"stages q{q} global"] = series.rate
        assert series.rate <= 3.4, series.label
    assert elapsed < 60.0
    print(f"criterion 2: {got} in {elapsed:.1f}s")


def test_criterion_03_kink_steady_state():
    out = kink_study(dt=0.1, t_end=10.0)
    corrected = out["corrected"]["final_max"]
    drift = out["uncorrected"]["drift_from_start"]
    assert corrected <= 1e-6
    assert drift <= 1e-3
    print(f"criterion 3: corrected decays to {corrected:.2e}; "
          f"uncorrected pinned to the kink within {drift:.2e}")


def test_criterion_04_harmonic_convergence_rates():
    t0 = time.perf_counter()
    bands = {4: (1.5, 3.2), 6: (4.0, 6.5), 8: (6.5, 8.5)}
    rates = {}
    for p, (lo, hi) in bands.items():
        rate = harmonic_resolution_sweep(p)["best"].rate
        rates[p] = rate
        assert lo <= rate <= hi, f"p={p} rate {rate:.2f} outside [{lo}, {hi}]"
    print(f"criterion 4: rates {rates} in {time.perf_counter() - t0:.0f}s")


def test_criterion_05_richardson_extrapolation():
    out = richardson_study(levels=5, base_steps=10, n=10, p=12, half=6.0)
    errs = out["errors"]
    raw = out["raw"]
    diag = out["diagonal"]
    # at the finest level, the thrice-extrapolated value against the raw one
    gain = errs[-1][3] / errs[-1][0]
    assert gain <= 1e-3
    floor = min(diag)
    for prev, cur in zip(diag, diag[1:]):
        assert cur <= prev or prev <= 100.0 * floor
    table = "; ".join(
        f"{s} steps raw {r:.2e} best {d:.2e}"
        for s, r, d in zip(out["step_counts"], raw, diag)
    )
    print(f"criterion 5: 3-extrapolation gain {gain:.1e}; {table}")


def test_criterion_06_asymmetric_self_convergence():
    series = asymmetric_self_convergence(
        panel_counts=(2, 4, 8, 16), p=8, reference=(16, 10), order=5, n_steps=25
    )
    errors = series.errors
    assert all(b < a for a, b in zip(errors, errors[1:]))
    last_rate = interval_rates(series.values, errors)[-1]
    assert last_rate >= 4.0
    print(f"criterion 6: errors {['%.2e' % e for e in errors]}, "
          f"last-interval rate {last_rate:.2f}")


def test_criterion_07_tableau_suite():
    checks = tableau_report()
    bad = [c.line() for c in checks if not c.ok]
    assert not bad, "\n".join(bad)
    print(f"criterion 7: {len(checks)} tableau checks pass")


def test_criterion_08_averaged_interface_instability():
    out = averaged_instability(n=8, p=16, max_steps=500)
    continuity_peak = max(out["solve"]["norms"])
    assert continuity_peak <= 2.0
    assert out["growth_ratio"] > 10.0
    assert out["route_mismatch"] <= 1e-12
    print(f"criterion 8: averaged/continuity end-norm ratio "
          f"{out['growth_ratio']:.1e}, fast path agrees to "
          f"{out['route_mismatch']:.1e}")


def test_criterion_09_burgers_desk_scale():
    stab = burgers_stability()
    assert len(stab["history"]) == 81
    assert np.isfinite(stab["history"]).all()
    assert stab["overall_max"] <= 1.05 * stab["initial_max"]
    series = burgers_self_convergence()
    assert series.rate >= 3.0
    for name in ("burgers-rotating-full.json", "burgers-cross-full.json"):
        cfg = load_config(str(CONFIG_DIR / name))
        assert cfg.mesh["n1"] == cfg.mesh["n2"] == 24 and cfg.mesh["p"] == 24
    print(f"criterion 9: peak/initial {stab['overall_max'] / stab['initial_max']:.4f},"
          f" dt-halving rate {series.rate:.2f}, full-scale configs present")


def test_criterion_10_complexity_report():
    out = complexity_study(panel_counts=(4, 8, 16, 32))
    be, se = out["build_exponent"], out["solve_exponent"]
    assert np.isfinite(be) and np.isfinite(se)
    lines = [
        "criterion 10 (informational): log-log exponents at fixed p=8, "
        f"N in {out['n_nodes']}:",
        f"  build {be:.2f} against the linear-plus-merge claim "
        "(leaf work ~N, top merges ~N^1.5)",
        f"  solve {se:.2f} against the near-linear claim (~N at these sizes)",
    ]
    print("\n".join(lines))
