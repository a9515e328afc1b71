"""End-to-end acceptance runs, one test per shipped claim.

`pytest tests/test_acceptance.py -v` prints exactly one pass/fail line
per criterion. Each test runs its entry of `hpstep.studies.CLAIMS` once,
at the desk-scale parameters the claim states, asserts on the record and
prints it as `hpstep reproduce` does; the full-size variants live in
scripts/full_scale.py and are not exercised here.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from hpstep.cli import claim_line, load_config
from hpstep.studies import CLAIMS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_criterion_01_oracle_equivalence():
    record = CLAIMS[1]()
    assert record["checks"] == 36
    assert not record["failed"], "\n".join(record["failed"])
    print(claim_line(1, record))


def test_criterion_02_order_reduction_study():
    t0 = time.perf_counter()
    rates = CLAIMS[2]()
    elapsed = time.perf_counter() - t0

    for q in (3, 4, 5):
        name = f"slopes q{q} global"
        assert rates[name] == pytest.approx(q, abs=0.4), name
    for q, want in zip((3, 4, 5), (4, 6, 6)):
        name = f"slopes q{q} step"
        assert rates[name] == pytest.approx(want, abs=0.5), name
    for q in (4, 5):
        name = f"stages q{q} global"
        assert rates[name] <= 3.4, name
    assert elapsed < 60.0
    print(claim_line(2, rates))


def test_criterion_03_kink_steady_state():
    record = CLAIMS[3]()
    assert record["corrected_final_max"] <= 1e-6
    assert record["uncorrected_drift"] <= 1e-3
    print(claim_line(3, record))


def test_criterion_04_harmonic_convergence_rates():
    bands = {4: (1.5, 3.2), 6: (4.0, 6.5), 8: (6.5, 8.5)}
    rates = CLAIMS[4]()
    for p, (lo, hi) in bands.items():
        rate = rates[f"p={p}"]
        assert lo <= rate <= hi, f"p={p} rate {rate:.2f} outside [{lo}, {hi}]"
    print(claim_line(4, rates))


def test_criterion_05_richardson_extrapolation():
    record = CLAIMS[5]()
    raw, diag = record["raw"], record["diagonal"]
    # at the finest level, the thrice-extrapolated value against the raw one
    assert record["gain"] <= 1e-3
    floor = min(diag)
    for prev, cur in zip(diag, diag[1:]):
        assert cur <= prev or prev <= 100.0 * floor
    assert all(b < a for a, b in zip(raw, raw[1:]))
    # extrapolation beats the raw run once a column is available
    assert all(d < r for r, d in zip(raw[1:], diag[1:]))
    print(claim_line(5, record))


def test_criterion_06_asymmetric_self_convergence():
    record = CLAIMS[6]()
    errors = record["errors"]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert record["last_rate"] >= 4.0
    print(claim_line(6, record))


def test_criterion_07_tableau_suite():
    record = CLAIMS[7]()
    assert not record["failed"], "\n".join(record["failed"])
    print(claim_line(7, record))


def test_criterion_08_averaged_interface_instability():
    record = CLAIMS[8]()
    assert record["steps"] == {"solve": 500, "tridiagonal": 500, "averaged": 500}
    assert record["continuity_peak"] <= 2.0
    assert record["growth_ratio"] > 10.0
    assert record["route_mismatch"] <= 1e-12
    print(claim_line(8, record))


def test_criterion_09_burgers_desk_scale():
    record = CLAIMS[9]()
    assert record["steps"] == 80
    assert record["finite"]
    assert record["overall_max"] <= 1.05 * record["initial_max"]
    assert record["dt_halving_rate"] >= 3.0
    for name in ("burgers-rotating-full.json", "burgers-cross-full.json"):
        cfg = load_config(str(CONFIG_DIR / name))
        assert cfg.mesh["n1"] == cfg.mesh["n2"] == 24 and cfg.mesh["p"] == 24
    print(claim_line(9, record))


def test_criterion_10_complexity_report():
    # informational: build against the linear-plus-merge claim (leaf work
    # ~N, top merges ~N^1.5), solve against the near-linear claim
    record = CLAIMS[10]()
    assert np.isfinite(record["build_exponent"]) and np.isfinite(record["solve_exponent"])
    print(claim_line(10, record))
