"""Interpolation, rate-fitting and extrapolation checks."""
import numpy as np
import pytest

from hpstep.analysis import (
    MeshInterpolant,
    fit_rate,
    interval_rates,
    max_error,
    richardson,
    richardson_errors,
)
from hpstep.mesh import build_mesh


def test_interpolant_reproduces_polynomials_1d():
    mesh = build_mesh((0.0, 2.0), 4, p=7)
    f = 1.0 + mesh.x - 0.5 * mesh.x**3 + 0.01 * mesh.x**5
    itp = MeshInterpolant(mesh, f)
    xq = np.linspace(0.0, 2.0, 57)
    want = 1.0 + xq - 0.5 * xq**3 + 0.01 * xq**5
    np.testing.assert_allclose(itp(xq), want, atol=1e-12)


def test_interpolant_reproduces_polynomials_2d():
    mesh = build_mesh(((0.0, 2.0), (-1.0, 1.0)), 3, 2, p=7)
    f = (mesh.x**4 - 2 * mesh.x) * (1 + mesh.y**3)
    itp = MeshInterpolant(mesh, f)
    rng = np.random.default_rng(3)
    xq = rng.uniform(0.0, 2.0, 80)
    yq = rng.uniform(-1.0, 1.0, 80)
    want = (xq**4 - 2 * xq) * (1 + yq**3)
    np.testing.assert_allclose(itp(xq, yq), want, atol=1e-11)


def test_interpolant_hits_own_nodes():
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=6)
    f = np.sin(3 * mesh.x) * np.cos(2 * mesh.y)
    itp = MeshInterpolant(mesh, f)
    np.testing.assert_allclose(itp(mesh.x, mesh.y), f, atol=1e-12)


def test_interpolant_multicomponent():
    mesh = build_mesh((0.0, 1.0), 3, p=8)
    f = np.stack([mesh.x**2, np.cos(mesh.x)])
    itp = MeshInterpolant(mesh, f)
    out = itp(np.array([0.111, 0.777]))
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out[0], np.array([0.111, 0.777]) ** 2, atol=1e-12)


def test_interpolant_rejects_outside_points():
    mesh = build_mesh((0.0, 1.0), 2, p=5)
    itp = MeshInterpolant(mesh, mesh.x)
    with pytest.raises(ValueError, match="point outside the mesh domain"):
        itp(np.array([1.5]))


def test_cross_mesh_error_spectral():
    # the same smooth function sampled on two unrelated meshes should
    # agree through the interpolant at spectral accuracy
    f = lambda x, y: np.exp(0.3 * x) * np.sin(2 * y + 0.2)
    coarse = build_mesh(((0.0, 2.0), (0.0, 1.0)), 2, 2, p=9)
    fine = build_mesh(((0.0, 2.0), (0.0, 1.0)), 5, 3, p=12)
    err = max_error(
        f(coarse.x, coarse.y),
        coarse,
        reference=(fine, f(fine.x, fine.y)),
    )
    assert err < 1e-8


def test_max_error_exact_path():
    mesh = build_mesh((0.0, 1.0), 2, p=6)
    u = np.cos(mesh.x) + 1e-5
    err = max_error(u, mesh, exact=lambda t, x, y: np.cos(x), t=3.0)
    assert err == pytest.approx(1e-5, rel=1e-6)
    with pytest.raises(ValueError, match="give exactly one of exact or reference"):
        max_error(u, mesh)


def test_fit_rate_clean_series():
    n = np.array([10, 20, 40, 80])
    assert fit_rate(n, 3.0 * n**-4.0) == pytest.approx(4.0, abs=1e-10)


def test_fit_rate_drops_roundoff_floor():
    n = np.array([10, 20, 40, 80, 160])
    e = np.array([1e-4, 1e-7, 1e-10, 5e-13, 3e-13])
    assert fit_rate(n, e) == -np.polyfit(np.log(n[:3]), np.log(e[:3]), 1)[0]


def test_fit_rate_excludes_shoulder_near_floor():
    # the point one refinement before the plateau is already dragged up
    # by the floor and goes too
    n = np.array([5, 10, 20, 40, 80, 160])
    e = np.array([1.4e-7, 2.2e-9, 3.5e-11, 7.1e-13, 1.3e-13, 5.0e-14])
    rate = fit_rate(n, e)
    assert rate == -np.polyfit(np.log(n[:3]), np.log(e[:3]), 1)[0]
    assert rate == pytest.approx(6.0, abs=0.1)


def test_fit_rate_takes_slow_large_errors_at_face_value():
    # a stalling tail far above roundoff is genuine slow convergence,
    # not a floor to trim
    n = np.array([10, 20, 40])
    e = np.array([1e-1, 1e-3, 7e-4])
    assert fit_rate(n, e) == -np.polyfit(np.log(n), np.log(e), 1)[0]


def test_fit_rate_validation():
    with pytest.raises(ValueError, match="need matching n/error sequences of length >= 2"):
        fit_rate(np.array([10]), np.array([1.0]))
    with pytest.raises(ValueError, match="errors must be positive"):
        fit_rate(np.array([10, 20]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="too few points above the rounding floor"):
        # everything sits inside the rounding plateau
        fit_rate(np.array([10, 20, 40]), np.array([3e-13, 1.2e-13, 1e-13]))


def test_interval_rates_are_unfitted_neighbour_slopes():
    # errors n**-2 from 2 to 4, then n**-3 from 4 to 8
    assert interval_rates([2, 4, 8], [1.0, 0.25, 0.25 / 8]) == pytest.approx([2.0, 3.0], rel=1e-14)
    assert interval_rates([2], [1.0]) == []


def test_richardson_against_manual_arithmetic():
    vals = [1.30, 1.08, 1.02]
    t = richardson(vals, order=2)
    r11 = 1.08 + (1.08 - 1.30) / 3.0
    r22 = 1.02 + (1.02 - 1.08) / 3.0
    assert t[1][1] == pytest.approx(r11)
    assert t[2][1] == pytest.approx(r22)
    assert t[2][2] == pytest.approx(r22 + (r22 - r11) / 7.0)


def test_richardson_cancels_error_terms():
    # synthetic expansion L + c1 h^q + c2 h^(q+1) + c3 h^(q+2)
    q, L = 3, 0.7
    hs = [2.0 ** -i for i in range(5)]
    vals = [L + 0.4 * h**q + 0.04 * h ** (q + 1) + 0.004 * h ** (q + 2) for h in hs]
    errs = richardson_errors(richardson(vals, q), L)
    # column k converges at order q + k
    for k in range(3):
        seq = [errs[i][k] for i in range(k, 5)]
        rate = np.polyfit(np.arange(len(seq)), np.log2(seq), 1)[0]
        assert -rate == pytest.approx(q + k, abs=0.35)
    assert errs[4][3] < 1e-12


def test_richardson_on_fields():
    base = np.array([1.0, 2.0])
    vals = [base + 0.1 * 2.0 ** (-2 * i) for i in range(3)]
    t = richardson(vals, order=2)
    errs = richardson_errors(t, base)
    assert errs[2][2] < 1e-14
    assert t[2][2].shape == base.shape
