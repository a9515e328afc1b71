from __future__ import annotations

import numpy as np
import pytest

from hpstep.chebyshev import (
    cheb_diff_matrix,
    cheb_nodes,
    diff_apply_x,
    diff_apply_y,
    fill_corners,
    interp_matrix,
    leaf_stencil,
)

SQRT2_HALF = np.sqrt(2.0) / 2.0


def test_nodes_small_cases():
    np.testing.assert_allclose(cheb_nodes(2), [-1.0, 1.0], atol=0)
    np.testing.assert_allclose(cheb_nodes(3), [-1.0, 0.0, 1.0], atol=1e-16)
    np.testing.assert_allclose(
        cheb_nodes(5), [-1.0, -SQRT2_HALF, 0.0, SQRT2_HALF, 1.0], atol=1e-16
    )


def test_nodes_ascending_and_symmetric():
    for p in range(2, 24):
        x = cheb_nodes(p)
        assert np.all(np.diff(x) > 0)
        np.testing.assert_array_equal(x, -x[::-1])
        assert x[0] == -1.0 and x[-1] == 1.0


def test_nodes_rejects_degenerate():
    with pytest.raises(ValueError):
        cheb_nodes(1)


@pytest.mark.parametrize("p", range(2, 21))
def test_diff_matrix_polynomial_exactness(p):
    # degree-k monomials differentiate exactly for every k < p
    x = cheb_nodes(p)
    D = cheb_diff_matrix(p)
    for k in range(p):
        expect = np.zeros_like(x) if k == 0 else k * x ** (k - 1)
        np.testing.assert_allclose(D @ x**k, expect, atol=1e-10)


def test_diff_matrix_kills_constants():
    for p in range(2, 21):
        D = cheb_diff_matrix(p)
        assert np.abs(D @ np.ones(p)).max() < 1e-13


def test_diff_matrix_spectral_accuracy():
    st = leaf_stencil(16, 2.0, None)  # the interval [-1, 1]
    err = np.abs(st.Dx1 @ np.exp(st.xi) - np.exp(st.xi)).max()
    assert err < 1e-12


def test_grid_scaling():
    # halving the interval doubles every derivative entry
    g1 = leaf_stencil(9, 2.0, None)
    g2 = leaf_stencil(9, 1.0, None)
    np.testing.assert_allclose(g2.Dx1, 2.0 * g1.Dx1, rtol=1e-15)
    g = leaf_stencil(18, 2.0, None)
    nodes = g.xi + 1.0  # the interval [0, 2]
    f = np.sin(nodes)
    np.testing.assert_allclose(g.Dx @ f, np.cos(nodes), atol=1e-12)
    np.testing.assert_allclose(g.Dxx @ f, -np.sin(nodes), atol=1e-10)


def test_stencil_tensor_layout():
    # row-major, y outer / x inner: Dx must act within each row of nodes
    p = 6
    st = leaf_stencil(p, 2.0, 2.0)
    X, Y = np.meshgrid(st.xi, st.xi)  # X varies along axis 1
    u = (X**3 * Y**2).ravel()
    np.testing.assert_allclose(st.Dx @ u, (3 * X**2 * Y**2).ravel(), atol=1e-10)
    np.testing.assert_allclose(st.Dy @ u, (2 * X**3 * Y).ravel(), atol=1e-10)
    np.testing.assert_allclose(st.Dx @ st.Dy @ u, (6 * X**2 * Y).ravel(), atol=1e-9)
    np.testing.assert_allclose(st.Dxx @ u, (6 * X * Y**2).ravel(), atol=1e-9)


def test_batched_apply_matches_kron():
    rng = np.random.default_rng(7)
    p = 7
    st = leaf_stencil(p, 1.5, 0.5)
    U = rng.standard_normal((4, p, p))
    flat = U.reshape(4, p * p)
    np.testing.assert_allclose(
        diff_apply_x(st.Dx1, U).reshape(4, -1), flat @ st.Dx.T, atol=1e-12
    )
    np.testing.assert_allclose(
        diff_apply_y(st.Dy1, U).reshape(4, -1), flat @ st.Dy.T, atol=1e-12
    )


def test_interp_matrix_reproduces_polynomials_and_nodes():
    x = cheb_nodes(9)
    t = np.array([-1.0, -0.3, 0.12, x[4], 0.99])
    P = interp_matrix(x, t)
    for k in range(9):
        np.testing.assert_allclose(P @ x**k, t**k, atol=1e-12)
    # exact node hit row is a unit vector
    np.testing.assert_array_equal(P[3], np.eye(9)[4])


def test_fill_corners_recovers_smooth_field():
    p = 12
    st = leaf_stencil(p, 2.0, 2.0)
    X, Y = np.meshgrid(st.xi, st.xi)
    u = np.sin(1.3 * X) * np.cos(0.7 * Y) + X * Y
    damaged = u.copy()
    for iy in (0, -1):
        for ix in (0, -1):
            damaged[iy, ix] = np.nan
    fixed = fill_corners(damaged[None])[0]
    # extrapolation drops the two endpoint nodes, so expect a little less
    # than full collocation accuracy
    for iy in (0, -1):
        for ix in (0, -1):
            assert abs(fixed[iy, ix] - u[iy, ix]) < 1e-7
    # untouched away from corners
    np.testing.assert_array_equal(fixed[1:-1, :], u[1:-1, :])
