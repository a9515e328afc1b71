from __future__ import annotations

import numpy as np
import pytest

from hpstep.chebyshev import (
    cheb_diff_matrix,
    cheb_nodes,
    corner_fill_weights,
    fill_corners,
    interp_matrix,
    leaf_stencil,
)
from hpstep.operators import apply_lines

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
    with pytest.raises(ValueError, match="need at least 2 nodes, got p=1"):
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
    xi = cheb_nodes(16)
    err = np.abs(st.Dx1 @ np.exp(xi) - np.exp(xi)).max()
    assert err < 1e-12


def test_grid_scaling():
    # halving the interval doubles every derivative entry
    g1 = leaf_stencil(9, 2.0, None)
    g2 = leaf_stencil(9, 1.0, None)
    np.testing.assert_allclose(g2.Dx1, 2.0 * g1.Dx1, rtol=1e-15)
    g = leaf_stencil(18, 2.0, None)
    nodes = cheb_nodes(18) + 1.0  # the interval [0, 2]
    f = np.sin(nodes)
    np.testing.assert_allclose(g.Dx1 @ f, np.cos(nodes), atol=1e-12)
    np.testing.assert_allclose(g.Dxx1 @ f, -np.sin(nodes), atol=1e-10)


def test_stencil_tensor_layout():
    # row-major, y outer / x inner: Dx must act within each row of nodes
    p = 6
    st = leaf_stencil(p, 2.0, 2.0)
    Dx, Dy = np.kron(np.eye(p), st.Dx1), np.kron(st.Dy1, np.eye(p))  # the 2-D matrices
    X, Y = np.meshgrid(cheb_nodes(p), cheb_nodes(p))  # X varies along axis 1
    u = (X**3 * Y**2).ravel()
    np.testing.assert_allclose(Dx @ u, (3 * X**2 * Y**2).ravel(), atol=1e-10)
    np.testing.assert_allclose(Dy @ u, (2 * X**3 * Y).ravel(), atol=1e-10)
    np.testing.assert_allclose(Dx @ Dy @ u, (6 * X**2 * Y).ravel(), atol=1e-9)
    np.testing.assert_allclose(Dx @ Dx @ u, (6 * X * Y**2).ravel(), atol=1e-9)


def test_batched_apply_matches_kron():
    rng = np.random.default_rng(7)
    p = 7
    st = leaf_stencil(p, 1.5, 0.5)
    U = rng.standard_normal((4, p, p))
    flat = U.reshape(4, p * p)
    Dx, Dy = np.kron(np.eye(p), st.Dx1), np.kron(st.Dy1, np.eye(p))
    np.testing.assert_allclose(
        apply_lines(st.Dx1, "x", U).reshape(4, -1), flat @ Dx.T, atol=1e-12
    )
    np.testing.assert_allclose(
        apply_lines(st.Dy1, "y", U).reshape(4, -1), flat @ Dy.T, atol=1e-12
    )


def test_stencil_stores_only_1d_blocks():
    # O(p^2) numbers per leaf size; p^2-by-p^2 matrices took 10.6 MB at p=24
    st = leaf_stencil(24, 0.25, 0.25)
    stored = vars(st).values()
    assert all(B.shape == (24, 24) for B in stored)
    assert sum(B.nbytes for B in stored) < 50_000
    np.testing.assert_array_equal(st.Dxx1, st.Dx1 @ st.Dx1)
    np.testing.assert_array_equal(st.Dyy1, st.Dy1 @ st.Dy1)
    line = leaf_stencil(24, 0.25, None)
    assert line.Dy1 is None and line.Dyy1 is None


@pytest.mark.parametrize("p", [8, 12])
@pytest.mark.parametrize("lead", [(), (5,), (2, 5)])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("dtype", [float, complex])
def test_x_derivative_is_one_gemm_with_batched_bytes(p, lead, dim, dtype):
    # a real field: the flattened GEMM gives the bytes of the per-leaf
    # batched product; a complex one is two real fields side by side, as
    # float pairs, whose GEMM may sum in another order (a few ulps)
    rng = np.random.default_rng(p)
    Dx1 = leaf_stencil(p, 0.5, 0.25 if dim == 2 else None).Dx1
    shape = lead + (p,) * dim
    U = rng.standard_normal(shape).astype(dtype)
    U += 1j * rng.standard_normal(shape) if dtype is complex else 0.0
    V = np.repeat(U, 2, axis=-1)[..., ::2]  # U's values, strided
    assert not V.flags.c_contiguous
    for W in (U, V):
        got = apply_lines(Dx1, "x", W)
        assert got.shape == U.shape and got.dtype == U.dtype
        if dtype is float:
            np.testing.assert_array_equal(got, np.matmul(W, Dx1.T))
        else:
            want = np.matmul(W.real, Dx1.T) + 1j * np.matmul(W.imag, Dx1.T)
            scale = np.abs(Dx1).sum(axis=1).max() * np.abs(U).max()
            assert np.abs(got - want).max() <= 1e-15 * scale


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
    X, Y = np.meshgrid(cheb_nodes(p), cheb_nodes(p))
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


def test_fill_corners_fills_in_place():
    fields = np.random.default_rng(3).standard_normal((2, 3, 7, 7))
    edges = fields[..., 1:-1].copy()
    assert fill_corners(fields) is fields
    np.testing.assert_array_equal(fields[..., 1:-1], edges)


def test_corner_fill_weights_shared_and_read_only():
    w_lo, w_hi = corner_fill_weights(9)
    assert corner_fill_weights(9)[0] is w_lo
    with pytest.raises(ValueError, match="read-only"):
        w_hi[0] = 0.0
