from __future__ import annotations

import numpy as np
import pytest

from hpstep.mesh import build_mesh
from hpstep.operators import (
    EllipticOperator,
    OperatorApplier,
    averaged_gradient,
    build_leaf_operators,
    collocate_interior,
    flux_matrix,
    gather_leaf_fields,
    guarded_inverse,
    identity_operator,
    laplace_operator,
    leaf_coordinates,
    scatter_mean,
)


def mesh2d(n1=1, n2=1, p=8, box=((0.0, 1.0), (0.0, 1.0))):
    return build_mesh(box, n1, n2, p=p)


def rows(op, m):
    """Interior collocation rows of every leaf over all of its local nodes."""
    return collocate_interior(op, m, np.arange(m.leaf_grid[0].size))


def points(m, l=0):
    X, Y = leaf_coordinates(m)
    return X[l], None if Y is None else Y[l]


def test_reaction_only_is_identity():
    m = mesh2d(p=6)
    ii = m.interior_local
    M = rows(EllipticOperator(c0=1.0), m)
    np.testing.assert_array_equal(M, np.eye(36)[None, ii])
    # and sigma shift composes additively
    M2 = rows(EllipticOperator(c0=1.0, sigma=2.0), m)
    np.testing.assert_array_equal(M2, 3.0 * np.eye(36)[None, ii])


def test_identity_operator_matrix():
    m = mesh2d(p=5)
    np.testing.assert_array_equal(
        rows(identity_operator(), m), np.eye(25)[None, m.interior_local]
    )


def test_collocation_polynomial_exactness():
    m = mesh2d(p=9, box=((0.0, 2.0), (-1.0, 1.0)))
    X, Y = points(m)
    u = X**3 * Y + 2 * X * Y**2
    op = EllipticOperator(c11=1.0, c22=2.0, c1=0.5, c2=-1.0, c0=3.0)
    want = (
        -(6 * X * Y)
        - 2.0 * (4 * X)
        + 0.5 * (3 * X**2 * Y + 2 * Y**2)
        - 1.0 * (X**3 + 4 * X * Y)
        + 3.0 * u
    )
    got = rows(op, m)[0] @ u.ravel()
    np.testing.assert_allclose(
        got.reshape(7, 7), want[1:-1, 1:-1], atol=1e-9
    )


def test_variable_coefficient_sampling():
    m = mesh2d(p=7)
    X, Y = points(m)
    op = EllipticOperator(c11=lambda x, y: 1 + x * 0, c0=lambda x, y: x + y)
    u = X**2
    got = (rows(op, m)[0] @ u.ravel()).reshape(5, 5)
    want = -2.0 + (X + Y) * u
    np.testing.assert_allclose(got, want[1:-1, 1:-1], atol=1e-10)


def test_mixed_term_rejected_and_why():
    m = mesh2d(p=6)
    with pytest.raises(ValueError, match="c12"):
        rows(EllipticOperator(c11=1.0, c22=1.0, c12=0.5), m)
    # the reason: unlike every supported term, the mixed derivative's
    # interior rows carry nonzero weight on the dropped corner nodes
    from hpstep.chebyshev import leaf_stencil

    st = leaf_stencil(6, 1.0, 1.0)
    p = 6
    corners = [0, p - 1, p * (p - 1), p * p - 1]
    interior = m.interior_local
    assert np.abs((st.Dx @ st.Dy)[np.ix_(interior, corners)]).max() > 1.0
    for Dmat in (st.Dx, st.Dy, st.Dxx, st.Dyy):
        assert np.abs(Dmat[np.ix_(interior, corners)]).max() == 0.0


def test_negative_principal_coefficient_rejected():
    m = mesh2d(p=5)
    with pytest.raises(ValueError, match="c11"):
        rows(EllipticOperator(c11=-1.0, c22=1.0), m)


def test_flux_rows_never_touch_corners():
    for mk in (mesh2d(p=7), mesh2d(2, 2, p=6)):
        F = flux_matrix(mk)
        p = mk.p
        corners = [0, p - 1, p * (p - 1), p * p - 1]
        assert np.abs(F[:, corners]).max() == 0.0


@pytest.mark.parametrize(
    "m,op,exact",
    [
        (
            mesh2d(p=10, box=((0.0, 1.5), (0.5, 1.5))),
            EllipticOperator(c11=1.0, c22=1.0, sigma=1.0),
            lambda x, y: x**4 - 3 * x**2 * y**2 + y + 1,
        ),
        (
            build_mesh((0.0, 1.5), 3, p=10),
            EllipticOperator(c11=lambda x: 1 + x**2, c0=np.cos, sigma=1.0),
            lambda x, y: x**4 - 3 * x**2 + x + 1,
        ),
    ],
    ids=["2d", "1d"],
)
def test_leaf_solve_reproduces_polynomial(m, op, exact):
    # manufactured degree<p solution is collocated exactly
    ops = build_leaf_operators(m, op)
    f = rows(op, m)
    ii, bb = m.interior_local, m.edge_local
    for l in range(m.n_leaves):
        u = exact(*points(m, l)).ravel()
        u_int = ops.inv[l] @ (f[l] @ u) - ops.G[l] @ u[bb]
        np.testing.assert_allclose(u_int, u[ii], atol=1e-10)


def test_dtn_of_harmonic_polynomial():
    # u = x^2 - y^2 is harmonic; with zero load the edge-to-flux map must
    # return its one-sided directional derivatives exactly
    m = mesh2d(p=9, box=((-1.0, 1.0), (-1.0, 1.0)))
    X, Y = points(m)
    u = X**2 - Y**2
    ops = build_leaf_operators(m, laplace_operator())
    g = u.ravel()[m.edge_local]
    F = flux_matrix(m)
    want = (F @ u.ravel())  # directional derivative rows of the exact field
    np.testing.assert_allclose(ops.T[0] @ g, want, atol=1e-9)


def test_complex_shift_round_trip():
    m = mesh2d(p=8)
    X, Y = points(m)
    u = np.sin(X) * Y**2
    op = laplace_operator().shifted(sigma=1.0, scale=0.25j)
    M = rows(op, m)[0]
    assert M.dtype == complex
    f_int = M @ u.ravel()
    ops = build_leaf_operators(m, op)
    ii, bb = m.interior_local, m.edge_local
    got = ops.inv[0] @ f_int - ops.G[0] @ u.ravel()[bb]
    np.testing.assert_allclose(got, u.ravel()[ii], atol=1e-11)


def test_shared_factorization_detection():
    m = mesh2d(2, 2, p=5)
    assert build_leaf_operators(m, laplace_operator()).shared
    varying = EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: x)
    ops = build_leaf_operators(m, varying)
    assert not ops.shared
    assert len(ops.inv) == len(ops.G) == len(ops.T) == m.n_leaves
    assert not np.array_equal(ops.T[0], ops.T[3])


@pytest.mark.parametrize(
    "m,op",
    [
        (
            mesh2d(2, 2, p=6, box=((0.0, 2.0), (0.0, 2.0))),
            EllipticOperator(
                c11=1.0, c22=1.0, c1=0.3, c0=lambda x, y: 1 + x + y, sigma=0.5, scale=2.0
            ),
        ),
        (
            build_mesh((0.0, 2.0), 4, p=7),
            EllipticOperator(
                c11=lambda x: 1 + x, c1=0.3, c0=lambda x: 1 + x**2, sigma=0.5, scale=2.0
            ),
        ),
    ],
    ids=["2d", "1d"],
)
def test_applier_matches_collocation_rows(m, op):
    # two independent routes to the interior operator values
    rng = np.random.default_rng(3)
    u = rng.standard_normal(m.n_nodes)
    applier = OperatorApplier(m, op)
    got = applier.interior_apply(u)
    M = rows(op, m)
    for l in range(m.n_leaves):
        u_leaf = gather_leaf_fields(m, u)[l].ravel()
        ids = m.leaf_grid[l].ravel()[m.interior_local]
        np.testing.assert_allclose(got[ids], M[l] @ u_leaf, atol=1e-10)


NEAR_SINGULAR = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-15]]])  # cond 3.6e15


@pytest.mark.parametrize(
    "make_stack",
    [
        lambda: build_leaf_operators(mesh2d(2, 1, p=5), EllipticOperator()),
        lambda: guarded_inverse(np.ones((3, 4, 4)), "test stack"),
        lambda: guarded_inverse(NEAR_SINGULAR, "test stack"),
        lambda: guarded_inverse(np.full((1, 3, 3), np.nan), "test stack"),
    ],
    ids=["zero-operator", "singular", "near-singular", "nan"],
)
def test_singular_blocks_raise(make_stack):
    with pytest.raises(ValueError, match="singular"):
        make_stack()


def test_gather_scatter_round_trip():
    m = mesh2d(3, 2, p=5)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, m.n_nodes))
    U = gather_leaf_fields(m, u)
    assert U.shape == (2, m.n_leaves, 5, 5)
    np.testing.assert_allclose(scatter_mean(m, U), u, atol=1e-14)


def test_averaged_gradient_smooth_field():
    m = mesh2d(3, 3, p=12, box=((-1.0, 1.0), (-1.0, 1.0)))
    u = np.sin(2 * m.x) * np.cos(m.y)
    ux, uy = averaged_gradient(m, u)
    np.testing.assert_allclose(ux, 2 * np.cos(2 * m.x) * np.cos(m.y), atol=1e-7)
    np.testing.assert_allclose(uy, -np.sin(2 * m.x) * np.sin(m.y), atol=1e-7)


def test_gradient_1d():
    m = build_mesh((0.0, np.pi), 4, p=14)
    (ux,) = averaged_gradient(m, np.sin(m.x))
    np.testing.assert_allclose(ux, np.cos(m.x), atol=1e-9)
