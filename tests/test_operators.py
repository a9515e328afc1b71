from __future__ import annotations

import functools

import numpy as np
import pytest

from hpstep.chebyshev import fill_corners, leaf_stencil
from hpstep.mesh import build_mesh
from hpstep.operators import (
    EllipticOperator,
    OperatorApplier,
    advection,
    apply_lines,
    build_leaf_operators,
    collocate_interior,
    edge_fluxes,
    flux_matrix,
    gather_leaf_fields,
    guarded_inverse,
    identity_operator,
    laplace_operator,
    leaf_coordinates,
    mesh_stencil,
    scatter_mean,
)
from hpstep.operators import _groups


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
    with pytest.raises(TypeError, match="c12"):
        rows(EllipticOperator(c11=1.0, c22=1.0, c12=0.5), m)
    # the reason: unlike every supported term, the mixed derivative's
    # interior rows carry nonzero weight on the dropped corner nodes
    D = kron_matrices(leaf_stencil(6, 1.0, 1.0))
    p = 6
    corners = [0, p - 1, p * (p - 1), p * p - 1]
    interior = m.interior_local
    assert np.abs((D["Dx1"] @ D["Dy1"])[np.ix_(interior, corners)]).max() > 1.0
    for Dmat in D.values():
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
        u_int = ops.P[l] @ (f[l] @ u) - ops.G[l] @ u[bb]
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
    T = ops.edge_to_flux()[0]
    np.testing.assert_allclose(T @ g, want, atol=1e-9)


def test_complex_shift_round_trip():
    m = mesh2d(p=8)
    X, Y = points(m)
    u = np.sin(X) * Y**2
    op = laplace_operator().shifted(sigma=1.0, scale=0.25j)
    M = rows(op, m)[0]
    assert M.dtype == complex
    f_int = M @ u.ravel()
    ops = build_leaf_operators(m, op)
    # sigma I + i tau A with A real: the leaf solution operator is stored real
    assert ops.P.dtype == ops.FiP.dtype == np.float64
    ii, bb = m.interior_local, m.edge_local
    flux = np.empty((1, 1, bb.size), dtype=complex)
    kept = ops.upward(f_int[None, None], flux)
    got = ops.downward(kept, u.ravel()[bb][None, None])[0, 0]
    np.testing.assert_allclose(got, u.ravel()[ii], atol=1e-11)
    # the particular flux plus the edge-to-flux map's is u's flux (measured: 1.3e-14)
    got = flux[0, 0] + ops.edge_to_flux()[0] @ u.ravel()[bb]
    np.testing.assert_allclose(got, flux_matrix(m) @ u.ravel(), atol=1e-11)


def test_shared_factorization_detection():
    m = mesh2d(2, 2, p=5)
    assert build_leaf_operators(m, laplace_operator()).shared
    varying = EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: x)
    ops = build_leaf_operators(m, varying)
    assert not ops.shared
    assert len(ops.P) == len(ops.G) == m.n_leaves
    assert not np.array_equal(ops.G[0], ops.G[3])


@pytest.mark.parametrize(
    "m,op",
    [
        (
            mesh2d(2, 2, p=6, box=((0.0, 2.0), (0.0, 2.0))),
            EllipticOperator(c11=1.0, c22=1.0, c1=0.3, c0=lambda x, y: 1 + x + y),
        ),
        (
            build_mesh((0.0, 2.0), 4, p=7),
            EllipticOperator(c11=lambda x: 1 + x, c1=0.3, c0=lambda x: 1 + x**2),
        ),
    ],
    ids=["2d", "1d"],
)
def test_applier_matches_collocation_rows(m, op):
    # the matrix-free kernel against dense rows built with np.kron; the
    # solver's rows are the same kernel applied to unit fields
    rng = np.random.default_rng(3)
    u = rng.standard_normal(m.n_nodes)
    applier = OperatorApplier(m, op)
    got = applier.interior_apply(u)
    for l in range(m.n_leaves):
        u_leaf = gather_leaf_fields(m, u)[l].ravel()
        ids = m.leaf_grid[l].ravel()[m.interior_local]
        want = dense_leaf_rows(m, op, l)[m.interior_local] @ u_leaf
        np.testing.assert_allclose(got[ids], want, atol=1e-10)


NEAR_SINGULAR = np.array([np.eye(2), [[1.0, 1.0], [1.0, 1.0 + 1e-15]]])  # cond 3.6e15


@pytest.mark.parametrize(
    "make_stack",
    [
        lambda: build_leaf_operators(mesh2d(2, 1, p=5), EllipticOperator()),
        lambda: guarded_inverse(np.ones((3, 4, 4)), "test stack"),
        lambda: guarded_inverse(NEAR_SINGULAR.copy(), "test stack"),
        lambda: guarded_inverse(np.full((1, 3, 3), np.nan), "test stack"),
    ],
    ids=["zero-operator", "singular", "near-singular", "nan"],
)
def test_singular_blocks_raise(make_stack):
    with pytest.raises(ValueError, match="singular"):
        make_stack()


def test_guarded_inverse_matches_one_batched_inverse():
    # 80 KB blocks: the stack is inverted in place in two groups
    rng = np.random.default_rng(5)
    X = rng.standard_normal((70, 100, 100)) + 20 * np.eye(100)
    want = np.linalg.inv(X)
    inv, cond = guarded_inverse(X.copy(), "test stack")
    np.testing.assert_array_equal(inv, want)
    assert cond == pytest.approx(max(np.linalg.cond(x, 1) for x in X), rel=1e-12)
    # blocks stored transposed still come back C-ordered, as the solve multiplies them
    inv, _ = guarded_inverse(X.transpose(0, 2, 1).copy().transpose(0, 2, 1), "test stack")
    assert inv.flags.c_contiguous
    np.testing.assert_array_equal(inv, want)


GROUPED_BUILDS = {  # variable coefficients, so every leaf has its own blocks
    "real": EllipticOperator(c11=1.0, c22=1.0, c1=0.3, c0=lambda x, y: 1 + x * x + y),
    "complex": EllipticOperator(
        c11=1.0, c22=1.0, c0=lambda x, y: 1 + x * x + y * y
    ).shifted(1.0, 0.3 + 0.2j),
    "imaginary-shift": EllipticOperator(
        c11=0.5, c22=0.5, c0=lambda x, y: 0.5 * (x * x + y * y)
    ).shifted(1.0, 0.07j),
}


@pytest.mark.parametrize("name", GROUPED_BUILDS)
def test_grouped_leaf_build_matches_whole_stack(name):
    # the build inverts a few MB of leaves at a time and forms G and the
    # edge-to-flux map per run: each equals the whole stack's, bit for bit
    m = mesh2d(12, 10, p=12, box=((-2.0, 2.0), (-1.0, 1.0)))
    op = GROUPED_BUILDS[name]
    ii, bb = m.interior_local, m.edge_local
    M_II = collocate_interior(op, m, ii)
    assert len(_groups(m.n_leaves, M_II[0].nbytes)) >= 2
    inv, cond = guarded_inverse(M_II, "test stack")
    G = inv @ collocate_interior(op, m, bb)
    F = flux_matrix(m)
    Fi, Fb = F[:, ii], F[:, bb]
    ops = build_leaf_operators(m, op)
    if name == "imaginary-shift":  # the real form keeps Re(inv) and Fi @ Re(inv)
        np.testing.assert_array_equal(ops.P, inv.real)
        np.testing.assert_array_equal(ops.FiP, Fi @ inv.real)
    else:
        np.testing.assert_array_equal(ops.P, inv)
        np.testing.assert_array_equal(ops.G, G)
    assert ops.condition == cond
    np.testing.assert_array_equal(ops.edge_to_flux(), Fb - Fi @ G)
    assert ops.edge_to_flux() is None  # handed over once


def test_gather_scatter_round_trip():
    m = mesh2d(3, 2, p=5)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, m.n_nodes))
    U = gather_leaf_fields(m, u)
    assert U.shape == (2, m.n_leaves, 5, 5)
    np.testing.assert_allclose(scatter_mean(m, U), u, atol=1e-14)


@pytest.mark.parametrize("dim", [1, 2])
def test_scatter_mean_matches_accumulating_loop(dim):
    m = build_mesh((0.0, 1.0), 4, p=6) if dim == 1 else mesh2d(3, 2, p=5)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((2,) + m.leaf_grid.shape)
    keep = m.leaf_grid >= 0
    want = np.zeros((2, m.n_nodes))
    for i in range(2):
        np.add.at(want[i], m.leaf_grid[keep], vals[i][keep])
    count = np.bincount(m.leaf_grid[keep], minlength=m.n_nodes)
    np.testing.assert_array_equal(scatter_mean(m, vals), want / count)


def test_advection_smooth_field():
    # Taylor-Green cell u = (sin x cos y, -cos x sin y):
    # (u . grad) u = (sin x cos x, sin y cos y)
    m = mesh2d(3, 3, p=12, box=((-1.0, 1.0), (-1.0, 1.0)))
    u = np.stack([np.sin(m.x) * np.cos(m.y), -np.cos(m.x) * np.sin(m.y)])
    want = -np.stack([np.sin(m.x) * np.cos(m.x), np.sin(m.y) * np.cos(m.y)])
    np.testing.assert_allclose(advection(m, u), want, atol=1e-7)


@pytest.mark.parametrize("dtype", [float, complex])
def test_advection_bytes_match_zeroed_corner_form(dtype):
    # fill_corners rebuilds every corner, so gathering without zeroing them
    # and scaling the sum by -0.5 gives the bytes of the negated mean
    m = mesh2d(3, 2, p=8, box=((0.0, 2.0), (0.0, 1.0)))
    rng = np.random.default_rng(5)
    u = rng.standard_normal((2, m.n_nodes)).astype(dtype)
    u += 1j * rng.standard_normal((2, m.n_nodes)) if dtype is complex else 0.0
    st = mesh_stencil(m)
    U = fill_corners(gather_leaf_fields(m, u))
    vals = apply_lines(st.Dx1, "x", U) * U[0] + U[1] * apply_lines(st.Dy1, "y", U)
    want = -scatter_mean(m, vals)
    got = advection(m, u)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# -- the index plan: every take against a fancy-index reference ------------

INDEX_MESHES = {
    "1d": lambda: build_mesh((0.0, 2.0), 4, p=7),
    "2d": lambda: mesh2d(3, 2, p=6, box=((0.0, 2.0), (0.0, 1.0))),
}
INDEX_FIELDS = {
    "row": lambda rng, n: rng.standard_normal(n),
    "pair": lambda rng, n: rng.standard_normal((2, n)),
    "complex": lambda rng, n: rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)),
}
index_cases = pytest.mark.parametrize(
    "dim,kind", [(d, k) for d in INDEX_MESHES for k in INDEX_FIELDS]
)


def index_case(dim, kind):
    m = INDEX_MESHES[dim]()
    return m, INDEX_FIELDS[kind](np.random.default_rng(7), m.n_nodes)


def fancy_gather(m, u):
    return np.where(m.leaf_grid < 0, 0.0, u[..., np.maximum(m.leaf_grid, 0)])


def fancy_scatter(m, vals):
    flat = vals.reshape(vals.shape[: vals.ndim - m.leaf_grid.ndim] + (-1,))
    a, b = m.owner_slots
    return 0.5 * (flat[..., a] + flat[..., b])


@index_cases
def test_edge_fluxes_match_flux_matrix(dim, kind):
    # each leaf's edge-normal derivatives from the end rows of the 1-D
    # blocks against dense flux rows built with np.kron, applied to its values
    m, u = index_case(dim, kind)
    got = edge_fluxes(m, u)
    lead = u.shape[:-1]
    want = gather_leaf_fields(m, u).reshape(lead + (m.n_leaves, -1)) @ kron_flux_rows(m).T
    assert got.shape == want.shape and got.dtype == u.dtype
    # measured: at most 1.9e-16 of max|want| over these cases
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@index_cases
def test_gather_matches_fancy_index(dim, kind):
    m, u = index_case(dim, kind)
    got = gather_leaf_fields(m, u)
    np.testing.assert_array_equal(got, fancy_gather(m, u))
    assert got.dtype == u.dtype and got.flags.c_contiguous


@index_cases
def test_scatter_mean_matches_fancy_index(dim, kind):
    m, u = index_case(dim, kind)
    vals = gather_leaf_fields(m, u) * (1.0 + 0.1 * np.arange(m.leaf_grid.shape[-1]))
    got = scatter_mean(m, vals)
    np.testing.assert_array_equal(got, fancy_scatter(m, vals))
    assert got.shape == u.shape and got.flags.c_contiguous


@index_cases
def test_interior_apply_matches_fancy_index(dim, kind):
    m, u = index_case(dim, kind)
    c = (lambda x: 1 + x**2) if dim == "1d" else (lambda x, y: 1 + x**2 + y)
    op = EllipticOperator(c11=c, c1=0.3, c0=2.0, **({"c22": 1.5} if dim == "2d" else {}))
    applier = OperatorApplier(m, op)
    vals = applier.leaf_values(u)
    lead = u.shape[:-1]
    want = np.zeros(lead + (m.n_nodes,), dtype=vals.dtype)
    ids = m.leaf_grid.reshape(m.n_leaves, -1)[:, m.interior_local]
    want[..., ids] = vals.reshape(lead + (m.n_leaves, -1))[..., m.interior_local]
    got = applier.interior_apply(u)
    np.testing.assert_array_equal(got, want)
    assert got.flags.c_contiguous


@pytest.mark.parametrize("dim", list(INDEX_MESHES))
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("lead", [(), (2,)], ids=["one-row", "two-rows"])
def test_zero_operator_applies_as_zeros(dim, dtype, lead):
    # an operator with no term is the zero operator, not a missing value
    m = INDEX_MESHES[dim]()
    u = np.ones(lead + (m.n_nodes,), dtype=dtype)
    applier = OperatorApplier(m, EllipticOperator())
    got = applier.interior_apply(u)
    assert got.shape == u.shape and got.dtype == u.dtype
    assert not got.any()
    vals = applier.leaf_values(u)
    assert vals.shape == lead + m.leaf_grid.shape and not vals.any()


@pytest.mark.parametrize("kind", ["pair", "complex"])
def test_advection_matches_fancy_index(kind):
    m, u = index_case("2d", kind)
    st = leaf_stencil(m.p, m.hx, m.hy)
    U = fill_corners(fancy_gather(m, u))
    ux = fancy_scatter(m, np.matmul(U, st.Dx1.T))
    uy = fancy_scatter(m, np.matmul(st.Dy1, U))
    want = -(u[0] * ux + u[1] * uy)
    got = advection(m, u)
    # products are formed per leaf before the shared nodes are averaged
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
    assert got.dtype == want.dtype and got.flags.c_contiguous


# -- the applier forms only the derivatives its terms need -----------------

APPLIER_COEFS = {
    "constant": dict(c11=1.2, c22=0.7, c1=0.3, c2=-0.4, c0=2.0),
    "variable": dict(
        c11=lambda x, y=0.0: 1 + x**2,
        c22=lambda x, y: 1 + y,
        c1=lambda x, y=0.0: np.sin(x),
        c2=lambda x, y: x * y,
        c0=lambda x, y=0.0: 1 + x + y,
    ),
}


def reference_leaf_values(m, op, u, fill):
    """Every term of the bare operator from two first-derivative passes;
    `fill` rebuilds the 2D corners by edge extrapolation first."""
    st = leaf_stencil(m.p, m.hx, m.hy if m.dim == 2 else None)
    U = fancy_gather(m, u)
    if fill and m.dim == 2:
        U = fill_corners(U)
    x, y = leaf_coordinates(m)
    coef = lambda c: (c(x) if y is None else c(x, y)) if callable(c) else c
    ux = np.matmul(U, st.Dx1.T)
    A = -coef(op.c11) * np.matmul(ux, st.Dx1.T) + coef(op.c1) * ux + coef(op.c0) * U
    if m.dim == 2:
        uy = np.matmul(st.Dy1, U)
        A = A - coef(op.c22) * np.matmul(st.Dy1, uy) + coef(op.c2) * uy
    return A


@pytest.mark.parametrize("dim", ["1d", "2d"])
@pytest.mark.parametrize("kind", ["pair", "complex"])
@pytest.mark.parametrize("coefs", list(APPLIER_COEFS))
@pytest.mark.parametrize("shift", [(0.0, 1.0), (0.5, 2.0 - 0.5j)], ids=["plain", "shifted"])
@pytest.mark.parametrize("fill", [False, True], ids=["nofill", "fill"])
def test_leaf_values_match_two_pass_reference(dim, kind, coefs, shift, fill):
    # the applier takes only the bare operator; its interior values read no
    # corner slot, so a reference with rebuilt corners (`fill`) agrees there
    m, u = index_case(dim, kind)
    terms = dict(APPLIER_COEFS[coefs])
    if dim == "1d":
        del terms["c22"], terms["c2"]
    op = EllipticOperator(**terms)
    if shift != (0.0, 1.0):
        # a shift and a prefactor are each refused alone
        for sigma, scale in ((shift[0], 1.0), (0.0, shift[1])):
            with pytest.raises(ValueError, match="bare operator"):
                OperatorApplier(m, op.shifted(sigma, scale))
        return
    got = OperatorApplier(m, op).leaf_values(u)
    want = reference_leaf_values(m, op, u, fill)
    assert got.shape == want.shape and got.dtype == want.dtype
    interior = np.zeros(m.leaf_grid.shape[1:], dtype=bool)
    interior.reshape(-1)[m.interior_local] = True
    assert np.abs(got - want)[..., interior].max() <= 1e-12 * np.abs(want)[..., interior].max()


@pytest.mark.parametrize(
    "terms,passes",
    [
        (dict(c0=lambda x, y: 1 + x), (0, 0)),
        (dict(c11=1.0, c22=1.0), (1, 1)),
        (dict(c11=lambda x, y: 1 + x, c1=0.3, c0=2.0), (2, 0)),
    ],
    ids=["c0-only", "laplace", "x-terms"],
)
def test_applier_runs_only_needed_passes(monkeypatch, terms, passes):
    import hpstep.operators as operators

    calls = {"x": 0, "y": 0}

    def counted(B, axis, U):
        calls[axis] += 1
        return apply_lines(B, axis, U)

    monkeypatch.setattr(operators, "apply_lines", counted)
    m, u = index_case("2d", "pair")
    OperatorApplier(m, EllipticOperator(**terms)).interior_apply(u)
    assert (calls["x"], calls["y"]) == passes


# -- interior collocation against a leaf-by-leaf dense build ---------------

COLLOCATION_COEFS = {
    "c11": (1.3, lambda x, y=0.0: 1 + x**2 + 0.5 * y),
    "c22": (0.7, lambda x, y: 2 + np.sin(x * y)),
    "c1": (0.4 - 0.2j, lambda x, y=0.0: np.cos(x) - 0.5j * y),
    "c2": (-0.6, lambda x, y: x - y),
    "c0": (2.0 + 1.0j, lambda x, y=0.0: (x**2 + y**2) / 2 + 1j * x),
}
COLLOCATION_MESHES = {
    "1d": lambda: build_mesh((0.0, 1.5), 3, p=7),
    "2d": lambda: build_mesh(((0.0, 2.0), (-0.5, 0.5)), 3, 2, p=6),
}
_TERM_MATRIX = {
    "c11": (-1.0, "Dxx1"), "c22": (-1.0, "Dyy1"), "c1": (1.0, "Dx1"), "c2": (1.0, "Dy1")
}


def kron_matrices(st):
    """The derivative matrices of a leaf stencil over all of a leaf's local
    nodes, built here from its 1-D blocks: in 2D with np.kron on the
    row-major flattening, and second derivatives as products of first."""
    if st.Dy1 is None:
        return {"Dx1": st.Dx1, "Dxx1": st.Dx1 @ st.Dx1}
    eye = np.eye(len(st.Dx1))
    Dx, Dy = np.kron(eye, st.Dx1), np.kron(st.Dy1, eye)
    return {"Dx1": Dx, "Dy1": Dy, "Dxx1": Dx @ Dx, "Dyy1": Dy @ Dy}


def kron_flux_rows(m):
    """The flux rows of `flux_matrix` from `kron_matrices`: x-derivative
    rows at vertical edges (and both 1D ends), y-derivative rows at
    horizontal ones."""
    D = kron_referee(m.p, m.hx, m.hy if m.dim == 2 else None)
    if m.dim == 1:
        return D["Dx1"][m.edge_local]
    horizontal = np.repeat([True, False, True, False], m.p - 2)  # S, E, N, W
    return np.where(horizontal[:, None], D["Dy1"][m.edge_local], D["Dx1"][m.edge_local])


def dense_leaf_rows(m, op, l):
    """sigma*I + scale*sum(sign*c*D) of leaf l over all of its local nodes."""
    D = kron_matrices(mesh_stencil(m))
    x, y = leaf_coordinates(m)
    x, y = x[l].ravel(), None if y is None else y[l].ravel()
    n = x.size
    A = np.zeros((n, n), dtype=complex)
    for name in ("c11", "c1", "c0") if m.dim == 1 else COLLOCATION_COEFS:
        c = getattr(op, name)
        c = (c(x) if y is None else c(x, y)) if callable(c) else np.full(n, c)
        sign, key = _TERM_MATRIX.get(name, (1.0, None))
        A += sign * c[:, None] * (np.eye(n) if key is None else D[key])
    return op.sigma * np.eye(n) + op.scale * A


@pytest.mark.parametrize(
    "dim,sampled",
    [("1d", s) for s in ("none", "c11", "c1", "c0", "all")]
    + [("2d", s) for s in ("none", "c11", "c22", "c1", "c2", "c0", "all")],
)
def test_collocation_matches_dense_leaf_build(dim, sampled):
    m = COLLOCATION_MESHES[dim]()
    names = ("c11", "c1", "c0") if dim == "1d" else tuple(COLLOCATION_COEFS)
    terms = {n: COLLOCATION_COEFS[n][n == sampled or sampled == "all"] for n in names}
    op = EllipticOperator(**terms, sigma=0.3 - 1.1j, scale=-0.7 + 0.4j)
    want = np.array([dense_leaf_rows(m, op, l)[m.interior_local] for l in range(m.n_leaves)])
    for cols in (m.interior_local, m.edge_local, np.arange(m.leaf_grid[0].size)):
        got = collocate_interior(op, m, cols)
        assert len(got) in (1, m.n_leaves) and got.shape[1:] == (m.interior_local.size, cols.size)
        got = np.broadcast_to(got, (m.n_leaves,) + got.shape[1:])
        ref = want[:, :, cols]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@functools.lru_cache(maxsize=2)
def kron_referee(p, hx, hy):
    """`kron_matrices` of one leaf size, kept for the next call."""
    return kron_matrices(leaf_stencil(p, hx, hy))


@pytest.mark.parametrize("dim", list(COLLOCATION_MESHES))
@pytest.mark.parametrize("p", range(4, 25))
def test_placed_rows_match_kron_referee_at_every_p(p, dim):
    # rows the kernels form from unit fields against np.kron matrices: each
    # term alone, constant and sampled, then the flux rows; this also pins
    # the row-major (y outer, x inner) layout of every 2-D derivative
    if dim == "1d":
        m = build_mesh((0.0, 1.5), 2, p=p)
        names, D = ("c11", "c1", "c0"), kron_referee(p, m.hx, None)
    else:
        m = build_mesh(((0.0, 2.0), (-0.5, 0.5)), 2, 2, p=p)  # hx = 2 hy: x and y differ
        names, D = tuple(COLLOCATION_COEFS), kron_referee(p, m.hx, m.hy)
    ii, every = m.interior_local, np.arange(m.leaf_grid[0].size)
    x, y = (c.reshape(m.n_leaves, -1) if c is not None else None for c in leaf_coordinates(m))
    for name in names:
        sign, key = _TERM_MATRIX.get(name, (1.0, None))
        M = np.eye(every.size) if key is None else D[key]
        for c in COLLOCATION_COEFS[name]:
            op = EllipticOperator(**{name: c}, sigma=0.3 - 1.1j, scale=-0.7 + 0.4j)
            vals = (c(x) if y is None else c(x, y)) if callable(c) else np.full(x.shape, c)
            want = op.sigma * np.eye(every.size)[ii] + op.scale * sign * vals[:, ii, None] * M[ii]
            got = np.broadcast_to(collocate_interior(op, m, every), want.shape)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
    want = kron_flux_rows(m)
    F = flux_matrix(m)
    assert F.shape == want.shape
    assert np.abs(F - want).max() <= 1e-13 * np.abs(want).max()


def real_part(coef):
    return (lambda *a: np.real(coef(*a))) if callable(coef) else float(np.real(coef))


@pytest.mark.parametrize(
    "dim,sampled",
    [("1d", s) for s in ("none", "c11", "c1", "c0", "all")]
    + [("2d", s) for s in ("none", "c11", "c22", "c1", "c2", "c0", "all")],
)
def test_interior_shift_matches_dense_interior_block(dim, sampled):
    # (I - i s A_II) from 1-D blocks against the dense interior rows of A
    m = COLLOCATION_MESHES[dim]()
    names = ("c11", "c1", "c0") if dim == "1d" else tuple(COLLOCATION_COEFS)
    terms = {n: real_part(COLLOCATION_COEFS[n][n == sampled or sampled == "all"]) for n in names}
    bare = EllipticOperator(**terms)
    ops = build_leaf_operators(m, bare.shifted(0.8, 0.24j))  # s = 0.3
    ii = m.interior_local
    A = np.array([dense_leaf_rows(m, bare, l)[np.ix_(ii, ii)] for l in range(m.n_leaves)])
    assert not np.iscomplex(A).any()
    rng = np.random.default_rng(3)
    shape = (2, m.n_leaves, ii.size)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = x - 0.3j * np.einsum("lij,klj->kli", A.real, x)
    got = ops.shift(x)
    assert got.shape == x.shape
    # measured: at most 7.3e-17 of |A| |x| over these cases
    assert np.abs(got - want).max() <= 1e-14 * np.abs(A).sum(axis=-1).max() * np.abs(x).max()


@pytest.mark.parametrize("dim", list(COLLOCATION_MESHES))
def test_sampled_identity_term_leaves_edge_columns_shared(dim):
    # c0 weighs only the diagonal, which lies in the interior columns: the
    # edge columns of every leaf are then the same
    m = COLLOCATION_MESHES[dim]()
    names = ("c11", "c1") if dim == "1d" else ("c11", "c22", "c1", "c2")
    op = EllipticOperator(
        **{n: COLLOCATION_COEFS[n][0] for n in names}, c0=COLLOCATION_COEFS["c0"][1], sigma=1j
    )
    assert len(collocate_interior(op, m, m.edge_local)) == 1
    assert len(collocate_interior(op, m, m.interior_local)) == m.n_leaves
    ops = build_leaf_operators(m, op)
    assert len(ops.P) == len(ops.G) == m.n_leaves
