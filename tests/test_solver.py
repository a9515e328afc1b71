from __future__ import annotations

import numpy as np
import pytest

from hpstep.mesh import BOUNDARY, INTERFACE, build_mesh
from hpstep.operators import (
    EllipticOperator,
    LeafOperatorSet,
    build_leaf_operators,
    gather_leaf_fields,
    laplace_operator,
)
from hpstep.oracle import assemble_global, oracle_solve
from hpstep.solver import build_factorization


def shifted_laplace():
    return laplace_operator().shifted(sigma=1.0, scale=1.0)


def random_data(mesh, rng, dtype=float):
    f = rng.standard_normal(mesh.n_nodes)
    g = rng.standard_normal(mesh.ids_of(BOUNDARY).size)
    if dtype is complex:
        f = f + 1j * rng.standard_normal(mesh.n_nodes)
        g = g + 1j * rng.standard_normal(g.size)
    return f, g


MESHES_2D = [(1, 1), (2, 1), (2, 2), (3, 2), (6, 6), (5, 3)]


@pytest.mark.parametrize("n1,n2", MESHES_2D)
@pytest.mark.parametrize("p", [5, 7, 9])
def test_matches_oracle_shifted_laplace(n1, n2, p):
    mesh = build_mesh(((0.0, float(n1)), (0.0, float(n2))), n1, n2, p=p)
    rng = np.random.default_rng(10 * n1 + n2 + p)
    f, g_sorted = random_data(mesh, rng)
    op = shifted_laplace()
    fact = build_factorization(mesh, op)
    # oracle orders boundary data by ascending id; translate for the tree
    order = np.argsort(fact.gamma_ids)
    g_tree = np.empty_like(g_sorted)
    g_tree[order] = g_sorted
    got = fact.solve(f, g_tree)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g_sorted)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() / scale < 1e-9


@pytest.mark.parametrize("n1,n2", [(2, 1), (3, 2)])
def test_matches_oracle_complex_shift(n1, n2):
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), n1, n2, p=7)
    rng = np.random.default_rng(5)
    f, g_sorted = random_data(mesh, rng, complex)
    op = laplace_operator().shifted(sigma=1.0, scale=0.03 + 0.07j)
    fact = build_factorization(mesh, op)
    assert fact.dtype == complex
    order = np.argsort(fact.gamma_ids)
    g_tree = np.empty_like(g_sorted)
    g_tree[order] = g_sorted
    got = fact.solve(f, g_tree)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g_sorted)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-9


@pytest.mark.parametrize("n1,n2", [(3, 2), (6, 6)])
def test_matches_oracle_variable_reaction(n1, n2):
    mesh = build_mesh(((-1.0, 1.0), (0.0, 1.0)), n1, n2, p=7)
    rng = np.random.default_rng(11)
    f, g_sorted = random_data(mesh, rng)
    op = EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: 1 + x * x + y * y)
    fact = build_factorization(mesh, op)
    order = np.argsort(fact.gamma_ids)
    g_tree = np.empty_like(g_sorted)
    g_tree[order] = g_sorted
    got = fact.solve(f, g_tree)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g_sorted)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-9


@pytest.mark.parametrize("n1", [1, 2, 5])
def test_matches_oracle_1d(n1):
    mesh = build_mesh((0.0, 2.0), n1, p=9)
    rng = np.random.default_rng(n1)
    f, g_sorted = random_data(mesh, rng)
    op = shifted_laplace()
    fact = build_factorization(mesh, op)
    order = np.argsort(fact.gamma_ids)
    g_tree = np.empty_like(g_sorted)
    g_tree[order] = g_sorted
    got = fact.solve(f, g_tree)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g_sorted)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


def test_factorization_reuse_many_solves():
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=6)
    fact = build_factorization(mesh, shifted_laplace())
    sysm = assemble_global(mesh, shifted_laplace())
    rng = np.random.default_rng(0)
    order = np.argsort(fact.gamma_ids)
    for _ in range(3):
        f, g_sorted = random_data(mesh, rng)
        g_tree = np.empty_like(g_sorted)
        g_tree[order] = g_sorted
        got = fact.solve(f, g_tree)
        want = oracle_solve(sysm, f, dirichlet=g_sorted)
        assert np.abs(got - want).max() < 1e-9 * max(1, np.abs(want).max())


def test_multi_rhs_matches_stacked_single():
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=6)
    fact = build_factorization(mesh, shifted_laplace())
    rng = np.random.default_rng(4)
    F = rng.standard_normal((3, mesh.n_nodes))
    G = rng.standard_normal((3, fact.gamma_ids.size))
    got = fact.solve(F, G)
    assert got.shape == (3, mesh.n_nodes)
    for i in range(3):
        np.testing.assert_allclose(got[i], fact.solve(F[i], G[i]), atol=1e-12)


def test_solution_interpolates_smooth_data():
    # spectral convergence sanity on a 4x2 tree, exact solution known
    errs = []
    for p in (6, 10):
        mesh = build_mesh(((0.0, 2.0), (0.0, 1.0)), 4, 2, p=p)
        u = np.sin(np.pi * mesh.x) * np.sin(np.pi * mesh.y)
        f = (1 + 2 * np.pi**2) * u
        fact = build_factorization(mesh, shifted_laplace())
        g = u[fact.gamma_ids]
        errs.append(np.abs(fact.solve(f, g) - u).max())
    assert errs[1] < 1e-4 * errs[0]


def leaf_flux_jumps(mesh, leaf_ops: LeafOperatorSet, field):
    """Max interface jump of one-sided edge-normal derivatives."""
    flat = mesh.leaf_grid.reshape(mesh.n_leaves, -1)
    jump = np.zeros(mesh.n_nodes)
    seen = np.zeros(mesh.n_nodes, dtype=bool)
    for l in range(mesh.n_leaves):
        ii = flat[l, mesh.interior_local]
        bb = flat[l, mesh.edge_local]
        flux = leaf_ops.Fi @ field[ii] + leaf_ops.Fb @ field[bb]
        sel = mesh.node_class[bb] == INTERFACE
        ids = bb[sel]
        vals = flux[sel]
        jump[ids[seen[ids]]] -= vals[seen[ids]]
        jump[ids[~seen[ids]]] += vals[~seen[ids]]
        seen[ids] = True
    return jump


@pytest.mark.parametrize("dim", [1, 2])
def test_penalized_interface_condition(dim):
    # the corrected solve must carry -(1/dt) * [[flux(penalty)]] as its
    # own interface flux jump: stage sums with unit weight then cancel
    # the penalty field's kink
    if dim == 1:
        mesh = build_mesh((0.0, 2.0), 2, p=12)
        kink = 1.0 - np.abs(mesh.x - 1.0)
        smooth = np.sin(np.pi * mesh.x / 2)
    else:
        # kinks along every interface line x = 1, x = 2 and y = 1
        mesh = build_mesh(((0.0, 3.0), (0.0, 2.0)), 3, 2, p=12)
        kink = np.abs(np.sin(np.pi * mesh.x)) + np.abs(np.sin(np.pi * mesh.y))
        smooth = np.sin(mesh.x) * np.cos(mesh.y)
    dt = 0.05
    op = laplace_operator().shifted(sigma=1.0, scale=dt)
    fact = build_factorization(mesh, op)
    f = np.zeros(mesh.n_nodes)
    g = np.zeros(fact.gamma_ids.size)
    sol = fact.solve(f, g, penalty_field=kink, dt=dt)
    leaf_ops = build_leaf_operators(mesh, op)
    jump_sol = leaf_flux_jumps(mesh, leaf_ops, sol)
    jump_pen = leaf_flux_jumps(mesh, leaf_ops, kink)
    mid = mesh.ids_of(INTERFACE)
    np.testing.assert_allclose(jump_sol[mid], -jump_pen[mid] / dt, rtol=1e-10)
    # and a smooth penalty field leaves the solve essentially unchanged
    plain = fact.solve(f, g)
    pen = fact.solve(f, g, penalty_field=smooth, dt=dt)
    assert np.abs(plain - pen).max() < 1e-8


def test_penalty_requires_dt():
    mesh = build_mesh((0.0, 1.0), 2, p=5)
    fact = build_factorization(mesh, shifted_laplace())
    with pytest.raises(ValueError, match="dt"):
        fact.solve(np.zeros(mesh.n_nodes), np.zeros(2), penalty_field=np.zeros(mesh.n_nodes))


def test_identity_operator_tree_is_solvable():
    # the continuity system: identity rows inside, derivative matching at
    # interfaces; smooth interior data reproduces the smooth field
    from hpstep.operators import identity_operator

    mesh = build_mesh(((0.0, 2.0), (0.0, 2.0)), 2, 2, p=10)
    fact = build_factorization(mesh, identity_operator())
    u = np.sin(mesh.x) * np.cos(mesh.y)
    got = fact.solve(u, u[fact.gamma_ids])
    assert np.abs(got - u).max() < 1e-8
