from __future__ import annotations

import numpy as np
import pytest

from hpstep.mesh import BOUNDARY, INTERFACE, INTERIOR, build_mesh
from hpstep.operators import EllipticOperator, laplace_operator
from hpstep.oracle import MAX_DENSE_NODES, assemble_global, oracle_solve


def poisson_setup(mesh, u_exact, lap_u, sigma=1.0):
    """Manufactured data for (sigma - Laplace) u = f, Dirichlet."""
    op = laplace_operator().shifted(sigma=sigma, scale=1.0)
    if mesh.dim == 1:
        u = u_exact(mesh.x)
        f = sigma * u - lap_u(mesh.x)
    else:
        u = u_exact(mesh.x, mesh.y)
        f = sigma * u - lap_u(mesh.x, mesh.y)
    gamma = mesh.ids_of(BOUNDARY)
    return op, u, f, u[gamma]


def test_polynomial_solution_exact_2d():
    m = build_mesh(((0.0, 2.0), (0.0, 1.0)), 2, 2, p=7)
    op, u, f, g = poisson_setup(
        m, lambda x, y: x**3 * y + y**2 - 4 * x, lambda x, y: 6 * x * y + 2
    )
    sol = oracle_solve(assemble_global(m, op), f, dirichlet=g)
    np.testing.assert_allclose(sol, u, atol=1e-10)


def test_polynomial_solution_exact_1d():
    m = build_mesh((0.0, 2.0), 3, p=8)
    op, u, f, g = poisson_setup(m, lambda x: x**4 - x, lambda x: 12 * x**2)
    sol = oracle_solve(assemble_global(m, op), f, dirichlet=g)
    np.testing.assert_allclose(sol, u, atol=1e-10)


def test_smooth_solution_spectral_accuracy():
    errs = []
    for p in (6, 9, 12):
        m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=p)
        op, u, f, g = poisson_setup(
            m,
            lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            lambda x, y: -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y),
        )
        sol = oracle_solve(assemble_global(m, op), f, dirichlet=g)
        errs.append(np.abs(sol - u).max())
    assert errs[1] < 1e-3 * errs[0]
    assert errs[2] < 1e-2 * errs[1]


def test_row_classes_act_as_documented():
    # multiply the assembled matrix against a smooth field and read the
    # three row classes off directly
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 2, 1, p=10)
    op = EllipticOperator(c11=1.0, c22=1.0, c0=0.5, sigma=0.0)
    A = assemble_global(m, op).matrix
    u = np.sin(m.x + 0.3) * np.cos(m.y)
    lap = -2 * np.sin(m.x + 0.3) * np.cos(m.y)
    act = A @ u
    interior, boundary = m.ids_of(INTERIOR), m.ids_of(BOUNDARY)
    np.testing.assert_allclose(act[interior], (-lap + 0.5 * u)[interior], atol=1e-6)
    # interface rows: one-sided derivative jump of a smooth field ~ 0
    assert np.abs(act[m.ids_of(INTERFACE)]).max() < 1e-6
    # boundary rows: identity rows, so the solve's Dirichlet data is their right-hand side
    np.testing.assert_array_equal(A[boundary], np.eye(m.n_nodes)[boundary])


def test_complex_operator():
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 1, p=9)
    op = laplace_operator().shifted(sigma=1.0, scale=0.1j)
    u = np.exp(m.x) * np.sin(m.y)
    f = u + 0.1j * (-0.0) * u  # laplacian of e^x sin y is zero
    g = u[m.ids_of(BOUNDARY)]
    sol = oracle_solve(assemble_global(m, op), f.astype(complex), dirichlet=g)
    assert sol.dtype == complex
    np.testing.assert_allclose(sol, u, atol=1e-8)


def test_size_guard():
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 8, 8, p=12)
    assert m.n_nodes > MAX_DENSE_NODES
    with pytest.raises(ValueError, match="capped"):
        assemble_global(m, laplace_operator())
