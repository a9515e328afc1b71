"""Independent dense reference discretization.

Assembles the complete collocation system over all active nodes in one
N-by-N matrix and solves it with dense LU. Row classes mirror the node
classes: interior rows collocate the operator, interface rows equate the
one-sided edge-normal derivatives of the two touching leaves, and outer
boundary rows are identity rows, so the solve imposes Dirichlet data by
placing it on the right-hand side.

This path shares the differentiation stencils and the interior
collocation rows with the fast solver; assembly and solution are
otherwise disjoint, which is what makes it usable as a cross-check.

The oracle also supplies the reference interface completion: with the
identity operator the interior rows pin the given values and the
interface rows are exactly the derivative-continuity equations that the
stepper's tridiagonal chains solve (`OracleCompleter`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import BOUNDARY, INTERIOR, Mesh
from .operators import (
    EllipticOperator,
    collocate_interior,
    flux_matrix,
    identity_operator,
)

MAX_DENSE_NODES = 6000


@dataclass
class GlobalSystem:
    mesh: Mesh
    matrix: np.ndarray = field(repr=False)


def assemble_global(mesh: Mesh, op: EllipticOperator) -> GlobalSystem:
    """Build the dense N-by-N system for one mesh and operator."""
    n = mesh.n_nodes
    if n > MAX_DENSE_NODES:
        raise ValueError(
            f"dense assembly capped at {MAX_DENSE_NODES} nodes, mesh has {n}"
        )
    F = flux_matrix(mesh)
    # every leaf drops the same local corner slots
    active = mesh.leaf_grid[0].ravel() >= 0
    rows = collocate_interior(op, mesh, np.nonzero(active)[0])
    A = np.zeros((n, n), dtype=rows.dtype)
    for l in range(mesh.n_leaves):
        ids = mesh.leaf_grid[l].ravel()
        cols = ids[active]
        A[np.ix_(ids[mesh.interior_local], cols)] = rows[0 if len(rows) == 1 else l]
        for q, le in enumerate(mesh.edge_local):
            r = ids[le]
            if mesh.node_class[r] == BOUNDARY:
                A[r, r] = 1.0
            elif A[r].any():
                # second owner: the row becomes a one-sided derivative jump
                A[r, cols] -= F[q, active]
            else:
                A[r, cols] += F[q, active]
    return GlobalSystem(mesh=mesh, matrix=A)


def oracle_solve(
    system: GlobalSystem, load: np.ndarray, dirichlet: np.ndarray
) -> np.ndarray:
    """Solve the assembled system for one load and one set of boundary data.

    Args:
        load: values at all nodes; only interior entries are read.
        dirichlet: boundary values ordered by ascending boundary node id;
            the right-hand side of the boundary rows.
    """
    mesh = system.mesh
    cls = mesh.node_class
    gamma = np.nonzero(cls == BOUNDARY)[0]
    data = np.asarray(dirichlet)
    if data.shape != gamma.shape:
        raise ValueError(f"expected {gamma.size} boundary values")
    dtype = np.result_type(system.matrix.dtype, np.asarray(load).dtype, data.dtype)
    rhs = np.zeros(mesh.n_nodes, dtype=dtype)
    rhs[cls == INTERIOR] = np.asarray(load)[cls == INTERIOR]
    rhs[gamma] = data
    return np.linalg.solve(system.matrix, rhs)


class OracleCompleter:
    """Dense reference for `stepping.InterfaceCompleter`.

    Returns the whole dense solution of the continuity system per field
    component, so given interior and boundary values come back only to
    rounding; keeping just its interface values would leave rounding
    kinks that the uncorrected stepper accumulates.
    """

    def __init__(self, mesh: Mesh):
        self._system = assemble_global(mesh, identity_operator())

    def complete(self, field: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Same contract as `InterfaceCompleter.complete`."""
        field = np.asarray(field)
        boundary = np.asarray(boundary)
        out = np.empty(field.shape, dtype=np.result_type(field, boundary))
        for i in np.ndindex(field.shape[:-1]):
            out[i] = oracle_solve(self._system, field[i], dirichlet=boundary[i])
        return out
