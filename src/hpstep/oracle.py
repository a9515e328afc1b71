"""Independent dense reference discretization.

Assembles the complete collocation system over all active nodes in one
N-by-N matrix and solves it with dense LU. Row classes mirror the node
classes: interior rows collocate the operator, interface rows equate the
one-sided edge-normal derivatives of the two touching leaves, and outer
boundary rows take the outward normal derivative from the owning leaf.
Dirichlet data is imposed by swapping boundary rows for identity rows at
solve time, so the assembled matrix itself stays purely structural.

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
import scipy.linalg

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


def _outward_sign(mesh: Mesh, local_edge_pos: int) -> float:
    """Sign turning the stored directional derivative into an outward one."""
    if mesh.dim == 1:
        return -1.0 if local_edge_pos == 0 else 1.0
    q = mesh.p - 2
    edge = local_edge_pos // q  # 0=S, 1=E, 2=N, 3=W
    return -1.0 if edge in (0, 3) else 1.0


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
        A[np.ix_(ids[mesh.interior_local], cols)] = rows[0 if op.is_constant else l]
        for q, le in enumerate(mesh.edge_local):
            r = ids[le]
            if mesh.node_class[r] == BOUNDARY:
                A[r, cols] = _outward_sign(mesh, q) * F[q, active]
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
            imposed by replacing the boundary rows with identity rows.
    """
    mesh = system.mesh
    cls = mesh.node_class
    gamma = np.nonzero(cls == BOUNDARY)[0]
    data = np.asarray(dirichlet)
    if data.shape != gamma.shape:
        raise ValueError(f"expected {gamma.size} boundary values")
    dtype = np.result_type(system.matrix.dtype, np.asarray(load).dtype, data.dtype)
    A = system.matrix.astype(dtype, copy=True)
    A[gamma, :] = 0.0
    A[gamma, gamma] = 1.0
    rhs = np.zeros(mesh.n_nodes, dtype=dtype)
    rhs[cls == INTERIOR] = np.asarray(load)[cls == INTERIOR]
    rhs[gamma] = data
    return scipy.linalg.solve(A, rhs)


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
