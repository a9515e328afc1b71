"""Elliptic operator descriptors and batched leaf collocation operators.

The operator applied at interior collocation nodes is

    sigma * u + scale * (-c11 u_xx - 2 c12 u_xy - c22 u_yy
                         + c1 u_x + c2 u_y + c0 u)

with coefficients given as scalars or callables of the node coordinates
(1D drops the y terms). The second-order part is written with leading
minus signs so that positive c11/c22 mean a coercive principal part;
`sigma` and `scale` carry identity shifts and time-step prefactors, which
may be complex.

Only the interior rows of a leaf are collocated; its edge rows are the
flux rows of `flux_matrix`. The rows of all leaves are built at once,
as one stack, from one checked sample of the coefficients.

Leaf corners hold no unknowns. For every term except the mixed one the
collocation rows used by the solver have exactly zero weight on corner
values, so the corner rows/columns can be dropped without approximation;
operators with a nonzero sampled c12 are rejected for that reason.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from .chebyshev import (
    LeafStencil,
    cheb_nodes,
    diff_apply_x,
    diff_apply_y,
    fill_corners,
    leaf_stencil,
)
from .mesh import Mesh

Coef = Union[float, complex, Callable]


@dataclass(frozen=True)
class EllipticOperator:
    """Coefficient bundle for the collocated operator above."""

    c11: Coef = 0.0
    c22: Coef = 0.0
    c12: Coef = 0.0
    c1: Coef = 0.0
    c2: Coef = 0.0
    c0: Coef = 0.0
    sigma: complex = 0.0
    scale: complex = 1.0

    @property
    def is_constant(self) -> bool:
        return not any(
            callable(c) for c in (self.c11, self.c22, self.c12, self.c1, self.c2, self.c0)
        )

    def shifted(self, sigma: complex, scale: complex) -> "EllipticOperator":
        """Same spatial coefficients under a new shift and prefactor."""
        return replace(self, sigma=sigma, scale=scale)


def identity_operator() -> EllipticOperator:
    """The operator whose interior rows are plain identity equations."""
    return EllipticOperator(sigma=1.0, scale=0.0)


def laplace_operator(diffusivity: Coef = 1.0) -> EllipticOperator:
    """Principal part -diffusivity * (u_xx + u_yy)."""
    return EllipticOperator(c11=diffusivity, c22=diffusivity)


def _sample(coef: Coef, x: np.ndarray, y: np.ndarray | None):
    if callable(coef):
        return coef(x) if y is None else coef(x, y)
    return coef


def leaf_coordinates(mesh: Mesh) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched leaf node coordinates, shape (nl, p, p) or (nl, p)."""
    xi01 = (cheb_nodes(mesh.p) + 1.0) / 2.0
    if mesh.dim == 1:
        a = mesh.leaf_boxes[:, 0]
        return a[:, None] + xi01[None, :] * mesh.hx, None
    x0 = mesh.leaf_boxes[:, 0]
    y0 = mesh.leaf_boxes[:, 2]
    xs = x0[:, None] + xi01[None, :] * mesh.hx
    ys = y0[:, None] + xi01[None, :] * mesh.hy
    X = np.broadcast_to(xs[:, None, :], (mesh.n_leaves, mesh.p, mesh.p))
    Y = np.broadcast_to(ys[:, :, None], (mesh.n_leaves, mesh.p, mesh.p))
    return X, Y


def _check_coefficients(coefs: dict) -> None:
    if np.max(np.abs(coefs["c12"])) > 0:
        raise ValueError(
            "mixed-derivative coefficient c12 is not supported: its "
            "collocation rows couple to the dropped corner nodes"
        )
    for name in ("c11", "c22"):
        if np.min(np.real(coefs[name])) < 0:
            raise ValueError(f"negative principal coefficient {name} sampled on a leaf")


def _sample_leaves(op: EllipticOperator, mesh: Mesh) -> dict:
    """Checked coefficients at the nodes of every leaf, by name.

    Constant coefficients stay scalars, and with only constant ones no
    node is visited; sampled ones have the shape of `leaf_coordinates`.
    1D meshes have no c22/c2, and terms whose scalar coefficient is zero
    are left out.
    """
    x, y = (None, None) if op.is_constant else leaf_coordinates(mesh)
    names = ("c11", "c22", "c12", "c1", "c2", "c0")
    coefs = {name: _sample(getattr(op, name), x, y) for name in names}
    _check_coefficients(coefs)
    keep = ("c11", "c1", "c0") if mesh.dim == 1 else ("c11", "c22", "c1", "c2", "c0")
    return {name: coefs[name] for name in keep if np.ndim(coefs[name]) or coefs[name] != 0}


# coefficient, sign and matrix (a stencil field or the identity "I") of
# every term of A, in the order the terms are summed
_TERMS = (
    ("c11", -1.0, "Dxx"),
    ("c22", -1.0, "Dyy"),
    ("c1", 1.0, "Dx"),
    ("c2", 1.0, "Dy"),
    ("c0", 1.0, "I"),
)


def collocate_interior(
    op: EllipticOperator, mesh: Mesh, cols: np.ndarray, coefs: dict | None = None
) -> np.ndarray:
    """Interior collocation rows of every leaf, restricted to local columns.

    Args:
        cols: flat local node indices of the columns to keep.
        coefs: a coefficient sample of `op` on `mesh` to reuse.

    Returns:
        Shape (nl, n_int, cols.size), or (1, n_int, cols.size) standing
        for every leaf when the coefficients are position-independent.
    """
    coefs = _sample_leaves(op, mesh) if coefs is None else coefs
    st = mesh_stencil(mesh)
    ii = mesh.interior_local
    count = 1 if op.is_constant else mesh.n_leaves
    eye = np.equal.outer(ii, cols)  # rows of the identity
    dtype = np.result_type(op.sigma, op.scale, *coefs.values())
    A = np.zeros((count, ii.size, cols.size), dtype=dtype)
    for name, sign, key in _TERMS:
        if name in coefs:
            c = coefs[name]
            c = np.reshape(c, (count, -1, 1))[:, ii] if np.ndim(c) else c
            D = eye if key == "I" else getattr(st, key)[np.ix_(ii, cols)]
            A += c * (sign * D)
    A *= op.scale
    A += op.sigma * eye
    return A


def mesh_stencil(mesh: Mesh) -> LeafStencil:
    """The leaf stencil shared by every leaf of a mesh."""
    return leaf_stencil(mesh.p, mesh.hx, mesh.hy if mesh.dim == 2 else None)


def guarded_inverse(X: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a stack of square blocks.

    Raises ValueError("singular <what>") when any block has a 1-norm
    condition number of 1e14 or more, or one that is not finite.
    """
    try:
        inv = np.linalg.inv(X)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular {what}") from exc
    # NaN fails the test as well
    cond = np.abs(X).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1)
    if not np.all(cond < 1e14):
        raise ValueError(f"singular {what}")
    return inv


def flux_matrix(mesh: Mesh) -> np.ndarray:
    """Directional-derivative rows at the leaf edge nodes.

    One row per edge node in S, E, N, W order; horizontal edges take the
    y-derivative, vertical edges the x-derivative, both without an outward
    sign flip, so values from two leaves sharing an edge are directly
    comparable. Columns span all p**2 (or p) local nodes; the corner
    columns of these rows are identically zero.
    """
    st = mesh_stencil(mesh)
    edge = mesh.edge_local
    if mesh.dim == 1:
        return st.Dx[edge]
    horizontal = np.repeat([True, False, True, False], mesh.p - 2)  # S, E, N, W
    return np.where(horizontal[:, None], st.Dy[edge], st.Dx[edge])


@dataclass
class LeafOperatorSet:
    """Interior solve and edge flux maps of every leaf, stacked.

    `inv`, `G` and `T` have a leading axis over the leaves, of length one
    when the coefficients are position-independent: the leaves are then
    congruent and a single copy broadcasts over all of them. With
    interior load f_I and edge values g, a leaf's interior solution is
    u_I = inv @ f_I - G @ g, the edge flux of the homogeneous part is
    T @ g, and the flux of a field with interior values v_I and edge
    values v_B is Fi @ v_I + Fb @ v_B; `Fi` and `Fb` are shared by all
    leaves.
    """

    mesh: Mesh
    op: EllipticOperator
    inv: np.ndarray = field(repr=False)  # (nl or 1, n_int, n_int)
    G: np.ndarray = field(repr=False)  # (nl or 1, n_int, n_edge)
    T: np.ndarray = field(repr=False)  # (nl or 1, n_edge, n_edge)
    Fi: np.ndarray = field(repr=False)  # (n_edge, n_int)
    Fb: np.ndarray = field(repr=False)  # (n_edge, n_edge)

    @property
    def shared(self) -> bool:
        return len(self.inv) == 1


def build_leaf_operators(mesh: Mesh, op: EllipticOperator) -> LeafOperatorSet:
    """Factorize every leaf of the mesh for the given operator, as stacks."""
    F = flux_matrix(mesh)
    ii = mesh.interior_local
    bb = mesh.edge_local
    Fi = F[:, ii]
    Fb = F[:, bb]
    coefs = _sample_leaves(op, mesh)
    inv = guarded_inverse(collocate_interior(op, mesh, ii, coefs), "leaf interior block")
    G = inv @ collocate_interior(op, mesh, bb, coefs)
    T = Fb - Fi @ G
    return LeafOperatorSet(mesh=mesh, op=op, inv=inv, G=G, T=T, Fi=Fi, Fb=Fb)


def gather_leaf_fields(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Scatter a global field onto batched leaf arrays; corners get zero.

    Accepts (N,) or (m, N); returns (nl, p, p), (m, nl, p, p) or the 1D
    analogues. Corner zeros are fine for every consumer that only reads
    interior rows or edge-normal derivative rows.
    """
    grid = np.maximum(mesh.leaf_grid, 0)
    vals = u[..., grid]
    mask = mesh.leaf_grid < 0
    if mask.any():
        vals = np.where(mask, 0.0, vals)
    return vals


def scatter_mean(mesh: Mesh, leaf_vals: np.ndarray) -> np.ndarray:
    """Average batched leaf values back to a global array.

    Interface nodes receive the mean of their two one-sided values;
    corner slots are ignored.
    """
    lead = leaf_vals.shape[: -mesh.leaf_grid.ndim]
    out = np.zeros(lead + (mesh.n_nodes,), dtype=leaf_vals.dtype)
    keep = mesh.leaf_grid >= 0
    ids = mesh.leaf_grid[keep]
    flat = leaf_vals[..., keep]
    if lead:
        for i in np.ndindex(lead):
            np.add.at(out[i], ids, flat[i])
    else:
        np.add.at(out, ids, flat)
    return out / mesh.owner_count


class OperatorApplier:
    """Pointwise application of an operator's interior rows to fields.

    Coefficients are sampled once; `interior_apply` then evaluates
    sigma*u + scale*A(u) at every interior node of the mesh by batched
    leaf differentiation. Every interior node has exactly one owning
    leaf, so its value is copied straight from that leaf's array.
    """

    def __init__(self, mesh: Mesh, op: EllipticOperator):
        self.mesh = mesh
        self.op = op
        self.coefs = _sample_leaves(op, mesh)
        self.st = mesh_stencil(mesh)
        # interior ids per leaf, matching the leaf's flattened interior slots
        self._interior_ids = mesh.leaf_grid.reshape(mesh.n_leaves, -1)[
            :, mesh.interior_local
        ]

    def leaf_values(self, u: np.ndarray, fill: bool = False) -> np.ndarray:
        """Batched operator values on leaf arrays (interior slots valid).

        With `fill`, 2D corner slots are rebuilt by edge extrapolation
        first, which makes the edge slots usable as one-sided operator
        values at extrapolation accuracy.
        """
        st = self.st
        U = gather_leaf_fields(self.mesh, u)
        if fill and self.mesh.dim == 2:
            U = fill_corners(U)
        ux = diff_apply_x(st.Dx1, U)
        parts = {"I": U, "Dx": ux, "Dxx": diff_apply_x(st.Dx1, ux)}
        if self.mesh.dim == 2:
            uy = diff_apply_y(st.Dy1, U)
            parts.update(Dy=uy, Dyy=diff_apply_y(st.Dy1, uy))
        A = 0.0
        for name, sign, key in _TERMS:
            if name in self.coefs:
                A = A + sign * self.coefs[name] * parts[key]
        return self.op.sigma * U + self.op.scale * A

    def interior_apply(self, u: np.ndarray) -> np.ndarray:
        """Global array holding operator values at interior ids, 0 elsewhere."""
        mesh = self.mesh
        vals = self.leaf_values(u)
        lead = vals.shape[: vals.ndim - mesh.leaf_grid.ndim]
        vals = vals.reshape(lead + (mesh.n_leaves, -1))[..., mesh.interior_local]
        out = np.zeros(lead + (mesh.n_nodes,), dtype=vals.dtype)
        out[..., self._interior_ids] = vals
        return out


def averaged_gradient(mesh: Mesh, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-leaf spectral gradient averaged at shared nodes.

    Needed only for explicit advection terms and diagnostics; tangential
    derivatives at edge nodes require corner values, which are rebuilt by
    edge extrapolation first.
    """
    U = gather_leaf_fields(mesh, u)
    st = mesh_stencil(mesh)
    if mesh.dim == 1:
        return (scatter_mean(mesh, diff_apply_x(st.Dx1, U)),)
    U = fill_corners(U)
    ux = diff_apply_x(st.Dx1, U)
    uy = diff_apply_y(st.Dy1, U)
    return scatter_mean(mesh, ux), scatter_mean(mesh, uy)
