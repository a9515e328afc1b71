"""Elliptic operator descriptors and per-leaf collocation operators.

The operator applied at interior collocation nodes is

    sigma * u + scale * (-c11 u_xx - 2 c12 u_xy - c22 u_yy
                         + c1 u_x + c2 u_y + c0 u)

with coefficients given as scalars or callables of the node coordinates
(1D drops the y terms). The second-order part is written with leading
minus signs so that positive c11/c22 mean a coercive principal part;
`sigma` and `scale` carry identity shifts and time-step prefactors, which
may be complex.

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
    cheb_grid,
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


def leaf_points(mesh: Mesh, l: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Physical coordinates of all p**2 (or p) nodes of one leaf."""
    xi01 = (cheb_nodes(mesh.p) + 1.0) / 2.0
    if mesh.dim == 1:
        a, b = mesh.leaf_boxes[l]
        return a + xi01 * (b - a), None
    x0, x1, y0, y1 = mesh.leaf_boxes[l]
    X, Y = np.meshgrid(x0 + xi01 * (x1 - x0), y0 + xi01 * (y1 - y0))
    return X, Y


def all_leaf_points(mesh: Mesh) -> tuple[np.ndarray, np.ndarray | None]:
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


def _check_coefficients(op: EllipticOperator, x, y) -> None:
    c12 = _sample(op.c12, x, y)
    if np.max(np.abs(c12)) > 0:
        raise ValueError(
            "mixed-derivative coefficient c12 is not supported: its "
            "collocation rows couple to the dropped corner nodes"
        )
    for name in ("c11", "c22"):
        cv = np.real(_sample(getattr(op, name), x, y))
        if np.min(cv) < 0:
            raise ValueError(f"negative principal coefficient {name} sampled on a leaf")


def _result_dtype(op: EllipticOperator, *samples) -> type:
    vals = [op.sigma, op.scale, *[np.asarray(s).ravel()[:1] for s in samples]]
    return complex if any(np.iscomplexobj(np.asarray(v)) for v in vals) else float


def collocate_leaf(op: EllipticOperator, mesh: Mesh, l: int) -> np.ndarray:
    """Full collocation matrix of one leaf, (p**2, p**2) or (p, p)."""
    p = mesh.p
    if mesh.dim == 1:
        x, _ = leaf_points(mesh, l)
        _check_coefficients(op, x, None)
        g = cheb_grid(*mesh.leaf_boxes[l], p)
        c11 = _sample(op.c11, x, None)
        c1 = _sample(op.c1, x, None)
        c0 = _sample(op.c0, x, None)
        dtype = _result_dtype(op, c11, c1, c0)
        A = np.zeros((p, p), dtype=dtype)
        A -= np.multiply(np.reshape(c11, (-1, 1)) if np.ndim(c11) else c11, g.D2)
        A += np.multiply(np.reshape(c1, (-1, 1)) if np.ndim(c1) else c1, g.D)
        A[np.diag_indices(p)] += c0
        return op.sigma * np.eye(p, dtype=dtype) + op.scale * A

    X, Y = leaf_points(mesh, l)
    _check_coefficients(op, X, Y)
    st = _stencil_for(mesh)
    n = p * p

    def col(c):
        v = _sample(c, X, Y)
        return np.reshape(v, (-1, 1)) if np.ndim(v) else v

    c11, c22, c1, c2, c0 = map(col, (op.c11, op.c22, op.c1, op.c2, op.c0))
    dtype = _result_dtype(op, c11, c22, c1, c2, c0)
    A = np.zeros((n, n), dtype=dtype)
    A -= c11 * st.Dxx
    A -= c22 * st.Dyy
    A += c1 * st.Dx
    A += c2 * st.Dy
    idx = np.diag_indices(n)
    A[idx] += np.ravel(c0) if np.ndim(c0) else c0
    return op.sigma * np.eye(n, dtype=dtype) + op.scale * A


_STENCILS: dict[tuple, LeafStencil] = {}


def _stencil_for(mesh: Mesh) -> LeafStencil:
    key = (mesh.p, mesh.hx, mesh.hy)
    st = _STENCILS.get(key)
    if st is None:
        st = _STENCILS[key] = leaf_stencil(mesh.p, mesh.hx, mesh.hy)
    return st


def flux_matrix(mesh: Mesh) -> np.ndarray:
    """Directional-derivative rows at the leaf edge nodes.

    One row per edge node in S, E, N, W order; horizontal edges take the
    y-derivative, vertical edges the x-derivative, both without an outward
    sign flip, so values from two leaves sharing an edge are directly
    comparable. Columns span all p**2 (or p) local nodes; the corner
    columns of these rows are identically zero.
    """
    p = mesh.p
    if mesh.dim == 1:
        g = cheb_grid(0.0, mesh.hx, p)
        return g.D[[0, p - 1], :]
    st = _stencil_for(mesh)
    rows = []
    rng = np.arange(1, p - 1)
    rows.append(st.Dy[rng, :])                     # south
    rows.append(st.Dx[rng * p + (p - 1), :])       # east
    rows.append(st.Dy[(p - 1) * p + rng, :])       # north
    rows.append(st.Dx[rng * p, :])                 # west
    return np.concatenate(rows, axis=0)


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
    """Factorize every leaf of the mesh for the given operator."""
    F = flux_matrix(mesh)
    ii = mesh.interior_local
    bb = mesh.edge_local
    Fi = F[:, ii]
    Fb = F[:, bb]
    # identical geometry and coefficients: one factorization serves all
    count = 1 if op.is_constant else mesh.n_leaves
    for l in range(count):
        M = collocate_leaf(op, mesh, l)
        if l == 0:
            inv = np.empty((count, ii.size, ii.size), dtype=M.dtype)
            G = np.empty((count, ii.size, bb.size), dtype=M.dtype)
            T = np.empty((count, bb.size, bb.size), dtype=M.dtype)
        try:
            inv[l] = np.linalg.inv(M[np.ix_(ii, ii)])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise ValueError(f"singular interior block on leaf {l}") from exc
        G[l] = inv[l] @ M[np.ix_(ii, bb)]
        T[l] = Fb - Fi @ G[l]
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
        x, y = all_leaf_points(mesh)
        _check_coefficients(op, x, y)
        self.c11 = _sample(op.c11, x, y)
        self.c22 = _sample(op.c22, x, y) if mesh.dim == 2 else 0.0
        self.c1 = _sample(op.c1, x, y)
        self.c2 = _sample(op.c2, x, y) if mesh.dim == 2 else 0.0
        self.c0 = _sample(op.c0, x, y)
        if mesh.dim == 2:
            self.st = _stencil_for(mesh)
        else:
            self.g1d = cheb_grid(0.0, mesh.hx, mesh.p)
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
        U = gather_leaf_fields(self.mesh, u)
        if fill and self.mesh.dim == 2:
            U = fill_corners(U)
        if self.mesh.dim == 1:
            D, D2 = self.g1d.D, self.g1d.D2
            ux = U @ D.T
            uxx = U @ D2.T
            A = -self.c11 * uxx + self.c1 * ux + self.c0 * U
        else:
            ux = diff_apply_x(self.st.Dx1, U)
            uy = diff_apply_y(self.st.Dy1, U)
            uxx = diff_apply_x(self.st.Dx1, ux)
            uyy = diff_apply_y(self.st.Dy1, uy)
            A = (
                -self.c11 * uxx
                - self.c22 * uyy
                + self.c1 * ux
                + self.c2 * uy
                + self.c0 * U
            )
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
    if mesh.dim == 1:
        D = cheb_grid(0.0, mesh.hx, mesh.p).D
        return (scatter_mean(mesh, U @ D.T),)
    st = _stencil_for(mesh)
    U = fill_corners(U)
    ux = diff_apply_x(st.Dx1, U)
    uy = diff_apply_y(st.Dy1, U)
    return scatter_mean(mesh, ux), scatter_mean(mesh, uy)
