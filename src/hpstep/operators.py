"""Elliptic operator descriptors and batched leaf collocation operators.

The operator applied at interior collocation nodes is

    sigma * u + scale * (-c11 u_xx - c22 u_yy + c1 u_x + c2 u_y + c0 u)

with coefficients given as scalars or callables of the node coordinates
(1D drops the y terms). The second-order part is written with leading
minus signs so that positive c11/c22 mean a coercive principal part;
`sigma` and `scale` carry identity shifts and time-step prefactors, which
may be complex.

Only the interior rows of a leaf are collocated; its edge rows are the
flux rows of `flux_matrix`. The rows of all leaves come from one checked
sample of the coefficients, and they form a stack with one block per
leaf only in the columns that a sampled coefficient weighs; elsewhere
one block stands for every leaf.

Leaf corners hold no unknowns. For every term above, the collocation
rows used by the solver have exactly zero weight on corner values, so
the corner rows/columns can be dropped without approximation. A mixed
term c12 u_xy would weigh the dropped corners, which is why there is
none.
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
    c1: Coef = 0.0
    c2: Coef = 0.0
    c0: Coef = 0.0
    sigma: complex = 0.0
    scale: complex = 1.0

    @property
    def is_constant(self) -> bool:
        return not any(callable(c) for c in (self.c11, self.c22, self.c1, self.c2, self.c0))

    def shifted(self, sigma: complex, scale: complex) -> "EllipticOperator":
        """Same spatial coefficients under a new shift and prefactor."""
        return replace(self, sigma=sigma, scale=scale)


def identity_operator() -> EllipticOperator:
    """The operator whose interior rows are plain identity equations."""
    return EllipticOperator(sigma=1.0, scale=0.0)


def laplace_operator() -> EllipticOperator:
    """Principal part -(u_xx + u_yy)."""
    return EllipticOperator(c11=1.0, c22=1.0)


def _sample(coef: Coef, x: np.ndarray, y: np.ndarray | None):
    if callable(coef):
        return coef(x) if y is None else coef(x, y)
    return coef


def leaf_coordinates(mesh: Mesh) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched leaf node coordinates, shape (nl, p, p) or (nl, p)."""
    xi01 = (cheb_nodes(mesh.p) + 1.0) / 2.0
    lines = [
        np.linspace(a, b, n + 1)[:-1, None] + xi01[None, :] * h
        for (a, b), n, h in zip(mesh.bounds, (mesh.n1, mesh.n2), (mesh.hx, mesh.hy))
    ]
    if mesh.dim == 1:
        return lines[0], None
    leaf = np.arange(mesh.n_leaves)
    shape = (mesh.n_leaves, mesh.p, mesh.p)
    X = np.broadcast_to(lines[0][leaf % mesh.n1, None, :], shape)
    Y = np.broadcast_to(lines[1][leaf // mesh.n1, :, None], shape)
    return X, Y


def _check_coefficients(coefs: dict) -> None:
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
    names = ("c11", "c22", "c1", "c2", "c0")
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

    The constant terms, scaled and shifted, form one block that every leaf
    shares. A sampled term is then added at the nonzero slots of its
    matrix alone; the identity term (c0) touches only the diagonal.

    Args:
        cols: flat local node indices of the columns to keep.
        coefs: a coefficient sample of `op` on `mesh` to reuse.

    Returns:
        Shape (nl, n_int, cols.size), or (1, n_int, cols.size) standing
        for every leaf when no sampled term weighs the kept columns: with
        constant coefficients, and for the edge columns when c0 is the
        only sampled term.
    """
    coefs = _sample_leaves(op, mesh) if coefs is None else coefs
    st = mesh_stencil(mesh)
    ii = mesh.interior_local
    eye = np.equal.outer(ii, cols)  # rows of the identity
    dtype = np.result_type(op.sigma, op.scale, *coefs.values())
    block = np.zeros((ii.size, cols.size), dtype=dtype)
    sampled = []
    for name, sign, key in _TERMS:
        if name in coefs:
            c = coefs[name]
            D = eye if key == "I" else getattr(st, key)[np.ix_(ii, cols)]
            if not np.ndim(c):
                block += c * (sign * D)
            elif D.any():
                sampled.append((c, sign, D))
    block *= op.scale
    block += op.sigma * eye
    if not sampled:
        return block[None]
    A = np.empty((mesh.n_leaves,) + block.shape, dtype=dtype)
    A[:] = block
    flat = A.reshape(mesh.n_leaves, -1)
    for c, sign, D in sampled:
        r, k = np.nonzero(D)
        c = np.reshape(c, (mesh.n_leaves, -1))[:, ii[r]]
        flat[:, r * cols.size + k] += c * (op.scale * sign * D[r, k])
    return A


def mesh_stencil(mesh: Mesh) -> LeafStencil:
    """The leaf stencil shared by every leaf of a mesh."""
    return leaf_stencil(mesh.p, mesh.hx, mesh.hy if mesh.dim == 2 else None)


def guarded_inverse(X: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Inverse of a stack of square blocks, C-ordered, and the worst
    1-norm condition number among them.

    A C-ordered X is overwritten: its blocks are inverted a few megabytes
    at a time, each group into its own place, so a large stack is never
    held twice.

    Raises ValueError("singular <what>") when any block has a condition
    number of 1e14 or more, or one that is not finite.
    """
    X = np.ascontiguousarray(X)
    norm = np.abs(X).sum(axis=-2).max(axis=-1)
    step = max(1, (1 << 22) // X[0].nbytes)
    try:
        for s in range(0, len(X), step):
            X[s : s + step] = np.linalg.inv(X[s : s + step])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular {what}") from exc
    # NaN fails the test as well
    cond = norm * np.abs(X).sum(axis=-2).max(axis=-1)
    if not np.all(cond < 1e14):
        raise ValueError(f"singular {what}")
    return X, float(cond.max())


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

    `inv` and `G` have a leading axis over the leaves, of length one
    when the coefficients are position-independent: the leaves are then
    congruent and a single copy broadcasts over all of them. With
    interior load f_I and edge values g, a leaf's interior solution is
    u_I = inv @ f_I - G @ g, the edge flux of the homogeneous part is
    (Fb - Fi @ G) @ g, and the flux of a field with interior values v_I
    and edge values v_B is Fi @ v_I + Fb @ v_B; `Fi` and `Fb` are shared
    by all leaves.
    """

    inv: np.ndarray = field(repr=False)  # (nl or 1, n_int, n_int)
    G: np.ndarray = field(repr=False)  # (nl or 1, n_int, n_edge)
    Fi: np.ndarray = field(repr=False)  # (n_edge, n_int)
    Fb: np.ndarray = field(repr=False)  # (n_edge, n_edge)
    condition: float  # worst 1-norm condition number of the blocks inverted

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
    inv, cond = guarded_inverse(collocate_interior(op, mesh, ii, coefs), "leaf interior block")
    G = inv @ collocate_interior(op, mesh, bb, coefs)
    return LeafOperatorSet(inv=inv, G=G, Fi=Fi, Fb=Fb, condition=cond)


def gather_leaf_fields(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Scatter a global field onto batched leaf arrays; corners get zero.

    Accepts (N,) or (m, N); returns (nl, p, p), (m, nl, p, p) or the 1D
    analogues, C-contiguous. Corner zeros are fine for every consumer
    that only reads interior rows or edge-normal derivative rows.
    """
    vals = np.take(u, mesh.leaf_grid, axis=-1, mode="clip")  # -1 corners read node 0
    if mesh.dim == 2:
        vals[..., :: mesh.p - 1, :: mesh.p - 1] = 0.0  # the four corners
    return vals


def scatter_mean(mesh: Mesh, leaf_vals: np.ndarray) -> np.ndarray:
    """Average batched leaf values back to a global array.

    Interface nodes receive the mean of their two one-sided values;
    corner slots are ignored.
    """
    flat = leaf_vals.reshape(leaf_vals.shape[: -mesh.leaf_grid.ndim] + (-1,))
    a, b = mesh.owner_slots
    out = np.take(flat, a, axis=-1)
    out += np.take(flat, b, axis=-1)
    out *= 0.5
    return out


def put_rows(rows: np.ndarray, ids: np.ndarray, vals: np.ndarray) -> None:
    """rows[:, ids] = vals for (k, N) rows, row by row: a 1-D index stores fast."""
    for row, v in zip(rows, vals.reshape(len(rows), -1)):
        row[ids.ravel()] = v


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
        coefs = self.coefs = _sample_leaves(op, mesh)
        st = mesh_stencil(mesh)
        flat = mesh.leaf_grid.reshape(mesh.n_leaves, -1)
        self._interior_ids = flat[:, mesh.interior_local].ravel()
        # present terms in `_TERMS` order: sign, coefficient, one 1-D product or None
        diffs = {"Dx": (diff_apply_x, st.Dx1), "Dxx": (diff_apply_x, st.Dx1 @ st.Dx1)}
        if mesh.dim == 2:
            diffs.update(Dy=(diff_apply_y, st.Dy1), Dyy=(diff_apply_y, st.Dy1 @ st.Dy1))
        self._terms = [(sign, coefs[n], diffs.get(k)) for n, sign, k in _TERMS if n in coefs]

    def leaf_values(self, u: np.ndarray, fill: bool = False) -> np.ndarray:
        """Batched operator values on leaf arrays (interior slots valid).

        With `fill`, 2D corner slots are rebuilt by edge extrapolation
        first, which makes the edge slots usable as one-sided operator
        values at extrapolation accuracy.
        """
        op = self.op
        U = gather_leaf_fields(self.mesh, u)
        if fill and self.mesh.dim == 2:
            U = fill_corners(U)
        vals = np.zeros(U.shape, np.result_type(U, op.sigma, op.scale, *self.coefs.values()))
        for sign, coef, diff in self._terms:
            term = coef * (U if diff is None else diff[0](diff[1], U))
            (np.add if sign > 0 else np.subtract)(vals, term, out=vals)
        if op.scale != 1:
            vals *= op.scale
        if op.sigma != 0:
            vals += op.sigma * U
        return vals

    def interior_apply(self, u: np.ndarray) -> np.ndarray:
        """Global array holding operator values at interior ids, 0 elsewhere."""
        mesh = self.mesh
        vals = self.leaf_values(u)
        lead = vals.shape[: vals.ndim - mesh.leaf_grid.ndim]
        vals = np.take(vals.reshape(lead + (mesh.n_leaves, -1)), mesh.interior_local, axis=-1)
        out = np.zeros(lead + (mesh.n_nodes,), dtype=vals.dtype)
        put_rows(out.reshape(-1, mesh.n_nodes), self._interior_ids, vals)
        return out


def advection(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """-(u . grad) u of a two-component field (2, N) on a 2D mesh, in one leaf pass:
    each leaf forms u_0 * d_x u + u_1 * d_y u with corners rebuilt by edge
    extrapolation (tangential derivatives at edge nodes need them), and
    shared nodes get the mean of their leaves' values."""
    U = fill_corners(gather_leaf_fields(mesh, u))
    st = mesh_stencil(mesh)
    vals = diff_apply_x(st.Dx1, U)
    vals *= U[0]
    vals += U[1] * diff_apply_y(st.Dy1, U)
    out = scatter_mean(mesh, vals)
    return np.negative(out, out=out)
