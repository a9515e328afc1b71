"""Build-once, solve-many multidomain direct solver.

The mesh's leaves are merged pairwise along a binary bisection tree
(splitting the longer axis of each leaf block, so square grids alternate
directions starting with a vertical cut). Each merge eliminates the
shared interface by equating the one-sided edge-normal derivatives of
the two children, which yields a dense interface operator

    X = T_left[33] - T_right[33]

whose inverse is stored. Because edge-normal derivatives are stored
without an outward sign flip, values from both sides are directly
comparable and interface rows/columns can be ordered by global node id,
making the merge orientation-free.

Blocks of one shape are congruent on a uniform mesh: they share their
local index maps and the shapes of their two children. All merges of one
block shape therefore form a level whose operators are stacked along a
leading axis, and levels are ordered by block area, children first. With
position-independent coefficients every merge of a level is identical,
so a level stores one copy that broadcasts over its blocks. A solve is
one pass up the levels (particular edge fluxes and interface
corrections) and one pass down (interface values, then leaf interiors),
each a few batched products per level. Factorizations are immutable;
each solve allocates its own workspace, so concurrent solves against one
factorization are safe.

The corrected interface condition used while time stepping replaces
flux continuity of the unknown with

    [[flux(unknown)]] = -(1/dt) * [[flux(penalty field)]]

so that a time step whose stage weights sum to one cancels any
derivative jump the evolving field has picked up; passing
`penalty_field` (with `dt`) enables it.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import BOUNDARY, Mesh
from .operators import (
    EllipticOperator,
    LeafOperatorSet,
    build_leaf_operators,
    guarded_inverse,
)

_LEAF = (1, 1)  # block shape of a single leaf, in leaves along x and y


@dataclass
class _Level:
    """All merges of one block shape, operators stacked over the merges.

    The operator stacks have length one when the leaf operators are
    shared; index maps are local to a block and common to the level.
    """

    shape: tuple[int, int]
    left: tuple[int, int]  # block shape of the left children
    right: tuple[int, int]
    left_pos: np.ndarray = field(repr=False)  # positions in the child levels
    right_pos: np.ndarray = field(repr=False)
    ia: np.ndarray = field(repr=False)  # interface positions in left boundary
    ib: np.ndarray = field(repr=False)  # same interface in right boundary
    idx1: np.ndarray = field(repr=False)  # left-exclusive positions
    idx2: np.ndarray = field(repr=False)  # right-exclusive positions
    boundary_ids: np.ndarray = field(repr=False)  # (m, n_outer)
    interface_ids: np.ndarray = field(repr=False)  # (m, n_interface)
    inv_X: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)  # interface response to outer data
    C1: np.ndarray = field(repr=False)  # T_left[1,3]
    C2: np.ndarray = field(repr=False)  # T_right[2,3]


@dataclass
class HpsFactorization:
    """Reusable direct factorization of one operator on one mesh."""

    mesh: Mesh
    op: EllipticOperator
    leaf_ops: LeafOperatorSet = field(repr=False)
    levels: list[_Level] = field(repr=False)  # by block area, children first
    leaf_interior_ids: np.ndarray = field(repr=False)  # (nl, n_int)
    leaf_boundary_ids: np.ndarray = field(repr=False)  # (nl, n_edge)
    gamma_ids: np.ndarray = field(repr=False)

    @property
    def dtype(self):
        return self.leaf_ops.T.dtype

    def solve(
        self,
        load: np.ndarray | None = None,
        dirichlet: np.ndarray | None = None,
        *,
        penalty_field: np.ndarray | None = None,
        dt: float | None = None,
    ) -> np.ndarray:
        """Solve for one or several right-hand sides.

        Args:
            load: interior data, shape (N,) or (m, N); zero when omitted.
            dirichlet: boundary values ordered like `gamma_ids`, shape
                (n_gamma,) or (m, n_gamma); zero when omitted.
            penalty_field: current solution field whose derivative jumps
                are penalized in the interface conditions; requires dt.

        Returns:
            Field over all active nodes, same leading shape as the input.
            NaN or inf in the data is not screened and reaches the result.
        """
        mesh = self.mesh
        n = mesh.n_nodes
        if penalty_field is not None and dt is None:
            raise ValueError("penalty_field requires dt")

        load_c, lead = _as_cols(load, n, self.dtype)
        k = load_c.shape[1] if load_c is not None else None
        diri_c, lead_d = _as_cols(dirichlet, self.gamma_ids.size, self.dtype)
        if lead is None:
            lead = lead_d
        if k is None:
            k = diri_c.shape[1] if diri_c is not None else 1
        pen_c, _ = _as_cols(penalty_field, n, self.dtype)
        if pen_c is not None and pen_c.shape[1] != k:
            raise ValueError("penalty field and load shapes disagree")

        dtype = self.dtype
        for arr in (load_c, diri_c, pen_c):
            if arr is not None:
                dtype = np.result_type(dtype, arr.dtype)

        # upward pass: particular interior solutions z, then per level the
        # particular edge flux h of every block, its penalty flux hu and
        # the interface correction w
        lf = self.leaf_ops
        f = np.zeros((n, k), dtype=dtype) if load_c is None else load_c
        z = lf.inv @ f[self.leaf_interior_ids]
        h = {_LEAF: lf.Fi @ z}
        hu = {}
        if pen_c is not None:
            inv_dt = 1.0 / dt
            hu[_LEAF] = (
                lf.Fi @ pen_c[self.leaf_interior_ids] + lf.Fb @ pen_c[self.leaf_boundary_ids]
            )
        w = []
        for lv in self.levels:
            hl = h[lv.left][lv.left_pos]
            hr = h[lv.right][lv.right_pos]
            delta = hr[:, lv.ib] - hl[:, lv.ia]
            if pen_c is not None:
                ul = hu[lv.left][lv.left_pos]
                ur = hu[lv.right][lv.right_pos]
                delta = delta - inv_dt * (ul[:, lv.ia] - ur[:, lv.ib])
                hu[lv.shape] = np.concatenate([ul[:, lv.idx1], ur[:, lv.idx2]], axis=1)
            w_lv = lv.inv_X @ delta
            w.append(w_lv)
            h[lv.shape] = np.concatenate(
                [hl[:, lv.idx1] + lv.C1 @ w_lv, hr[:, lv.idx2] + lv.C2 @ w_lv], axis=1
            )

        # downward pass: every block's outer values are known once its
        # ancestors are done, which gives its interface values
        out = np.zeros((n, k), dtype=dtype)
        if diri_c is not None:
            out[self.gamma_ids] = diri_c
        for lv, w_lv in zip(reversed(self.levels), reversed(w)):
            out[lv.interface_ids] = w_lv + lv.S @ out[lv.boundary_ids]
        out[self.leaf_interior_ids] = z - lf.G @ out[self.leaf_boundary_ids]
        return _from_cols(out, lead)


def _rows(stack: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The entries of a stacked operator at `pos`; a single shared copy
    stays a single copy."""
    return stack if len(stack) == 1 else stack[pos]


def _blocks(mesh: Mesh) -> dict:
    """Children of every merge, grouped by block shape.

    Maps a block shape to a list of (left, right) pairs, each child given
    as (shape, position in its own shape's list); a leaf's position is
    its leaf index.
    """
    kids: dict = {}

    def visit(lx0, lx1, ly0, ly1):
        shape = (lx1 - lx0, ly1 - ly0)
        if shape == _LEAF:
            return shape, ly0 * mesh.n1 + lx0
        if shape[0] >= shape[1]:
            mid = (lx0 + lx1) // 2
            pair = visit(lx0, mid, ly0, ly1), visit(mid, lx1, ly0, ly1)
        else:
            mid = (ly0 + ly1) // 2
            pair = visit(lx0, lx1, ly0, mid), visit(lx0, lx1, mid, ly1)
        kids.setdefault(shape, []).append(pair)
        return shape, len(kids[shape]) - 1

    visit(0, mesh.n1, 0, mesh.n2 if mesh.dim == 2 else 1)
    return kids


def build_factorization(mesh: Mesh, op: EllipticOperator) -> HpsFactorization:
    """Factorize the operator on the mesh for repeated solves."""
    leaf_ops = build_leaf_operators(mesh, op)
    flat = mesh.leaf_grid.reshape(mesh.n_leaves, -1)
    ids = {_LEAF: flat[:, mesh.edge_local]}  # outer boundary ids per block
    T = {_LEAF: leaf_ops.T}  # edge-to-flux maps, dropped after the last parent
    kids = _blocks(mesh)
    order = sorted(kids, key=lambda s: s[0] * s[1])
    last_parent = {c: s for s in order for c, _ in kids[s][0]}

    levels = []
    for shape in order:
        (left, _), (right, _) = kids[shape][0]
        left_pos = np.array([a[1] for a, _ in kids[shape]])
        right_pos = np.array([b[1] for _, b in kids[shape]])
        ids_l, ids_r = ids[left][left_pos], ids[right][right_pos]
        common, ia, ib = np.intersect1d(ids_l[0], ids_r[0], return_indices=True)
        if common.size == 0:
            raise ValueError("children share no interface nodes")
        if not np.array_equal(ids_l[:, ia], ids_r[:, ib]):
            raise AssertionError(f"{shape[0]}x{shape[1]} blocks are not congruent")
        idx1 = np.setdiff1d(np.arange(ids_l.shape[1]), ia)
        idx2 = np.setdiff1d(np.arange(ids_r.shape[1]), ib)
        ids[shape] = np.concatenate([ids_l[:, idx1], ids_r[:, idx2]], axis=1)

        Tl, Tr = _rows(T[left], left_pos), _rows(T[right], right_pos)
        X = Tl[:, ia][:, :, ia] - Tr[:, ib][:, :, ib]
        inv_X = guarded_inverse(
            X, f"interface operator in the {shape[0]}x{shape[1]} blocks"
        )
        B = np.concatenate([-Tl[:, ia][:, :, idx1], Tr[:, ib][:, :, idx2]], axis=2)
        S = inv_X @ B
        C1 = Tl[:, idx1][:, :, ia]
        C2 = Tr[:, idx2][:, :, ib]

        n1 = idx1.size
        Tp = np.concatenate([C1, C2], axis=1) @ S
        Tp[:, :n1, :n1] += Tl[:, idx1][:, :, idx1]
        Tp[:, n1:, n1:] += Tr[:, idx2][:, :, idx2]
        T[shape] = Tp
        for child in (left, right):
            if last_parent[child] == shape:
                T.pop(child, None)

        levels.append(
            _Level(
                shape=shape,
                left=left,
                right=right,
                left_pos=left_pos,
                right_pos=right_pos,
                ia=ia,
                ib=ib,
                idx1=idx1,
                idx2=idx2,
                boundary_ids=ids[shape],
                interface_ids=ids_l[:, ia],
                inv_X=inv_X,
                S=S,
                C1=C1,
                C2=C2,
            )
        )

    gamma_ids = ids[order[-1] if order else _LEAF][0]
    if not np.array_equal(np.sort(gamma_ids), mesh.ids_of(BOUNDARY)):
        raise AssertionError("tree boundary does not match mesh boundary nodes")
    return HpsFactorization(
        mesh=mesh,
        op=op,
        leaf_ops=leaf_ops,
        levels=levels,
        leaf_interior_ids=flat[:, mesh.interior_local],
        leaf_boundary_ids=ids[_LEAF],
        gamma_ids=gamma_ids,
    )


def _as_cols(arr, n_expected: int, default_dtype):
    """Normalize (n,), (m, n) or None to column-matrix form (n, m)."""
    if arr is None:
        return None, None
    a = np.asarray(arr)
    if a.ndim == 1:
        if a.size != n_expected:
            raise ValueError(f"expected length {n_expected}, got {a.size}")
        return a[:, None], "vec"
    if a.ndim == 2:
        if a.shape[1] != n_expected:
            raise ValueError(f"expected trailing dimension {n_expected}")
        return a.T.copy(), a.shape[0]
    raise ValueError("fields must be 1- or 2-dimensional")


def _from_cols(cols: np.ndarray, lead):
    if lead == "vec" or lead is None:
        return cols[:, 0]
    return cols.T
