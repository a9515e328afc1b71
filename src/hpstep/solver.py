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
position-independent coefficients a level stores one copy, and a
product with it is one GEMM over the rows of all its blocks; a full
stack is one batched BLAS product over a contiguous (m, n, k) copy of
the rows. Everything the build stores has one memory order, C: every
slot and id table (one row per block) and every stack, shared or full.

A solve takes and returns fields as rows, (N,) or (k, N), and reads
them with plain `np.take(rows, table, axis=1)`. The upward pass writes
the particular outer edge fluxes of every block, leaves first, into one
flat buffer, at slots the build has worked out. A level is two takes (its
interface fluxes), a product with the inverse, one take (the children's
other outer fluxes), a product with the stacked flux correction and one
slice store. The root has no parent, so it passes no outer fluxes up:
its slot table and flux correction are empty, and the buffer holds no
slots for it. A penalty field's leaf fluxes, times 1/dt, are added into
the leaf slots: blocks pass leaf fluxes up unchanged, so every interface
jump then carries the penalty's. The downward pass sets interface values
from each block's outer values, root first, then leaf interiors.
Factorizations are immutable; each solve allocates its own buffer, so
concurrent solves against one factorization are safe.

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
from .operators import EllipticOperator, LeafOperatorSet, build_leaf_operators
from .operators import guarded_inverse, put_rows

_LEAF = (1, 1)  # block shape of a single leaf, in leaves along x and y


@dataclass
class _Level:
    """All merges of one block shape: operators stacked over the merges
    (one copy when the leaf operators are shared), flux-buffer slots and
    node ids with one row per block. The solve reads every field."""

    start: int  # first buffer slot of this level's outer fluxes
    ia: np.ndarray = field(repr=False)  # buffer slots of the interface, left child
    ib: np.ndarray = field(repr=False)  # same interface, right child
    ext: np.ndarray = field(repr=False)  # children's other outer fluxes; none at the root
    boundary_ids: np.ndarray = field(repr=False)  # (m, n_outer)
    interface_ids: np.ndarray = field(repr=False)  # (m, n_interface)
    inv_X: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)  # interface response to outer data
    C: np.ndarray = field(repr=False)  # [T_left[1,3]; T_right[2,3]]; no rows at the root


@dataclass
class HpsFactorization:
    """Reusable direct factorization of one operator on one mesh."""

    mesh: Mesh
    op: EllipticOperator
    leaf_ops: LeafOperatorSet = field(repr=False)
    levels: list[_Level] = field(repr=False)  # by block area, children first
    leaf_interior_ids: np.ndarray = field(repr=False)  # (nl, n_int)
    leaf_boundary_ids: np.ndarray = field(repr=False)  # (nl, n_edge)
    gamma_ids: np.ndarray = field(repr=False)  # ascending, the mesh's boundary order
    n_flux: int  # length of the flux buffer
    condition: dict  # worst 1-norm condition number per block shape

    @property
    def dtype(self):
        return self.leaf_ops.inv.dtype

    def solve(
        self,
        load: np.ndarray,
        dirichlet: np.ndarray,
        *,
        penalty_field: np.ndarray | None = None,
        dt: float | None = None,
    ) -> np.ndarray:
        """Solve for one or several right-hand sides.

        Args:
            load: interior data, shape (N,) or (k, N); sets k for all inputs.
            dirichlet: boundary values by ascending node id, as in
                `gamma_ids`, shape (n_gamma,) or (k, n_gamma).
            penalty_field: current solution field whose derivative jumps
                are penalized in the interface conditions, shape (N,) or
                (k, N); requires dt.

        Returns:
            Field over all active nodes, (N,) or (k, N) like `load`.
            NaN or inf in the data is not screened and reaches the result.
        """
        n = self.mesh.n_nodes
        if penalty_field is not None and dt is None:
            raise ValueError("penalty_field requires dt")
        f = _as_rows(load, n, "load")
        k = len(f)
        g = _as_rows(dirichlet, self.gamma_ids.size, "dirichlet", k)
        pen = None if penalty_field is None else _as_rows(penalty_field, n, "penalty_field", k)
        dtype = np.result_type(self.dtype, *(a.dtype for a in (f, g, pen) if a is not None))

        # upward pass: particular interior solutions z, the particular
        # outer fluxes of every block into the buffer, and per level the
        # interface correction w
        lf = self.leaf_ops
        z = _apply(lf.inv, np.take(f, self.leaf_interior_ids, axis=1))
        buf = np.empty((k, self.n_flux), dtype=dtype)
        n_leaf = self.leaf_boundary_ids.size
        buf[:, :n_leaf] = (z @ lf.Fi.T).reshape(k, n_leaf)
        if pen is not None:
            hu = np.take(pen, self.leaf_interior_ids, axis=1) @ lf.Fi.T
            hu = hu + np.take(pen, self.leaf_boundary_ids, axis=1) @ lf.Fb.T
            buf[:, :n_leaf] += (1.0 / dt) * hu.reshape(k, n_leaf)
        w = []
        for lv in self.levels:
            w.append(_apply(lv.inv_X, np.take(buf, lv.ib, axis=1) - np.take(buf, lv.ia, axis=1)))
            h = np.take(buf, lv.ext, axis=1) + _apply(lv.C, w[-1])
            buf[:, lv.start : lv.start + lv.ext.size] = h.reshape(k, -1)

        # downward pass: every block's outer values are known once its
        # ancestors are done, which gives its interface values
        out = np.zeros((k, n), dtype=dtype)
        put_rows(out, self.gamma_ids, g)
        for lv, w_lv in zip(reversed(self.levels), reversed(w)):
            outer = np.take(out, lv.boundary_ids, axis=1)
            put_rows(out, lv.interface_ids, w_lv + _apply(lv.S, outer))
        edge = np.take(out, self.leaf_boundary_ids, axis=1)
        put_rows(out, self.leaf_interior_ids, z - _apply(lf.G, edge))
        return out if np.ndim(load) == 2 else out[0]


def _as_rows(arr, n: int, name: str, k: int | None = None) -> np.ndarray:
    """(n,) or (k, n) data as (k, n) rows, without a copy; k rows if k is given."""
    a = np.asarray(arr)
    if a.ndim not in (1, 2) or a.shape[-1] != n:
        raise ValueError(f"{name}: expected shape ({n},) or (k, {n}), got {a.shape}")
    a = a.reshape(-1, n)
    if k is not None and len(a) != k:
        raise ValueError(f"{name} has {len(a)} rows, expected {k}")
    return a


def _apply(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each block's operator applied to its rows: (k, m, n) -> (k, m, r).

    A shared stack (length one) multiplies the rows of every block in one
    GEMM; a full stack (m, r, n), C-ordered like every stored stack, is
    one batched BLAS product over a contiguous (m, n, k) copy of the rows.
    """
    if len(A) == 1:
        return x @ A[0].T
    return (A @ np.ascontiguousarray(x.transpose(1, 2, 0))).transpose(2, 0, 1)


def _cut(T: np.ndarray, pos: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """T[pos][:, rows][:, :, cols] in one take over the whole stack, C-ordered;
    a shared (length-one) stack is cut at position 0 and stays one copy."""
    if len(T) == 1:
        pos = np.zeros(1, dtype=int)
    flat = (rows[:, None] * T.shape[2] + cols).ravel()
    at = (pos * T[0].size)[:, None] + flat
    return np.take(T, at).reshape(len(pos), rows.size, cols.size)


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
    # per block shape: outer-boundary ids, one row per block; its first outer-flux slot
    ids = {_LEAF: np.take(flat, mesh.edge_local, axis=1)}
    first = {_LEAF: 0}
    # edge-to-flux maps, dropped after the last parent
    T = {_LEAF: leaf_ops.Fb - leaf_ops.Fi @ leaf_ops.G}
    condition = {_LEAF: leaf_ops.condition}
    start = ids[_LEAF].size
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

        outer = np.take(ids_l, idx1, axis=1), np.take(ids_r, idx2, axis=1)
        ids[shape] = np.concatenate(outer, axis=1)
        # buffer slot of each child block's first outer flux
        sl = first[left] + left_pos[:, None] * ids_l.shape[1]
        sr = first[right] + right_pos[:, None] * ids_r.shape[1]
        first[shape] = start

        Tl, Tr = T[left], T[right]
        X = _cut(Tl, left_pos, ia, ia) - _cut(Tr, right_pos, ib, ib)
        what = f"interface operator in the {shape[0]}x{shape[1]} blocks"
        inv_X, condition[shape] = guarded_inverse(X, what)
        B = np.concatenate([-_cut(Tl, left_pos, ia, idx1), _cut(Tr, right_pos, ib, idx2)], axis=2)
        S = inv_X @ B

        # the root has no parent: it passes no outer fluxes up
        ext, C = np.empty((len(left_pos), 0), dtype=int), inv_X[:, :0]
        if shape != order[-1]:
            ext = np.concatenate([sl + idx1, sr + idx2], axis=1)
            C = np.concatenate(
                [_cut(Tl, left_pos, idx1, ia), _cut(Tr, right_pos, idx2, ib)], axis=1
            )
            n1 = idx1.size
            Tp = C @ S
            Tp[:, :n1, :n1] += _cut(Tl, left_pos, idx1, idx1)
            Tp[:, n1:, n1:] += _cut(Tr, right_pos, idx2, idx2)
            T[shape] = Tp

        levels.append(
            _Level(
                start=start,
                ia=sl + ia,
                ib=sr + ib,
                ext=ext,
                boundary_ids=ids[shape],
                interface_ids=np.take(ids_l, ia, axis=1),
                inv_X=inv_X,
                S=S,
                C=C,
            )
        )
        start += ext.size
        for child in (left, right):
            if last_parent[child] == shape:
                T.pop(child, None)

    gamma_ids = mesh.ids_of(BOUNDARY)
    if not np.array_equal(np.sort(ids[order[-1] if order else _LEAF][0]), gamma_ids):
        raise AssertionError("tree boundary does not match mesh boundary nodes")
    return HpsFactorization(
        mesh=mesh,
        op=op,
        leaf_ops=leaf_ops,
        levels=levels,
        leaf_interior_ids=np.take(flat, mesh.interior_local, axis=1),
        leaf_boundary_ids=ids[_LEAF],
        gamma_ids=gamma_ids,
        n_flux=start,
        condition=condition,
    )
