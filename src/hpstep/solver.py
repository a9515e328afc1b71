"""Build-once, solve-many multidomain direct solver.

The mesh's leaves are merged pairwise along a binary bisection tree
(splitting the longer axis of each leaf block, so square grids alternate
directions starting with a vertical cut). Each merge eliminates the
shared interface by equating the one-sided edge-normal derivatives of
the two children, which yields a dense interface operator

    X = T_left[33] - T_right[33]

whose LU factors are retained. Because edge-normal derivatives are stored
without an outward sign flip, values from both sides are directly
comparable and interface rows/columns can be ordered by global node id,
making the merge orientation-free.

A solve is one upward sweep (particular solutions and their edge fluxes)
and one downward sweep (interface data from the factored operators, then
leaf interiors). Factorizations are immutable; each solve allocates its
own workspace, so concurrent solves against one factorization are safe.

The corrected interface condition used while time stepping replaces
flux continuity of the unknown with

    [[flux(unknown)]] = -(1/dt) * [[flux(penalty field)]]

so that a time step whose stage weights sum to one cancels any
derivative jump the evolving field has picked up; passing
`penalty_field` (with `dt`) enables it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .mesh import BOUNDARY, Mesh
from .operators import EllipticOperator, LeafOperatorSet, build_leaf_operators


@dataclass
class _LeafNode:
    leaf: int
    slot: int
    boundary_ids: np.ndarray = field(repr=False)
    interior_ids: np.ndarray = field(repr=False)


@dataclass
class _MergeNode:
    left: Union["_LeafNode", "_MergeNode"]
    right: Union["_LeafNode", "_MergeNode"]
    slot: int
    ia: np.ndarray = field(repr=False)  # interface positions in left boundary
    ib: np.ndarray = field(repr=False)  # same interface in right boundary
    idx1: np.ndarray = field(repr=False)  # left-exclusive positions
    idx2: np.ndarray = field(repr=False)  # right-exclusive positions
    lu_X: tuple = field(repr=False)
    S: np.ndarray = field(repr=False)  # interface response to outer data
    C1: np.ndarray = field(repr=False)  # T_left[1,3]
    C2: np.ndarray = field(repr=False)  # T_right[2,3]
    boundary_ids: np.ndarray = field(repr=False)


def _factor_interface(X: np.ndarray, where: str) -> tuple:
    lu = lu_factor(X)
    d = np.abs(np.diag(lu[0]))
    if d.size and (d.min() == 0.0 or d.min() < 1e-14 * d.max()):
        raise ValueError(f"singular interface operator at merge {where}")
    return lu


@dataclass
class HpsFactorization:
    """Reusable direct factorization of one operator on one mesh."""

    mesh: Mesh
    op: EllipticOperator
    leaf_ops: LeafOperatorSet = field(repr=False)
    nodes: list = field(repr=False)  # post-order, leaves and merges mixed
    root: Union[_LeafNode, _MergeNode] = field(repr=False)
    gamma_ids: np.ndarray = field(repr=False)

    @property
    def dtype(self):
        return self.leaf_ops.for_leaf(0).T.dtype

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

        # upward sweep: per-slot particular flux h, penalty flux hu, and
        # per-leaf particular interior solutions
        h_store: list = [None] * len(self.nodes)
        hu_store: list = [None] * len(self.nodes)
        z_store: dict[int, np.ndarray] = {}
        w_store: dict[int, np.ndarray] = {}

        self._leaf_upward(load_c, pen_c, k, dtype, h_store, hu_store, z_store)

        inv_dt = None if dt is None else 1.0 / dt
        for node in self.nodes:
            if isinstance(node, _LeafNode):
                continue
            hl, hr = h_store[node.left.slot], h_store[node.right.slot]
            delta = hr[node.ib] - hl[node.ia]
            if pen_c is not None:
                hul = hu_store[node.left.slot]
                hur = hu_store[node.right.slot]
                delta = delta - inv_dt * (hul[node.ia] - hur[node.ib])
                hu_store[node.slot] = np.concatenate(
                    [hul[node.idx1], hur[node.idx2]], axis=0
                )
            w = lu_solve(node.lu_X, delta, check_finite=False)
            w_store[node.slot] = w
            h_store[node.slot] = np.concatenate(
                [hl[node.idx1] + node.C1 @ w, hr[node.idx2] + node.C2 @ w], axis=0
            )
            h_store[node.left.slot] = None
            h_store[node.right.slot] = None

        # downward sweep
        out = np.zeros((n, k), dtype=dtype)
        g_root = (
            np.zeros((self.gamma_ids.size, k), dtype=dtype)
            if diri_c is None
            else np.broadcast_to(diri_c, (self.gamma_ids.size, k))
        )
        stack = [(self.root, np.asarray(g_root, dtype=dtype))]
        while stack:
            node, g = stack.pop()
            if isinstance(node, _LeafNode):
                lf = self.leaf_ops.for_leaf(node.leaf)
                out[node.interior_ids] = z_store[node.slot] - lf.G @ g
                out[node.boundary_ids] = g
                continue
            n1 = node.idx1.size
            g3 = w_store[node.slot] + node.S @ g
            gl = np.empty((node.left.boundary_ids.size, k), dtype=dtype)
            gl[node.idx1] = g[:n1]
            gl[node.ia] = g3
            gr = np.empty((node.right.boundary_ids.size, k), dtype=dtype)
            gr[node.idx2] = g[n1:]
            gr[node.ib] = g3
            stack.append((node.left, gl))
            stack.append((node.right, gr))

        return _from_cols(out, lead)

    def _leaf_upward(self, load_c, pen_c, k, dtype, h_store, hu_store, z_store):
        leaves = [nd for nd in self.nodes if isinstance(nd, _LeafNode)]
        shared = self.leaf_ops.shared
        if shared and len(leaves) > 1:
            lf = self.leaf_ops.for_leaf(0)
            n_int = leaves[0].interior_ids.size
            if load_c is None:
                z_all = np.zeros((len(leaves), n_int, k), dtype=dtype)
            else:
                f = np.stack([load_c[nd.interior_ids] for nd in leaves])
                z_all = (
                    lu_solve(
                        lf.lu, f.transpose(1, 0, 2).reshape(n_int, -1), check_finite=False
                    )
                    .reshape(n_int, len(leaves), k)
                    .transpose(1, 0, 2)
                )
            h_all = np.einsum("ij,ljk->lik", lf.Fi, z_all)
            for i, nd in enumerate(leaves):
                z_store[nd.slot] = z_all[i]
                h_store[nd.slot] = h_all[i]
        else:
            for nd in leaves:
                lf = self.leaf_ops.for_leaf(nd.leaf)
                if load_c is None:
                    z = np.zeros((nd.interior_ids.size, k), dtype=dtype)
                    h = np.zeros((lf.Fi.shape[0], k), dtype=dtype)
                else:
                    z = lu_solve(lf.lu, load_c[nd.interior_ids], check_finite=False)
                    h = lf.Fi @ z
                z_store[nd.slot] = z
                h_store[nd.slot] = h
        if pen_c is not None:
            for nd in leaves:
                lf = self.leaf_ops.for_leaf(nd.leaf)
                hu_store[nd.slot] = (
                    lf.Fi @ pen_c[nd.interior_ids] + lf.Fb @ pen_c[nd.boundary_ids]
                )


def build_factorization(
    mesh: Mesh, op: EllipticOperator, threads: int = 1
) -> HpsFactorization:
    """Factorize the operator on the mesh for repeated solves."""
    leaf_ops = build_leaf_operators(mesh, op, threads)
    nodes: list = []

    grid = mesh.leaf_grid
    nl1 = mesh.n1
    flat = grid.reshape(grid.shape[0], -1)
    bnd_ids = flat[:, mesh.edge_local]
    int_ids = flat[:, mesh.interior_local]

    def leaf_index(lx: int, ly: int) -> int:
        return ly * nl1 + lx if mesh.dim == 2 else lx

    def build(lx0, lx1, ly0, ly1):
        if lx1 - lx0 == 1 and ly1 - ly0 == 1:
            l = leaf_index(lx0, ly0)
            node = _LeafNode(
                leaf=l,
                slot=len(nodes),
                boundary_ids=bnd_ids[l],
                interior_ids=int_ids[l],
            )
            nodes.append(node)
            return node, leaf_ops.for_leaf(l).T
        if lx1 - lx0 >= ly1 - ly0:
            mid = (lx0 + lx1) // 2
            left, Tl = build(lx0, mid, ly0, ly1)
            right, Tr = build(mid, lx1, ly0, ly1)
        else:
            mid = (ly0 + ly1) // 2
            left, Tl = build(lx0, lx1, ly0, mid)
            right, Tr = build(lx0, lx1, mid, ly1)

        ids_l, ids_r = left.boundary_ids, right.boundary_ids
        shared, ia, ib = np.intersect1d(ids_l, ids_r, return_indices=True)
        if shared.size == 0:
            raise ValueError("children share no interface nodes")
        mask_l = np.ones(ids_l.size, dtype=bool)
        mask_l[ia] = False
        idx1 = np.nonzero(mask_l)[0]
        mask_r = np.ones(ids_r.size, dtype=bool)
        mask_r[ib] = False
        idx2 = np.nonzero(mask_r)[0]

        X = Tl[np.ix_(ia, ia)] - Tr[np.ix_(ib, ib)]
        lu_X = _factor_interface(X, f"block x[{lx0}:{lx1}] y[{ly0}:{ly1}]")
        B = np.concatenate(
            [-Tl[np.ix_(ia, idx1)], Tr[np.ix_(ib, idx2)]], axis=1
        )
        S = lu_solve(lu_X, B)
        C1 = Tl[np.ix_(idx1, ia)]
        C2 = Tr[np.ix_(idx2, ib)]

        n1, n2 = idx1.size, idx2.size
        Tp = np.zeros((n1 + n2, n1 + n2), dtype=np.result_type(Tl, Tr))
        Tp[:n1, :n1] = Tl[np.ix_(idx1, idx1)]
        Tp[n1:, n1:] = Tr[np.ix_(idx2, idx2)]
        Tp += np.concatenate([C1, C2], axis=0) @ S

        node = _MergeNode(
            left=left,
            right=right,
            slot=len(nodes),
            ia=ia,
            ib=ib,
            idx1=idx1,
            idx2=idx2,
            lu_X=lu_X,
            S=S,
            C1=C1,
            C2=C2,
            boundary_ids=np.concatenate([ids_l[idx1], ids_r[idx2]]),
        )
        nodes.append(node)
        return node, Tp

    ny = mesh.n2 if mesh.dim == 2 else 1
    root, _ = build(0, mesh.n1, 0, ny)
    fact = HpsFactorization(
        mesh=mesh,
        op=op,
        leaf_ops=leaf_ops,
        nodes=nodes,
        root=root,
        gamma_ids=root.boundary_ids,
    )
    if not np.array_equal(
        np.sort(root.boundary_ids), np.nonzero(mesh.node_class == BOUNDARY)[0]
    ):
        raise AssertionError("tree boundary does not match mesh boundary nodes")
    return fact


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
