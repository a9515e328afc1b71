"""Build-once, solve-many multidomain direct solver.

A factorization is built in two phases, split the way a sparse direct
solver splits its symbolic analysis from its numeric factorization: what
the mesh fixes, and what the operator (its coefficients and dt) fixes.

The mesh phase is `Mesh.merge_plan`. The mesh's leaves are merged
pairwise along a binary bisection tree (splitting the longer axis of
each leaf block, so square grids alternate directions starting with a
vertical cut). Blocks of one shape are congruent on a uniform mesh: they
share their local index maps and the shapes of their two children. All
merges of one block shape therefore form a level, and levels are ordered
by block area, children first. The plan holds, per level, the children's
positions, their interface and outer columns, and the node-id and
flux-buffer slot tables the solve reads, and it checks the tree once. The
first factorization on a mesh object computes it; every later one, of any
operator, reads the same read-only tables. A factorization stores no index
table of its own: its solve reads every one from the plan.

The numeric phase is `build_factorization`: the leaf operators, then per
level the children's edge-to-flux maps cut at the plan's columns, which
leave three stacks per level. The leaves, in the general form or a real
one for Schrodinger stage operators (`operators` module docstring), hand
over one leaf edge-to-flux map, Fb - Fi M_II^-1 M_IB, formed from the
inverse of each leaf's interior block (`edge_to_flux`), so the merge
levels do not depend on the form. Each merge eliminates the shared interface by equating the
one-sided edge-normal derivatives of the two children, which yields a
dense interface operator

    X = T_left[33] - T_right[33]

whose inverse is stored. Because edge-normal derivatives are stored
without an outward sign flip, values from both sides are directly
comparable and interface rows/columns can be ordered by global node id,
making the merge orientation-free. A level's operators are stacked along
a leading axis. With position-independent coefficients a level stores
one copy, and a product with it is one GEMM over the rows of all its
blocks; a full stack is one batched BLAS product over a contiguous
(m, n, k) copy of the rows. Everything a solve reads has one memory
order, C: every slot and id table of the plan (one row per block) and
every stack the build stores, shared or full.

A solve takes and returns fields as rows, (N,) or (k, N), and reads
them with `operators.take_rows(rows, table)`. The upward pass writes
the particular outer edge fluxes of every block, leaves first, into one
flat buffer, at slots the plan has worked out; the leaves' form writes
theirs (`upward`), and gives their interior values at the end of the
downward pass (`downward`). A level is two takes (its interface
fluxes), a product with the inverse, one take (the children's other
outer fluxes), a product with the stacked flux correction and one slice
store. The root has no parent, so it passes no outer fluxes up: its
slot table and flux correction are empty, and the buffer holds no slots
for it. A penalty, leaf edge fluxes, is added into the leaf slots:
blocks pass leaf fluxes up unchanged, so every interface jump then
carries the penalty's. The downward pass sets interface values from
each block's outer values, root first, then leaf interiors.
Factorizations are immutable; each solve allocates its own buffer, so
concurrent solves against one factorization are safe.

The corrected interface condition used while time stepping replaces
flux continuity of the unknown with

    [[flux(unknown)]] = -(1/dt) * [[flux(penalty field)]]

so that a time step whose stage weights sum to one cancels any
derivative jump the evolving field has picked up; passing
`penalty=operators.edge_fluxes(mesh, u) / dt` enables it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .mesh import LEAF, Mesh
from .operators import EllipticOperator, LeafOperators, build_leaf_operators
from .operators import apply_blocks, guarded_inverse, put_rows, take_rows


@dataclass
class _Level:
    """The operators of all merges of one block shape, stacked over the
    merges (one copy when the leaf operators are shared). The solve reads
    every field, and reads the level's index tables from the matching
    level of the mesh's merge plan."""

    inv_X: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)  # interface response to outer data
    C: np.ndarray = field(repr=False)  # [T_left[1,3]; T_right[2,3]]; no rows at the root


@dataclass
class HpsFactorization:
    """Reusable direct factorization of one operator on one mesh. It
    stores only numbers; every index table is the mesh's merge plan's."""

    mesh: Mesh
    op: EllipticOperator
    leaf_ops: LeafOperators = field(repr=False)
    levels: list[_Level] = field(repr=False)  # as the plan's levels: by block area, children first
    condition: dict  # worst 1-norm condition number per block shape

    @property
    def gamma_ids(self) -> np.ndarray:
        """Boundary node ids, ascending: the order of the Dirichlet data."""
        return self.mesh.merge_plan.gamma_ids

    @property
    def dtype(self):
        return self.leaf_ops.dtype

    def solve(
        self, load: np.ndarray, dirichlet: np.ndarray, *, penalty: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve for one or several right-hand sides.

        Args:
            load: interior data, shape (N,) or (k, N); sets k for all inputs.
            dirichlet: boundary values by ascending node id, as in
                `gamma_ids`, shape (n_gamma,) or (k, n_gamma).
            penalty: leaf edge fluxes added to the particular fluxes of the
                leaves, shape (nl, n_edge) or (k, nl, n_edge): the
                `operators.edge_fluxes` of the field whose derivative
                jumps are penalized, over dt.

        Returns:
            Field over all active nodes, (N,) or (k, N) like `load`.
            NaN or inf in the data is not screened and reaches the result.
        """
        mesh = self.mesh
        plan = mesh.merge_plan
        f = _as_rows(load, (mesh.n_nodes,), "load")
        k = len(f)
        g = _as_rows(dirichlet, plan.gamma_ids.shape, "dirichlet", k)
        if penalty is not None:
            penalty = _as_rows(penalty, plan.leaf_boundary_ids.shape, "penalty", k)
        dtype = np.result_type(self.dtype, *(a.dtype for a in (f, g, penalty) if a is not None))

        # upward pass: particular interior solutions z, the particular
        # outer fluxes of every block into the buffer, and per level the
        # interface correction w
        lf = self.leaf_ops
        buf = np.empty((k, plan.n_flux), dtype=dtype)
        n_leaf = plan.leaf_boundary_ids.size
        flux = buf[:, :n_leaf].reshape(k, mesh.n_leaves, -1)
        kept = lf.upward(take_rows(f, plan.leaf_interior_ids), flux)
        if penalty is not None:
            buf[:, :n_leaf] += penalty
        w = []
        for mp, lv in zip(plan.levels, self.levels):
            w.append(apply_blocks(lv.inv_X, take_rows(buf, mp.ib) - take_rows(buf, mp.ia)))
            h = take_rows(buf, mp.ext) + apply_blocks(lv.C, w[-1])
            buf[:, mp.start : mp.start + mp.ext.size] = h.reshape(k, -1)

        # downward pass: every block's outer values are known once its
        # ancestors are done, which gives its interface values
        out = np.zeros((k, mesh.n_nodes), dtype=dtype)
        put_rows(out, plan.gamma_ids, g)
        for mp, lv, w_lv in zip(reversed(plan.levels), reversed(self.levels), reversed(w)):
            outer = take_rows(out, mp.boundary_ids)
            put_rows(out, mp.interface_ids, w_lv + apply_blocks(lv.S, outer))
        edge = take_rows(out, plan.leaf_boundary_ids)
        put_rows(out, plan.leaf_interior_ids, lf.downward(kept, edge))
        return out if np.ndim(load) == 2 else out[0]


def _as_rows(arr, shape: tuple, name: str, k: int | None = None) -> np.ndarray:
    """Data of `shape`, or k rows of it, as (k, size) rows, without a copy;
    k rows if k is given."""
    a = np.asarray(arr)
    if a.ndim - len(shape) not in (0, 1) or a.shape[a.ndim - len(shape) :] != shape:
        inner = ", ".join(map(str, shape))
        raise ValueError(f"{name}: expected shape {shape} or (k, {inner}), got {a.shape}")
    a = a.reshape(-1, math.prod(shape))
    if k is not None and len(a) != k:
        raise ValueError(f"{name} has {len(a)} rows, expected {k}")
    return a


def _cut(T: np.ndarray, pos: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """T[pos][:, rows][:, :, cols] in one take over the whole stack, C-ordered;
    a shared (length-one) stack is cut at position 0 and stays one copy."""
    if len(T) == 1:
        pos = np.zeros(1, dtype=int)
    flat = (rows[:, None] * T.shape[2] + cols).ravel()
    at = (pos * T[0].size)[:, None] + flat
    return np.take(T, at).reshape(len(pos), rows.size, cols.size)


def build_factorization(mesh: Mesh, op: EllipticOperator) -> HpsFactorization:
    """Factorize the operator on the mesh for repeated solves.

    The index work is the mesh's merge plan, laid out and checked by the
    first factorization on the mesh object and shared by every later one.
    """
    leaf_ops = build_leaf_operators(mesh, op)
    # planned after the leaf stacks: the other way round, a first build's
    # allocations raised peak RSS by about 3 MB on a 16x16 p=12 mesh
    plan = mesh.merge_plan
    # edge-to-flux maps per block shape, dropped after the last parent
    T = {LEAF: leaf_ops.edge_to_flux()}
    condition = {LEAF: leaf_ops.condition}
    levels = []
    for mp in plan.levels:
        Tl, Tr, lp, rp = T[mp.left], T[mp.right], mp.left_pos, mp.right_pos
        ia, ib, idx1, idx2 = mp.cols_l, mp.cols_r, mp.keep_l, mp.keep_r
        X = _cut(Tl, lp, ia, ia) - _cut(Tr, rp, ib, ib)
        what = f"interface operator in the {mp.shape[0]}x{mp.shape[1]} blocks"
        inv_X, condition[mp.shape] = guarded_inverse(X, what)
        B = np.concatenate([-_cut(Tl, lp, ia, idx1), _cut(Tr, rp, ib, idx2)], axis=2)
        S = inv_X @ B
        C = inv_X[:, :0]  # the root has no parent: it passes no outer fluxes up
        if mp.ext.size:
            C = np.concatenate([_cut(Tl, lp, idx1, ia), _cut(Tr, rp, idx2, ib)], axis=1)
            n1 = idx1.size
            Tp = C @ S
            Tp[:, :n1, :n1] += _cut(Tl, lp, idx1, idx1)
            Tp[:, n1:, n1:] += _cut(Tr, rp, idx2, idx2)
            T[mp.shape] = Tp
        levels.append(_Level(inv_X, S, C))
        for child in mp.drop:
            del T[child]

    return HpsFactorization(mesh=mesh, op=op, leaf_ops=leaf_ops, levels=levels, condition=condition)


def factor_bytes(fact: HpsFactorization) -> int:
    """Bytes of every array a factorization stores: the leaf form's arrays
    and every level's stacks. An array that views another counts
    its base, once; the mesh and its merge plan, which every factorization
    on the mesh shares, are not counted."""
    bases, todo = {}, [fact.leaf_ops, fact.levels]
    while todo:
        o = todo.pop()
        if isinstance(o, np.ndarray):
            while isinstance(o.base, np.ndarray):
                o = o.base
            bases[id(o)] = o.nbytes
        elif isinstance(o, (list, tuple)):
            todo.extend(o)
        elif hasattr(o, "__dict__"):
            todo.extend(vars(o).values())
    return sum(bases.values())
