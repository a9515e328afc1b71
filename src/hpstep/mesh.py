"""Uniform multidomain meshes of tensor-product collocation leaves.

A rectangular domain is split into n1-by-n2 identical leaf boxes, each
carrying a p-by-p Chebyshev grid; an interval split into n1 leaves of p
nodes is the one-axis case, and one builder serves both. Nodes on a shared leaf edge appear once
globally; the four corner nodes of every leaf are never allocated, because
no collocation row of the supported operators reads them. Node classes:

    INTERIOR  - strictly inside a leaf; a PDE row is collocated here
    INTERFACE - on an edge shared by two leaves; a flux-matching row
    BOUNDARY  - on the outer boundary; data is imposed here

Each axis is a set of tensor lines, the Chebyshev nodes of its leaves
with shared leaf ends counted once. A grid point on two leaf-edge lines
is a dropped corner, one on exactly one is an interface node (a boundary
node at a domain end), and the rest are leaf interiors. Global ids are
assigned in (y, x)-lexicographic order of the line indices, which makes
every construction deterministic.

A mesh is read-only: `build_mesh` and the lazily computed tables below
mark every array non-writeable, because factorizations on one mesh share
them. `merge_plan` holds everything a factorization needs that depends on
the mesh alone (the merge tree, its index tables and their checks), so
each later factorization on the same mesh object skips all index work.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .chebyshev import cheb_nodes

INTERIOR = 0
INTERFACE = 1
BOUNDARY = 2

LEAF = (1, 1)  # block shape of a single leaf, in leaves along x and y


def _freeze(obj) -> None:
    """Mark every array field of a dataclass instance non-writeable."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value.flags.writeable = False


@dataclass(frozen=True)
class MergeLevel:
    """Index tables of all merges of one block shape, one row per block.

    Every merge of the level has children of shapes `left` and `right`,
    at `left_pos`/`right_pos` in their own levels (a leaf's position is
    its leaf index). Columns index a child's outer boundary: `cols_l` and
    `cols_r` are the shared interface, in ascending node id on both
    sides, and `keep_l`/`keep_r` the rest, which make up the block's own
    outer boundary. `ia`, `ib` and `ext` are the flux-buffer slots of
    those columns; `start` is the first slot of the level's own outer
    fluxes. `drop` names the child shapes that no later level reads.
    """

    shape: tuple
    left: tuple
    right: tuple
    left_pos: np.ndarray = field(repr=False)
    right_pos: np.ndarray = field(repr=False)
    cols_l: np.ndarray = field(repr=False)
    cols_r: np.ndarray = field(repr=False)
    keep_l: np.ndarray = field(repr=False)
    keep_r: np.ndarray = field(repr=False)
    start: int
    ia: np.ndarray = field(repr=False)  # (m, n_interface) slots, left child
    ib: np.ndarray = field(repr=False)  # same interface, right child
    ext: np.ndarray = field(repr=False)  # (m, n_outer) children's other outer fluxes; none at the root
    boundary_ids: np.ndarray = field(repr=False)  # (m, n_outer), keep_l's then keep_r's
    interface_ids: np.ndarray = field(repr=False)  # (m, n_interface)
    drop: tuple

    def __post_init__(self):
        _freeze(self)


@dataclass(frozen=True)
class MergePlan:
    """The mesh-only half of a factorization: the merge levels by block
    area, children first, and the leaf and boundary id tables."""

    levels: tuple
    leaf_interior_ids: np.ndarray = field(repr=False)  # (nl, n_int)
    leaf_boundary_ids: np.ndarray = field(repr=False)  # (nl, n_edge); the leaf flux slots
    gamma_ids: np.ndarray = field(repr=False)  # ascending, the mesh's boundary order
    n_flux: int  # length of the flux buffer

    def __post_init__(self):
        _freeze(self)


@dataclass(frozen=True)
class Mesh:
    """Geometry and index maps for one uniform leaf decomposition.

    Attributes:
        dim: 1 or 2.
        bounds: ((x0, x1),) or ((x0, x1), (y0, y1)).
        n1, n2: leaf counts per direction (n2 = 0 in 1D).
        p: nodes per leaf per direction.
        x, y: node coordinates, shape (N,); y is None in 1D.
        node_class: per-node class, one of INTERIOR/INTERFACE/BOUNDARY.
        leaf_grid: (nl, p, p) or (nl, p) global ids, -1 at dropped corners.
        owner_slots: (2, N) flat positions in the leaf arrays of the
            leaves touching each node (a node on one leaf has it twice);
            computed on first use.
        merge_plan: the merge tree and its index tables, the only copy
            that factorizations and the operator applier read; computed on
            first use.
        interior_local / edge_local: flat local indices shared by all
            leaves; edges are ordered S, E, N, W, ascending along each edge.
    """

    dim: int
    bounds: tuple
    n1: int
    n2: int
    p: int
    hx: float
    hy: float
    x: np.ndarray = field(repr=False)
    y: np.ndarray | None = field(repr=False)
    node_class: np.ndarray = field(repr=False)
    leaf_grid: np.ndarray = field(repr=False)
    interior_local: np.ndarray = field(repr=False)
    edge_local: np.ndarray = field(repr=False)

    def __post_init__(self):
        _freeze(self)

    @property
    def n_nodes(self) -> int:
        return self.x.size

    @property
    def n_leaves(self) -> int:
        return self.leaf_grid.shape[0]

    def ids_of(self, node_class: int) -> np.ndarray:
        return np.nonzero(self.node_class == node_class)[0]

    @cached_property
    def owner_slots(self) -> np.ndarray:
        flat = self.leaf_grid.ravel()
        _, first = np.unique(flat, return_index=True)
        _, last = np.unique(flat[::-1], return_index=True)
        slots = np.stack([first, flat.size - 1 - last])[:, int(flat.min() < 0) :]  # no -1
        slots.flags.writeable = False
        return slots

    @cached_property
    def merge_plan(self) -> MergePlan:
        return _plan_merges(self)


def _local_index_sets(p: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    if dim == 1:
        return np.arange(1, p - 1), np.array([0, p - 1])
    iy, ix = np.mgrid[1 : p - 1, 1 : p - 1]
    interior = (iy * p + ix).ravel()
    rng = np.arange(1, p - 1)
    south = rng
    east = rng * p + (p - 1)
    north = (p - 1) * p + rng
    west = rng * p
    return interior, np.concatenate([south, east, north, west])


def build_mesh(bounds, n1: int, n2: int | None = None, *, p: int) -> Mesh:
    """Build a mesh over `bounds` with n1 (by n2) leaves of p-by-p nodes.

    Args:
        bounds: (x0, x1) in 1D, ((x0, x1), (y0, y1)) in 2D.
        n1: leaf count along x.
        n2: leaf count along y; omit for a 1D mesh.
        p: nodes per leaf per direction, at least 3 so leaves have interiors.
    """
    if p < 3:
        raise ValueError(f"p={p} leaves no interior nodes")
    if n1 < 1 or (n2 is not None and n2 < 1):
        raise ValueError("need at least one leaf per direction")
    axes = [(bounds, n1)] if n2 is None else [(bounds[0], n1), (bounds[1], n2)]
    xi01 = (cheb_nodes(p) + 1.0) / 2.0
    # per axis (x first): tensor-line coordinates, edge-line and domain-end
    # flags of every line, and the lines each leaf spans
    box, step, line, on_edge, at_end, span = [], [], [], [], [], []
    for (a, b), n in axes:
        a, b = float(a), float(b)
        if not b > a:
            raise ValueError(f"empty interval [{a}, {b}]")
        h = (b - a) / n
        g = np.arange(n * (p - 1) + 1)
        j = np.minimum(g // (p - 1), n - 1)
        box.append((a, b))
        step.append(h)
        line.append(np.linspace(a, b, n + 1)[j] + xi01[g - j * (p - 1)] * h)
        on_edge.append(g % (p - 1) == 0)
        at_end.append((g == 0) | (g == g[-1]))
        span.append(np.arange(n)[:, None] * (p - 1) + np.arange(p))

    # points of the (y, x) line grid; crossings of two edge lines are dropped
    def grid_count(flags):  # per grid point, how many of its lines carry the flag
        return sum(np.meshgrid(*flags[::-1], indexing="ij", sparse=True))

    crossings = grid_count(on_edge)
    active = crossings < 2
    gid = np.full(active.shape, -1, dtype=np.int64)
    gid[active] = np.arange(active.sum())
    on_gamma = grid_count(at_end)[active] > 0
    cls = np.where(crossings[active] == 0, INTERIOR, np.where(on_gamma, BOUNDARY, INTERFACE))
    x, *y = (ln[g] for ln, g in zip(line, np.nonzero(active)[::-1]))

    if n2 is None:
        leaf_grid = gid[span[0]]
    else:
        sx, sy = span
        leaf_grid = gid[sy[:, None, :, None], sx[None, :, None, :]].reshape(-1, p, p)
    interior_local, edge_local = _local_index_sets(p, len(axes))
    return Mesh(
        dim=len(axes),
        bounds=tuple(box),
        n1=n1,
        n2=n2 or 0,
        p=p,
        hx=step[0],
        hy=step[1] if n2 else 0.0,
        x=x,
        y=y[0] if y else None,
        node_class=cls.astype(np.int8),
        leaf_grid=leaf_grid,
        interior_local=interior_local,
        edge_local=edge_local,
    )


def _blocks(mesh: Mesh) -> dict:
    """Children of every merge, grouped by block shape.

    The leaves are merged pairwise along a binary bisection tree that
    splits the longer axis of each leaf block, a vertical cut on a tie.
    Maps a block shape to a list of (left, right) pairs, each child given
    as (shape, position in its own shape's list); a leaf's position is
    its leaf index.
    """
    kids: dict = {}

    def visit(lx0, lx1, ly0, ly1):
        shape = (lx1 - lx0, ly1 - ly0)
        if shape == LEAF:
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


def _complement(cols: np.ndarray, n: int) -> np.ndarray:
    """The ascending columns of range(n) not in `cols`."""
    keep = np.ones(n, dtype=bool)
    keep[cols] = False
    return np.flatnonzero(keep)


def _plan_merges(mesh: Mesh) -> MergePlan:
    """Lay out the merge tree of the mesh and check it.

    Blocks of one shape are congruent on a uniform mesh: they share their
    local index maps and the shapes of their two children, which is
    checked here once per level. Outer fluxes take flux-buffer slots
    level by level, leaves first; the root passes none up.
    """
    flat = mesh.leaf_grid.reshape(mesh.n_leaves, -1)
    # per block shape: outer-boundary ids, one row per block; its first outer-flux slot
    ids = {LEAF: np.take(flat, mesh.edge_local, axis=1)}
    first = {LEAF: 0}
    start = ids[LEAF].size
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
        idx1, idx2 = _complement(ia, ids_l.shape[1]), _complement(ib, ids_r.shape[1])
        outer = np.take(ids_l, idx1, axis=1), np.take(ids_r, idx2, axis=1)
        ids[shape] = np.concatenate(outer, axis=1)
        # buffer slot of each child block's first outer flux
        sl = first[left] + left_pos[:, None] * ids_l.shape[1]
        sr = first[right] + right_pos[:, None] * ids_r.shape[1]
        first[shape] = start
        ext = np.empty((len(left_pos), 0), dtype=int)
        if shape != order[-1]:
            ext = np.concatenate([sl + idx1, sr + idx2], axis=1)
        levels.append(
            MergeLevel(
                shape=shape,
                left=left,
                right=right,
                left_pos=left_pos,
                right_pos=right_pos,
                cols_l=ia,
                cols_r=ib,
                keep_l=idx1,
                keep_r=idx2,
                start=start,
                ia=sl + ia,
                ib=sr + ib,
                ext=ext,
                boundary_ids=ids[shape],
                interface_ids=np.take(ids_l, ia, axis=1),
                drop=tuple(dict.fromkeys(c for c in (left, right) if last_parent[c] == shape)),
            )
        )
        start += ext.size

    gamma_ids = mesh.ids_of(BOUNDARY)
    if not np.array_equal(np.sort(ids[order[-1] if order else LEAF][0]), gamma_ids):
        raise AssertionError("tree boundary does not match mesh boundary nodes")
    return MergePlan(
        levels=tuple(levels),
        leaf_interior_ids=np.take(flat, mesh.interior_local, axis=1),
        leaf_boundary_ids=ids[LEAF],
        gamma_ids=gamma_ids,
        n_flux=start,
    )
