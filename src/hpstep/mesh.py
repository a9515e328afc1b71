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
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chebyshev import cheb_nodes

INTERIOR = 0
INTERFACE = 1
BOUNDARY = 2


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
        return np.stack([first, flat.size - 1 - last])[:, int(flat.min() < 0) :]  # no -1


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
