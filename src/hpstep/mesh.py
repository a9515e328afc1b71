"""Uniform multidomain meshes of tensor-product collocation leaves.

A rectangular domain is split into n1-by-n2 identical leaf boxes, each
carrying a p-by-p Chebyshev grid. Nodes on a shared leaf edge appear once
globally; the four corner nodes of every leaf are never allocated, because
no collocation row of the supported operators reads them. Node classes:

    INTERIOR  - strictly inside a leaf; a PDE row is collocated here
    INTERFACE - on an edge shared by two leaves; a flux-matching row
    BOUNDARY  - on the outer boundary; data is imposed here

Global ids are assigned in (y, x)-lexicographic order of the virtual
tensor line indices, which makes every construction deterministic.
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
        leaf_boxes: physical extents per leaf, (nl, 4) or (nl, 2).
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
    leaf_boxes: np.ndarray = field(repr=False)
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
    if n2 is None:
        return _build_1d(float(bounds[0]), float(bounds[1]), n1, p)
    (x0, x1), (y0, y1) = bounds
    return _build_2d(float(x0), float(x1), float(y0), float(y1), n1, n2, p)


def _build_1d(a: float, b: float, n1: int, p: int) -> Mesh:
    if not b > a:
        raise ValueError(f"empty interval [{a}, {b}]")
    h = (b - a) / n1
    edges = np.linspace(a, b, n1 + 1)
    xi01 = (cheb_nodes(p) + 1.0) / 2.0

    n_line = n1 * (p - 1) + 1
    gx = np.arange(n_line)
    jx = np.minimum(gx // (p - 1), n1 - 1)
    ix = gx - jx * (p - 1)
    x = edges[jx] + xi01[ix] * h

    cls = np.full(n_line, INTERIOR, dtype=np.int8)
    on_break = gx % (p - 1) == 0
    cls[on_break] = INTERFACE
    cls[0] = cls[-1] = BOUNDARY

    leaf_grid = np.empty((n1, p), dtype=np.int64)
    for l in range(n1):
        leaf_grid[l] = l * (p - 1) + np.arange(p)
    leaf_boxes = np.stack([edges[:-1], edges[1:]], axis=1)

    interior_local, edge_local = _local_index_sets(p, 1)
    return Mesh(
        dim=1,
        bounds=((a, b),),
        n1=n1,
        n2=0,
        p=p,
        hx=h,
        hy=0.0,
        x=x,
        y=None,
        node_class=cls,
        leaf_grid=leaf_grid,
        leaf_boxes=leaf_boxes,
        interior_local=interior_local,
        edge_local=edge_local,
    )


def _build_2d(
    x0: float, x1: float, y0: float, y1: float, n1: int, n2: int, p: int
) -> Mesh:
    if not (x1 > x0 and y1 > y0):
        raise ValueError("empty domain")
    hx = (x1 - x0) / n1
    hy = (y1 - y0) / n2
    xedges = np.linspace(x0, x1, n1 + 1)
    yedges = np.linspace(y0, y1, n2 + 1)
    xi01 = (cheb_nodes(p) + 1.0) / 2.0

    nx = n1 * (p - 1) + 1
    ny = n2 * (p - 1) + 1
    gx = np.arange(nx)
    gy = np.arange(ny)
    on_vline = gx % (p - 1) == 0  # x lies on a leaf edge line
    on_hline = gy % (p - 1) == 0

    # active nodes: everything except crossings of two edge lines
    GX, GY = np.meshgrid(gx, gy)  # shape (ny, nx), y outer
    active = ~(on_vline[GX] & on_hline[GY])
    gid = np.full((ny, nx), -1, dtype=np.int64)
    gid[active] = np.arange(active.sum())

    jx = np.minimum(gx // (p - 1), n1 - 1)
    ix = gx - jx * (p - 1)
    xline = xedges[jx] + xi01[ix] * hx
    jy = np.minimum(gy // (p - 1), n2 - 1)
    iy = gy - jy * (p - 1)
    yline = yedges[jy] + xi01[iy] * hy

    ax = GX[active]
    ay = GY[active]
    x = xline[ax]
    y = yline[ay]

    on_edge = on_vline[ax] | on_hline[ay]
    on_gamma = (ax == 0) | (ax == nx - 1) | (ay == 0) | (ay == ny - 1)
    cls = np.full(x.size, INTERIOR, dtype=np.int8)
    cls[on_edge] = INTERFACE
    cls[on_edge & on_gamma] = BOUNDARY

    nl = n1 * n2
    leaf_grid = np.empty((nl, p, p), dtype=np.int64)
    leaf_boxes = np.empty((nl, 4))
    for ly in range(n2):
        for lx in range(n1):
            l = ly * n1 + lx
            gxs = lx * (p - 1) + np.arange(p)
            gys = ly * (p - 1) + np.arange(p)
            leaf_grid[l] = gid[np.ix_(gys, gxs)]
            leaf_boxes[l] = (xedges[lx], xedges[lx + 1], yedges[ly], yedges[ly + 1])

    interior_local, edge_local = _local_index_sets(p, 2)
    return Mesh(
        dim=2,
        bounds=((x0, x1), (y0, y1)),
        n1=n1,
        n2=n2,
        p=p,
        hx=hx,
        hy=hy,
        x=x,
        y=y,
        node_class=cls,
        leaf_grid=leaf_grid,
        leaf_boxes=leaf_boxes,
        interior_local=interior_local,
        edge_local=edge_local,
    )
