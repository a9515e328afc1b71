"""Chebyshev collocation primitives shared by every discretization layer.

Provides 1D extreme-point grids, spectral differentiation matrices built
from barycentric weights, and the leaf stencil used on 1D and 2D leaf
boxes. Node ordering is ascending in each coordinate; 2D flattening is
row-major with y outer and x inner. A leaf is a tensor-product grid, so
each of its derivatives is a 1-D block along one axis: the stencil keeps
only those, O(p^2) numbers. Every 2-D derivative, and every dense row of
one, is such a block applied along an axis of leaf arrays
(`hpstep.operators.apply_lines`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np


def cheb_nodes(p: int) -> np.ndarray:
    """Chebyshev extreme points on [-1, 1] in ascending order.

    Args:
        p: number of nodes, at least 2.

    Returns:
        Array of shape (p,) with x[0] = -1 and x[-1] = 1.
    """
    if p < 2:
        raise ValueError(f"need at least 2 nodes, got p={p}")
    j = np.arange(p)
    x = -np.cos(np.pi * j / (p - 1))
    # symmetrize so x[j] == -x[p-1-j] exactly
    return 0.5 * (x - x[::-1])


def bary_weights(x: np.ndarray) -> np.ndarray:
    """Barycentric weights for an arbitrary distinct node set."""
    x = np.asarray(x, dtype=float)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    return w / np.abs(w).max()


def _cheb_bary_weights(p: int) -> np.ndarray:
    # closed form for extreme points: alternating signs, halved endpoints
    w = np.ones(p)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def cheb_diff_matrix(p: int) -> np.ndarray:
    """First-derivative collocation matrix on the ascending extreme points.

    Off-diagonal entries come from the barycentric identity
    D[i, j] = (w[j] / w[i]) / (x[i] - x[j]); diagonals are set to the
    negated row sums so that constants differentiate to exactly zero.
    """
    x = cheb_nodes(p)
    w = _cheb_bary_weights(p)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    D = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def interp_matrix(x_src: np.ndarray, x_tgt: np.ndarray) -> np.ndarray:
    """Rows of Lagrange cardinal values: (len(x_tgt), len(x_src)).

    Exact node hits produce exact unit rows instead of dividing by zero.
    """
    x_src = np.asarray(x_src, dtype=float)
    x_tgt = np.asarray(x_tgt, dtype=float)
    w = bary_weights(x_src)
    d = x_tgt[:, None] - x_src[None, :]
    hit = np.abs(d) < 1e-14 * max(1.0, np.abs(x_src).max())
    d[hit] = 1.0
    num = w[None, :] / d
    P = num / num.sum(axis=1, keepdims=True)
    rows = np.nonzero(hit.any(axis=1))[0]
    for i in rows:
        P[i] = 0.0
        P[i, np.argmax(hit[i])] = 1.0
    return P


@dataclass(frozen=True)
class LeafStencil:
    """The 1-D differentiation blocks of one leaf box: Dx1 and Dy1 act
    along one coordinate of a (p, p) nodal array (in 1D, of the p nodes,
    and the y blocks are None), and Dxx1 and Dyy1 are their squares."""

    Dx1: np.ndarray = field(repr=False)
    Dy1: np.ndarray | None = field(repr=False)
    Dxx1: np.ndarray = field(repr=False)
    Dyy1: np.ndarray | None = field(repr=False)


@cache
def leaf_stencil(p: int, hx: float, hy: float | None) -> LeafStencil:
    """The differentiation blocks of an hx-by-hy leaf, or of a 1D leaf of
    width hx when hy is None; built once per argument triple."""
    if hx <= 0 or (hy is not None and hy <= 0):
        raise ValueError(f"leaf size must be positive, got {hx}x{hy}")
    D = cheb_diff_matrix(p)
    Dx1 = D * (2.0 / hx)
    Dy1 = None if hy is None else D * (2.0 / hy)
    return LeafStencil(Dx1=Dx1, Dy1=Dy1, Dxx1=Dx1 @ Dx1, Dyy1=None if hy is None else Dy1 @ Dy1)


@cache
def corner_fill_weights(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Extrapolation weights from an edge's interior nodes to its endpoints.

    Leaf corners carry no unknowns, but smooth nodal fields sometimes need
    values there (tangential derivatives at edge nodes, plotting). Each
    corner is reached by extrapolating the p-2 interior nodes of an
    adjacent edge to -1 or +1; callers average the two adjacent edges.

    Returns:
        (w_lo, w_hi): weight vectors of length p-2 evaluating the interior
        interpolant at -1 and at +1; built once per p, read-only.
    """
    inner = cheb_nodes(p)[1:-1]
    P = interp_matrix(inner, np.array([-1.0, 1.0]))
    P.setflags(write=False)
    return P[0], P[1]


def fill_corners(fields: np.ndarray) -> np.ndarray:
    """Rebuild the corners of batched (..., p, p) leaf arrays in place by edge
    extrapolation (mean of the two adjacent edges' interiors); returns `fields`."""
    w_lo, w_hi = corner_fill_weights(fields.shape[-1])
    s_edge = fields[..., 0, 1:-1]
    n_edge = fields[..., -1, 1:-1]
    w_edge = fields[..., 1:-1, 0]
    e_edge = fields[..., 1:-1, -1]
    fields[..., 0, 0] = 0.5 * (s_edge @ w_lo + w_edge @ w_lo)
    fields[..., 0, -1] = 0.5 * (s_edge @ w_hi + e_edge @ w_lo)
    fields[..., -1, 0] = 0.5 * (n_edge @ w_lo + w_edge @ w_hi)
    fields[..., -1, -1] = 0.5 * (n_edge @ w_hi + e_edge @ w_hi)
    return fields
