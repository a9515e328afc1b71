"""Error measurement, rate fitting and step-size extrapolation.

Fields from different meshes of the same domain are compared through
`MeshInterpolant`, which evaluates the piecewise-spectral interpolant of
a nodal field at arbitrary points (two barycentric passes per leaf, with
corner values rebuilt by edge extrapolation first).
"""
from __future__ import annotations

import math

import numpy as np

from .chebyshev import cheb_nodes, fill_corners, interp_matrix
from .mesh import Mesh
from .operators import gather_leaf_fields


class MeshInterpolant:
    """Evaluates a nodal field anywhere in its mesh's domain."""

    def __init__(self, mesh: Mesh, values: np.ndarray):
        self.mesh = mesh
        U = gather_leaf_fields(mesh, values)
        if mesh.dim == 2:
            U = fill_corners(U)
        self._U = U
        self._xi = cheb_nodes(mesh.p)

    def _local(self, x, x0, h, count):
        pos = (np.asarray(x, dtype=float) - x0) / h
        idx = np.clip(np.floor(pos).astype(int), 0, count - 1)
        xi = 2.0 * (pos - idx) - 1.0
        if np.any(np.abs(xi) > 1.0 + 1e-9):
            raise ValueError("point outside the mesh domain")
        return idx, np.clip(xi, -1.0, 1.0)

    def __call__(self, x, y=None) -> np.ndarray:
        mesh = self.mesh
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if mesh.dim == 1:
            ix, xi = self._local(x, mesh.bounds[0][0], mesh.hx, mesh.n1)
            C = interp_matrix(self._xi, xi)
            return np.einsum("kj,...kj->...k", C, self._U[..., ix, :])
        if y is None:
            raise ValueError("2D interpolant needs y coordinates")
        y = np.atleast_1d(np.asarray(y, dtype=float))
        (x0, _), (y0, _) = mesh.bounds
        ix, xi = self._local(x, x0, mesh.hx, mesh.n1)
        iy, eta = self._local(y, y0, mesh.hy, mesh.n2)
        Cx = interp_matrix(self._xi, xi)
        Cy = interp_matrix(self._xi, eta)
        A = self._U[..., iy * mesh.n1 + ix, :, :]
        rows = np.einsum("kj,...krj->...kr", Cx, A)
        return np.einsum("kr,...kr->...k", Cy, rows)


def max_error(
    u: np.ndarray,
    mesh: Mesh,
    *,
    exact=None,
    t: float = 0.0,
    reference: tuple[Mesh, np.ndarray] | None = None,
) -> float:
    """Max-norm deviation of a nodal field from an exact solution or from
    a field computed on another mesh of the same domain."""
    if (exact is None) == (reference is None):
        raise ValueError("give exactly one of exact or reference")
    if exact is not None:
        want = np.asarray(exact(t, mesh.x, mesh.y))
    else:
        want = MeshInterpolant(*reference)(mesh.x, mesh.y)
    return float(np.max(np.abs(u - want)))


def fit_rate(n: np.ndarray, errors: np.ndarray) -> float:
    """Fit errors ~ C * n**(-rate) for a growing resolution parameter n.

    When the smallest error sits below 1e-10 the series has hit rounding
    noise, and every point within a factor 50 of that floor is excluded
    from the fit so the plateau cannot drag the slope down. Larger errors
    are taken at face value, however slowly they decay; a coarse
    three-point sweep carries no floor to detect.
    """
    n = np.asarray(n, dtype=float)
    e = np.asarray(errors, dtype=float)
    if n.size != e.size or n.size < 2:
        raise ValueError("need matching n/error sequences of length >= 2")
    if np.any(e <= 0):
        raise ValueError("errors must be positive")
    keep = np.ones(e.size, dtype=bool)
    if e.min() < 1e-10:
        keep = e > 50.0 * e.min()
        if keep.sum() < 2:
            raise ValueError("too few points above the rounding floor")
    slope = np.polyfit(np.log(n[keep]), np.log(e[keep]), 1)[0]
    return float(-slope)


def interval_rates(n, errors) -> list[float]:
    """The rate of errors ~ n**(-rate) over each interval between
    neighbouring points of a ladder, unfitted."""
    return [
        math.log(errors[i] / errors[i + 1]) / math.log(n[i + 1] / n[i])
        for i in range(len(errors) - 1)
    ]


def richardson(values, order: int) -> list[list]:
    """Step-doubling extrapolation table.

    `values[i]` is the approximation computed with the i-th step size,
    each half the previous one, and `order` is the leading error order
    of the underlying method. Row i of the returned table holds the
    entries R[i][0..i], where each extra column cancels one more term of
    the error expansion (divisor 2**(order+k-1) - 1 for column k).
    Values may be scalars or arrays.
    """
    if order < 1:
        raise ValueError("order must be positive")
    table: list[list] = []
    for i, v in enumerate(values):
        row = [np.asarray(v) if np.ndim(v) else v]
        for k in range(1, i + 1):
            prev = table[i - 1][k - 1]
            cur = row[k - 1]
            row.append(cur + (cur - prev) / (2.0 ** (order + k - 1) - 1.0))
        table.append(row)
    return table


def richardson_errors(table, exact) -> list[list[float]]:
    """Max-norm error of every table entry against a known value."""
    return [
        [float(np.max(np.abs(entry - exact))) for entry in row] for row in table
    ]
