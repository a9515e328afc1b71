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

The operator is stated once, as the matrix-free kernels the stepper
runs: a dense row block is a kernel applied to unit leaf fields, one per
kept column (`collocate_interior`, `flux_matrix`). That reads each 1-D
block entry exactly, so the rows the solver inverts and the values the
stepper applies are the same numbers.

Every leaf is built in one pass over runs of about 4 MB of leaves
(`build_leaf_operators`), which inverts their interior blocks M_II and
forms from each inverse the edge-to-flux map Fb - Fi M_II^-1 M_IB that
the merges start from; the build hands it over once
(`LeafOperators.edge_to_flux`). Each leaf form keeps a stack P: in
general M_II^-1, beside G = M_II^-1 M_IB, in the operator's arithmetic.
An operator M = sigma I + i tau A with sigma, tau and every coefficient
of A real (every Schrodinger stage operator, s = tau / sigma) has a real
leaf solution operator instead: since (I + isA)(I - isA) = I + s^2 A^2
is real,

    M_II^-1 = P (I - i s A_II),    P = Re(M_II^-1) real,

so P and Fi P are kept as float64 and the solve applies (I - i s A_II)
with 1-D derivative blocks (`RealLeafOperatorSet.shift`). Forming P as
(sigma (I + s^2 A_II^2))^-1 would square the block's condition number.

Every leaf derivative of a field is one kernel, `apply_lines`: a real
1-D Chebyshev row block along x or y of batched leaf arrays. The applier
takes the interior rows D[1:-1, :], the interior shift D[1:-1, 1:-1] and
`edge_fluxes` the end rows D[0] and D[-1]. Complex values
meet real operators as float pairs: viewed as float64, a complex array
holds each value's real and imaginary parts side by side, so a real
matrix applied to that view acts on both at once and streams as the
float64 it is stored in (`apply_lines`, `apply_blocks`, the stepper's
stage sums).

Leaf corners hold no unknowns. For every term above, the collocation
rows used by the solver have exactly zero weight on corner values, so
the corner rows/columns can be dropped without approximation. A mixed
term c12 u_xy would weigh the dropped corners, which is why there is
none.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .chebyshev import LeafStencil, fill_corners, leaf_stencil
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


def leaf_coordinates(mesh: Mesh) -> tuple[np.ndarray, np.ndarray | None]:
    """Batched leaf node coordinates, shape (nl, p, p) or (nl, p); y is
    None in 1D. A dropped corner slot (id -1) holds the last node's
    coordinates, which no collocation row weighs."""
    return tuple(None if c is None else c[mesh.leaf_grid] for c in (mesh.x, mesh.y))


def _sample_leaves(op: EllipticOperator, mesh: Mesh) -> dict:
    """Checked coefficients at the nodes of every leaf, by name.

    Constant coefficients stay scalars, and with only constant ones no
    node is visited; sampled ones have the shape of `leaf_coordinates`.
    1D meshes have no c22/c2, and terms whose scalar coefficient is zero
    are left out.
    """
    x, y = (None, None) if op.is_constant else leaf_coordinates(mesh)
    coefs = {}
    for name in ("c11", "c22", "c1", "c2", "c0"):
        c = getattr(op, name)
        coefs[name] = (c(x) if y is None else c(x, y)) if callable(c) else c
    for name in ("c11", "c22"):
        if np.min(np.real(coefs[name])) < 0:
            raise ValueError(f"negative principal coefficient {name} sampled on a leaf")
    keep = ("c11", "c1", "c0") if mesh.dim == 1 else ("c11", "c22", "c1", "c2", "c0")
    return {name: coefs[name] for name in keep if np.ndim(coefs[name]) or coefs[name] != 0}


# coefficient, sign and 1-D block (a `LeafStencil` field, or the identity
# "I") of every term of A, in the order the terms are summed
_TERMS = (
    ("c11", -1.0, "Dxx1"),
    ("c22", -1.0, "Dyy1"),
    ("c1", 1.0, "Dx1"),
    ("c2", 1.0, "Dy1"),
    ("c0", 1.0, "I"),
)


def collocate_interior(
    op: EllipticOperator, mesh: Mesh, cols: np.ndarray, coefs: dict | None = None
) -> np.ndarray:
    """Interior collocation rows of every leaf, restricted to local columns:
    the interior kernel of the applier (`_LineTerms`, rows D[1:-1, :])
    applied to the unit leaf field of each kept column, then scaled and
    shifted. The unit fields have a leaf axis of length one, which a
    sampled weight broadcasts over the sample's leaves. The identity term
    (c0) weighs only interior columns, so it is left out when none is kept.

    Args:
        cols: flat local node indices of the columns to keep.
        coefs: a coefficient sample of `op` on `mesh` to reuse, or its
            sampled arrays cut to a run of leaves, whose rows are then
            the only ones formed.

    Returns:
        Shape (nl, n_int, cols.size), C-ordered, or (1, n_int, cols.size)
        standing for every leaf when no sampled term weighs the kept
        columns: with constant coefficients, and for the edge columns when
        c0 is the only sampled term. nl is the sample's leaf count.
    """
    coefs = _sample_leaves(op, mesh) if coefs is None else coefs
    units = np.zeros((cols.size, 1) + mesh.leaf_grid.shape[1:])
    units.reshape(cols.size, -1)[np.arange(cols.size), cols] = 1.0
    # the identity's interior rows: the unit fields' interior values
    eye = units[(Ellipsis,) + (slice(1, -1),) * mesh.dim].reshape(cols.size, -1).T
    if not eye.any():
        coefs = {name: c for name, c in coefs.items() if name != "c0"}
    V = _LineTerms(mesh, coefs, slice(1, -1), slice(None))(units)
    V = V.reshape(cols.size, -1, len(eye)).transpose(1, 2, 0)  # (nl or 1, n_int, cols)
    A = np.empty(V.shape, dtype=np.result_type(V, op.sigma, op.scale))
    np.multiply(V, op.scale, out=A)
    A += op.sigma * eye
    return A


def mesh_stencil(mesh: Mesh) -> LeafStencil:
    """The leaf stencil shared by every leaf of a mesh."""
    return leaf_stencil(mesh.p, mesh.hx, mesh.hy if mesh.dim == 2 else None)


def guarded_inverse(X: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    """Inverse of a stack of square blocks, C-ordered, and the worst
    1-norm condition number among them.

    A C-ordered X is overwritten: its blocks are inverted a few megabytes
    at a time (`_groups`), each group into its own place, and each
    group's column sums are taken before and after, so no temporary as
    large as the stack is made.

    Raises ValueError("singular <what>") when any block has a condition
    number of 1e14 or more, or one that is not finite.
    """
    X = np.ascontiguousarray(X)
    cond = np.empty(len(X))
    for group in _groups(len(X), X[0].nbytes):
        X[group], cond[group] = _inverse(X[group], what)
    return X, _worst(cond, what)


def _groups(n: int, block_nbytes: int) -> list[slice]:
    """Runs of about 4 MB of blocks over a stack of n blocks."""
    step = max(1, (1 << 22) // block_nbytes)
    return [slice(s, s + step) for s in range(0, n, step)]


def _inverse(blocks: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The inverses of a stack of blocks and their 1-norm condition numbers."""
    norm = np.abs(blocks).sum(axis=-2).max(axis=-1)
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular {what}") from exc
    return inv, norm * np.abs(inv).sum(axis=-2).max(axis=-1)


def _worst(cond: np.ndarray, what: str) -> float:
    # NaN fails the test as well
    if not np.all(cond < 1e14):
        raise ValueError(f"singular {what}")
    return float(cond.max())


def flux_matrix(mesh: Mesh) -> np.ndarray:
    """Directional-derivative rows at the leaf edge nodes: the kernel of
    `edge_fluxes` applied to the unit fields of a leaf's local nodes.

    One row per edge node in S, E, N, W order; horizontal edges take the
    y-derivative, vertical edges the x-derivative, both without an outward
    sign flip, so values from two leaves sharing an edge are directly
    comparable. Columns span all p**2 (or p) local nodes; the corner
    columns of these rows are identically zero.
    """
    n = mesh.leaf_grid[0].size
    units = np.eye(n).reshape((n,) + mesh.leaf_grid.shape[1:])
    return np.ascontiguousarray(_leaf_edge_fluxes(mesh, units).T)


def apply_lines(B: np.ndarray, axis: str, U: np.ndarray) -> np.ndarray:
    """A real 1-D row block B, (r, n), applied along one axis of batched
    leaf arrays U: "x", the last axis, as one GEMM over the flattened
    lines, or "y", the one before it, as one batched matmul. Complex U
    enters as float pairs."""
    pairs = U.dtype.kind == "c"
    if pairs:
        U = np.ascontiguousarray(U).view(np.float64)
    if axis == "y":
        out = np.matmul(B, U)
    else:
        BT = B.T
        if pairs:  # B.T on interleaved (real, imaginary) pairs
            BT = np.zeros((2 * B.shape[1], 2 * len(B)))
            BT[0::2, 0::2] = BT[1::2, 1::2] = B.T
        out = (U.reshape(-1, len(BT)) @ BT).reshape(U.shape[:-1] + (-1,))
    return out.view(complex) if pairs else out


class _LineTerms:
    """A(v) at the nodes `rows` of every leaf, from leaf arrays v over the
    nodes `cols` along each axis (slices of a leaf's p nodes). A term's
    sign is folded into its 1-D block, and so is a real scalar coefficient
    that is a power of two, which changes no rounding; any other
    coefficient weighs the term's values, a sampled one at `rows`, and
    spreads a length-one leaf axis of v over the sample's leaves."""

    def __init__(self, mesh: Mesh, coefs: dict, rows: slice, cols: slice):
        st = mesh_stencil(mesh)
        keep = slice(None) if rows == cols else rows  # `rows` within `cols`
        self.grid = (len(range(mesh.p)[cols]),) * mesh.dim  # of the leaf arrays it takes
        self._out = (len(range(mesh.p)[rows]),) * mesh.dim  # of the values it gives
        # (axis or None, 1-D block, index of the kept values, weight or None) per present term
        self._terms = []
        for name, sign, key in _TERMS:
            if name not in coefs:
                continue
            weight = sign * coefs[name]
            axis, B, at = None, None, [keep] * mesh.dim
            if key != "I":
                axis = "y" if "y" in key else "x"
                B = getattr(st, key)[rows, cols]
                at[-1 if axis == "x" else -2] = slice(None)
            if np.ndim(weight):
                weight = weight.reshape((len(weight),) + (mesh.p,) * mesh.dim)
                weight = np.ascontiguousarray(weight[(slice(None),) + (rows,) * mesh.dim])
            elif axis is not None and np.isrealobj(weight) and abs(np.frexp(weight)[0]) == 0.5:
                B, weight = weight * B, None
            self._terms.append((axis, B, (Ellipsis, *at), weight))
        self._dtype = np.result_type(np.float64, *(w for *_, w in self._terms if w is not None))

    @cached_property
    def _complex_terms(self) -> list:
        """The terms, a sampled weight cast to complex once: numpy would cast
        a real one on every call with complex values, into the same products."""
        return [(*t[:3], np.asarray(t[3], complex) if np.ndim(t[3]) else t[3]) for t in self._terms]

    def __call__(self, V: np.ndarray) -> np.ndarray:
        dtype = np.result_type(V, self._dtype)
        acc = None
        for axis, B, at, weight in self._complex_terms if V.dtype.kind == "c" else self._terms:
            term = (V if axis is None else apply_lines(B, axis, V))[at]
            if weight is not None:
                term = weight * term
            if acc is None:  # a term is a new array, or a view of one
                acc = np.ascontiguousarray(term, dtype=dtype)
            elif term.size <= acc.size:
                acc += term
            else:  # a sampled weight spread a length-one leaf axis: sum into its product
                acc = np.add(term, acc, out=term if term.dtype == dtype else None)
        if acc is None:  # the zero operator
            return np.zeros(V.shape[: V.ndim - len(self.grid)] + self._out, dtype=dtype)
        return acc


def edge_fluxes(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Every leaf's edge-normal derivatives of a field, the numbers of
    `flux_matrix` applied to its leaf values: (..., nl, n_edge) for
    u (..., N), in S, E, N, W order (two end nodes in 1D)."""
    return _leaf_edge_fluxes(mesh, gather_leaf_fields(mesh, u))


def _leaf_edge_fluxes(mesh: Mesh, U: np.ndarray) -> np.ndarray:
    """The edge-normal derivatives of batched leaf arrays U, (..., n_edge):
    the end rows D[0] and D[-1] of each axis's 1-D derivative."""
    st = mesh_stencil(mesh)
    ends = [0, -1]
    we = apply_lines(st.Dx1[ends], "x", U)  # (..., p, 2) in 2D
    if mesh.dim == 1:
        return we
    sn = apply_lines(st.Dy1[ends], "y", U)  # (..., 2, p)
    inner = slice(1, -1)
    S, N, W, E = sn[..., 0, inner], sn[..., 1, inner], we[..., inner, 0], we[..., inner, 1]
    return np.concatenate([S, E, N, W], axis=-1)


def apply_blocks(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each block's operator applied to its rows: (k, m, n) -> (k, m, r).

    A shared stack (length one) multiplies the rows of every block in one
    GEMM; a full stack (m, r, n), C-ordered like every stored stack, is
    one batched BLAS product over a contiguous (m, n, k) copy of the rows,
    which a real stack takes as float pairs.
    """
    if len(A) == 1:
        return x @ A[0].T
    cols = np.ascontiguousarray(x.transpose(1, 2, 0))
    if A.dtype.kind == "f" and cols.dtype.kind == "c":
        return (A @ cols.view(A.dtype)).view(cols.dtype).transpose(2, 0, 1)
    return (A @ cols).transpose(2, 0, 1)


@dataclass
class LeafOperators:
    """Interior solve of every leaf, stacked, and its edge-to-flux map.

    Stacks have a leading axis over the leaves, of length one when the
    coefficients are position-independent: the leaves are then congruent
    and a single copy broadcasts over all of them. `edge_to_flux()` hands
    over, once, the map Fb - Fi M_II^-1 M_IB, (nl or 1, n_edge, n_edge),
    with Fi and Fb the interior and edge columns of `flux_matrix`.

    A solve reads a form through two steps over (k, nl, .) rows:
    `upward(f_I, flux)` writes into `flux` the edge fluxes of the
    particular solution with interior load f_I (zero edge values) and
    returns what `downward` needs of f_I; `downward(kept, e)` gives the
    interior values for edge values e.
    """

    P: np.ndarray = field(repr=False)  # (nl or 1, n_int, n_int): M_II^-1 or its real part
    dtype: np.dtype  # of the solution values
    condition: float  # worst 1-norm condition number of the blocks inverted
    dtn: np.ndarray | None = field(repr=False)  # the edge-to-flux map, until taken

    @property
    def shared(self) -> bool:
        return len(self.P) == 1

    def edge_to_flux(self) -> np.ndarray | None:
        """The map the build formed, handed over once: None after."""
        dtn, self.dtn = self.dtn, None
        return dtn


@dataclass
class LeafOperatorSet(LeafOperators):
    """The general form: u_I = P @ f_I - G @ e with P = M_II^-1 and
    G = P @ M_IB, in the operator's arithmetic."""

    Fi: np.ndarray = field(repr=False)  # (n_edge, n_int), the interior flux columns
    G: np.ndarray = field(repr=False)  # (nl or 1, n_int, n_edge)

    def upward(self, f_I: np.ndarray, flux: np.ndarray) -> np.ndarray:
        z = apply_blocks(self.P, f_I)
        np.matmul(z, self.Fi.T, out=flux)
        return z

    def downward(self, z: np.ndarray, e: np.ndarray) -> np.ndarray:
        return z - apply_blocks(self.G, e)


@dataclass
class RealLeafOperatorSet(LeafOperators):
    """The form of M = sigma I + i tau A with sigma, tau and A real:
    u_I = P (I - i s A_II)(f_I - M_IB @ e), with P = Re(M_II^-1) and
    Fi @ P stored as float64 and s = tau / sigma (module docstring)."""

    FiP: np.ndarray = field(repr=False)  # (nl or 1, n_edge, n_int), float64
    M_IB: np.ndarray = field(repr=False)  # (nl or 1, n_int, n_edge)
    A_II: "_LineTerms" = field(repr=False)  # A on the (p-2)-node interior lines
    s: float

    def upward(self, f_I: np.ndarray, flux: np.ndarray) -> np.ndarray:
        flux[...] = apply_blocks(self.FiP, self.shift(f_I))
        return f_I

    def downward(self, f_I: np.ndarray, e: np.ndarray) -> np.ndarray:
        return apply_blocks(self.P, self.shift(f_I - apply_blocks(self.M_IB, e)))

    def shift(self, x: np.ndarray) -> np.ndarray:
        """(I - i s A_II) x on the interior values x of every leaf,
        (..., nl or 1, n_int); A_II's derivatives are 1-D blocks at interior
        rows and columns, so edge values weigh nothing."""
        X = np.ascontiguousarray(x, dtype=complex).reshape(x.shape[:-1] + self.A_II.grid)
        acc = self.A_II(X)
        acc *= -1j * self.s
        acc += X
        return acc.reshape(x.shape)


def _imaginary_shift(op: EllipticOperator, coefs: dict) -> float | None:
    """s = tau / sigma when the operator is sigma I + i tau A with sigma,
    tau and every coefficient of A real and none of the three zero;
    None otherwise."""
    sigma, scale = complex(op.sigma), complex(op.scale)
    if sigma.imag or not sigma.real or scale.real or not scale.imag or not coefs:
        return None
    if any(np.iscomplexobj(c) for c in coefs.values()):
        return None
    return scale.imag / sigma.real


def build_leaf_operators(mesh: Mesh, op: EllipticOperator) -> LeafOperators:
    """Factorize every leaf of the mesh for the given operator, as stacks:
    a `RealLeafOperatorSet` when the operator is sigma I + i tau A with
    everything real, a `LeafOperatorSet` otherwise, in one pass over
    runs of leaves (`_groups`)."""
    F = flux_matrix(mesh)
    ii, bb = mesh.interior_local, mesh.edge_local
    Fi, Fb = F[:, ii], F[:, bb]
    coefs = _sample_leaves(op, mesh)
    s = _imaginary_shift(op, coefs)
    M_IB = collocate_interior(op, mesh, bb, coefs)
    nl = mesh.n_leaves if any(np.ndim(c) for c in coefs.values()) else 1
    dtype = np.result_type(op.sigma, op.scale, *coefs.values())  # the inverse's
    real = s is not None
    P = np.empty((nl, ii.size, ii.size), dtype=float if real else dtype)
    # the second stack: Fi @ P for the real form, G for the general one
    K = np.empty((nl, bb.size, ii.size) if real else (nl, ii.size, bb.size), dtype=P.dtype)
    dtn = np.empty((nl, bb.size, bb.size), dtype=dtype)
    cond = np.empty(nl)
    what = "leaf interior block"
    for group in _groups(nl, dtype.itemsize * ii.size**2):
        part = {name: c[group] if np.ndim(c) else c for name, c in coefs.items()}
        inv, cond[group] = _inverse(collocate_interior(op, mesh, ii, part), what)
        G = inv @ (M_IB if len(M_IB) == 1 else M_IB[group])
        dtn[group] = Fb - Fi @ G
        P[group] = inv.real if real else inv
        K[group] = Fi @ P[group] if real else G
    base = dict(P=P, dtype=dtype, condition=_worst(cond, what), dtn=dtn)
    if not real:
        return LeafOperatorSet(**base, Fi=Fi, G=K)
    A_II = _LineTerms(mesh, coefs, *(slice(1, -1),) * 2)
    return RealLeafOperatorSet(**base, FiP=K, M_IB=M_IB, A_II=A_II, s=s)


def gather_leaf_fields(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Gather a global field onto batched leaf arrays; corners get zero.

    Accepts (N,) or (m, N); returns (nl, p, p), (m, nl, p, p) or the 1D
    analogues, C-contiguous. Corner zeros are fine for every consumer
    that only reads interior rows or edge-normal derivative rows.
    """
    vals = take_rows(u, mesh.leaf_grid)  # -1 corners read the last node
    if mesh.dim == 2:
        vals[..., :: mesh.p - 1, :: mesh.p - 1] = 0.0  # the four corners
    return vals


def scatter_mean(mesh: Mesh, leaf_vals: np.ndarray, scale: float = 0.5) -> np.ndarray:
    """Average batched leaf values back to a global array.

    Interface nodes receive the mean of their two one-sided values (their
    sum times `scale`; -0.5 gives the negated mean); corner slots are ignored.
    """
    flat = leaf_vals.reshape(leaf_vals.shape[: -mesh.leaf_grid.ndim] + (-1,))
    a, b = mesh.owner_slots
    out = take_rows(flat, a)
    out += take_rows(flat, b)
    out *= scale
    return out


def take_rows(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """rows[..., ids], gathered along the last axis, C-ordered.

    Mesh and merge-plan tables are read-only, and np.take copies a
    read-only index on every call; one row is gathered with a plain
    index instead, which reads it in place.
    """
    if rows.size == rows.shape[-1]:
        return rows.reshape(-1)[ids].reshape(rows.shape[:-1] + ids.shape)
    return np.take(rows, ids, axis=-1)


def put_rows(rows: np.ndarray, ids: np.ndarray, vals: np.ndarray) -> None:
    """rows[:, ids] = vals for (k, N) rows, row by row: a 1-D index stores fast."""
    for row, v in zip(rows, vals.reshape(len(rows), -1)):
        row[ids.ravel()] = v


class OperatorApplier:
    """Pointwise application of a bare operator's interior rows to fields.

    The operator must have sigma = 0 and scale = 1, as `stepping.Evolution`
    holds it. Coefficients are sampled once; `interior_apply` then
    evaluates A(u) at every interior node of the mesh from the interior
    rows D[1:-1, :] of each 1-D derivative (`_LineTerms`). Every interior
    node has exactly one owning leaf, so its value is written straight to
    its id in the mesh's merge plan.
    """

    def __init__(self, mesh: Mesh, op: EllipticOperator):
        if op.sigma != 0 or op.scale != 1:
            raise ValueError("OperatorApplier wants the bare operator: sigma = 0 and scale = 1")
        self.mesh = mesh
        self._coefs = _sample_leaves(op, mesh)
        self._interior = _LineTerms(mesh, self._coefs, slice(1, -1), slice(None))

    @cached_property
    def _every(self) -> _LineTerms:
        return _LineTerms(self.mesh, self._coefs, slice(None), slice(None))

    def leaf_values(self, u: np.ndarray) -> np.ndarray:
        """Batched values of A(u) on leaf arrays, from the full 1-D
        derivatives. The interior slots are valid, and so are the edge
        slots of a 1D mesh; 2D edge slots read the zero corners."""
        return self._every(gather_leaf_fields(self.mesh, u))

    def interior_apply(self, u: np.ndarray) -> np.ndarray:
        """Global array holding operator values at interior ids, 0 elsewhere."""
        mesh = self.mesh
        vals = self._interior(gather_leaf_fields(mesh, u))
        lead = vals.shape[: vals.ndim - mesh.leaf_grid.ndim]
        out = np.zeros(lead + (mesh.n_nodes,), dtype=vals.dtype)
        put_rows(out.reshape(-1, mesh.n_nodes), mesh.merge_plan.leaf_interior_ids, vals)
        return out


def advection(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """-(u . grad) u of a two-component field (2, N) on a 2D mesh, in one leaf pass:
    each leaf forms u_0 * d_x u + u_1 * d_y u with corners rebuilt by edge
    extrapolation (tangential derivatives at edge nodes need them), and
    shared nodes get the mean of their leaves' values."""
    U = fill_corners(take_rows(u, mesh.leaf_grid))  # every corner is rebuilt
    st = mesh_stencil(mesh)
    vals = apply_lines(st.Dx1, "x", U)
    vals *= U[0]
    vals += U[1] * apply_lines(st.Dy1, "y", U)
    return scatter_mean(mesh, vals, -0.5)
