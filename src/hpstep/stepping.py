"""Additive Runge-Kutta time stepping over a factorized spatial solver.

One step can be organized around stage slopes or stage values:

* slopes: every implicit stage solves for the rate k_i with boundary
  data from the time derivative of the boundary values. The first stage
  rate is known explicitly at interior nodes and is completed to the
  interfaces by one derivative-continuity route, a set of tridiagonal
  chains (`InterfaceCompleter`), each direction's solved as one matmul
  with the inverse of its chain matrix, which is strictly diagonally
  dominant and so well-conditioned; the stepper's `completer` attribute
  is the one place to substitute another completion. The interface
  conditions of the implicit stage solves can carry the derivative-jump
  penalty of the incoming solution (`corrected`), which removes spurious
  fixed points with kinked data.
* stages: every implicit stage solves for the stage value itself with
  boundary data g(t_i) and plain interface conditions. With
  time-dependent boundary data this is the variant that loses accuracy
  orders, which is exactly why it is kept around. Stage i > 0 reads its
  implicit rate off its own stage equation, (u_i - load_i) / (dt * gamma).

The implicit part of the rate is lam * A(u) + forcing(t); `explicit`
supplies the remaining term and activates the additive splitting. Both
formulations reduce to the underlying diagonally implicit scheme when
`explicit` is absent.

A step keeps its stage rates in one C-ordered stack, filled in place:
with an explicit term, stage j's explicit rate is row 2j and its
implicit rate row 2j + 1; without one, row j is stage j's implicit rate.
Every stage load and the final update is then u + w @ (rows so far), one
BLAS GEMV with dt times the tableau weights laid out in `__init__`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import BOUNDARY, INTERFACE, Mesh
from .operators import EllipticOperator, OperatorApplier, edge_fluxes, mesh_stencil, put_rows
from .solver import build_factorization
from .tableaus import ImexTableau


@dataclass
class Evolution:
    """Semidiscrete problem u' = lam * A(u) + forcing(t) + explicit(t, u).

    `operator` holds the spatial coefficients of A with sigma = 0 and
    scale = 1; `lam` is the constant prefactor placed in front of A both
    in the stage right-hand sides and in the implicit stage operator
    (-1 for diffusion written with a coercive principal part, -1j for a
    Schrodinger evolution).

    `bc` and `bc_rate` receive (t, x, y) with y None on 1D meshes and
    return boundary values at the supplied points; `bc_rate` is the time
    derivative of `bc` and is required by the slope formulation only.
    `forcing(t, x, y)` is sampled pointwise at non-boundary nodes.
    `explicit(t, u)` maps a full nodal field to a full nodal field.
    Vector-valued problems stack components along a leading axis.
    """

    mesh: Mesh
    operator: EllipticOperator
    lam: complex
    bc: Callable
    bc_rate: Optional[Callable] = None
    forcing: Optional[Callable] = None
    explicit: Optional[Callable] = None

    def __post_init__(self):
        if self.operator.sigma != 0 or self.operator.scale != 1:
            raise ValueError(
                "Evolution wants the bare spatial operator; shifts and "
                "time-step prefactors are applied by the stepper"
            )


class InterfaceCompleter:
    """Fills the interface values of an explicitly known field.

    Given interior values and boundary values, the interface values are
    chosen so that the one-sided edge-normal derivatives of the
    piecewise-spectral interpolant agree across every interface. Each
    continuity equation only couples values along one grid line of the
    two adjacent leaves, so the interface system splits into independent
    tridiagonal chains, one per grid line crossing a row or column of
    interfaces. All chains of one direction share one (n-1)-by-(n-1)
    matrix over the n leaves along that axis, so its inverse is formed
    once here and every completion is one matmul per direction. The
    inverse is safe: the matrix is strictly diagonally dominant, with
    |D[-1,-1] - D[0,0]| >= 3 * (2/h) on the diagonal for p >= 3 against
    off-diagonal entries of 0.5 * (2/h), so its condition number is at
    most 2. The dense reference solve of the same system lives in
    `hpstep.oracle.OracleCompleter`.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._boundary_ids = mesh.ids_of(BOUNDARY)
        self._iface_ids = mesh.ids_of(INTERFACE)
        p = mesh.p
        st = mesh_stencil(mesh)
        self._inv_x = self._chain_inverse(st.Dx1, mesh.n1 - 1)
        self._ids_v = self._iface_ids  # in 1D, in chain order
        if mesh.dim == 2:
            self._inv_y = self._chain_inverse(st.Dy1, mesh.n2 - 1)
            lg = mesh.leaf_grid.reshape(mesh.n2, mesh.n1, p, p)
            # flat, so that `put_rows` stores with a 1-D index
            self._ids_v = lg[:, : mesh.n1 - 1, 1 : p - 1, p - 1].ravel()
            self._ids_h = lg[: mesh.n2 - 1, :, p - 1, 1 : p - 1].ravel()

    @staticmethod
    def _chain_inverse(D: np.ndarray, n_unknown: int) -> np.ndarray:
        i = np.arange(n_unknown)
        M = np.zeros((n_unknown, n_unknown))
        M[i, i] = D[-1, -1] - D[0, 0]
        M[i[:-1], i[1:]] = -D[0, -1]
        M[i[1:], i[:-1]] = D[-1, 0]
        return np.linalg.inv(M)

    @staticmethod
    def _chain_solve(inv, rhs, axis):
        # one real matmul: the chain axis is the row axis, the axes after it
        # the columns, complex ones as float pairs
        shape = rhs.shape
        cols = rhs.reshape(shape[:axis] + (shape[axis], -1))
        return (inv @ cols.view(inv.dtype)).view(rhs.dtype).reshape(shape)

    def complete(self, field: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Field with given interior/boundary data and matched interfaces.

        `boundary` is ordered by ascending global id of the outer
        boundary nodes; interface slots of `field` are ignored. Each
        chain's right-hand side is a jump of the leaves' `edge_fluxes`.
        """
        mesh = self.mesh
        dtype = np.result_type(np.asarray(field).dtype, np.asarray(boundary).dtype)
        out = np.array(field, dtype=dtype, copy=True)
        out[..., self._iface_ids] = 0.0
        out[..., self._boundary_ids] = boundary
        flux = edge_fluxes(mesh, out)
        if mesh.dim == 1:  # one grid line per leaf, with its W and E ends
            W, E = np.moveaxis(flux[..., None], -2, 0)
        else:
            sides = flux.reshape(flux.shape[:-2] + (mesh.n2, mesh.n1, 4, -1))
            S, E, N, W = np.moveaxis(sides, -2, 0)
        rows = out.reshape(-1, mesh.n_nodes)
        if mesh.n1 > 1:  # W of the right leaf minus E of the left
            rhs = W[..., 1:, :] - E[..., :-1, :]
            put_rows(rows, self._ids_v, self._chain_solve(self._inv_x, rhs, -2))
        if mesh.n2 > 1:
            rhs = S[..., 1:, :, :] - N[..., :-1, :, :]
            put_rows(rows, self._ids_h, self._chain_solve(self._inv_y, rhs, -3))
        return out


def _stack_sum(w: np.ndarray, R: np.ndarray, base: np.ndarray) -> np.ndarray:
    """base + sum_j w[j] * R[j] over the first len(w) rows of the rate stack,
    as one GEMV with the real weights (float pairs: `operators` docstring)."""
    flat = R.reshape(len(R), -1)
    if np.iscomplexobj(R):
        flat = flat.view(R.real.dtype)
    out = (w @ flat[: len(w)]).view(R.dtype).reshape(base.shape)
    out += base
    return out


class ImexStepper:
    """Fixed-step integrator; all factorizations are built once here.

    Args:
        evo: the semidiscrete problem.
        tableau: validated implicit/explicit pair.
        dt: step size; baked into the implicit factorization.
        formulation: "slopes" or "stages".
        corrected: penalize derivative jumps of the incoming solution in
            the implicit stage solves (slope formulation only).

    `completer` (an `InterfaceCompleter` for slopes, None for stages)
    completes the first-stage rate; any object with `complete(field,
    boundary)`, boundary values by ascending node id, can replace it.
    """

    def __init__(
        self,
        evo: Evolution,
        tableau: ImexTableau,
        dt: float,
        *,
        formulation: str = "slopes",
        corrected: bool = True,
    ):
        if formulation not in ("slopes", "stages"):
            raise ValueError(f"unknown formulation {formulation!r}")
        if formulation == "slopes" and evo.bc_rate is None:
            raise ValueError("slope formulation needs bc_rate")
        self.evo = evo
        self.tab = tableau
        self.dt = float(dt)
        self.formulation = formulation
        self.corrected = bool(corrected)
        shifted = evo.operator.shifted(1.0, -self.dt * tableau.gamma * evo.lam)
        self.fact = build_factorization(evo.mesh, shifted)
        self.applier = OperatorApplier(evo.mesh, evo.operator)
        self._gids = self.fact.gamma_ids
        self._nb_ids = np.nonzero(evo.mesh.node_class != BOUNDARY)[0]
        self.completer = InterfaceCompleter(evo.mesh) if formulation == "slopes" else None
        self._rows = r = 1 if evo.explicit is None else 2  # rate-stack rows per stage

        def weights(w_im, w_ex):  # dt times weights in rate-stack row order
            return self.dt * (w_im if r == 1 else np.stack([w_ex, w_im], axis=-1).ravel())

        A_im, A_ex = tableau.A_im, tableau.A_ex
        self._w = [weights(A_im[i, :i], A_ex[i, :i]) for i in range(tableau.stages)]
        # stages: u_s plus the explicit correction; the last implicit row is never formed
        self._w_out = weights(tableau.b, tableau.b) if formulation == "slopes" else (
            weights(np.zeros_like(tableau.b), A_im[-1] - A_ex[-1])[:-1])

    def _stack(self, u: np.ndarray, *first: np.ndarray) -> np.ndarray:
        """A step's rate stack, rows per stage x stages rows shaped like u,
        holding stage 0's rates (`first`, explicit rate first)."""
        R = np.empty((self._rows * self.tab.stages,) + u.shape, np.result_type(u, *first))
        for row, rate in zip(R, first):
            row[...] = rate
        return R

    # -- sampling helpers ------------------------------------------------

    def _sample(self, f: Callable, t: float, ids: np.ndarray) -> np.ndarray:
        mesh = self.evo.mesh
        y = mesh.y[ids] if mesh.dim == 2 else None
        return np.asarray(f(t, mesh.x[ids], y))

    def _forcing_field(self, t: float):
        if self.evo.forcing is None:
            return None
        vals = self._sample(self.evo.forcing, t, self._nb_ids)
        out = np.zeros(vals.shape[:-1] + (self.evo.mesh.n_nodes,), dtype=vals.dtype)
        out[..., self._nb_ids] = vals
        return out

    def _rate_interior(self, t: float, u: np.ndarray) -> np.ndarray:
        """lam * A(u) at interior nodes plus forcing; other slots junk-free
        but not meaningful."""
        out = self.evo.lam * self.applier.interior_apply(u)
        f = self._forcing_field(t)
        return out if f is None else out + f

    # -- slope formulation -----------------------------------------------

    def _first_slope(self, t: float, u: np.ndarray, g: np.ndarray) -> np.ndarray:
        return self.completer.complete(self._rate_interior(t, u), g)

    def _step_slopes(self, t: float, u: np.ndarray) -> np.ndarray:
        evo, tab, dt, r = self.evo, self.tab, self.dt, self._rows
        g = self._sample(evo.bc_rate, t, self._gids)
        first = [evo.explicit(t, u)] if r == 2 else []
        if first:
            g = g - first[0][..., self._gids]
        R = self._stack(u, *first, self._first_slope(t, u, g))
        pen = (1.0 / dt) * edge_fluxes(evo.mesh, u) if self.corrected else None
        for i in range(1, tab.stages):
            ti = t + tab.c[i] * dt
            P = _stack_sum(self._w[i], R, u)
            g = self._sample(evo.bc_rate, ti, self._gids)
            if r == 2:
                g = g - evo.explicit(ti, P)[..., self._gids]
            k = R[r * i + r - 1]
            k[...] = self.fact.solve(self._rate_interior(ti, P), g, penalty=pen)
            if r == 2:
                R[r * i] = evo.explicit(ti, P + dt * tab.gamma * k)
        return _stack_sum(self._w_out, R, u)

    # -- stage formulation -----------------------------------------------

    def _step_stages(self, t: float, u: np.ndarray) -> np.ndarray:
        evo, tab, dt, r = self.evo, self.tab, self.dt, self._rows
        s = tab.stages
        R = self._stack(u, *([evo.explicit(t, u)] if r == 2 else []), self._rate_interior(t, u))
        ui = u
        for i in range(1, s):
            ti = t + tab.c[i] * dt
            load = _stack_sum(self._w[i], R, u)
            f = self._forcing_field(ti)
            rhs = load if f is None else load + dt * tab.gamma * f
            ui = self.fact.solve(rhs, self._sample(evo.bc, ti, self._gids))
            if r == 2:
                R[r * i] = evo.explicit(ti, ui)
            if i < s - 1:  # valid at interiors, the only load slots a solve reads
                F1 = np.subtract(ui, load, out=R[r * i + r - 1])
                F1 *= 1.0 / (dt * tab.gamma)
        if r == 1:
            return ui
        # boundary values keep g(t + c_s dt) of the last stage solve; c_s = 1
        out = _stack_sum(self._w_out, R, ui)
        out[..., self._gids] = ui[..., self._gids]
        return out

    # -- driver ----------------------------------------------------------

    def step(self, t: float, u: np.ndarray) -> np.ndarray:
        if self.formulation == "stages":
            return self._step_stages(t, u)
        return self._step_slopes(t, u)

    def run(self, t0: float, u0: np.ndarray, n_steps: int, callback=None):
        """Advance n_steps from (t0, u0); callback(i, t, u) after each
        step may return True to stop early. Returns the final field.

        Raises FloatingPointError naming the step index and time as soon
        as a step produces a value that is not finite; numpy's overflow
        warnings inside the step are silenced, that check reports them.
        """
        u = u0
        for i in range(n_steps):
            with np.errstate(over="ignore", invalid="ignore"):
                u = self.step(t0 + i * self.dt, u)
            t = t0 + (i + 1) * self.dt
            if not np.isfinite(u).all():
                raise FloatingPointError(f"step {i + 1} (t={t:.6g}): field is not finite")
            if callback is not None and callback(i + 1, t, u):
                break
        return u
