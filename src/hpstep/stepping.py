"""Additive Runge-Kutta time stepping over a factorized spatial solver.

One step can be organized around stage slopes or stage values:

* slopes: every implicit stage solves for the rate k_i with boundary
  data from the time derivative of the boundary values. The first stage
  rate is known explicitly at interior nodes and is completed to the
  interfaces by one derivative-continuity route, a set of tridiagonal
  chains (`InterfaceCompleter`); one-sided averaging of the operator
  values is kept only to demonstrate the instability that continuity
  avoids. The interface conditions of the implicit stage solves can
  carry the derivative-jump penalty of the incoming solution
  (`corrected`), which removes spurious fixed points with kinked data.
* stages: every implicit stage solves for the stage value itself with
  boundary data g(t_i) and plain interface conditions. With
  time-dependent boundary data this is the variant that loses accuracy
  orders, which is exactly why it is kept around.

The implicit part of the rate is lam * A(u) + forcing(t); `explicit`
supplies the remaining term and activates the additive splitting. Both
formulations reduce to the underlying diagonally implicit scheme when
`explicit` is absent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import solve_banded

from .mesh import BOUNDARY, INTERFACE, Mesh
from .operators import EllipticOperator, OperatorApplier, mesh_stencil, scatter_mean
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
    interfaces. The dense reference solve of the same system lives in
    `hpstep.oracle.OracleCompleter`.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.boundary_ids = np.nonzero(mesh.node_class == BOUNDARY)[0]
        self._iface_ids = np.nonzero(mesh.node_class == INTERFACE)[0]
        p = mesh.p
        st = mesh_stencil(mesh)
        self._dx = st.Dx1
        self._ab_x = self._banded(self._dx, mesh.n1 - 1)
        if mesh.dim == 2:
            self._dy = st.Dy1
            self._ab_y = self._banded(self._dy, mesh.n2 - 1)
            lg = mesh.leaf_grid.reshape(mesh.n2, mesh.n1, p, p)
            self._ids_v = lg[:, : mesh.n1 - 1, 1 : p - 1, p - 1]
            self._ids_h = lg[: mesh.n2 - 1, :, p - 1, 1 : p - 1]

    @staticmethod
    def _banded(D: np.ndarray, n_unknown: int) -> np.ndarray:
        ab = np.zeros((3, n_unknown))
        ab[0, 1:] = -D[0, -1]
        ab[1, :] = D[-1, -1] - D[0, 0]
        ab[2, :-1] = D[-1, 0]
        return ab

    @staticmethod
    def _chain_solve(ab, rhs, axis):
        # solve_banded wants the unknown axis first and flat right-hand sides
        b = np.moveaxis(rhs, axis, 0)
        shape = b.shape
        vals = solve_banded((1, 1), ab, b.reshape(shape[0], -1), check_finite=False)
        return np.moveaxis(vals.reshape(shape), 0, axis)

    def complete(self, field: np.ndarray, boundary: np.ndarray) -> np.ndarray:
        """Field with given interior/boundary data and matched interfaces.

        `boundary` is ordered by ascending global id of the outer
        boundary nodes; interface slots of `field` are ignored.
        """
        mesh = self.mesh
        dtype = np.result_type(np.asarray(field).dtype, np.asarray(boundary).dtype)
        out = np.array(field, dtype=dtype, copy=True)
        out[..., self._iface_ids] = 0.0
        out[..., self.boundary_ids] = boundary
        p = mesh.p
        if mesh.dim == 1:
            if mesh.n1 > 1:
                grid = np.maximum(mesh.leaf_grid, 0)
                U = out[..., grid]
                a = U @ self._dx[-1]
                b = U @ self._dx[0]
                rhs = b[..., 1:] - a[..., :-1]
                vals = self._chain_solve(self._ab_x, rhs, -1)
                out[..., self._iface_ids] = vals
            return out
        grid = np.maximum(mesh.leaf_grid, 0)
        U = np.where(mesh.leaf_grid < 0, 0.0, out[..., grid])
        U = U.reshape(U.shape[: -3] + (mesh.n2, mesh.n1, p, p))
        if mesh.n1 > 1:
            a = U[..., 1 : p - 1, :] @ self._dx[-1]
            b = U[..., 1 : p - 1, :] @ self._dx[0]
            rhs = b[..., 1:, :] - a[..., : mesh.n1 - 1, :]
            vals = self._chain_solve(self._ab_x, rhs, -2)
            out[..., self._ids_v] = vals
        if mesh.n2 > 1:
            a = self._dy[-1] @ U[..., 1 : p - 1]
            b = self._dy[0] @ U[..., 1 : p - 1]
            rhs = b[..., 1:, :, :] - a[..., : mesh.n2 - 1, :, :]
            vals = self._chain_solve(self._ab_y, rhs, -3)
            out[..., self._ids_h] = vals
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
        interface_method: how the first-stage rate of the slope
            formulation gets its interface values: "tridiagonal" for the
            continuity completion, "averaged" for one-sided means (kept
            as an instability demonstration), or a ready-made completer
            (an InterfaceCompleter to share across steppers, or any
            object with `mesh`, `boundary_ids` and `complete`).
    """

    def __init__(
        self,
        evo: Evolution,
        tableau: ImexTableau,
        dt: float,
        *,
        formulation: str = "slopes",
        corrected: bool = True,
        interface_method: Union[str, InterfaceCompleter] = "tridiagonal",
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
        mesh = evo.mesh
        self._nb_ids = np.nonzero(mesh.node_class != BOUNDARY)[0]
        # None for stages and for the averaged slope variant
        self.completer: Optional[InterfaceCompleter] = None
        if isinstance(interface_method, str):
            if interface_method not in ("tridiagonal", "averaged"):
                raise ValueError(f"unknown interface method {interface_method!r}")
            if formulation == "slopes" and interface_method == "tridiagonal":
                self.completer = InterfaceCompleter(mesh)
        elif formulation == "slopes":
            if interface_method.mesh is not mesh:
                raise ValueError("completer was built for a different mesh")
            self.completer = interface_method

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

    def _first_slope(self, t: float, u: np.ndarray, f2):
        evo = self.evo
        if self.completer is None:
            vals = self.applier.leaf_values(u, fill=True)
            k1 = evo.lam * scatter_mean(evo.mesh, vals)
            f = self._forcing_field(t)
            if f is not None:
                k1 = k1 + f
            g = self._sample(evo.bc_rate, t, self._gids)
            if f2 is not None:
                g = g - f2[..., self._gids]
            k1[..., self._gids] = g
            return k1
        ids = self.completer.boundary_ids
        g = self._sample(evo.bc_rate, t, ids)
        if f2 is not None:
            g = g - f2[..., ids]
        return self.completer.complete(self._rate_interior(t, u), g)

    def _step_slopes(self, t: float, u: np.ndarray) -> np.ndarray:
        evo, tab, dt = self.evo, self.tab, self.dt
        imex = evo.explicit is not None
        s = tab.stages
        k = [None] * s
        l = [None] * s
        if imex:
            l[0] = evo.explicit(t, u)
        k[0] = self._first_slope(t, u, l[0])
        pen = u if self.corrected else None
        for i in range(1, s):
            ti = t + tab.c[i] * dt
            acc = sum(tab.A_im[i, j] * k[j] for j in range(i))
            if imex:
                acc = acc + sum(tab.A_ex[i, j] * l[j] for j in range(i))
            P = u + dt * acc
            g = self._sample(evo.bc_rate, ti, self._gids)
            if imex:
                f2p = evo.explicit(ti, P)
                g = g - f2p[..., self._gids]
            k[i] = self.fact.solve(
                self._rate_interior(ti, P), g, penalty_field=pen, dt=dt
            )
            if imex:
                l[i] = evo.explicit(ti, P + dt * tab.gamma * k[i])
        du = sum(tab.b[j] * k[j] for j in range(s))
        if imex:
            du = du + sum(tab.b[j] * l[j] for j in range(s))
        return u + dt * du

    # -- stage formulation -----------------------------------------------

    def _step_stages(self, t: float, u: np.ndarray) -> np.ndarray:
        evo, tab, dt = self.evo, self.tab, self.dt
        imex = evo.explicit is not None
        s = tab.stages
        F1 = [None] * s
        F2 = [None] * s
        F1[0] = self._rate_interior(t, u)
        if imex:
            F2[0] = evo.explicit(t, u)
        ui = u
        for i in range(1, s):
            ti = t + tab.c[i] * dt
            load = u + dt * sum(tab.A_im[i, j] * F1[j] for j in range(i))
            if imex:
                load = load + dt * sum(tab.A_ex[i, j] * F2[j] for j in range(i))
            f = self._forcing_field(ti)
            if f is not None:
                load = load + dt * tab.gamma * f
            ui = self.fact.solve(load, self._sample(evo.bc, ti, self._gids))
            if i < s - 1:
                F1[i] = self._rate_interior(ti, ui)
            if imex:
                F2[i] = evo.explicit(ti, ui)
        if not imex:
            return ui
        w = tab.A_im[-1] - tab.A_ex[-1]
        return ui + dt * sum(w[j] * F2[j] for j in range(s))

    # -- driver ----------------------------------------------------------

    def step(self, t: float, u: np.ndarray) -> np.ndarray:
        if self.formulation == "stages":
            return self._step_stages(t, u)
        return self._step_slopes(t, u)

    def run(self, t0: float, u0: np.ndarray, n_steps: int, callback=None):
        """Advance n_steps from (t0, u0); callback(i, t, u) after each
        step may return True to stop early. Returns the final field.

        Raises FloatingPointError naming the step index and time as soon
        as a step produces a value that is not finite.
        """
        u = u0
        for i in range(n_steps):
            u = self.step(t0 + i * self.dt, u)
            t = t0 + (i + 1) * self.dt
            if not np.isfinite(u).all():
                raise FloatingPointError(f"step {i + 1} (t={t:.6g}): field is not finite")
            if callback is not None and callback(i + 1, t, u):
                break
        return u
