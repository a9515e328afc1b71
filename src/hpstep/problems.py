"""Catalog of transient benchmark problems.

Every factory returns a `TransientCase` bundling the semidiscrete
problem, the initial field, the time horizon and per-problem defaults.
Exact solutions, where available, are pointwise callables (t, x, y) so
they can be sampled on any mesh; problems without one are compared
against finer self-computed references instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .mesh import Mesh, build_mesh
from .operators import EllipticOperator, averaged_gradient
from .stepping import Evolution, ImexStepper
from .tableaus import load_tableau


@dataclass
class TransientCase:
    name: str
    evolution: Evolution
    u0: np.ndarray
    t_end: float
    exact: Optional[Callable] = None
    defaults: dict = field(default_factory=dict)

    @property
    def mesh(self) -> Mesh:
        return self.evolution.mesh


def make_stepper(
    case: TransientCase,
    dt: float,
    *,
    order: int | None = None,
    formulation: str | None = None,
    corrected: bool | None = None,
    interface_method="tridiagonal",
) -> ImexStepper:
    """Stepper for a case, falling back to its defaults where unset."""
    d = case.defaults
    return ImexStepper(
        case.evolution,
        load_tableau(order if order is not None else d.get("order", 3)),
        dt,
        formulation=formulation
        if formulation is not None
        else d.get("formulation", "slopes"),
        corrected=corrected if corrected is not None else d.get("corrected", True),
        interface_method=interface_method,
    )


def resolution_step_count(case: TransientCase, order: int) -> int:
    """Steps over [0, case.t_end] so that dt tracks h**(p/order), at
    least one."""
    target = case.mesh.hx ** (case.mesh.p / order)
    return max(1, math.ceil(case.t_end / target))


def _zero(t, x, y):
    return np.zeros_like(x)


def _zero2(t, x, y):
    return np.zeros((2, x.size))


# -- diffusion, 1D -------------------------------------------------------


def heat_cosine(n: int = 3, p: int = 20) -> TransientCase:
    """u_t = u_xx - sin(t) on (0, 2) with the space-uniform solution
    cos(t); every error is a pure time-integration error, which makes
    this the workhorse for order studies."""
    mesh = build_mesh((0.0, 2.0), n, p=p)

    def exact(t, x, y):
        return np.full_like(np.asarray(x, dtype=float), math.cos(t))

    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=exact,
        bc_rate=lambda t, x, y: np.full_like(np.asarray(x, dtype=float), -math.sin(t)),
        forcing=lambda t, x, y: np.full_like(np.asarray(x, dtype=float), -math.sin(t)),
    )
    return TransientCase(
        name="heat1d-bc",
        evolution=evo,
        u0=np.ones(mesh.n_nodes),
        t_end=2.0,
        exact=exact,
        defaults={"order": 3, "formulation": "slopes", "dt": 0.1},
    )


def heat_kink(p: int = 9, n: int = 2) -> TransientCase:
    """Heat equation on (0, 2) started from 1 - |x - 1|, whose derivative
    jump sits exactly on a leaf interface. Without the derivative-jump
    penalty the kink is a fixed point of the scheme; with it the field
    decays to zero."""
    mesh = build_mesh((0.0, 2.0), n, p=p)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=_zero,
        bc_rate=_zero,
    )
    return TransientCase(
        name="heat1d-kink",
        evolution=evo,
        u0=1.0 - np.abs(mesh.x - 1.0),
        t_end=10.0,
        defaults={"order": 3, "formulation": "slopes", "dt": 0.1, "corrected": True},
    )


# -- Schrodinger, 2D -----------------------------------------------------


def schrodinger_harmonic(n: int = 16, p: int = 8, half: float = 8.0) -> TransientCase:
    """i u_t = -(1/2) lap(u) + (r^2/2) u on (-half, half)^2; the ground
    state pi^(-1/4) exp(-r^2/2) evolves by the phase exp(-i t) only."""
    mesh = build_mesh(((-half, half), (-half, half)), n, n, p=p)
    amp = np.pi**-0.25

    def exact(t, x, y):
        return amp * np.exp(-1j * t) * np.exp(-(x**2 + y**2) / 2.0)

    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(
            c11=0.5, c22=0.5, c0=lambda x, y: (x**2 + y**2) / 2.0
        ),
        lam=-1.0j,
        bc=exact,
        bc_rate=lambda t, x, y: -1j * exact(t, x, y),
    )
    return TransientCase(
        name="schrodinger-harmonic",
        evolution=evo,
        u0=exact(0.0, mesh.x, mesh.y),
        t_end=2.0 * np.pi,
        exact=exact,
        defaults={"order": 3, "formulation": "stages"},
    )


def schrodinger_asymmetric(n: int = 8, p: int = 8) -> TransientCase:
    """i u_t = -(1/2) lap(u) + V u with the tilted-well potential
    V = 1 - exp(-(x + 0.9 y)^4) on (-6, 6)^2 and a two-lobed start;
    no closed-form solution, so runs are compared across meshes."""
    mesh = build_mesh(((-6.0, 6.0), (-6.0, 6.0)), n, n, p=p)

    def potential(x, y):
        return 1.0 - np.exp(-((x + 0.9 * y) ** 4))

    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=0.5, c22=0.5, c0=potential),
        lam=-1.0j,
        bc=_zero,
        bc_rate=_zero,
    )
    u0 = 3.0 * np.sin(mesh.x) * np.sin(mesh.y) * np.exp(-(mesh.x**2 + mesh.y**2))
    return TransientCase(
        name="schrodinger-asymmetric",
        evolution=evo,
        u0=u0.astype(complex),
        t_end=1.0,
        defaults={"order": 3, "formulation": "stages"},
    )


# -- viscous advection, 2D -----------------------------------------------


def _advection(mesh: Mesh):
    def explicit(t, u):
        ux, uy = averaged_gradient(mesh, u)
        return -(u[0] * ux + u[1] * uy)

    return explicit


def burgers_rotating(n: int = 8, p: int = 12, viscosity: float = 0.005) -> TransientCase:
    """Two-component viscous advection on (-2.4, 2.4)^2 started from a
    rigid swirl damped by a Gaussian.

    The box is sized so the swirl support ends well inside it while an
    8x8 mesh still resolves the shear ring the rotation steepens up.
    Walls are no-slip; they clip the Gaussian tail (~4e-7 at the
    boundary), which is below anything the experiment resolves.
    """
    mesh = build_mesh(((-2.4, 2.4), (-2.4, 2.4)), n, n, p=p)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=viscosity, c22=viscosity),
        lam=-1.0,
        bc=_zero2,
        bc_rate=_zero2,
        explicit=_advection(mesh),
    )
    damp = 5.0 * np.exp(-3.0 * (mesh.x**2 + mesh.y**2))
    u0 = np.stack([-damp * mesh.y, damp * mesh.x])
    return TransientCase(
        name="burgers-rotating",
        evolution=evo,
        u0=u0,
        t_end=1.0,
        defaults={"order": 5, "formulation": "stages", "dt": 1.0 / 80},
    )


def burgers_crossing(n: int = 8, p: int = 12, viscosity: float = 0.025) -> TransientCase:
    """Two phase-separated shear streams crossing at right angles on
    (-2, 2)^2; boundary values stay frozen at their initial ones."""
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), n, n, p=p)

    def stream_u(x, y):
        return 8.0 * y * np.exp(-36.0 * (y / 2.0) ** 8)

    def stream_v(x, y):
        return -8.0 * x * np.exp(-36.0 * (x / 2.0) ** 8)

    def bc(t, x, y):
        return np.stack([stream_u(x, y), stream_v(x, y)])

    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=viscosity, c22=viscosity),
        lam=-1.0,
        bc=bc,
        bc_rate=_zero2,
        explicit=_advection(mesh),
    )
    u0 = np.stack([stream_u(mesh.x, mesh.y), stream_v(mesh.x, mesh.y)])
    return TransientCase(
        name="burgers-cross",
        evolution=evo,
        u0=u0,
        t_end=1.0,
        defaults={"order": 5, "formulation": "stages", "dt": 1.0 / 80},
    )


PROBLEMS: dict[str, Callable[..., TransientCase]] = {
    "heat1d-bc": heat_cosine,
    "heat1d-kink": heat_kink,
    "schrodinger-harmonic": schrodinger_harmonic,
    "schrodinger-asymmetric": schrodinger_asymmetric,
    "burgers-rotating": burgers_rotating,
    "burgers-cross": burgers_crossing,
}
