"""Catalog of transient benchmark problems.

Every factory returns a `TransientCase` bundling the semidiscrete
problem, the initial field, the time horizon and the problem's own
tableau order, formulation and, where it has one, step. Each PDE family
(1D heat, Schrodinger, viscous flow) has one private builder that fixes
its operator form, prefactor, tableau order, formulation and step, so a
factory states only its box, coefficients, data and exact solution.
Exact solutions, where available, are pointwise callables (t, x, y) so
they can be sampled on any mesh; problems without one are compared
against finer self-computed references instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import Mesh, build_mesh
from .operators import EllipticOperator, advection
from .stepping import Evolution, ImexStepper
from .tableaus import load_tableau


@dataclass
class TransientCase:
    evolution: Evolution
    u0: np.ndarray
    t_end: float
    order: int
    formulation: str
    exact: Optional[Callable] = None
    dt: float | None = None

    @property
    def mesh(self) -> Mesh:
        return self.evolution.mesh


def make_stepper(
    case: TransientCase,
    dt: float,
    *,
    order: int | None = None,
    formulation: str | None = None,
    corrected: bool = True,
) -> ImexStepper:
    """Stepper for a case, with the case's order and formulation where unset."""
    return ImexStepper(
        case.evolution,
        load_tableau(order if order is not None else case.order),
        dt,
        formulation=formulation if formulation is not None else case.formulation,
        corrected=corrected,
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


def _heat1d(
    interval, n, p, *, u0, t_end, exact=None, bc=_zero, bc_rate=_zero, forcing=None
) -> TransientCase:
    """u_t = u_xx + forcing on an interval of n leaves, ARK3 slopes at
    dt = 0.1; `u0` maps the node abscissae to the initial field."""
    mesh = build_mesh(interval, n, p=p)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=bc,
        bc_rate=bc_rate,
        forcing=forcing,
    )
    return TransientCase(
        evolution=evo,
        u0=u0(mesh.x),
        t_end=t_end,
        order=3,
        formulation="slopes",
        exact=exact,
        dt=0.1,
    )


def heat_cosine(n: int = 3, p: int = 20) -> TransientCase:
    """u_t = u_xx - sin(t) on (0, 2) with the space-uniform solution
    cos(t); every error is a pure time-integration error, which makes
    this the workhorse for order studies."""

    def exact(t, x, y):
        return np.full_like(np.asarray(x, dtype=float), math.cos(t))

    def rate(t, x, y):
        return np.full_like(np.asarray(x, dtype=float), -math.sin(t))

    return _heat1d(
        (0.0, 2.0), n, p,
        u0=np.ones_like,
        t_end=2.0,
        exact=exact,
        bc=exact,
        bc_rate=rate,
        forcing=rate,
    )


def heat_kink(p: int = 9, n: int = 2) -> TransientCase:
    """Heat equation on (0, 2) started from 1 - |x - 1|, whose derivative
    jump sits exactly on a leaf interface. Without the derivative-jump
    penalty the kink is a fixed point of the scheme; with it the field
    decays to zero."""
    return _heat1d((0.0, 2.0), n, p, u0=lambda x: 1.0 - np.abs(x - 1.0), t_end=10.0)


def decaying_sine_case(n: int = 8, p: int = 16) -> TransientCase:
    """Heat flow of a single sine mode on (0, pi) with homogeneous walls."""
    return _heat1d(
        (0.0, math.pi), n, p,
        u0=np.sin,
        t_end=1.0,
        exact=lambda t, x, y: np.exp(-t) * np.sin(x),
    )


# -- Schrodinger, 2D -----------------------------------------------------


def _schrodinger(
    half, n, p, *, potential, u0, t_end, exact=None, bc=_zero, bc_rate=_zero
) -> TransientCase:
    """i u_t = -(1/2) lap(u) + potential * u on (-half, half)^2 with n x n
    leaves, ARK3 stages; `u0` maps the node coordinates to the initial
    field, which is made complex."""
    mesh = build_mesh(((-half, half), (-half, half)), n, n, p=p)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=0.5, c22=0.5, c0=potential),
        lam=-1.0j,
        bc=bc,
        bc_rate=bc_rate,
    )
    return TransientCase(
        evolution=evo,
        u0=u0(mesh.x, mesh.y).astype(complex),
        t_end=t_end,
        order=3,
        formulation="stages",
        exact=exact,
    )


def schrodinger_harmonic(n: int = 16, p: int = 8, half: float = 8.0) -> TransientCase:
    """i u_t = -(1/2) lap(u) + (r^2/2) u on (-half, half)^2; the ground
    state pi^(-1/4) exp(-r^2/2) evolves by the phase exp(-i t) only."""
    amp = np.pi**-0.25

    def exact(t, x, y):
        return amp * np.exp(-1j * t) * np.exp(-(x**2 + y**2) / 2.0)

    return _schrodinger(
        half, n, p,
        potential=lambda x, y: (x**2 + y**2) / 2.0,
        u0=lambda x, y: exact(0.0, x, y),
        t_end=2.0 * np.pi,
        exact=exact,
        bc=exact,
        bc_rate=lambda t, x, y: -1j * exact(t, x, y),
    )


def schrodinger_asymmetric(n: int = 8, p: int = 8) -> TransientCase:
    """i u_t = -(1/2) lap(u) + V u with the tilted-well potential
    V = 1 - exp(-(x + 0.9 y)^4) on (-6, 6)^2 and a two-lobed start;
    no closed-form solution, so runs are compared across meshes."""
    return _schrodinger(
        6.0, n, p,
        potential=lambda x, y: 1.0 - np.exp(-((x + 0.9 * y) ** 4)),
        u0=lambda x, y: 3.0 * np.sin(x) * np.sin(y) * np.exp(-(x**2 + y**2)),
        t_end=1.0,
    )


# -- viscous advection, 2D -----------------------------------------------


def _viscous_flow(half, n, p, *, nu, u0, bc=_zero2) -> TransientCase:
    """Two-component u_t = nu lap(u) - (u . grad) u on (-half, half)^2
    with n x n leaves and boundary values frozen in time, ARK5 stages
    with explicit advection at dt = 1/80 to t = 1; `u0` maps the node
    coordinates to the initial field."""
    mesh = build_mesh(((-half, half), (-half, half)), n, n, p=p)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=nu, c22=nu),
        lam=-1.0,
        bc=bc,
        bc_rate=_zero2,
        explicit=lambda t, u: advection(mesh, u),
    )
    return TransientCase(
        evolution=evo,
        u0=u0(mesh.x, mesh.y),
        t_end=1.0,
        order=5,
        formulation="stages",
        dt=1.0 / 80,
    )


def burgers_rotating(n: int = 8, p: int = 12) -> TransientCase:
    """Two-component viscous advection on (-2.4, 2.4)^2 started from a
    rigid swirl damped by a Gaussian.

    The box is sized so the swirl support ends well inside it while an
    8x8 mesh still resolves the shear ring the rotation steepens up.
    Walls are no-slip; they clip the Gaussian tail (~4e-7 at the
    boundary), which is below anything the experiment resolves.
    """

    def swirl(x, y):
        damp = 5.0 * np.exp(-3.0 * (x**2 + y**2))
        return np.stack([-damp * y, damp * x])

    return _viscous_flow(2.4, n, p, nu=0.005, u0=swirl)


def burgers_crossing(n: int = 8, p: int = 12) -> TransientCase:
    """Two phase-separated shear streams crossing at right angles on
    (-2, 2)^2; boundary values stay frozen at their initial ones."""

    def streams(x, y):
        return np.stack([
            8.0 * y * np.exp(-36.0 * (y / 2.0) ** 8),
            -8.0 * x * np.exp(-36.0 * (x / 2.0) ** 8),
        ])

    return _viscous_flow(
        2.0, n, p, nu=0.025, u0=streams, bc=lambda t, x, y: streams(x, y)
    )


PROBLEMS: dict[str, Callable[..., TransientCase]] = {
    "heat1d-bc": heat_cosine,
    "heat1d-kink": heat_kink,
    "schrodinger-harmonic": schrodinger_harmonic,
    "schrodinger-asymmetric": schrodinger_asymmetric,
    "burgers-rotating": burgers_rotating,
    "burgers-cross": burgers_crossing,
}
