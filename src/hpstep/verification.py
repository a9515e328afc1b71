"""Self-contained cross-check reports for the command line and tests.

Two independent routes to the same answers: the tree solver against the
dense assembled system, and the stepping tables against their algebraic
conditions, with one real stepper step per formulation against the
tables' stability function. Both return plain check records so the
command line can print them and the test suite can assert on them
without duplicating the definitions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import BOUNDARY, build_mesh
from .operators import EllipticOperator, laplace_operator
from .oracle import assemble_global, oracle_solve
from .solver import build_factorization
from .stepping import Evolution, ImexStepper
from .tableaus import _conditions, load_tableau, stability_function


@dataclass
class Check:
    """One named quantity against its bound."""

    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark}  {self.name}: {self.value:.3e} (bound {self.bound:.1e})"


def _operator_families() -> list[tuple[str, EllipticOperator, type]]:
    return [
        ("shifted-laplace", laplace_operator().shifted(1.0, 1.0), float),
        ("complex-shift", laplace_operator().shifted(1.0, 0.03 + 0.07j), complex),
        (
            "variable-reaction",
            EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: 1 + x * x + y * y),
            float,
        ),
    ]


def oracle_equivalence_report() -> list[Check]:
    """Tree solve versus dense global solve on random data.

    Every mesh/order combination runs all three operator families; the
    reported value is the relative max-norm difference of the two
    solution routes.
    """
    checks = []
    for n1, n2 in ((1, 1), (2, 1), (2, 2), (3, 2)):
        for p in (5, 7, 9):
            mesh = build_mesh(((0.0, float(n1)), (0.0, float(n2))), n1, n2, p=p)
            n_gamma = mesh.ids_of(BOUNDARY).size
            rng = np.random.default_rng(100 * n1 + 10 * n2 + p)
            for label, op, dtype in _operator_families():
                f = rng.standard_normal(mesh.n_nodes).astype(dtype)
                g = rng.standard_normal(n_gamma).astype(dtype)
                if dtype is complex:
                    f = f + 1j * rng.standard_normal(mesh.n_nodes)
                    g = g + 1j * rng.standard_normal(n_gamma)
                got = build_factorization(mesh, op).solve(f, g)
                want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g)
                rel = float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))
                checks.append(Check(f"{label} {n1}x{n2} p={p}", rel, 1e-9))
    return checks


def tableau_report() -> list[Check]:
    """Algebraic conditions on the stepping tables of orders 3, 4, 5, and
    one `ImexStepper` step per formulation against R(lam * dt)."""
    checks = []
    lam, dt, u0 = -1.3 + 0.9j, 0.37, 1.0
    # one leaf of three nodes with zero boundary data: the interior node
    # obeys u' = lam * u
    zero = lambda t, x, y: np.zeros_like(x)
    evo = Evolution(build_mesh((0.0, 1.0), 1, p=3), EllipticOperator(c0=1.0), lam, zero, zero)
    u = np.array([0.0, u0, 0.0], dtype=complex)
    for q in (3, 4, 5):
        tab = load_tableau(q)
        checks += [Check(*c) for c in _conditions(tab)]
        want = complex(stability_function(tab.A_im, tab.b, lam * dt)) * u0
        for label in ("slopes", "stages"):
            got = ImexStepper(evo, tab, dt, formulation=label).step(0.0, u)[1]
            checks.append(Check(f"q{q} {label} step vs R", abs(got - want), 1e-13))
    return checks
