"""Stepper and interface-completion checks on small manufactured runs."""
import numpy as np
import pytest

from hpstep.chebyshev import leaf_stencil
from hpstep.mesh import BOUNDARY, INTERFACE, build_mesh
from hpstep.operators import EllipticOperator, laplace_operator
from hpstep.oracle import OracleCompleter
from hpstep.stepping import Evolution, ImexStepper, InterfaceCompleter
from hpstep.tableaus import load_tableau


def zero_bc(t, x, y):
    return np.zeros_like(x)


def flux_jumps_1d(mesh, u):
    """One-sided derivative differences (left minus right) per interface."""
    D = leaf_stencil(mesh.p, mesh.hx, None).Dx1
    U = u[mesh.leaf_grid]
    return U[:-1] @ D[-1] - U[1:] @ D[0]


def heat_sine_evolution(n=3, p=14):
    mesh = build_mesh((0.0, np.pi), n, p=p)
    return Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=lambda t, x, y: np.exp(-t) * np.sin(x),
        bc_rate=lambda t, x, y: -np.exp(-t) * np.sin(x),
    )


# -- interface completion ------------------------------------------------


@pytest.mark.parametrize("shape", [(5, None, 8), (3, 2, 7), (2, 3, 6)])
def test_completer_routes_agree(shape):
    n1, n2, p = shape
    if n2 is None:
        mesh = build_mesh((0.0, 2.0), n1, p=p)
        field = np.sin(1.7 * mesh.x) + 0.3 * mesh.x**2
    else:
        mesh = build_mesh(((0.0, 2.0), (-1.0, 1.0)), n1, n2, p=p)
        field = np.sin(1.7 * mesh.x) * np.cosh(mesh.y) + 0.3 * mesh.x * mesh.y
    reference = OracleCompleter(mesh)
    banded = InterfaceCompleter(mesh)
    rng = np.random.default_rng(7)
    data = np.where(mesh.node_class == 0, field, 0.0) + 0.0
    bc = field[banded.boundary_ids] + rng.normal(0, 0.1, banded.boundary_ids.size)
    a = reference.complete(data, bc)
    b = banded.complete(data, bc)
    np.testing.assert_allclose(b, a, atol=1e-11, rtol=1e-11)


@pytest.mark.parametrize(
    "completer,passthrough_atol",
    [(OracleCompleter, 1e-12), (InterfaceCompleter, 0.0)],
    ids=["oracle", "tridiagonal"],
)
def test_completer_matches_derivatives(completer, passthrough_atol):
    # completing a smooth function's interior values must reproduce its
    # interface values at spectral accuracy
    mesh = build_mesh(((0.0, 2.0), (0.0, 1.0)), 3, 2, p=12)
    f = np.exp(0.4 * mesh.x) * np.sin(mesh.y + 0.3)
    comp = completer(mesh)
    out = comp.complete(
        np.where(mesh.node_class == 0, f, 0.0), f[comp.boundary_ids]
    )
    iface = mesh.node_class == INTERFACE
    np.testing.assert_allclose(out[iface], f[iface], atol=1e-9)
    # interior and boundary values pass through: untouched by the chains,
    # to rounding by the oracle's dense solve
    keep = mesh.node_class != INTERFACE
    np.testing.assert_allclose(out[keep], f[keep], rtol=0, atol=passthrough_atol)


def test_completer_multicomponent():
    mesh = build_mesh((0.0, 1.0), 4, p=9)
    f = np.stack([np.cos(2 * mesh.x), mesh.x**3])
    for comp in (InterfaceCompleter(mesh), OracleCompleter(mesh)):
        out = comp.complete(
            np.where(mesh.node_class == 0, f, 0.0), f[:, comp.boundary_ids]
        )
        np.testing.assert_allclose(out, f, atol=1e-9)


def test_completer_rejects_unknown_method():
    evo = heat_sine_evolution(n=2, p=5)
    with pytest.raises(ValueError, match="interface method"):
        ImexStepper(evo, load_tableau(3), 0.1, interface_method="banded")
    other = build_mesh((0.0, np.pi), 2, p=5)
    with pytest.raises(ValueError, match="different mesh"):
        ImexStepper(evo, load_tableau(3), 0.1, interface_method=InterfaceCompleter(other))


# -- constructor guards --------------------------------------------------


def test_evolution_rejects_shifted_operator():
    mesh = build_mesh((0.0, 1.0), 2, p=5)
    with pytest.raises(ValueError):
        Evolution(
            mesh=mesh,
            operator=laplace_operator().shifted(1.0, 0.5),
            lam=-1.0,
            bc=zero_bc,
        )


def test_slopes_need_bc_rate():
    evo = Evolution(
        mesh=build_mesh((0.0, 1.0), 2, p=5),
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=zero_bc,
    )
    with pytest.raises(ValueError):
        ImexStepper(evo, load_tableau(3), 0.1, formulation="slopes")
    ImexStepper(evo, load_tableau(3), 0.1, formulation="stages")
    with pytest.raises(ValueError):
        ImexStepper(evo, load_tableau(3), 0.1, formulation="rk4")


def test_run_stops_at_first_non_finite_step():
    # forcing turns to NaN after t = 0.25: the step from 0.2 to 0.3 is the
    # first to sample it, and the run must name that step and its time
    mesh = build_mesh((0.0, np.pi), 2, p=8)

    def forcing(t, x, y):
        return np.full_like(x, np.nan if t > 0.25 else 0.0)

    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=zero_bc,
        bc_rate=zero_bc,
        forcing=forcing,
    )
    for formulation in ("slopes", "stages"):
        st = ImexStepper(evo, load_tableau(3), 0.1, formulation=formulation)
        with pytest.raises(FloatingPointError, match=r"step 3 \(t=0\.3\)"):
            st.run(0.0, np.sin(mesh.x), 10)


# -- convergence on manufactured solutions -------------------------------


def _final_error(evo, q, n_steps, T=1.0, **kw):
    stepper = ImexStepper(evo, load_tableau(q), T / n_steps, **kw)
    u = stepper.run(0.0, np.sin(evo.mesh.x), n_steps)
    return np.abs(u - np.exp(-T) * np.sin(evo.mesh.x)).max()


def test_heat_slopes_order4():
    evo = heat_sine_evolution()
    steps = [8, 16, 32]
    errs = [_final_error(evo, 4, n) for n in steps]
    rate = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert rate == pytest.approx(4.0, abs=0.4)


def test_heat_stages_converges():
    evo = heat_sine_evolution()
    errs = [_final_error(evo, 4, n, formulation="stages") for n in [8, 16, 32]]
    assert errs[0] > errs[1] > errs[2]
    rate = -np.polyfit(np.log([8, 16, 32]), np.log(errs), 1)[0]
    assert rate > 2.5


def test_tridiagonal_path_matches_general_path():
    evo = heat_sine_evolution(n=4, p=10)
    tab = load_tableau(3)
    u0 = np.sin(evo.mesh.x)
    reference = OracleCompleter(evo.mesh)
    a = ImexStepper(evo, tab, 0.05, interface_method=reference).run(0.0, u0, 10)
    b = ImexStepper(evo, tab, 0.05, interface_method="tridiagonal").run(0.0, u0, 10)
    np.testing.assert_allclose(b, a, atol=1e-12)


def test_averaged_variant_close_over_one_step():
    # one-sided averaging differs from the continuity solve only at
    # truncation level on smooth data; divergence needs many steps
    evo = heat_sine_evolution(n=4, p=10)
    tab = load_tableau(3)
    u0 = np.sin(evo.mesh.x)
    a = ImexStepper(evo, tab, 0.02).step(0.0, u0)
    b = ImexStepper(evo, tab, 0.02, interface_method="averaged").step(0.0, u0)
    assert np.abs(a - b).max() < 1e-7


def test_uniform_in_space_solution_is_time_quadrature():
    # u(x, t) = cos(t) solves u_t = u_xx - sin(t); errors are pure time
    # integration errors and follow the design order
    mesh = build_mesh((0.0, 2.0), 3, p=8)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=lambda t, x, y: np.full_like(x, np.cos(t)),
        bc_rate=lambda t, x, y: np.full_like(x, -np.sin(t)),
        forcing=lambda t, x, y: np.full_like(x, -np.sin(t)),
    )
    errs = []
    for n in [5, 10, 20]:
        st = ImexStepper(evo, load_tableau(3), 2.0 / n)
        u = st.run(0.0, np.ones(mesh.n_nodes), n)
        errs.append(np.abs(u - np.cos(2.0)).max())
    rate = -np.polyfit(np.log([5, 10, 20]), np.log(errs), 1)[0]
    assert rate == pytest.approx(3.0, abs=0.35)


def test_complex_evolution():
    # u(x, t) = exp(-i t) sin(x) under u_t = i u_xx with zero boundary
    mesh = build_mesh((0.0, np.pi), 3, p=12)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0j,
        bc=zero_bc,
        bc_rate=zero_bc,
    )
    st = ImexStepper(evo, load_tableau(4), 1.0 / 40)
    u = st.run(0.0, np.sin(mesh.x).astype(complex), 40)
    err = np.abs(u - np.exp(-1.0j) * np.sin(mesh.x)).max()
    assert err < 1e-5


def test_imex_split_order():
    # u_t = u_xx - u^3 + exp(-3t) sin(x)^3 has the solution
    # u = exp(-t) sin(x); the cubic term rides on the explicit table
    mesh = build_mesh((0.0, np.pi), 3, p=14)
    sin3 = np.sin(mesh.x) ** 3

    def explicit(t, u):
        return -(u**3) + np.exp(-3 * t) * sin3

    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=zero_bc,
        bc_rate=zero_bc,
        explicit=explicit,
    )
    errs = []
    for n in [10, 20, 40]:
        st = ImexStepper(evo, load_tableau(4), 1.0 / n)
        u = st.run(0.0, np.sin(mesh.x), n)
        errs.append(np.abs(u - np.exp(-1.0) * np.sin(mesh.x)).max())
    rate = -np.polyfit(np.log([10, 20, 40]), np.log(errs), 1)[0]
    assert rate > 3.2


def test_imex_stages_runs():
    mesh = build_mesh((0.0, np.pi), 2, p=10)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=zero_bc,
        explicit=lambda t, u: -0.5 * u**3,
    )
    st = ImexStepper(evo, load_tableau(3), 0.05, formulation="stages")
    u = st.run(0.0, np.sin(mesh.x), 20)
    assert np.all(np.isfinite(u)) and np.abs(u).max() < 1.0


# -- derivative-jump penalty through a full step -------------------------


def kink_setup(p=9):
    mesh = build_mesh((0.0, 2.0), 2, p=p)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=zero_bc,
        bc_rate=zero_bc,
    )
    return mesh, evo, 1.0 - np.abs(mesh.x - 1.0)


def test_uncorrected_step_preserves_kink():
    mesh, evo, u0 = kink_setup()
    st = ImexStepper(evo, load_tableau(3), 0.1, corrected=False)
    u1 = st.step(0.0, u0)
    np.testing.assert_allclose(u1, u0, atol=1e-12)
    np.testing.assert_allclose(flux_jumps_1d(mesh, u1)[0], 2.0, rtol=1e-10)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_corrected_step_damps_kink_by_first_weight(q):
    # the first-stage rate keeps derivative continuity while every
    # penalized stage contributes -jump/dt, so one step scales the
    # derivative jump by exactly b[0]
    mesh, evo, u0 = kink_setup()
    tab = load_tableau(q)
    st = ImexStepper(evo, tab, 0.1, corrected=True)
    u1 = st.step(0.0, u0)
    np.testing.assert_allclose(
        flux_jumps_1d(mesh, u1)[0], 2.0 * tab.b[0], rtol=1e-8
    )
    assert np.abs(u1).max() < 1.0


def test_corrected_kink_decays_over_many_steps():
    mesh, evo, u0 = kink_setup()
    st = ImexStepper(evo, load_tableau(3), 0.1, corrected=True)
    u = st.run(0.0, u0, 60)
    assert np.abs(u).max() < 1e-3
    assert np.abs(flux_jumps_1d(mesh, u)).max() < 1e-10
