"""Stepper and interface-completion checks on small manufactured runs."""
from dataclasses import replace

import numpy as np
import pytest

from hpstep.chebyshev import leaf_stencil
from hpstep.mesh import BOUNDARY, INTERFACE, build_mesh
from hpstep.operators import EllipticOperator, edge_fluxes, laplace_operator
from hpstep.oracle import OracleCompleter
from hpstep.problems import burgers_crossing, burgers_rotating, heat_cosine, make_stepper
from hpstep.problems import schrodinger_harmonic
from hpstep.stepping import Evolution, ImexStepper, InterfaceCompleter, _stack_sum
from hpstep.studies import AveragedSlopeStepper
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
    gamma = mesh.ids_of(BOUNDARY)
    bc = field[gamma] + rng.normal(0, 0.1, gamma.size)
    a = reference.complete(data, bc)
    b = banded.complete(data, bc)
    np.testing.assert_allclose(b, a, atol=1e-11, rtol=1e-11)


# (bounds, leaves per axis, p): the 1D and 2D meshes of the completion
# tests, then the chain edge cases
COMPLETION_MESHES = {
    "2d": (((0.0, 2.0), (0.0, 1.0)), (3, 2), 12),
    "1d": ((0.0, 1.0), (4,), 9),
    "one-column": (((0.0, 2.0), (0.0, 1.0)), (1, 3), 12),  # empty x-chains
    "one-row": (((0.0, 2.0), (0.0, 1.0)), (3, 1), 12),  # empty y-chains
    "one-leaf-1d": ((0.0, 2.0), (1,), 12),
    "long-chain-1d": ((0.0, 2.0), (200,), 5),
}
CHAIN_EDGE_CASES = ["one-column", "one-row", "one-leaf-1d", "long-chain-1d"]


def completion_mesh(name):
    bounds, leaves, p = COMPLETION_MESHES[name]
    return build_mesh(bounds, *leaves, p=p)


def complete_both(mesh, f):
    """Chain and dense completions of f's interior and boundary values."""
    args = (np.where(mesh.node_class == 0, f, 0.0), f[..., mesh.ids_of(BOUNDARY)])
    return InterfaceCompleter(mesh).complete(*args), OracleCompleter(mesh).complete(*args)


@pytest.mark.parametrize(
    "completer,passthrough_atol,mesh_name",
    [(OracleCompleter, 1e-12, "2d"), (InterfaceCompleter, 0.0, "2d")]
    + [(InterfaceCompleter, 0.0, name) for name in CHAIN_EDGE_CASES],
    ids=["oracle", "tridiagonal", *CHAIN_EDGE_CASES],
)
def test_completer_matches_derivatives(completer, passthrough_atol, mesh_name):
    # completing a smooth function's interior values must reproduce its
    # interface values at spectral accuracy
    mesh = completion_mesh(mesh_name)
    y = mesh.x if mesh.dim == 1 else mesh.y
    f = np.exp(0.4 * mesh.x) * np.sin(y + 0.3)
    chains, dense = complete_both(mesh, f)
    out = chains if completer is InterfaceCompleter else dense
    iface = mesh.node_class == INTERFACE
    np.testing.assert_allclose(out[iface], f[iface], atol=1e-9)
    # interior and boundary values pass through: untouched by the chains,
    # to rounding by the oracle's dense solve
    keep = mesh.node_class != INTERFACE
    np.testing.assert_allclose(out[keep], f[keep], rtol=0, atol=passthrough_atol)
    np.testing.assert_allclose(chains, dense, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mesh_name", ["1d", *CHAIN_EDGE_CASES])
def test_completer_multicomponent(mesh_name):
    mesh = completion_mesh(mesh_name)
    y = 0.0 if mesh.dim == 1 else mesh.y
    f = np.stack([np.cos(2 * mesh.x + y), mesh.x**3 - y**2])
    chains, dense = complete_both(mesh, f)
    np.testing.assert_allclose(chains, f, atol=1e-9)
    np.testing.assert_allclose(dense, f, atol=1e-9)
    np.testing.assert_allclose(chains, dense, rtol=0, atol=1e-12)


# -- constructor guards --------------------------------------------------


def test_evolution_rejects_shifted_operator():
    mesh = build_mesh((0.0, 1.0), 2, p=5)
    with pytest.raises(ValueError, match="Evolution wants the bare spatial operator"):
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
    with pytest.raises(ValueError, match="slope formulation needs bc_rate"):
        ImexStepper(evo, load_tableau(3), 0.1, formulation="slopes")
    ImexStepper(evo, load_tableau(3), 0.1, formulation="stages")
    with pytest.raises(ValueError, match="unknown formulation 'rk4'"):
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


def test_run_stops_when_the_callback_says_so():
    # the callback returns True after step 3: the run ends with the 3-step field
    evo = heat_sine_evolution(n=2, p=8)
    st = ImexStepper(evo, load_tableau(3), 0.1)
    u0 = np.sin(evo.mesh.x)
    seen = []

    def stop_at_3(i, t, u):
        seen.append(i)
        return i == 3

    got = st.run(0.0, u0, 10, callback=stop_at_3)
    assert seen == [1, 2, 3]
    np.testing.assert_array_equal(got, st.run(0.0, u0, 3))


def test_averaged_stepper_rejects_2d_mesh():
    # its edge means would read the zero corners of 2D leaves
    evo = Evolution(
        mesh=build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=6),
        operator=laplace_operator(),
        lam=-1.0,
        bc=zero_bc,
        bc_rate=zero_bc,
    )
    with pytest.raises(ValueError, match="1D mesh"):
        AveragedSlopeStepper(evo, load_tableau(3), 0.1)


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
    st = ImexStepper(evo, tab, 0.05)
    st.completer = OracleCompleter(evo.mesh)
    a = st.run(0.0, u0, 10)
    b = ImexStepper(evo, tab, 0.05).run(0.0, u0, 10)
    np.testing.assert_allclose(b, a, atol=1e-12)


def test_averaged_variant_close_over_one_step():
    # one-sided averaging differs from the continuity solve only at
    # truncation level on smooth data; divergence needs many steps
    evo = heat_sine_evolution(n=4, p=10)
    tab = load_tableau(3)
    u0 = np.sin(evo.mesh.x)
    a = ImexStepper(evo, tab, 0.02).step(0.0, u0)
    b = AveragedSlopeStepper(evo, tab, 0.02).step(0.0, u0)
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


@pytest.mark.parametrize("formulation", ["slopes", "stages"])
@pytest.mark.parametrize("dim", [1, 2])
def test_zero_operator_integrates_the_forcing(formulation, dim):
    # u' = cos(t) with u(0) = 0 and no spatial operator: u = sin(t) everywhere
    box = (0.0, 1.0) if dim == 1 else ((0.0, 1.0), (0.0, 1.0))
    mesh = build_mesh(box, 2, *((2,) if dim == 2 else ()), p=6)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(),
        lam=-1.0,
        bc=lambda t, x, y: np.full_like(x, np.sin(t)),
        bc_rate=lambda t, x, y: np.full_like(x, np.cos(t)),
        forcing=lambda t, x, y: np.full_like(x, np.cos(t)),
    )
    st = ImexStepper(evo, load_tableau(3), 0.1, formulation=formulation)
    u = st.run(0.0, np.zeros(mesh.n_nodes), 10)
    assert np.abs(u - np.sin(1.0)).max() < 1e-5


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


# -- stage sums ------------------------------------------------------------


@pytest.mark.parametrize(
    "base,field", [(float, float), (complex, complex), (float, complex), (complex, float)]
)
@pytest.mark.parametrize("per_stage", [1, 2])
def test_stage_sums_match_python_sums(base, field, per_stage):
    # one GEMV over the rate stack against the Python sum it replaces, for
    # stacks of implicit rates (1 row per stage) or of both kinds (2 rows);
    # the stack holds the step's common dtype, as ImexStepper builds it
    rng = np.random.default_rng(per_stage)

    def make(dtype):
        x = rng.standard_normal((2, 50)).astype(dtype)
        x += 1j * rng.standard_normal((2, 50)) if dtype is complex else 0.0
        return x

    u = make(base)
    R = np.empty((8 * per_stage, 2, 50), np.result_type(base, field))
    R[:] = [make(field) for _ in R]
    for stages in range(1, 9):
        w = rng.standard_normal(stages * per_stage)
        want = u + sum(wj * f for wj, f in zip(w, R))
        got = _stack_sum(w, R, u)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        # measured at most 5.4e-16 of max|result| over 3200 such sums
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def list_reference_step(st, t, u):
    """One step written from the tableau with a Python list per kind of
    rate and a Python sum per stage load: the form the rate stack replaces."""
    evo, tab, dt = st.evo, st.tab, st.dt
    mesh, gids = evo.mesh, st.fact.gamma_ids
    imex = evo.explicit is not None

    def boundary(f, ti):
        return f(ti, mesh.x[gids], mesh.y[gids] if mesh.dim == 2 else None)

    def stage_sum(base, w_im, imp, w_ex, exp):
        out = base + dt * sum(w * f for w, f in zip(w_im, imp))
        return out + dt * sum(w * f for w, f in zip(w_ex, exp)) if imex else out

    s = tab.stages
    if st.formulation == "slopes":
        g = boundary(evo.bc_rate, t)
        ex = [evo.explicit(t, u)] if imex else []
        if imex:
            g = g - ex[0][..., gids]
        im = [st.completer.complete(st._rate_interior(t, u), g)]
        for i in range(1, s):
            ti = t + tab.c[i] * dt
            P = stage_sum(u, tab.A_im[i, :i], im, tab.A_ex[i, :i], ex)
            g = boundary(evo.bc_rate, ti)
            if imex:
                g = g - evo.explicit(ti, P)[..., gids]
            pen = edge_fluxes(mesh, u) / dt if st.corrected else None
            im.append(st.fact.solve(st._rate_interior(ti, P), g, penalty=pen))
            if imex:
                ex.append(evo.explicit(ti, P + dt * tab.gamma * im[i]))
        return stage_sum(u, tab.b, im, tab.b, ex)
    im = [st._rate_interior(t, u)]
    ex = [evo.explicit(t, u)] if imex else []
    ui = u
    for i in range(1, s):
        ti = t + tab.c[i] * dt
        load = stage_sum(u, tab.A_im[i, :i], im, tab.A_ex[i, :i], ex)
        f = st._forcing_field(ti)
        ui = st.fact.solve(load if f is None else load + dt * tab.gamma * f, boundary(evo.bc, ti))
        im.append((ui - load) / (dt * tab.gamma))
        if imex:
            ex.append(evo.explicit(ti, ui))
    if not imex:
        return ui
    out = ui + dt * sum(w * f for w, f in zip(tab.A_im[-1] - tab.A_ex[-1], ex))
    out[..., gids] = ui[..., gids]
    return out


STACK_CASES = {
    "real": lambda: heat_cosine(n=3, p=12),
    "real-explicit": lambda: with_explicit(
        heat_cosine(n=3, p=12), lambda t, u: 0.5 * np.sin(3.0 * t + 1.0) * u * u
    ),
    "pair-explicit": lambda: burgers_rotating(n=3, p=8),
    "complex": lambda: schrodinger_harmonic(n=3, p=8),
    "complex-explicit": lambda: with_explicit(
        schrodinger_harmonic(n=3, p=8), lambda t, u: -0.2j * np.abs(u) ** 2 * u
    ),
}


def with_explicit(case, explicit):
    return replace(case, evolution=replace(case.evolution, explicit=explicit))


@pytest.mark.parametrize("formulation", ["slopes", "stages"])
@pytest.mark.parametrize("name", list(STACK_CASES))
def test_step_matches_list_reference(name, formulation):
    case = STACK_CASES[name]()
    st = make_stepper(case, case.t_end / 8, formulation=formulation)
    t = 2.0 * st.dt
    u = st.step(0.0, st.step(0.0, case.u0))  # a state with nonzero rates everywhere
    want = list_reference_step(st, t, u)
    got = st.step(t, u)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("formulation", ["slopes", "stages"])
def test_imex_explicit_forcing_enters_every_stage(formulation):
    # u = cos(t) sin(x): u_t - u_xx = (cos t - sin t) sin x, all of it
    # carried by the explicit term, so a dropped explicit sum shows
    mesh = build_mesh((0.0, np.pi), 2, p=12)
    evo = Evolution(
        mesh=mesh,
        operator=EllipticOperator(c11=1.0),
        lam=-1.0,
        bc=zero_bc,
        bc_rate=zero_bc,
        explicit=lambda t, u: (np.cos(t) - np.sin(t)) * np.sin(mesh.x),
    )
    st = ImexStepper(evo, load_tableau(4), 1.0 / 20, formulation=formulation)
    u = st.run(0.0, np.sin(mesh.x), 20)
    assert np.abs(u - np.cos(1.0) * np.sin(mesh.x)).max() < 1e-5


# -- stage rates read off the stage solves ----------------------------------

STAGE_CASES = {
    "heat1d-bc": lambda: heat_cosine(n=3, p=12),
    "schrodinger-harmonic": lambda: schrodinger_harmonic(n=4, p=8),
    "burgers-rotating": lambda: burgers_rotating(n=4, p=8),
}


def stages_stepper(name):
    case = STAGE_CASES[name]()
    return case, make_stepper(case, case.t_end / 16, formulation="stages")


def reference_stages_step(st, t, u):
    """One stages step that applies the operator to every stage value."""
    evo, tab, dt, mesh = st.evo, st.tab, st.dt, st.evo.mesh
    nb = mesh.node_class != BOUNDARY
    gids = st.fact.gamma_ids
    yb, yg = (mesh.y[nb], mesh.y[gids]) if mesh.dim == 2 else (None, None)

    def forcing(ti):
        f = np.zeros(mesh.n_nodes)
        if evo.forcing is not None:
            f[nb] = evo.forcing(ti, mesh.x[nb], yb)
        return f

    def rate(ti, v):
        return evo.lam * st.applier.interior_apply(v) + forcing(ti)

    def stage_sum(weights, fields):
        return sum(w * f for w, f in zip(weights, fields))

    imex = evo.explicit is not None
    F1 = [rate(t, u)]
    F2 = [evo.explicit(t, u)] if imex else []
    ui = u
    for i in range(1, tab.stages):
        ti = t + tab.c[i] * dt
        load = u + dt * stage_sum(tab.A_im[i, :i], F1)
        if imex:
            load = load + dt * stage_sum(tab.A_ex[i, :i], F2)
        ui = st.fact.solve(load + dt * tab.gamma * forcing(ti), evo.bc(ti, mesh.x[gids], yg))
        F1.append(rate(ti, ui))
        if imex:
            F2.append(evo.explicit(ti, ui))
    if not imex:
        return ui
    out = ui + dt * stage_sum(tab.A_im[-1] - tab.A_ex[-1], F2)
    out[..., gids] = ui[..., gids]  # boundary values stay g(t + dt)
    return out


def test_stages_imex_step_keeps_boundary_values():
    # the explicit correction would move boundary nodes off g(t + dt):
    # this case's advection is not zero on the boundary
    case = burgers_crossing(n=4, p=8)
    st = make_stepper(case, 1.0 / 80, formulation="stages")
    assert st.evo.explicit is not None
    mesh, gids = case.evolution.mesh, st.fact.gamma_ids
    u = st.step(0.0, case.u0)
    np.testing.assert_array_equal(u[..., gids], case.evolution.bc(st.dt, mesh.x[gids], mesh.y[gids]))


@pytest.mark.parametrize("name", ["heat1d-bc", "burgers-rotating"])
def test_stages_apply_the_operator_once_per_step(name, monkeypatch):
    case, st = stages_stepper(name)
    calls = []
    apply = st.applier.interior_apply
    monkeypatch.setattr(st.applier, "interior_apply", lambda u: calls.append(u) or apply(u))
    st.run(0.0, case.u0, 3)
    assert len(calls) == 3


@pytest.mark.parametrize("name", list(STAGE_CASES))
def test_stage_rates_match_applied_operator(name):
    # a rate taken from the forced right-hand side, or any other slip in
    # reading rates off the stage equation, shows against this loop
    case, st = stages_stepper(name)
    want = case.u0
    for i in range(4):
        want = reference_stages_step(st, i * st.dt, want)
    got = st.run(0.0, case.u0, 4)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
