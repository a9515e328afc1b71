"""Consistency checks for the benchmark catalog."""
import numpy as np
import pytest

from hpstep.mesh import BOUNDARY
from hpstep.operators import OperatorApplier
from hpstep.problems import (
    PROBLEMS,
    TransientCase,
    burgers_crossing,
    burgers_rotating,
    heat_cosine,
    heat_kink,
    make_stepper,
    resolution_step_count,
    schrodinger_asymmetric,
    schrodinger_harmonic,
)


def test_registry_complete():
    assert set(PROBLEMS) == {
        "heat1d-bc",
        "heat1d-kink",
        "schrodinger-harmonic",
        "schrodinger-asymmetric",
        "burgers-rotating",
        "burgers-cross",
    }
    for factory in PROBLEMS.values():
        assert isinstance(factory(), TransientCase)


@pytest.mark.parametrize("factory", [heat_cosine, heat_kink])
def test_heat_cases_shapes(factory):
    case = factory()
    assert case.mesh.dim == 1
    assert case.u0.shape == (case.mesh.n_nodes,)
    assert case.u0.dtype == float


def test_heat_cosine_exact_is_uniform():
    case = heat_cosine()
    v = case.exact(0.7, case.mesh.x, None)
    np.testing.assert_allclose(v, np.cos(0.7))


def test_kink_start_has_unit_peak_on_interface():
    case = heat_kink()
    assert case.u0.max() == pytest.approx(1.0)
    peak = np.argmax(case.u0)
    assert case.mesh.x[peak] == pytest.approx(1.0)
    assert case.mesh.node_class[peak] == 1


@pytest.mark.parametrize(
    "factory", [schrodinger_harmonic, schrodinger_asymmetric]
)
def test_schrodinger_cases_complex(factory):
    case = factory(n=4, p=6)
    assert case.mesh.dim == 2
    assert np.iscomplexobj(case.u0)
    assert case.evolution.lam == -1.0j


def test_initial_data_matches_boundary_values():
    # the rotating swirl is Gaussian-damped, not compactly supported: its
    # no-slip walls clip a ~4e-7 tail, so that case only gets a loose bound
    for name, factory in PROBLEMS.items():
        case = factory()
        ids = case.mesh.ids_of(BOUNDARY)
        y = case.mesh.y[ids] if case.mesh.dim == 2 else None
        g0 = np.asarray(case.evolution.bc(0.0, case.mesh.x[ids], y))
        atol = 1e-6 if name == "burgers-rotating" else 5e-11
        np.testing.assert_allclose(case.u0[..., ids], g0, atol=atol, err_msg=name)


def test_harmonic_semidiscrete_residual():
    # the exact ground state satisfies u_t = -i (A u) at interior nodes up
    # to spatial truncation
    case = schrodinger_harmonic(n=8, p=12)
    mesh = case.mesh
    app = OperatorApplier(mesh, case.evolution.operator)
    rate = case.evolution.lam * app.interior_apply(case.u0)
    expected = -1j * case.u0
    interior = mesh.node_class == 0
    err = np.abs(rate[interior] - expected[interior]).max()
    assert err < 1e-5


def test_harmonic_step_count_rule():
    # dt tracks h**(p/order): h = 1 gives one unit step, h = 1/2 with
    # p = 8, order = 3 gives 2**(8/3) steps per unit time
    case16 = schrodinger_harmonic(n=16, p=8)
    assert resolution_step_count(case16, 3) == 7
    case32 = schrodinger_harmonic(n=32, p=8)
    assert resolution_step_count(case32, 3) == 40
    assert resolution_step_count(case32, 8) == 13


def test_harmonic_short_run_accuracy():
    case = schrodinger_harmonic(n=8, p=12)
    st = make_stepper(case, 0.1)
    u = st.run(0.0, case.u0, 3)
    ref = case.exact(0.3, case.mesh.x, case.mesh.y)
    assert np.abs(u - ref).max() < 1e-3


def test_asymmetric_potential_profile():
    case = schrodinger_asymmetric(n=4, p=6)
    V = case.evolution.operator.c0
    assert V(0.0, 0.0) == pytest.approx(0.0)
    assert V(1.0, 0.0) == pytest.approx(1.0 - np.exp(-1.0))
    # tilt direction: the well floor runs along x = -0.9 y
    assert V(-0.9, 1.0) == pytest.approx(0.0)
    assert V(0.9, 1.0) > 0.9


@pytest.mark.parametrize("factory", [burgers_rotating, burgers_crossing])
def test_burgers_cases_two_components(factory):
    case = factory(n=4, p=8)
    assert case.u0.shape == (2, case.mesh.n_nodes)
    assert case.evolution.explicit is not None


def test_rotating_speed_profile():
    case = burgers_rotating(n=8, p=10)
    speed = np.hypot(case.u0[0], case.u0[1])
    # max of 5 r exp(-3 r^2) is at r = 1/sqrt(6)
    peak = 5.0 / np.sqrt(6.0) * np.exp(-0.5)
    assert speed.max() == pytest.approx(peak, rel=0.01)
    r = np.hypot(case.mesh.x, case.mesh.y)
    np.testing.assert_allclose(speed, 5.0 * r * np.exp(-3.0 * r**2), atol=1e-12)


def test_advection_term_is_quadratic():
    case = burgers_rotating(n=4, p=8)
    f2 = case.evolution.explicit
    a = f2(0.0, case.u0)
    b = f2(0.0, 2.0 * case.u0)
    np.testing.assert_allclose(b, 4.0 * a, rtol=1e-12, atol=1e-12)
    assert a.shape == case.u0.shape


def test_advection_against_closed_form():
    # for u = s(r) (-y, x) with s = 5 exp(-3 r^2), the material derivative
    # reduces to -s^2 * (-x, -y) since (u . grad) rotates the swirl
    case = burgers_rotating(n=8, p=12)
    x, y = case.mesh.x, case.mesh.y
    s = 5.0 * np.exp(-3.0 * (x**2 + y**2))
    expected = np.stack([-(s**2) * -x, -(s**2) * -y])
    got = case.evolution.explicit(0.0, case.u0)
    # s^2 decays twice as fast as the mesh resolves; truncation ~1e-5
    assert np.abs(got - expected).max() < 1e-4


def test_crossing_streams_orthogonal():
    case = burgers_crossing(n=4, p=8)
    # first component depends on y only, second on x only
    u, v = case.u0
    mesh = case.mesh
    same_y = np.isclose(mesh.y, mesh.y[0])
    assert np.ptp(u[same_y]) < 1e-12
    same_x = np.isclose(mesh.x, mesh.x[0])
    assert np.ptp(v[same_x]) < 1e-12


def test_make_stepper_uses_defaults():
    case = heat_cosine(n=2, p=8)
    st = make_stepper(case, 0.1)
    assert st.tab.order == 3
    assert st.formulation == "slopes"
    st5 = make_stepper(case, 0.1, order=5, formulation="stages")
    assert st5.tab.order == 5
    assert st5.formulation == "stages"
