"""Structural and behavioral checks for the additive tableau pairs."""
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hpstep.mesh import build_mesh
from hpstep.operators import EllipticOperator
from hpstep.stepping import Evolution, ImexStepper
from hpstep.tableaus import (
    ImexTableau,
    _validate,
    load_tableau,
    order_condition_residuals,
    stability_function,
)

ORDERS = [3, 4, 5]
STAGES = {3: 4, 4: 6, 5: 8}
GAMMAS = {3: 1767732205903 / 4055673282236, 4: 0.25, 5: 0.205}


@pytest.mark.parametrize("q", ORDERS)
def test_load_and_shape(q):
    tab = load_tableau(q)
    s = STAGES[q]
    assert tab.order == q
    assert tab.stages == s
    assert tab.A_im.shape == (s, s)
    assert tab.A_ex.shape == (s, s)
    assert tab.gamma == GAMMAS[q]


@pytest.mark.parametrize("q", ORDERS)
def test_loaded_pair_is_cached_and_read_only(q):
    tab = load_tableau(q)
    assert load_tableau(q) is tab
    for arr in (tab.A_im, tab.A_ex, tab.b, tab.c):
        with pytest.raises(ValueError, match="read-only"):
            arr[-1] = 0.0


def test_unknown_order_rejected():
    with pytest.raises(ValueError, match="no tableau of order 2; choose 3, 4 or 5"):
        load_tableau(2)
    with pytest.raises(ValueError, match="no tableau of order 6; choose 3, 4 or 5"):
        load_tableau(6)


@pytest.mark.parametrize("q", ORDERS)
def test_structure(q):
    tab = load_tableau(q)
    # explicit first stage, then a constant implicit diagonal
    assert not tab.A_im[0].any()
    assert np.all(np.diag(tab.A_im)[1:] == tab.gamma)
    # the explicit table never touches the current or later stages
    assert not np.triu(tab.A_ex).any()
    # stiff accuracy: the last implicit stage is the update itself
    np.testing.assert_array_equal(tab.A_im[-1], tab.b)
    # shared abscissae
    np.testing.assert_allclose(tab.A_im.sum(axis=1), tab.c, atol=1e-12)
    np.testing.assert_allclose(tab.A_ex.sum(axis=1), tab.c, atol=1e-12)
    assert tab.c[0] == 0.0 and tab.c[-1] == 1.0


@pytest.mark.parametrize("q", ORDERS)
def test_order_conditions_both_tables(q):
    tab = load_tableau(q)
    for tables in ([tab.A_im], [tab.A_ex], [tab.A_im, tab.A_ex]):
        res = order_condition_residuals(tables, tab.b, q)
        assert np.abs(res).max() < 1e-12


def test_order_condition_count():
    # rooted trees through each order (1, 1, 2, 4, 9, 20 of each size); with
    # two tables every non-root vertex carries either (1, 2, 7, 26, 107)
    b = np.array([1.0])
    A = np.zeros((1, 1))
    one = [(1, 1), (2, 2), (3, 4), (4, 8), (5, 17), (6, 37)]
    pair = [(1, 1), (2, 3), (3, 10), (4, 36), (5, 143)]
    for q, n in one:
        assert order_condition_residuals([A], b, q).size == n
    for q, n in pair:
        assert order_condition_residuals([A, A], b, q).size == n
    # the pair's trees that carry both tables: all but each table's own,
    # which share the one-vertex tree
    assert [n - 2 * dict(one)[q] + 1 for q, n in pair[2:]] == [3, 21, 110]


@pytest.mark.parametrize("q", ORDERS)
def test_stage_order(q):
    # the largest k with A c^(j-1) = c^j / j for every j <= k; the implicit
    # tables' 2 bounds the order seen on problems with time-dependent forcing
    tab = load_tableau(q)

    def stage_order(A):
        k = 0
        while np.abs(A @ tab.c**k - tab.c ** (k + 1) / (k + 1)).max() < 1e-12:
            k += 1
        return k

    assert (stage_order(tab.A_im), stage_order(tab.A_ex)) == (2, 1)


def test_validation_catches_a_mutant_meeting_each_tables_own_conditions():
    # Move the order-4 explicit table along the null space of its row sums
    # and its own order conditions, then back onto them by Newton steps:
    # only the conditions coupling it to the implicit table see the change.
    tab = load_tableau(4)
    rows, cols = np.tril_indices(tab.stages, -1)

    def table(x):
        A = np.zeros((tab.stages, tab.stages), dtype=x.dtype)
        A[rows, cols] = x
        return A

    def own(x):
        A = table(x)
        return np.concatenate([A.sum(axis=1) - tab.c, order_condition_residuals([A], tab.b, 4)])

    def pair(x):
        return order_condition_residuals([tab.A_im, table(x)], tab.b, 4)

    def jacobian(f, x, h=1e-30):  # complex step: exact for these polynomials
        return np.array([f(x + 1j * h * e).imag / h for e in np.eye(x.size)]).T

    x = tab.A_ex[rows, cols]
    J_own, J_pair = jacobian(own, x), jacobian(pair, x)
    assert x.size == 15 and np.linalg.matrix_rank(J_own) == 9
    assert np.linalg.matrix_rank(np.vstack([J_own, J_pair])) == 10
    null = np.linalg.svd(J_own)[2][9:]
    # the null direction along which the pair's conditions move fastest
    d = null.T @ np.linalg.svd(J_pair @ null.T)[2][0]
    x = x + 0.01 * d / np.abs(d).max()
    for _ in range(4):
        x = x - np.linalg.lstsq(jacobian(own, x), own(x), rcond=None)[0]
    assert np.abs(own(x)).max() < 1e-12
    assert np.abs(pair(x)).max() > 1e-5
    mutant = ImexTableau("mutant", 4, tab.gamma, tab.A_im, table(x), tab.b, tab.c)
    with pytest.raises(ValueError, match="tableau mutant: q4 coupled order conditions at"):
        _validate(mutant)


@pytest.mark.parametrize("q", ORDERS)
def test_implicit_damping(q):
    tab = load_tableau(q)
    assert abs(stability_function(tab.A_im, tab.b, -1e8)) < 1e-6
    assert stability_function(tab.A_im, tab.b, 0.0) == pytest.approx(1.0)
    # R approximates exp to the design order near the origin
    z = 0.05 * np.exp(1j * np.linspace(0, 2 * np.pi, 7))
    err = np.abs(stability_function(tab.A_im, tab.b, z) - np.exp(z))
    assert err.max() < 10 * 0.05 ** (q + 1)


def _scalar_step(tab, formulation, lam, dt, u, explicit=None):
    """One ImexStepper step on a single leaf of three nodes with zero
    boundary data, whose interior node obeys u' = lam*u + explicit(t, u)."""
    zero = lambda t, x, y: np.zeros_like(x)
    mesh = build_mesh((0.0, 1.0), 1, p=3)
    evo = Evolution(mesh, EllipticOperator(c0=1.0), lam, zero, zero, explicit=explicit)
    stepper = ImexStepper(evo, tab, dt, formulation=formulation)
    return stepper.step(0.0, np.array([0.0, u, 0.0], dtype=complex))[1]


@pytest.mark.parametrize("q", ORDERS)
@pytest.mark.parametrize("lam", [-1.7, 1j * 2.3, -0.4 + 1.1j])
def test_scalar_step_matches_stability_function(q, lam):
    tab = load_tableau(q)
    dt = 0.37
    u0 = 0.8 - 0.25j
    want = stability_function(tab.A_im, tab.b, lam * dt) * u0
    got_k = _scalar_step(tab, "slopes", lam, dt, u0)
    got_u = _scalar_step(tab, "stages", lam, dt, u0)
    np.testing.assert_allclose(got_k, want, rtol=1e-13)
    np.testing.assert_allclose(got_u, want, rtol=1e-13)


@pytest.mark.parametrize("q", ORDERS)
def test_formulations_agree_for_linear_splitting(q):
    tab = load_tableau(q)
    u = 1.1 + 0.3j
    explicit = lambda t, v: 0.7j * v
    got_k = _scalar_step(tab, "slopes", -2.0 + 0.5j, 0.21, u, explicit)
    got_u = _scalar_step(tab, "stages", -2.0 + 0.5j, 0.21, u, explicit)
    np.testing.assert_allclose(got_k, got_u, rtol=1e-13)


def _imex_ode_step(tab, t, u, dt, lam, s_im, f_ex):
    """Stage-formulation step for u' = lam*u + s_im(t) + f_ex(t, u)."""
    ns = tab.stages
    us = np.zeros(ns)
    fi = np.zeros(ns)
    fe = np.zeros(ns)
    us[0] = u
    fi[0] = lam * u + s_im(t)
    fe[0] = f_ex(t, u)
    for i in range(1, ns):
        ti = t + tab.c[i] * dt
        rhs = u + dt * (tab.A_im[i, :i] @ fi[:i] + tab.A_ex[i, :i] @ fe[:i])
        ui = (rhs + dt * tab.gamma * s_im(ti)) / (1.0 - dt * tab.gamma * lam)
        us[i] = ui
        fi[i] = lam * ui + s_im(ti)
        fe[i] = f_ex(ti, ui)
    return us[-1] + dt * ((tab.A_im[-1] - tab.A_ex[-1]) @ fe)


@pytest.mark.parametrize("q", ORDERS)
def test_empirical_order_on_split_ode(q):
    # Nonautonomous, nonlinear explicit part: exercises the abscissae and
    # both coupling matrices, so a transcribed-coefficient slip that still
    # passes the per-table conditions would surface here.
    lam = -2.0
    s_im = lambda t: np.cos(3 * t)
    f_ex = lambda t, u: 0.4 * np.sin(u) + 0.1 * np.cos(t) * u
    rhs = lambda t, u: lam * u + s_im(t) + f_ex(t, u)
    T = 2.0
    ref = solve_ivp(
        rhs, (0.0, T), [0.6], method="DOP853", rtol=1e-13, atol=1e-14
    ).y[0, -1]

    tab = load_tableau(q)
    errs = []
    steps = [20, 40, 80, 160]
    for n in steps:
        dt = T / n
        u, t = 0.6, 0.0
        for _ in range(n):
            u = _imex_ode_step(tab, t, u, dt, lam, s_im, f_ex)
            t += dt
        errs.append(abs(u - ref))
    rate = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert -rate == pytest.approx(q, abs=0.45)


def test_validation_catches_perturbation():
    tab = load_tableau(4)
    A_bad = tab.A_ex.copy()
    A_bad[3, 1] += 1e-7
    bad = ImexTableau(
        name="perturbed",
        order=4,
        gamma=tab.gamma,
        A_im=tab.A_im,
        A_ex=A_bad,
        b=tab.b,
        c=tab.c,
    )
    with pytest.raises(ValueError, match="tableau perturbed: explicit row sums differ from c"):
        _validate(bad)
