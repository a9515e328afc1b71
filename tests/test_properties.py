"""Randomized referees: the tree solve and the interface completion
against the dense oracle, and the solve against itself, on drawn meshes,
orders and data.

Meshes are 1D with 1-7 leaves, or 2D with 1-7 leaves along each axis
drawn independently (so neither square nor powers of two); p is 4-9 and
the data has one or two rows. `derandomize=True` fixes the examples, so
a failure reproduces on every run.

Operators sigma I + i tau A with A real take real leaf stacks and the
shift (I - i s A_II) (`operators.LeafOperators`);
`test_real_leaf_solve_matches_oracle` draws them, with and without a
penalty field.
`test_complex_fields_are_float_pairs` checks that every consumer of the
1-D kernel takes a complex field as its two real parts.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hpstep.mesh import BOUNDARY, INTERFACE, build_mesh
from hpstep.operators import EllipticOperator, OperatorApplier, edge_fluxes
from hpstep.operators import build_leaf_operators
from hpstep.oracle import OracleCompleter, assemble_global, oracle_solve
from hpstep.solver import build_factorization
from hpstep.stepping import InterfaceCompleter

REFEREE = settings(max_examples=20, deadline=None, derandomize=True)

SEEDS = st.integers(0, 2**32 - 1)
ROWS = st.sampled_from([(), (1,), (2,)])  # leading shape: a bare field, or k rows


@st.composite
def meshes(draw):
    p = draw(st.integers(4, 9))
    n1 = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return build_mesh((0.0, 0.5 * n1), n1, p=p)
    n2 = draw(st.integers(1, 7))
    return build_mesh(((0.0, 0.5 * n1), (-0.3, 0.4 * n2)), n1, n2, p=p)


def variable_operator() -> EllipticOperator:
    """Variable principal, advection and reaction terms under the shift of
    an implicit stage; 1D meshes sample at x alone and drop c22/c2."""
    return EllipticOperator(
        c11=lambda x, y=0.0: 1.0 + 0.3 * np.sin(x + y),
        c22=lambda x, y=0.0: 1.2 + 0.2 * np.cos(x * y),
        c1=lambda x, y=0.0: 0.5 * np.cos(x) + 0.2 * y,
        c2=lambda x, y=0.0: 0.3 - 0.4 * x,
        c0=lambda x, y=0.0: 0.5 + x * x,
    ).shifted(1.0, 0.5)


def random_rows(rng, lead, *sizes):
    return [rng.standard_normal(lead + (n,)) for n in sizes]


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


@REFEREE
@given(mesh=meshes(), lead=ROWS, seed=SEEDS)
def test_completer_matches_oracle(mesh, lead, seed):
    n_gamma = mesh.ids_of(BOUNDARY).size
    field, boundary = random_rows(np.random.default_rng(seed), lead, mesh.n_nodes, n_gamma)
    want = OracleCompleter(mesh).complete(field, boundary)
    got = InterfaceCompleter(mesh).complete(field, boundary)
    assert got.shape == want.shape
    assert rel_err(got, want) <= 1e-11


@REFEREE
@given(mesh=meshes(), lead=ROWS, seed=SEEDS)
def test_tree_solve_matches_oracle(mesh, lead, seed):
    # criterion 1's measure and bound: max difference over max(1, max|u|)
    op = variable_operator()
    fact = build_factorization(mesh, op)
    n_gamma = fact.gamma_ids.size
    f, g = random_rows(np.random.default_rng(seed), lead, mesh.n_nodes, n_gamma)
    got = fact.solve(f, g)
    assert got.shape == f.shape
    system = assemble_global(mesh, op)
    rows = zip(f.reshape(-1, mesh.n_nodes), g.reshape(-1, n_gamma))
    want = np.array([oracle_solve(system, fi, dirichlet=gi) for fi, gi in rows])
    want = want.reshape(got.shape)
    assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


@REFEREE
@given(mesh=meshes(), seed=SEEDS, penalized=st.booleans())
def test_row_solve_matches_single_solves(mesh, seed, penalized):
    fact = build_factorization(mesh, variable_operator())
    n = mesh.n_nodes
    f, g, pen = random_rows(np.random.default_rng(seed), (2,), n, fact.gamma_ids.size, n)
    flux = edge_fluxes(mesh, pen) / 0.1 if penalized else None
    got = fact.solve(f, g, penalty=flux)
    for i in range(2):
        want = fact.solve(f[i], g[i], penalty=None if flux is None else flux[i])
        assert rel_err(got[i], want) <= 1e-14


@REFEREE
@given(mesh=meshes(), lead=ROWS, seed=SEEDS)
def test_penalty_route_is_linear(mesh, lead, seed):
    # the penalty only adds its flux jumps to the interface conditions
    fact = build_factorization(mesh, variable_operator())
    n, dt = mesh.n_nodes, 0.05
    f, g, pen = random_rows(np.random.default_rng(seed), lead, n, fact.gamma_ids.size, n)
    flux = edge_fluxes(mesh, pen) / dt
    got = fact.solve(f, g, penalty=flux)
    want = fact.solve(f, g) + fact.solve(0 * f, 0 * g, penalty=flux)
    assert rel_err(got, want) <= 1e-12


# real spatial parts of Schrodinger-like stage operators: a sampled
# reaction term always, first-order terms, and one variable principal part
IMAGINARY_SHIFT_PARTS = {
    "reaction": EllipticOperator(c11=0.5, c22=0.5, c0=lambda x, y=0.0: 0.5 * (x * x + y * y)),
    "advection": EllipticOperator(
        c11=1.0, c22=1.0,
        c1=lambda x, y=0.0: 0.5 * np.cos(x) + 0.2 * y, c2=0.3,
        c0=lambda x, y=0.0: 1.0 - np.exp(-((x + 0.9 * y) ** 4)),
    ),
    "variable-c11": EllipticOperator(
        c11=lambda x, y=0.0: 1.0 + 0.3 * np.sin(x + y), c22=0.5, c0=lambda x, y=0.0: x - y,
    ),
}


@REFEREE
@given(
    mesh=meshes().filter(lambda m: m.n_leaves > 1),
    part=st.sampled_from(sorted(IMAGINARY_SHIFT_PARTS)),
    sigma=st.sampled_from([1.0, 0.5]),
    tau=st.sampled_from([0.02, 0.3]),
    lead=st.sampled_from([(), (2,)]),
    penalized=st.booleans(),
    seed=SEEDS,
)
def test_real_leaf_solve_matches_oracle(mesh, part, sigma, tau, lead, penalized, seed):
    op = IMAGINARY_SHIFT_PARTS[part].shifted(sigma, 1j * tau)
    fact = build_factorization(mesh, op)
    assert fact.leaf_ops.s == tau / sigma and fact.leaf_ops.P.dtype == np.float64
    n, n_gamma, dt = mesh.n_nodes, fact.gamma_ids.size, 0.1
    rng = np.random.default_rng(seed)
    f, g, pen = (a + 1j * b for a, b in zip(*(random_rows(rng, lead, n, n_gamma, n) for _ in "ri")))
    pen = pen if penalized else None
    got = fact.solve(f, g, penalty=None if pen is None else edge_fluxes(mesh, pen) / dt)
    # the oracle's interface rows are the flux jumps: a penalty sets them
    # to -(1/dt) times the penalty field's
    system = assemble_global(mesh, op)
    iface = mesh.node_class == INTERFACE
    want = []
    for i, (fi, gi) in enumerate(zip(f.reshape(-1, n), g.reshape(-1, n_gamma))):
        u = oracle_solve(system, fi, dirichlet=gi)
        if pen is not None:
            rhs = np.zeros(n, dtype=complex)
            rhs[iface] = -(system.matrix[iface] @ pen.reshape(-1, n)[i]) / dt
            u += np.linalg.solve(system.matrix, rhs)
        want.append(u)
    want = np.reshape(want, got.shape)
    # measured: at most 5.7e-13 over 150 draws of these parts and meshes
    assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


# constant coefficients (c11 a power of two, folded into its 1-D block) or
# sampled ones, as the bare operator an `OperatorApplier` takes
FLOAT_PAIR_OPERATORS = {
    "constant": EllipticOperator(c11=0.5, c22=1.3, c1=0.3, c2=-0.4, c0=2.0),
    "sampled": EllipticOperator(
        c11=lambda x, y=0.0: 1.0 + 0.3 * np.sin(x + y),
        c22=lambda x, y=0.0: 1.2 + 0.2 * np.cos(x * y),
        c1=lambda x, y=0.0: 0.5 * np.cos(x) + 0.2 * y,
        c2=0.3,
        c0=lambda x, y=0.0: 0.5 + x * x,
    ),
}


@REFEREE
@given(mesh=meshes(), coefs=st.sampled_from(sorted(FLOAT_PAIR_OPERATORS)), lead=ROWS, seed=SEEDS)
def test_complex_fields_are_float_pairs(mesh, coefs, lead, seed):
    # a complex field meets the real 1-D blocks as float pairs, so each
    # consumer's result is its result on u.real plus 1j times that on u.imag
    op = FLOAT_PAIR_OPERATORS[coefs]
    shift = build_leaf_operators(mesh, op.shifted(1.0, 0.3j)).shift
    completer = InterfaceCompleter(mesh)
    rng = np.random.default_rng(seed)
    n_int, n_gamma = mesh.interior_local.size, mesh.ids_of(BOUNDARY).size
    u, x, g = (
        a + 1j * b
        for a, b in zip(*(random_rows(rng, lead, mesh.n_nodes, n_int, n_gamma) for _ in "ri"))
    )
    x = np.repeat(x[..., None, :], mesh.n_leaves, axis=-2)  # every leaf's interior values
    consumers = {
        "interior_apply": (OperatorApplier(mesh, op).interior_apply, (u,)),
        "shift": (shift, (x,)),
        "edge_fluxes": (lambda v: edge_fluxes(mesh, v), (u,)),
        "complete": (completer.complete, (u, g)),
    }
    for name, (consumer, args) in consumers.items():
        got = consumer(*args)
        real = consumer(*(np.ascontiguousarray(a.real) for a in args))
        imag = consumer(*(np.ascontiguousarray(a.imag) for a in args))
        want = real + 1j * imag
        assert got.shape == want.shape and got.dtype == complex, name
        # bit for bit along y and pointwise; along x the pairs' GEMM runs
        # over 2n interleaved floats, which OpenBLAS sums in another order
        # than the real GEMM for some shapes. Measured over 150 draws: the
        # shift exact in all, interior_apply in 127 (worst 3.6e-16 of
        # max|want|), edge_fluxes in 115 (2.9e-16), complete in 91 (2.2e-16)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name
