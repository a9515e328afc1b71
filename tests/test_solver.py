from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hpstep.mesh import BOUNDARY, INTERFACE, build_mesh
from hpstep.operators import (
    EllipticOperator,
    edge_fluxes,
    flux_matrix,
    gather_leaf_fields,
    laplace_operator,
)
from hpstep.oracle import assemble_global, oracle_solve
from hpstep.operators import apply_blocks as _apply
from hpstep.solver import build_factorization, factor_bytes


def shifted_laplace():
    return laplace_operator().shifted(sigma=1.0, scale=1.0)


def random_data(mesh, rng, dtype=float):
    f = rng.standard_normal(mesh.n_nodes)
    g = rng.standard_normal(mesh.ids_of(BOUNDARY).size)
    if dtype is complex:
        f = f + 1j * rng.standard_normal(mesh.n_nodes)
        g = g + 1j * rng.standard_normal(g.size)
    return f, g


MESHES_2D = [(1, 1), (2, 1), (2, 2), (3, 2), (6, 6), (5, 3)]


@pytest.mark.parametrize("n1,n2", MESHES_2D)
@pytest.mark.parametrize("p", [5, 7, 9])
def test_matches_oracle_shifted_laplace(n1, n2, p):
    mesh = build_mesh(((0.0, float(n1)), (0.0, float(n2))), n1, n2, p=p)
    rng = np.random.default_rng(10 * n1 + n2 + p)
    f, g = random_data(mesh, rng)
    op = shifted_laplace()
    fact = build_factorization(mesh, op)
    got = fact.solve(f, g)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g)
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() / scale < 1e-9


@pytest.mark.parametrize("n1,n2", [(2, 1), (3, 2)])
def test_matches_oracle_complex_shift(n1, n2):
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), n1, n2, p=7)
    rng = np.random.default_rng(5)
    f, g = random_data(mesh, rng, complex)
    op = laplace_operator().shifted(sigma=1.0, scale=0.03 + 0.07j)
    fact = build_factorization(mesh, op)
    assert fact.dtype == complex
    got = fact.solve(f, g)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-9


@pytest.mark.parametrize("n1,n2", [(3, 2), (6, 6)])
def test_matches_oracle_variable_reaction(n1, n2):
    mesh = build_mesh(((-1.0, 1.0), (0.0, 1.0)), n1, n2, p=7)
    rng = np.random.default_rng(11)
    f, g = random_data(mesh, rng)
    op = EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: 1 + x * x + y * y)
    fact = build_factorization(mesh, op)
    got = fact.solve(f, g)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-9


def schrodinger_stage(potential=lambda x, y: 0.5 * (x * x + y * y), tau=0.07):
    """An ARK stage operator I + i tau A of i u_t = -(1/2) lap(u) + V u."""
    return EllipticOperator(c11=0.5, c22=0.5, c0=potential).shifted(1.0, 1j * tau)


NON_IMAGINARY_SHIFTS = {  # complex operators that keep the general leaf form
    "non-quadrature-shift": EllipticOperator(
        c11=1.0, c22=1.0, c0=lambda x, y: 1 + x * x + y * y
    ).shifted(1.0, 0.3 + 0.2j),
    "complex-coefficient": schrodinger_stage(potential=lambda x, y: x * x + 0.5j * y),
}


@pytest.mark.parametrize("name", NON_IMAGINARY_SHIFTS)
def test_non_imaginary_shifts_keep_complex_leaves(name):
    mesh = build_mesh(((-1.0, 2.0), (0.0, 1.0)), 3, 2, p=7)
    op = NON_IMAGINARY_SHIFTS[name]
    fact = build_factorization(mesh, op)
    assert fact.leaf_ops.s is None  # no shift
    assert fact.leaf_ops.P.dtype == fact.leaf_ops.G.dtype == complex
    f, g = random_data(mesh, np.random.default_rng(8), complex)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g)
    assert np.abs(fact.solve(f, g) - want).max() / np.abs(want).max() < 1e-9


def test_schrodinger_factorization_stores_float64_leaf_stacks():
    mesh = build_mesh(((-2.0, 2.0), (-2.0, 2.0)), 4, 4, p=8)
    fact = build_factorization(mesh, schrodinger_stage())
    leaf = fact.leaf_ops
    assert leaf.s == 0.07 and fact.dtype == complex
    arrays = {name: a for name, a in vars(leaf).items() if isinstance(a, np.ndarray)}
    stacks = {name: a for name, a in arrays.items() if a.ndim == 3 and len(a) > 1}
    # one stack per leaf: P and G; no complex array, so no edge columns M_IB
    assert sorted(stacks) == ["G", "P"]
    assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}
    assert all(len(a) == mesh.n_leaves and a.flags.c_contiguous for a in stacks.values())
    assert leaf.dtn is None  # the merges took it
    # half the bytes of the general form's complex inverse and G
    general = build_factorization(mesh, schrodinger_stage().shifted(1.0, 0.01 + 0.07j)).leaf_ops
    assert leaf.P.nbytes + leaf.G.nbytes == (general.P.nbytes + general.G.nbytes) // 2


def factor_cases():
    mesh = build_mesh(((-2.0, 2.0), (-1.0, 1.0)), 4, 2, p=7)
    return {
        "real": (mesh, shifted_laplace()),
        "schrodinger": (mesh, schrodinger_stage()),
        "general-sampled": (mesh, NON_IMAGINARY_SHIFTS["non-quadrature-shift"]),
    }


@pytest.mark.parametrize("case", ["real", "schrodinger"])
def test_factor_bytes_counts_every_stored_array(case):
    fact = build_factorization(*factor_cases()[case])
    leaf = fact.leaf_ops
    arrays = [leaf.P, leaf.G, leaf.Fi]
    if case == "schrodinger":  # the interior shift's 1-D blocks and sampled weights
        arrays += [a for _, B, _, w in leaf.A_II._terms for a in (B, w) if a is not None]
    for lv in fact.levels:  # the root's empty C is a view of its inv_X
        arrays += [lv.inv_X, lv.S] + ([lv.C] if lv.C.base is None else [])
    assert len({id(a) for a in arrays}) == len(arrays)
    assert factor_bytes(fact) == sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("case", ["real", "schrodinger", "general-sampled"])
def test_factor_bytes_is_the_same_before_and_after_a_solve(case):
    # a solve may fill caches, but none that adds stored bytes
    mesh, op = factor_cases()[case]
    fact = build_factorization(mesh, op)
    before = factor_bytes(fact)
    f, g = random_data(mesh, np.random.default_rng(2), complex)
    fact.solve(f, g)
    assert factor_bytes(fact) == before


@pytest.mark.parametrize("n1", [1, 2, 5])
def test_matches_oracle_1d(n1):
    mesh = build_mesh((0.0, 2.0), n1, p=9)
    rng = np.random.default_rng(n1)
    f, g = random_data(mesh, rng)
    op = shifted_laplace()
    fact = build_factorization(mesh, op)
    got = fact.solve(f, g)
    want = oracle_solve(assemble_global(mesh, op), f, dirichlet=g)
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


def test_factorization_reuse_many_solves():
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=6)
    fact = build_factorization(mesh, shifted_laplace())
    sysm = assemble_global(mesh, shifted_laplace())
    rng = np.random.default_rng(0)
    for _ in range(3):
        f, g = random_data(mesh, rng)
        got = fact.solve(f, g)
        want = oracle_solve(sysm, f, dirichlet=g)
        assert np.abs(got - want).max() < 1e-9 * max(1, np.abs(want).max())


MULTI_RHS_MESHES = {
    "2x2": lambda: build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=6),
    "1d": lambda: build_mesh((0.0, 2.0), 2, p=9),
    # leaves at different depths: a level's children differ in shape
    "5x3": lambda: build_mesh(((0.0, 5.0), (0.0, 3.0)), 5, 3, p=7),
}


@pytest.mark.parametrize("mesh_name", list(MULTI_RHS_MESHES))
@pytest.mark.parametrize("variable", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("route", ["plain", "penalty", "penalty-only"])
def test_multi_rhs_matches_stacked_single(mesh_name, variable, route):
    mesh = MULTI_RHS_MESHES[mesh_name]()
    if variable:
        op = EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y=0.0: 1 + x * x + y * y)
    else:
        op = shifted_laplace()
    fact = build_factorization(mesh, op)
    assert len(fact.leaf_ops.P) == (mesh.n_leaves if variable else 1)
    rng = np.random.default_rng(4)
    F = rng.standard_normal((3, mesh.n_nodes))
    G = rng.standard_normal((3, fact.gamma_ids.size))
    P = rng.standard_normal((3, mesh.n_nodes)) if route != "plain" else None
    if route == "penalty-only":  # the penalty field alone drives the solve
        F, G = np.zeros_like(F), np.zeros_like(G)
    pen = None if P is None else edge_fluxes(mesh, P) / 0.1
    got = fact.solve(F, G, penalty=pen)
    assert got.shape == (3, mesh.n_nodes)
    scale = np.abs(got).max() if P is not None else 1.0  # penalty jumps carry 1/dt
    for i in range(3):
        want = fact.solve(F[i], G[i], penalty=None if P is None else edge_fluxes(mesh, P[i]) / 0.1)
        np.testing.assert_allclose(got[i], want, rtol=0, atol=1e-12 * scale)


def test_solve_rejects_mismatched_rows():
    mesh = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=6)
    fact = build_factorization(mesh, shifted_laplace())
    F = np.zeros((3, mesh.n_nodes))
    G = np.zeros((3, fact.gamma_ids.size))
    with pytest.raises(ValueError, match="dirichlet has 2 rows, expected 3"):
        fact.solve(F, G[:2])
    with pytest.raises(ValueError, match="penalty has 1 rows, expected 3"):
        fact.solve(F, G, penalty=edge_fluxes(mesh, np.zeros(mesh.n_nodes)) / 0.1)
    with pytest.raises(ValueError, match="load: expected shape"):
        fact.solve(np.zeros(mesh.n_nodes + 1), G[0])
    with pytest.raises(ValueError, match="dirichlet: expected shape"):
        fact.solve(F, np.zeros((3, 1, fact.gamma_ids.size)))


def test_condition_per_block_shape():
    mesh = build_mesh(((0.0, 5.0), (0.0, 3.0)), 5, 3, p=7)
    fact = build_factorization(mesh, shifted_laplace())
    assert (1, 1) in fact.condition and len(fact.condition) == len(fact.levels) + 1
    assert all(1.0 <= c < 1e14 for c in fact.condition.values())


def test_solution_interpolates_smooth_data():
    # spectral convergence sanity on a 4x2 tree, exact solution known
    errs = []
    for p in (6, 10):
        mesh = build_mesh(((0.0, 2.0), (0.0, 1.0)), 4, 2, p=p)
        u = np.sin(np.pi * mesh.x) * np.sin(np.pi * mesh.y)
        f = (1 + 2 * np.pi**2) * u
        fact = build_factorization(mesh, shifted_laplace())
        g = u[fact.gamma_ids]
        errs.append(np.abs(fact.solve(f, g) - u).max())
    assert errs[1] < 1e-4 * errs[0]


def leaf_flux_jumps(mesh, field):
    """Max interface jump of one-sided edge-normal derivatives."""
    F = flux_matrix(mesh)
    Fi, Fb = F[:, mesh.interior_local], F[:, mesh.edge_local]
    flat = mesh.leaf_grid.reshape(mesh.n_leaves, -1)
    jump = np.zeros(mesh.n_nodes)
    seen = np.zeros(mesh.n_nodes, dtype=bool)
    for l in range(mesh.n_leaves):
        ii = flat[l, mesh.interior_local]
        bb = flat[l, mesh.edge_local]
        flux = Fi @ field[ii] + Fb @ field[bb]
        sel = mesh.node_class[bb] == INTERFACE
        ids = bb[sel]
        vals = flux[sel]
        jump[ids[seen[ids]]] -= vals[seen[ids]]
        jump[ids[~seen[ids]]] += vals[~seen[ids]]
        seen[ids] = True
    return jump


@pytest.mark.parametrize("dim", [1, 2, "5x3-variable"])
def test_penalized_interface_condition(dim):
    # the corrected solve must carry -(1/dt) * [[flux(penalty)]] as its
    # own interface flux jump: stage sums with unit weight then cancel
    # the penalty field's kink
    op = laplace_operator()
    if dim == 1:
        mesh = build_mesh((0.0, 2.0), 2, p=12)
        kink = 1.0 - np.abs(mesh.x - 1.0)
        smooth = np.sin(np.pi * mesh.x / 2)
    else:
        # unit leaves: kinks along every interface line x = 1, 2, .. and y = 1, ..
        n1, n2 = (3, 2) if dim == 2 else (5, 3)
        mesh = build_mesh(((0.0, float(n1)), (0.0, float(n2))), n1, n2, p=12)
        kink = np.abs(np.sin(np.pi * mesh.x)) + np.abs(np.sin(np.pi * mesh.y))
        smooth = np.sin(mesh.x) * np.cos(mesh.y)
        if dim != 2:  # full stacks on a tree whose levels' children differ in shape
            op = PENALTY_OPERATORS["variable"]
    dt = 0.05
    op = op.shifted(sigma=1.0, scale=dt)
    fact = build_factorization(mesh, op)
    f = np.zeros(mesh.n_nodes)
    g = np.zeros(fact.gamma_ids.size)
    sol = fact.solve(f, g, penalty=edge_fluxes(mesh, kink) / dt)
    jump_sol = leaf_flux_jumps(mesh, sol)
    jump_pen = leaf_flux_jumps(mesh, kink)
    mid = mesh.ids_of(INTERFACE)
    np.testing.assert_allclose(jump_sol[mid], -jump_pen[mid] / dt, rtol=1e-10)
    # and a smooth penalty field leaves the solve essentially unchanged
    plain = fact.solve(f, g)
    pen = fact.solve(f, g, penalty=edge_fluxes(mesh, smooth) / dt)
    assert np.abs(plain - pen).max() < 1e-8


def test_penalty_takes_edge_fluxes_not_a_field():
    # the penalty is the leaves' edge fluxes over dt, not a nodal field
    mesh = build_mesh((0.0, 1.0), 2, p=5)
    fact = build_factorization(mesh, shifted_laplace())
    with pytest.raises(ValueError, match=r"penalty: expected shape \(2, 2\) or \(k, 2, 2\)"):
        fact.solve(np.zeros(mesh.n_nodes), np.zeros(2), penalty=np.zeros(mesh.n_nodes))


PENALTY_MESHES = {
    "1d": lambda: build_mesh((0.0, 2.0), 3, p=9),
    "2d": lambda: build_mesh(((0.0, 3.0), (0.0, 2.0)), 3, 2, p=7),
}
PENALTY_OPERATORS = {  # 1D meshes sample the coefficients at x alone
    "constant": laplace_operator(),
    "variable": EllipticOperator(
        c11=lambda x, y=0.0: 1.0 + 0.3 * np.sin(x) + 0.2 * y,
        c22=lambda x, y=0.0: 1.5 - 0.1 * y,
        c1=lambda x, y=0.0: 0.4 + 0.3 * y,
        c0=lambda x, y=0.0: 1.0 + x * x,
    ),
}


@pytest.mark.parametrize("mesh_name", PENALTY_MESHES)
@pytest.mark.parametrize("op_name", list(PENALTY_OPERATORS) + ["complex-penalty"])
def test_penalty_route_is_linear(mesh_name, op_name):
    # the penalty only adds its flux jumps to the interface conditions, so
    # a penalized solve is the plain solve plus the penalty's own response;
    # a complex penalty field on a real load and operator gives a complex field
    mesh = PENALTY_MESHES[mesh_name]()
    dt = 0.05
    op = PENALTY_OPERATORS.get(op_name, PENALTY_OPERATORS["variable"])
    fact = build_factorization(mesh, op.shifted(1.0, dt))
    rng = np.random.default_rng(3)
    f, g = random_data(mesh, rng)
    pen = rng.standard_normal(mesh.n_nodes)
    if op_name == "complex-penalty":
        pen = pen + 1j * rng.standard_normal(mesh.n_nodes)
    flux = edge_fluxes(mesh, pen) / dt
    got = fact.solve(f, g, penalty=flux)
    assert got.dtype == pen.dtype
    want = fact.solve(f, g) + fact.solve(0 * f, 0 * g, penalty=flux)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("mesh_name", MULTI_RHS_MESHES)
def test_boundary_data_in_mesh_order(mesh_name):
    # one order for boundary data everywhere: ascending node id
    mesh = MULTI_RHS_MESHES[mesh_name]()
    fact = build_factorization(mesh, shifted_laplace())
    np.testing.assert_array_equal(fact.gamma_ids, mesh.ids_of(BOUNDARY))


def test_identity_operator_tree_is_solvable():
    # the continuity system: identity rows inside, derivative matching at
    # interfaces; smooth interior data reproduces the smooth field
    from hpstep.operators import identity_operator

    mesh = build_mesh(((0.0, 2.0), (0.0, 2.0)), 2, 2, p=10)
    fact = build_factorization(mesh, identity_operator())
    u = np.sin(mesh.x) * np.cos(mesh.y)
    got = fact.solve(u, u[fact.gamma_ids])
    assert np.abs(got - u).max() < 1e-8


def test_root_passes_no_fluxes_up():
    # nothing reads the root's outer fluxes: it has no slots and no flux correction
    mesh = build_mesh(((0.0, 2.0), (0.0, 1.0)), 5, 3, p=6)
    fact = build_factorization(mesh, shifted_laplace())
    plan = mesh.merge_plan
    root = plan.levels[-1]
    assert root.ext.size == 0 and fact.levels[-1].C.shape[1] == 0
    assert plan.n_flux == root.start


def variable_factorization():
    mesh = build_mesh(((0.0, 4.0), (0.0, 2.0)), 4, 2, p=6)
    op = EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: 1 + x * x + y * y)
    return build_factorization(mesh, op.shifted(1.0, 0.1 + 0.2j))


LAYOUT_MESHES = {
    "1d": lambda: build_mesh((0.0, 3.0), 6, p=7),
    "2d": lambda: build_mesh(((0.0, 5.0), (0.0, 3.0)), 5, 3, p=6),
}


@pytest.mark.parametrize("mesh_name", LAYOUT_MESHES)
@pytest.mark.parametrize("op_name", PENALTY_OPERATORS)
def test_stored_tables_and_stacks_are_c_contiguous(mesh_name, op_name):
    # one memory order for everything the solve reads: every id and slot
    # table (one row per block) and every stack, shared or full, is C-ordered,
    # so a take through a table hands the products C-ordered rows
    mesh = LAYOUT_MESHES[mesh_name]()
    fact = build_factorization(mesh, PENALTY_OPERATORS[op_name].shifted(1.0, 0.05))
    plan = mesh.merge_plan
    holders = {"plan": plan}
    holders |= {f"plan level {i}": lv for i, lv in enumerate(plan.levels)}
    holders |= {f"level {i}": lv for i, lv in enumerate(fact.levels)}
    stored = {"leaf P": fact.leaf_ops.P, "leaf G": fact.leaf_ops.G}
    for where, obj in holders.items():
        for f in dataclasses.fields(obj):
            if isinstance(getattr(obj, f.name), np.ndarray):
                stored[f"{where} {f.name}"] = getattr(obj, f.name)
    assert [name for name, a in stored.items() if not a.flags.c_contiguous] == []
    # the tables have rows to lay out, and the stacks are the kind the case names
    assert max(len(lv.ia) for lv in plan.levels) > 1
    blocks = [len(fact.leaf_ops.P)] + [len(lv.inv_X) for lv in fact.levels]
    if op_name == "constant":
        assert blocks == [1] * len(blocks)
    else:
        assert blocks == [mesh.n_leaves] + [len(lv.ia) for lv in plan.levels]


def test_mesh_and_plan_tables_are_read_only():
    # factorizations on one mesh share its tables, so no caller may write into them
    mesh = build_mesh(((0.0, 2.0), (0.0, 1.0)), 2, 1, p=6)
    build_factorization(mesh, shifted_laplace())
    plan = mesh.merge_plan
    for table in (mesh.leaf_grid, mesh.owner_slots, plan.levels[0].ia):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    tables = [getattr(o, f.name) for o in (mesh, plan, *plan.levels) for f in dataclasses.fields(o)]
    assert [a for a in tables if isinstance(a, np.ndarray) and a.flags.writeable] == []


PLAN_MESHES = {  # a mesh and the spatial operator it is factored with at two dt
    "1d": (lambda: build_mesh((0.0, 2.0), 7, p=9), PENALTY_OPERATORS["variable"]),
    "4x3": (lambda: build_mesh(((0.0, 4.0), (0.0, 3.0)), 4, 3, p=9), laplace_operator()),
    "5x3-variable-complex": (
        lambda: build_mesh(((0.0, 5.0), (0.0, 3.0)), 5, 3, p=6),
        EllipticOperator(c11=1.0, c22=1.0, c0=lambda x, y: 1 + x * x + 0.5j * y),
    ),
    "1x1": (lambda: build_mesh(((0.0, 1.0), (0.0, 1.0)), 1, 1, p=9), laplace_operator()),
}


@pytest.mark.parametrize("mesh_name", PLAN_MESHES)
def test_factorizations_on_one_mesh_share_its_plan(mesh_name):
    make_mesh, op = PLAN_MESHES[mesh_name]
    mesh = make_mesh()
    dts = (0.05, 0.2)
    first, second = (build_factorization(mesh, op.shifted(1.0, dt)) for dt in dts)
    # both read the one plan the first build laid out: no copies
    plan = mesh.merge_plan
    assert first.mesh is second.mesh is mesh
    assert first.gamma_ids is second.gamma_ids is plan.gamma_ids
    assert len(first.levels) == len(second.levels) == len(plan.levels)
    # and each equals, bit for bit, a factorization on a freshly built mesh
    f, g = random_data(mesh, np.random.default_rng(7), complex)
    for dt, fact in zip(dts, (first, second)):
        fresh = build_factorization(make_mesh(), op.shifted(1.0, dt))
        assert plan.n_flux == fresh.mesh.merge_plan.n_flux and fact.condition == fresh.condition
        assert len(fact.levels) == len(fresh.levels)
        for a, b in zip(fact.levels, fresh.levels):
            for name in ("inv_X", "S", "C"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(fact.solve(f, g), fresh.solve(f, g))


def reachable_arrays(obj, skip):
    """Every distinct array reachable from `obj` through lists, tuples,
    dicts and instance attributes; objects in `skip` are not entered."""
    seen = {id(s) for s in skip}
    arrays, stack = [], [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            arrays.append(o)
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif hasattr(o, "__dict__"):
            stack.extend(vars(o).values())
    return arrays


@pytest.mark.parametrize("mesh_name", ["1d", "4x3", "5x3-variable-complex"])
def test_factorization_holds_no_index_table(mesh_name):
    # the mesh's merge plan is the one holder of index tables; the
    # factorization stores only the numbers of its operators
    make_mesh, op = PLAN_MESHES[mesh_name]
    fact = build_factorization(make_mesh(), op.shifted(1.0, 0.1))
    arrays = reachable_arrays(fact, skip=(fact.mesh,))
    assert len(arrays) > 2 * len(fact.levels)
    assert [a.dtype for a in arrays if a.dtype.kind in "biu"] == []


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("order", ["C", "F"])
def test_apply_full_stack_matches_per_block(k, order):
    fact = variable_factorization()
    rng = np.random.default_rng(k)
    for A in [fact.leaf_ops.P, fact.leaf_ops.G] + [lv.C for lv in fact.levels if len(lv.C) > 1]:
        m, _, n = A.shape
        x = rng.standard_normal((k, m, n)) + 1j * rng.standard_normal((k, m, n))
        x = np.asarray(x, order=order)  # F order: the block axis moves fastest
        got = _apply(A, x)
        want = np.einsum("mij,kmj->kmi", A, x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("k", [1, 3])
def test_apply_shared_stack_is_one_gemm(k):
    fact = build_factorization(build_mesh(((0.0, 2.0), (0.0, 2.0)), 2, 2, p=6), shifted_laplace())
    rng = np.random.default_rng(0)
    stacks = [fact.leaf_ops.P, fact.leaf_ops.G]
    stacks += [getattr(lv, name) for lv in fact.levels for name in ("inv_X", "S", "C")]
    for A in stacks:
        assert len(A) == 1
        x = rng.standard_normal((k, 4, A.shape[2]))
        np.testing.assert_array_equal(_apply(A, x), x @ A[0].T)
