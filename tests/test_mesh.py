from __future__ import annotations

import numpy as np
import pytest

from hpstep.mesh import (
    BOUNDARY,
    INTERFACE,
    INTERIOR,
    Mesh,
    build_mesh,
)


def expected_node_count(n1: int, n2: int | None, p: int) -> int:
    """Closed-form active node count, the reference for the mesh builder.

    In 2D: (p - 2)**2 interior nodes per leaf plus p - 2 on each of the
    (n1 + 1) * n2 + (n2 + 1) * n1 leaf edges; corners are never allocated.
    """
    if n2 is None:
        return n1 * (p - 1) + 1
    return (p - 2) * (p * n1 * n2 + n1 + n2)


def test_counts_worked_example():
    m = build_mesh(((0.0, 3.0), (0.0, 2.0)), 3, 2, p=7)
    assert m.n_nodes == 235
    assert m.n_nodes == expected_node_count(3, 2, 7)
    n_interior = m.ids_of(INTERIOR).size
    assert n_interior == 6 * 25  # (p-2)^2 per leaf
    assert n_interior + m.ids_of(INTERFACE).size + m.ids_of(BOUNDARY).size == 235


@pytest.mark.parametrize("n1,n2,p", [(1, 1, 5), (2, 1, 5), (2, 2, 7), (4, 3, 6)])
def test_counts_closed_form(n1, n2, p):
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), n1, n2, p=p)
    assert m.n_nodes == expected_node_count(n1, n2, p)


@pytest.mark.parametrize("n1,p", [(1, 4), (3, 5), (8, 16)])
def test_counts_1d(n1, p):
    m = build_mesh((0.0, 2.0), n1, p=p)
    assert m.n_nodes == expected_node_count(n1, None, p)
    assert m.ids_of(BOUNDARY).size == 2
    assert m.ids_of(INTERFACE).size == n1 - 1
    assert m.ids_of(INTERIOR).size == n1 * (p - 2)


def test_corner_slots_never_allocated():
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=5)
    for l in range(m.n_leaves):
        g = m.leaf_grid[l]
        for iy in (0, -1):
            for ix in (0, -1):
                assert g[iy, ix] == -1
    # every non-corner slot is a real id, and ids cover exactly 0..N-1
    ids = m.leaf_grid[m.leaf_grid >= 0]
    assert set(ids.tolist()) == set(range(m.n_nodes))


def test_shared_edge_nodes_coincide():
    # the shared edge is stored once; rebuilding its coordinates from
    # either neighbouring leaf's box must agree to roundoff
    m = build_mesh(((0.0, 2.0), (0.0, 1.0)), 2, 1, p=9)
    left, right = m.leaf_grid[0], m.leaf_grid[1]
    shared_l = left[1:-1, -1]
    shared_r = right[1:-1, 0]
    np.testing.assert_array_equal(shared_l, shared_r)
    from hpstep.chebyshev import cheb_nodes

    xi01 = (cheb_nodes(9) + 1.0) / 2.0
    from_left = m.leaf_boxes[0][0] + xi01[-1] * m.hx
    from_right = m.leaf_boxes[1][0] + xi01[0] * m.hx
    assert abs(from_left - from_right) < 1e-14
    np.testing.assert_allclose(m.x[shared_l], from_left, atol=1e-14)


def test_node_classes_2x2():
    m = build_mesh(((-1.0, 1.0), (-1.0, 1.0)), 2, 2, p=5)
    boundary = m.ids_of(BOUNDARY)
    # interface nodes: two interior edge lines of 2 leaves each, minus crossings
    assert m.ids_of(INTERFACE).size == (5 - 2) * 2 * 2
    assert boundary.size == (5 - 2) * 2 * 4
    on_gamma = (
        np.isclose(np.abs(m.x), 1.0) | np.isclose(np.abs(m.y), 1.0)
    )
    np.testing.assert_array_equal(np.nonzero(on_gamma)[0], np.sort(boundary))


def test_interface_owner_count():
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 3, 2, p=5)
    assert set(m.owner_count[m.node_class == INTERFACE]) == {2}
    assert set(m.owner_count[m.node_class != INTERFACE]) == {1}
    # cross-check against leaf_grid multiplicity
    counts = np.zeros(m.n_nodes, dtype=int)
    ids, mult = np.unique(m.leaf_grid[m.leaf_grid >= 0], return_counts=True)
    counts[ids] = mult
    np.testing.assert_array_equal(counts, m.owner_count)


def test_local_index_sets_order():
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 1, 1, p=5)
    p = 5
    # S, E, N, W, ascending along each edge
    expect = [1, 2, 3, 9, 14, 19, 21, 22, 23, 5, 10, 15]
    np.testing.assert_array_equal(m.edge_local, expect)
    assert m.interior_local.tolist() == [6, 7, 8, 11, 12, 13, 16, 17, 18]


def test_single_leaf_has_no_interface():
    m = build_mesh(((0.0, 1.0), (0.0, 1.0)), 1, 1, p=6)
    assert m.ids_of(INTERFACE).size == 0
    assert m.n_nodes == 6 * 6 - 4


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_mesh(((0.0, 1.0), (0.0, 1.0)), 2, 2, p=2)
    with pytest.raises(ValueError):
        build_mesh((1.0, 0.0), 2, p=5)
    with pytest.raises(ValueError):
        build_mesh(((0.0, 1.0), (0.0, 1.0)), 0, 2, p=5)
