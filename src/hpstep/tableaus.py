"""Additive Runge-Kutta tableau pairs and their validation suite.

Each pair couples a stiffly accurate, L-stable, singly-diagonal implicit
table (explicit first stage, constant diagonal gamma afterwards) with an
explicit table sharing the same abscissae and quadrature weights. The
three pairs embedded here are the classical order 3, 4 and 5 members of
the Kennedy-Carpenter additive family, written as exact rationals.

`load_tableau` validates every structural invariant the first time a
pair is asked for in a process: row sums, the rooted-tree order
conditions through the design order of each table and of the pair,
stiff accuracy, strict lower-triangularity of the explicit table, and
decay of the implicit stability function far in the left half-plane.
Moves along the pair's remaining free parameters (5 directions of the
order-4 explicit table) keep order q and pass them; only the numbers
ledger's `tableau-q*` records see those. The pair is then cached
read-only, so later callers step with the checked coefficients.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np


@dataclass(frozen=True)
class ImexTableau:
    """One implicit/explicit tableau pair with shared b and c."""

    name: str
    order: int
    gamma: float
    A_im: np.ndarray = field(repr=False)
    A_ex: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    @property
    def stages(self) -> int:
        return self.b.size


def _pair(name: str, order: int, gamma: float, A_im, A_ex, b, c) -> ImexTableau:
    """The pair with its coefficient lists as read-only arrays, so that a
    table `load_tableau` has checked and cached cannot change later."""
    arrays = [np.array(v) for v in (A_im, A_ex, b, c)]
    for a in arrays:
        a.flags.writeable = False
    return ImexTableau(name, order, gamma, *arrays)


def _ark3() -> ImexTableau:
    g = 1767732205903 / 4055673282236
    b = [
        1471266399579 / 7840856788654,
        -4482444167858 / 7529755066697,
        11266239266428 / 11593286722821,
        g,
    ]
    A_im = [
        [0, 0, 0, 0],
        [g, g, 0, 0],
        [2746238789719 / 10658868560708, -640167445237 / 6845629431997, g, 0],
        b[:3] + [g],
    ]
    A_ex = [
        [0, 0, 0, 0],
        [2 * g, 0, 0, 0],
        [5535828885825 / 10492691773637, 788022342437 / 10882634858940, 0, 0],
        [
            6485989280629 / 16251701735622,
            -4246266847089 / 9704473918619,
            10755448449292 / 10357097424841,
            0,
        ],
    ]
    c = [0.0, 2 * g, 3 / 5, 1.0]
    return _pair("additive-3(2)4", 3, g, A_im, A_ex, b, c)


def _ark4() -> ImexTableau:
    g = 1 / 4
    b = [82889 / 524892, 0, 15625 / 83664, 69875 / 102672, -2260 / 8211, g]
    A_im = [
        [0, 0, 0, 0, 0, 0],
        [g, g, 0, 0, 0, 0],
        [8611 / 62500, -1743 / 31250, g, 0, 0, 0],
        [5012029 / 34652500, -654441 / 2922500, 174375 / 388108, g, 0, 0],
        [
            15267082809 / 155376265600,
            -71443401 / 120774400,
            730878875 / 902184768,
            2285395 / 8070912,
            g,
            0,
        ],
        b[:5] + [g],
    ]
    A_ex = [
        [0, 0, 0, 0, 0, 0],
        [1 / 2, 0, 0, 0, 0, 0],
        [13861 / 62500, 6889 / 62500, 0, 0, 0, 0],
        [
            -116923316275 / 2393684061468,
            -2731218467317 / 15368042101831,
            9408046702089 / 11113171139209,
            0,
            0,
            0,
        ],
        [
            -451086348788 / 2902428689909,
            -2682348792572 / 7519795681897,
            12662868775082 / 11960479115383,
            3355817975965 / 11060851509271,
            0,
            0,
        ],
        [
            647845179188 / 3216320057751,
            73281519250 / 8382639484533,
            552539513391 / 3454668386233,
            3354512671639 / 8306763924573,
            4040 / 17871,
            0,
        ],
    ]
    c = [0.0, 1 / 2, 83 / 250, 31 / 50, 17 / 20, 1.0]
    return _pair("additive-4(3)6", 4, g, A_im, A_ex, b, c)


def _ark5() -> ImexTableau:
    g = 41 / 200
    b = [
        -872700587467 / 9133579230613,
        0,
        0,
        22348218063261 / 9555858737531,
        -1143369518992 / 8141816002931,
        -39379526789629 / 19018526304540,
        32727382324388 / 42900044865799,
        g,
    ]
    A_im = [
        [0] * 8,
        [g, g, 0, 0, 0, 0, 0, 0],
        [41 / 400, -567603406766 / 11931857230679, g, 0, 0, 0, 0, 0],
        [
            683785636431 / 9252920307686,
            0,
            -110385047103 / 1367015193373,
            g,
            0,
            0,
            0,
            0,
        ],
        [
            3016520224154 / 10081342136671,
            0,
            30586259806659 / 12414158314087,
            -22760509404356 / 11113319521817,
            g,
            0,
            0,
            0,
        ],
        [
            218866479029 / 1489978393911,
            0,
            638256894668 / 5436446318841,
            -1179710474555 / 5321154724896,
            -60928119172 / 8023461067671,
            g,
            0,
            0,
        ],
        [
            1020004230633 / 5715676835656,
            0,
            25762820946817 / 25263940353407,
            -2161375909145 / 9755907335909,
            -211217309593 / 5846859502534,
            -4269925059573 / 7827059040749,
            g,
            0,
        ],
        b[:7] + [g],
    ]
    A_ex = [
        [0] * 8,
        [41 / 100, 0, 0, 0, 0, 0, 0, 0],
        [
            367902744464 / 2072280473677,
            677623207551 / 8224143866563,
            0,
            0,
            0,
            0,
            0,
            0,
        ],
        [
            1268023523408 / 10340822734521,
            0,
            1029933939417 / 13636558850479,
            0,
            0,
            0,
            0,
            0,
        ],
        [
            14463281900351 / 6315353703477,
            0,
            66114435211212 / 5879490589093,
            -54053170152839 / 4284798021562,
            0,
            0,
            0,
            0,
        ],
        [
            14090043504691 / 34967701212078,
            0,
            15191511035443 / 11219624916014,
            -18461159152457 / 12425892160975,
            -281667163811 / 9011619295870,
            0,
            0,
            0,
        ],
        [
            19230459214898 / 13134317526959,
            0,
            21275331358303 / 2942455364971,
            -38145345988419 / 4862620318723,
            -1 / 8,
            -1 / 8,
            0,
            0,
        ],
        [
            -19977161125411 / 11928030595625,
            0,
            -40795976796054 / 6384907823539,
            177454434618887 / 12078138498510,
            782672205425 / 8267701900261,
            -69563011059811 / 9646580694205,
            7356628210526 / 4942186776405,
            0,
        ],
    ]
    c = [
        0.0,
        41 / 100,
        2935347310677 / 11292855782101,
        1426016391358 / 7196633302097,
        92 / 100,
        24 / 100,
        3 / 5,
        1.0,
    ]
    return _pair("additive-5(4)8", 5, g, A_im, A_ex, b, c)


_BUILDERS = {3: _ark3, 4: _ark4, 5: _ark5}


def rooted_trees(order: int, tables: int) -> list[tuple]:
    """Each rooted tree of 1..order vertices whose non-root vertices carry
    one of `tables` tables: the sorted tuple of the root's (table, children)."""
    def grow(kids):  # each tree with one vertex more
        new = [kids + ((k, ()),) for k in range(tables)]
        for i, (k, sub) in enumerate(kids):
            new += [kids[:i] + ((k, g),) + kids[i + 1 :] for g in grow(sub)]
        return [tuple(sorted(t)) for t in new]
    trees, level = [()], {()}
    for _ in range(order - 1):
        level = {t for tree in level for t in grow(tree)}
        trees += sorted(level)
    return trees


def order_condition_residuals(tables: list[np.ndarray], b: np.ndarray, order: int) -> np.ndarray:
    """b.Phi(t) - 1/gamma(t) for each tree t of `rooted_trees(order, len(tables))`:
    the order conditions of the additive method whose k-th term enters the
    stages through tables[k] (Hairer, Norsett & Wanner, ODEs I, II.2, II.15)."""
    def weight(kids):  # Phi(t), |t| and gamma(t) of the tree with these root children
        phi, size, density = np.ones(b.size), 1, 1
        for k, sub in kids:
            p, n, g = weight(sub)
            phi, size, density = phi * (tables[k] @ p), size + n, density * g
        return phi, size, density * size
    weights = (weight(t) for t in rooted_trees(order, len(tables)))
    return np.array([b @ phi - 1 / density for phi, _, density in weights])


def stability_function(A: np.ndarray, b: np.ndarray, z) -> np.ndarray:
    """R(z) = 1 + z b^T (I - z A)^{-1} 1, vectorized over z."""
    z_arr = np.asarray(z, dtype=complex)
    s = b.size
    one = np.ones(s)
    out = np.empty(z_arr.shape, dtype=complex)
    for i, zi in np.ndenumerate(z_arr):
        out[i] = 1.0 + zi * (b @ np.linalg.solve(np.eye(s) - zi * A, one))
    return out if out.ndim else out[()]


@cache
def load_tableau(order: int) -> ImexTableau:
    """Return the validated pair of the given design order (3, 4 or 5),
    built and checked once per process."""
    try:
        tab = _BUILDERS[order]()
    except KeyError:
        raise ValueError(f"no tableau of order {order}; choose 3, 4 or 5") from None
    _validate(tab)
    return tab


def _conditions(tab: ImexTableau) -> list[tuple[str, float, float]]:
    """The order conditions of each table and of the pair, stiff accuracy, a
    strictly lower explicit table and damping far out on the negative axis,
    as (name, value, bound); each holds when value <= bound."""
    q, A_im, A_ex, b = tab.order, tab.A_im, tab.A_ex, tab.b
    orders = [
        (label, float(np.abs(order_condition_residuals(tables, b, q)).max()))
        for label, tables in (("implicit", [A_im]), ("explicit", [A_ex]), ("coupled", [A_im, A_ex]))
    ]
    return [(f"q{q} {label} order conditions", r, 1e-12) for label, r in orders] + [
        (f"q{q} stiff accuracy", float(np.abs(A_im[-1] - b).max()), 0.0),
        (f"q{q} explicit strictly lower", float(np.abs(np.triu(A_ex, 0)).max()), 0.0),
        (f"q{q} damping at -1e8", float(np.abs(stability_function(A_im, b, -1e8))), 1e-6),
    ]


def _validate(tab: ImexTableau) -> None:
    s = tab.stages
    A_im, A_ex, c = tab.A_im, tab.A_ex, tab.c

    def check(cond: bool, what: str) -> None:
        if not cond:
            raise ValueError(f"tableau {tab.name}: {what}")

    check(A_im.shape == (s, s) and A_ex.shape == (s, s) and c.shape == (s,), "shape")
    check(c[0] == 0.0 and not A_im[0].any(), "first stage must be explicit")
    diag = np.diag(A_im)
    check(np.all(diag[1:] == tab.gamma), "implicit diagonal must be constant")
    check(np.allclose(np.triu(A_im, 1), 0.0, atol=0), "implicit table not lower")
    check(np.abs(A_im.sum(axis=1) - c).max() < 1e-12, "implicit row sums differ from c")
    check(np.abs(A_ex.sum(axis=1) - c).max() < 1e-12, "explicit row sums differ from c")
    for name, value, bound in _conditions(tab):
        check(value <= bound, f"{name} at {value:.2e}, bound {bound:.1e}")

