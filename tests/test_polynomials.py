from fractions import Fraction as F

import pytest

from airyqc import (
    CorrelatorTable,
    HalfPowerPoly,
    Omega_base,
    Omega_from_correlators,
    Omega_step,
    Omega_step_dw0,
    SparseSymPoly,
    calD_op,
    d_bridge_holds,
    d_op,
    omega_base,
    omega_from_Omega,
    omega_from_correlators,
    omega_step,
    poly_orbit_records,
    poly_text,
    tW_from_correlators,
    verify_d_lemma,
)
from airyqc.correlators import shell_cells

from _oracles import correlator_cell, from_expanded

# Golden orbit tables.  Four displayed tables are known misprints and are
# encoded here as recomputed from the recursion itself: omega_{0,4} carries
# an overall 3, omega_{0,6} has prefactor prod w_i (not prod w_i^2),
# Omega_{1,3} carries (w1 w2 w3)^(1/2) in the numerator, and Omega_{0,5}
# runs all indices over five variables.  The two-point genus-2 tables as
# printed (3465/128 and 6699/128) disagree with the recursion they
# accompany; the values below follow the recursion (equivalently
# <tau_4 tau_1>_2 = 1/384 and <tau_3 tau_2>_2 = 29/5760).
TW_GOLD = {
    (0, 3): {(0, 0, 0): F(1)},
    (0, 4): {(1, 0, 0, 0): F(3)},
    (0, 5): {(2, 0, 0, 0, 0): F(15), (1, 1, 0, 0, 0): F(18)},
    (0, 6): {(3, 0, 0, 0, 0, 0): F(105), (2, 1, 0, 0, 0, 0): F(135), (1, 1, 1, 0, 0, 0): F(162)},
    (1, 1): {(1,): F(1, 8)},
    (1, 2): {(2, 0): F(5, 8), (1, 1): F(3, 8)},
    (1, 3): {(3, 0, 0): F(35, 8), (2, 1, 0): F(30, 8), (1, 1, 1): F(18, 8)},
    (2, 1): {(4,): F(105, 128)},
    (2, 2): {(5, 0): F(1155, 128), (4, 1): F(945, 128), (3, 2): F(1015, 128)},
}

OMEGA_GOLD = {
    (0, 3): {(1, 1, 1): F(1)},
    (0, 4): {(2, 1, 1, 1): F(3)},
    (0, 5): {(3, 1, 1, 1, 1): F(15), (2, 2, 1, 1, 1): F(18)},
    (0, 6): {(4, 1, 1, 1, 1, 1): F(105), (3, 2, 1, 1, 1, 1): F(135), (2, 2, 2, 1, 1, 1): F(162)},
    (1, 1): {(2,): F(1, 8)},
    (1, 2): {(3, 1): F(5, 8), (2, 2): F(3, 8)},
    (1, 3): {(4, 1, 1): F(35, 8), (3, 2, 1): F(15, 4), (2, 2, 2): F(9, 4)},
    (2, 1): {(5,): F(105, 128)},
    (2, 2): {(6, 1): F(1155, 128), (5, 2): F(945, 128), (4, 3): F(1015, 128)},
}

BIG_OMEGA_GOLD = {
    (0, 3): {(1, 1, 1): F(1)},
    (0, 4): {(3, 1, 1, 1): F(1)},
    (0, 5): {(5, 1, 1, 1, 1): F(3), (3, 3, 1, 1, 1): F(2)},
    (1, 1): {(3,): F(1, 24)},
    (1, 2): {(5, 1): F(1, 8), (3, 3): F(1, 24)},
    (1, 3): {(7, 1, 1): F(5, 8), (5, 3, 1): F(1, 4), (3, 3, 3): F(1, 12)},
}


@pytest.mark.parametrize("tau1", [F(1, 24), F(1, 23)])
def test_builders_read_the_memo_ints_as_the_correlator_path(tau1):
    # every cell to chi 9, built from the memo ints and by one correlator()
    # read per key, each on its own fresh table: the same cells, and the
    # same memo hits and misses in the same order
    ints, fractions = CorrelatorTable(tau1=tau1), CorrelatorTable(tau1=tau1)
    builders = (
        (tW_from_correlators, SparseSymPoly, 1, tuple),
        (omega_from_correlators, SparseSymPoly, 1, lambda a: tuple(x + 1 for x in a)),
        (Omega_from_correlators, HalfPowerPoly, -1, lambda a: tuple(2 * x + 1 for x in a)),
    )
    for g, n in shell_cells(1, 9):
        for build, cls, shift, exponents in builders:
            assert build(g, n, ints) == correlator_cell(g, n, fractions, cls, shift, exponents), (build, g, n)
            assert (ints.hits, ints.misses) == (fractions.hits, fractions.misses), (build, g, n)


def test_cell_values_rejects_a_bool_genus_and_an_unknown_shift():
    table = CorrelatorTable()
    with pytest.raises(ValueError, match="genus must be a non-negative integer"):
        omega_from_correlators(True, 1, table)
    for shift in (3, True):
        with pytest.raises(ValueError, match="shift must be 1 or -1"):
            list(table.cell_values(1, 1, shift))


@pytest.mark.parametrize("cell", sorted(TW_GOLD))
def test_tW_tables(table, cell):
    assert tW_from_correlators(*cell, table).orbits == TW_GOLD[cell]


@pytest.mark.parametrize("cell", sorted(OMEGA_GOLD))
def test_omega_tables(table, cell):
    assert omega_from_correlators(*cell, table).orbits == OMEGA_GOLD[cell]


@pytest.mark.parametrize("cell", sorted(BIG_OMEGA_GOLD))
def test_Omega_tables(table, cell):
    assert Omega_from_correlators(*cell, table).orbits == BIG_OMEGA_GOLD[cell]


def test_homogeneity(table):
    for g, n in shell_cells(1, 6):
        assert omega_from_correlators(g, n, table).homogeneous_degree() == 3 * g - 3 + 2 * n
        assert Omega_from_correlators(g, n, table).homogeneous_degree() == 6 * g - 6 + 3 * n


def test_symmetry_enforced():
    with pytest.raises(ValueError):
        from_expanded(SparseSymPoly, 2, {(2, 1): F(1), (1, 2): F(2)})
    with pytest.raises(ValueError):
        from_expanded(SparseSymPoly, 2, {(2, 1): F(1)})  # orbit incomplete


def test_halfpower_lattice_enforced():
    with pytest.raises(ValueError):
        HalfPowerPoly(1, {(2,): F(1)})  # even half-step
    with pytest.raises(ValueError):
        HalfPowerPoly(1, {(-1,): F(1)})


def test_orbit_polys_reject_boolean_exponents():
    # bool is an int subclass: True would render as w1^(True/2)
    with pytest.raises(ValueError, match="half-steps must be odd positive integers"):
        HalfPowerPoly(1, {(True,): F(1, 3)})
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        SparseSymPoly(2, {(True, False): F(1)})


# --- transfer operators ---------------------------------------------------

def test_d_op_monomials():
    assert d_op({0: F(1)}) == {(1, 1): F(1)}
    assert d_op({1: F(1)}) == {(2, 1): F(1), (1, 2): F(3)}
    assert d_op({2: F(1)}) == {(3, 1): F(1), (2, 2): F(3), (1, 3): F(5)}


def test_d_op_degree_and_weight():
    # D x^m is homogeneous of degree m + 2 with coefficient sum (m+1)^2
    for m in range(8):
        image = d_op({m: F(1)})
        assert {sum(k) for k in image} == {m + 2}
        assert sum(image.values()) == (m + 1) ** 2


def test_calD_op_monomials():
    assert calD_op({-1: F(1)}) == {(4, 1): F(1), (2, 3): F(1)}
    assert calD_op({1: F(1)}) == {(6, 1): F(1), (4, 3): F(1), (2, 5): F(1)}
    assert calD_op({3: F(1)}) == {(8, 1): F(1), (6, 3): F(1), (4, 5): F(1), (2, 7): F(1)}
    with pytest.raises(ValueError):
        calD_op({2: F(1)})


@pytest.mark.parametrize("op", [d_op, calD_op])
def test_transfer_operators_reject_a_bool_exponent(op):
    # True == 1 is a valid exponent of either operator as an int
    for m in (True, False, 1.0):
        with pytest.raises(ValueError, match=f"^[a-z-]+ {m!r} not "):
            op({m: F(1)})


@pytest.mark.parametrize("m", [0, 1, 2, 7, 50])
def test_d_lemma(m):
    assert verify_d_lemma(m)


def test_d_bridge(table):
    for g, n in shell_cells(1, 4):
        assert d_bridge_holds(g, n, table), (g, n)


# --- one-step recursions --------------------------------------------------

def test_omega_step_worked_examples(table):
    lower = {(0, 3): omega_base(0, 3), (1, 1): omega_base(1, 1)}
    w04 = omega_step(0, 3, lower)
    assert w04.orbits == {(2, 1, 1, 1): F(3)}  # 3 w0 w1 w2 w3 (w0+w1+w2+w3)
    w12 = omega_step(1, 1, lower)
    assert w12.orbits == {(3, 1): F(5, 8), (2, 2): F(3, 8)}
    lower[(0, 4)] = w04
    lower[(1, 2)] = w12
    lower[(0, 5)] = omega_step(0, 4, lower)
    assert omega_step(2, 0, lower).orbits == {(5,): F(105, 128)}


def test_omega_step_matches_definition(table):
    lower = {(0, 3): omega_base(0, 3), (1, 1): omega_base(1, 1)}
    for g, n in shell_cells(2, 6):
        lower[(g, n)] = omega_step(g, n - 1, lower)
        assert lower[(g, n)] == omega_from_correlators(g, n, table), (g, n)


def test_omega_step_rejects_bases_and_missing_data():
    with pytest.raises(ValueError):
        omega_step(0, 2, {})
    with pytest.raises(ValueError):
        omega_step(1, 0, {})
    with pytest.raises(ValueError):
        omega_step(0, 3, {})  # (0,4) target, no lower cells supplied


def test_Omega_step_derivative_examples():
    lower = {(0, 3): Omega_base(0, 3), (1, 1): Omega_base(1, 1)}
    # d_{w0} Omega_{0,4} = (3/2) w0^(1/2) (w1 w2 w3)^(1/2)
    #                    + (1/2) w0^(-1/2) (w1 w2 w3)^(1/2) (w1+w2+w3)
    d04 = Omega_step_dw0(0, 3, lower)
    assert d04 == {
        (1, 1, 1, 1): F(3, 2),
        (-1, 3, 1, 1): F(1, 2),
        (-1, 1, 3, 1): F(1, 2),
        (-1, 1, 1, 3): F(1, 2),
    }
    # d_{w0} Omega_{1,2} = (1/16) w0^(-1/2) w1^(1/2) (5 w0^2 + w0 w1 + w1^2)
    d12 = Omega_step_dw0(1, 1, lower)
    assert d12 == {(3, 1): F(5, 16), (1, 3): F(1, 16), (-1, 5): F(1, 16)}


def test_Omega_step_matches_definition(table):
    lower = {(0, 3): Omega_base(0, 3), (1, 1): Omega_base(1, 1)}
    for g, n in shell_cells(2, 6):
        lower[(g, n)] = Omega_step(g, n - 1, lower)
        assert lower[(g, n)] == Omega_from_correlators(g, n, table), (g, n)


def test_omega_from_Omega(table):
    assert omega_from_Omega(0, 3, Omega_base(0, 3)).orbits == {(1, 1, 1): F(1)}
    assert omega_from_Omega(1, 1, Omega_base(1, 1)).orbits == {(2,): F(1, 8)}
    for g, n in shell_cells(1, 5):
        got = omega_from_Omega(g, n, Omega_from_correlators(g, n, table))
        assert got == omega_from_correlators(g, n, table), (g, n)


def test_bases_match_definition(table):
    assert omega_base(0, 3) == omega_from_correlators(0, 3, table)
    assert omega_base(1, 1) == omega_from_correlators(1, 1, table)
    assert Omega_base(0, 3) == Omega_from_correlators(0, 3, table)
    assert Omega_base(1, 1) == Omega_from_correlators(1, 1, table)


# --- rendering ------------------------------------------------------------

def test_poly_text_forms(table):
    assert poly_text(tW_from_correlators(1, 2, table), "W") == "5/8 / (z1^6 z2^2)\n3/8 / (z1^4 z2^4)"
    assert poly_text(omega_from_correlators(2, 1, table), "omega") == "105/128 * w1^5"
    assert (
        poly_text(Omega_from_correlators(0, 3, table), "Omega")
        == "1 * w1^(1/2) w2^(1/2) w3^(1/2)"
    )


@pytest.mark.parametrize("poly", [SparseSymPoly(1, {(2,): 1}), SparseSymPoly(1, {})])
@pytest.mark.parametrize("render", [poly_text, poly_orbit_records])
def test_rendering_rejects_an_unknown_kind(render, poly):
    with pytest.raises(ValueError, match="unknown kind 'x'"):
        render(poly, "x")
