import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airyqc import ZSeries, b02_series, eo_W, kernel_series, tW_from_correlators
from airyqc.correlators import shell_cells


def one(nspec, k, exps, coeff=F(1)):
    return ZSeries(nspec, math.inf, {k: {tuple(exps): coeff}})


def test_kernel_series_strata():
    k = kernel_series(1)
    assert k.terms == {-1: {(-2,): F(1)}, 1: {(-4,): F(1)}}
    k5 = kernel_series(5)
    assert k5.terms[3] == {(-6,): F(1)}  # coefficient of z^3 is z0^{-6}
    assert 2 not in k5.terms  # odd-only expansion


def test_b02_series_strata():
    plus = b02_series(1, 3).terms
    assert plus[0] == {(-2,): F(1)}
    assert plus[1] == {(-3,): F(2)}
    minus = b02_series(-1, 3).terms
    assert minus[1] == {(-3,): F(-2)}


@pytest.mark.parametrize("sign", [True, False, 1.0, 0, 2])
def test_b02_series_sign_must_be_an_int(sign):
    # True == 1 and 1.0 == 1, so a membership test alone would take either for +1
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1$"):
        b02_series(sign, 3)


def test_residue_of_kernel_times_even_pole():
    # res 1/(z(z0^2-z^2)) z^{-2b1-2} z^{-2b2-2} = z0^{-2b1-2b2-6}
    for b1, b2 in [(0, 0), (1, 0), (2, 3)]:
        series = kernel_series(2 * (b1 + b2) + 4) * one(0, -2 * b1 - 2 - 2 * b2 - 2, ())
        assert series.residue() == {(-2 * b1 - 2 * b2 - 6,): F(1)}


def test_residue_worked_identity():
    # res_{z=0} 1/(z^3 (u^2 - z^2)(z - v)^2) = 3/(u^2 v^4) + 1/(u^4 v^2),
    # the product over the blocks kernel(u) . z^-2 . B(z, v)
    series = kernel_series(8) * one(0, -2, ()) * b02_series(1, 8)
    assert series.residue() == {(-2, -4): F(3), (-4, -2): F(1)}


def test_residue_of_power_series_is_zero():
    s = b02_series(1, 6)
    assert s.residue() == {}


def test_residue_needs_exact_stratum():
    s = ZSeries(1, -3, {-4: {(0,): F(1)}})
    with pytest.raises(ValueError):
        s.residue()


def test_truncation_tracking_through_mul():
    a = ZSeries(1, 4, {0: {(0,): F(1)}})
    b = ZSeries(1, math.inf, {-3: {(0,): F(1)}})
    assert (a * b).trunc == 1


small_series = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.dictionaries(
        st.tuples(st.integers(min_value=-3, max_value=3)),
        st.fractions(min_value=-50, max_value=50, max_denominator=20),
        max_size=2,
    ),
    max_size=4,
)


@given(small_series, small_series, st.fractions(min_value=-20, max_value=20, max_denominator=10))
def test_residue_linearity(d1, d2, c):
    s, t = ZSeries(1, 10, d1), ZSeries(1, 10, d2)
    scaled = ZSeries(1, 10, {k: {e: v * c for e, v in poly.items()} for k, poly in d1.items()})
    lhs = (scaled + t).residue()
    rhs = {e: v * c for e, v in s.residue().items()}
    for e, v in t.residue().items():
        rhs[e] = rhs.get(e, F(0)) + v
    rhs = {e: v for e, v in rhs.items() if v}
    assert lhs == rhs


# --- the recursion itself ---------------------------------------------------

def test_eo_worked_examples(wtable6):
    assert wtable6[(0, 3)].orbits == {(0, 0, 0): F(1)}
    assert wtable6[(1, 1)].orbits == {(1,): F(1, 8)}
    assert wtable6[(0, 4)].orbits == {(1, 0, 0, 0): F(3)}
    assert wtable6[(1, 2)].orbits == {(2, 0): F(5, 8), (1, 1): F(3, 8)}
    assert wtable6[(2, 1)].orbits == {(4,): F(105, 128)}


def test_eo_equals_dvv_through_chi_6(table, wtable6):
    for g, n in shell_cells(1, 6):
        assert wtable6[(g, n)] == tW_from_correlators(g, n, table), (g, n)


def test_eo_parity_and_pole_bound(wtable6):
    # stored a-exponents encode z-exponents -2a-2: even, within
    # [-(6g-4+2n), -2] means 0 <= a <= 3g-3+n
    for (g, n), cell in wtable6.items():
        for orbit in cell.orbits:
            assert all(0 <= a <= 3 * g - 3 + n for a in orbit), (g, n, orbit)


def test_eo_requires_lower_cells():
    with pytest.raises(ValueError):
        eo_W(1, 2, {})  # needs (0,3) and (1,1)
    with pytest.raises(ValueError):
        eo_W(0, 2, {})  # unstable target


finite_series = st.tuples(
    st.dictionaries(
        st.integers(min_value=-4, max_value=4),
        st.dictionaries(
            st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)),
            st.fractions(min_value=-20, max_value=20, max_denominator=6),
            max_size=3,
        ),
        max_size=4,
    ),
    st.integers(min_value=-5, max_value=6),
)


@given(finite_series, finite_series)
def test_mul_matches_naive_product(a, b):
    (d1, t1), (d2, t2) = a, b
    kept1 = {(k, e): c for k, poly in d1.items() if k <= t1 for e, c in poly.items() if c}
    kept2 = {(k, e): c for k, poly in d2.items() if k <= t2 for e, c in poly.items() if c}
    # a series with no terms is zero through z^trunc, so its valuation is
    # at least trunc + 1
    val1 = min((k for k, _ in kept1), default=t1 + 1)
    val2 = min((k for k, _ in kept2), default=t2 + 1)
    trunc = min(t1 + val2, t2 + val1)
    naive = {}
    for (k1, e1), c1 in kept1.items():
        for (k2, e2), c2 in kept2.items():
            if k1 + k2 <= trunc:
                key = (k1 + k2, e1 + e2)  # disjoint blocks, joined end to end
                naive[key] = naive.get(key, F(0)) + c1 * c2
    expected = {}
    for (k, e), c in naive.items():
        if c:
            expected.setdefault(k, {})[e] = c
    product = ZSeries(2, t1, d1) * ZSeries(2, t2, d2)
    assert product.terms == expected
    assert product.nspec == 4
    assert product.trunc == trunc
