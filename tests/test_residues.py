import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airyqc import ZSeries, b02_series, eo_W, kernel_series, tW_from_correlators
from airyqc.correlators import shell_cells
from airyqc.residues import _HALF, pack, unpack


def series(nspec, trunc, strata):
    """A ZSeries from {z-exponent: {exponent tuple: coeff}}."""
    bound = max((abs(d) for poly in strata.values() for e in poly for d in e), default=0)
    return ZSeries(nspec, trunc, {k: {pack(e): c for e, c in poly.items()} for k, poly in strata.items()}, bound)


def decoded(s):
    """The strata of ``s`` with exponent-tuple keys."""
    return {k: {unpack(e, s.nspec): c for e, c in poly.items()} for k, poly in s.terms.items()}


def one(nspec, k, exps, coeff=F(1)):
    return series(nspec, math.inf, {k: {tuple(exps): coeff}})


def test_kernel_series_strata():
    k = kernel_series(1, 1)
    assert decoded(k) == {-1: {(-2,): F(1)}, 1: {(-4,): F(1)}}
    k5 = kernel_series(5, 1)
    assert decoded(k5)[3] == {(-6,): F(1)}  # coefficient of z^3 is z0^{-6}
    assert 2 not in k5.terms  # odd-only expansion


def test_b02_series_strata():
    plus = decoded(b02_series(1, 0, 3, 1))
    assert plus[0] == {(-2,): F(1)}
    assert plus[1] == {(-3,): F(2)}
    minus = decoded(b02_series(-1, 0, 3, 1))
    assert minus[1] == {(-3,): F(-2)}


def test_residue_of_kernel_times_even_pole():
    # res 1/(z(z0^2-z^2)) z^{-2b1-2} z^{-2b2-2} = z0^{-2b1-2b2-6}
    for b1, b2 in [(0, 0), (1, 0), (2, 3)]:
        series = kernel_series(2 * (b1 + b2) + 4, 1) * one(1, -2 * b1 - 2 - 2 * b2 - 2, (0,))
        assert series.residue() == {(-2 * b1 - 2 * b2 - 6,): F(1)}


def test_residue_worked_identity():
    # res_{z=0} 1/(z^3 (u^2 - z^2)(z - v)^2) = 3/(u^2 v^4) + 1/(u^4 v^2)
    k = kernel_series(8, 2)
    series = k * one(2, -2, (0, 0)) * b02_series(1, 1, 8, 2)
    assert series.residue() == {(-2, -4): F(3), (-4, -2): F(1)}


def test_residue_of_power_series_is_zero():
    s = b02_series(1, 0, 6, 1)
    assert s.residue() == {}


def test_residue_needs_exact_stratum():
    s = series(1, -3, {-4: {(0,): F(1)}})
    with pytest.raises(ValueError):
        s.residue()


def test_truncation_tracking_through_mul():
    a = series(1, 4, {0: {(0,): F(1)}})
    b = series(1, math.inf, {-3: {(0,): F(1)}})
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
    s, t = series(1, 10, d1), series(1, 10, d2)
    scaled = series(1, 10, {k: {e: v * c for e, v in poly.items()} for k, poly in d1.items()})
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
                key = (k1 + k2, (e1[0] + e2[0], e1[1] + e2[1]))
                naive[key] = naive.get(key, F(0)) + c1 * c2
    expected = {}
    for (k, e), c in naive.items():
        if c:
            expected.setdefault(k, {})[e] = c
    product = series(2, t1, d1) * series(2, t2, d2)
    assert decoded(product) == expected
    assert product.trunc == trunc


# --- the packed spectator keys ---------------------------------------------------

def signed_vectors(nspec, top):
    return st.tuples(*[st.integers(min_value=-top, max_value=top)] * nspec)


@given(st.integers(min_value=1, max_value=8).flatmap(lambda n: signed_vectors(n, _HALF - 1)))
def test_packing_round_trips(exps):
    assert unpack(pack(exps), len(exps)) == exps


def test_packing_rejects_what_does_not_fit():
    with pytest.raises(ValueError, match="does not fit"):
        pack((0, _HALF))
    with pytest.raises(ValueError, match="beyond its 2 spectator positions"):
        unpack(pack((1, -2, 3)), 2)


def packed_products(nspec):
    # digits up to a quarter of the half-width, so that sums borrow and
    # carry between neighbouring digits
    strata = st.dictionaries(
        st.integers(min_value=-3, max_value=3),
        st.dictionaries(signed_vectors(nspec, _HALF // 4), st.integers(min_value=-9, max_value=9), max_size=3),
        max_size=3,
    )
    return st.tuples(st.just(nspec), strata, strata)


@given(st.integers(min_value=1, max_value=5).flatmap(packed_products))
def test_packed_product_is_the_tuple_wise_product(case):
    nspec, d1, d2 = case
    expected = {}
    for k1, p1 in d1.items():
        for k2, p2 in d2.items():
            for e1, c1 in p1.items():
                for e2, c2 in p2.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    tgt = expected.setdefault(k1 + k2, {})
                    tgt[e] = tgt.get(e, 0) + c1 * c2
    expected = {k: {e: c for e, c in poly.items() if c} for k, poly in expected.items()}
    product = series(nspec, math.inf, d1) * series(nspec, math.inf, d2)
    assert decoded(product) == {k: poly for k, poly in expected.items() if poly}
    assert all(abs(d) <= product.bound for poly in decoded(product).values() for e in poly for d in e)


@given(st.integers(min_value=1, max_value=5), st.data())
def test_digit_overflow_raises(nspec, data):
    # two digits whose sum could reach the half-width, at any two positions
    d1 = data.draw(st.integers(min_value=_HALF // 2, max_value=_HALF - 1))
    d2 = data.draw(st.integers(min_value=_HALF - d1, max_value=_HALF - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    e1, e2 = [0] * nspec, [0] * nspec
    e1[data.draw(st.integers(min_value=0, max_value=nspec - 1))] = sign * d1
    e2[data.draw(st.integers(min_value=0, max_value=nspec - 1))] = sign * d2
    f1, f2 = one(nspec, 0, e1), one(nspec, 0, e2)
    with pytest.raises(ValueError, match="reach the digit half-width"):
        f1 * f2
