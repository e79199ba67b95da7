import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airyqc import CorrelatorTable, canonical_key, correlator_shell
from airyqc.core import bounded_partitions
from airyqc.correlators import shell_cells, shell_keys

SEEDS = {(0, (0, 0, 0)), (1, (1,))}


@pytest.mark.parametrize(
    "g, a, expected",
    [
        (0, (0, 0, 0), Fraction(1)),
        (1, (1,), Fraction(1, 24)),
        (0, (1, 0, 0, 0), Fraction(1)),
        (2, (4,), Fraction(1, 1152)),
        (1, (2, 0), Fraction(1, 24)),
        (1, (1, 1), Fraction(1, 24)),
        (0, (2, 1, 0), Fraction(0)),  # off the dimension shell
        (0, (2, 0, 0, 0, 0), Fraction(1)),
        (1, (1, 1, 1), Fraction(1, 12)),
        (2, (5, 0), Fraction(1, 1152)),
        (2, (4, 1), Fraction(1, 384)),
        (2, (3, 2), Fraction(29, 5760)),
        (3, (7,), Fraction(1, 82944)),
    ],
)
def test_golden_values(table, g, a, expected):
    assert table.correlator(g, a) == expected


def test_permutation_invariance(table):
    assert table.correlator(1, (0, 2)) == table.correlator(1, (2, 0))
    assert table.correlator(0, (0, 1, 0, 0)) == table.correlator(0, (1, 0, 0, 0))
    assert table.correlator(2, (2, 3)) == table.correlator(2, (3, 2))


@pytest.mark.parametrize(
    "g, a",
    [(0, (0, 0)), (0, (5, 0)), (0, (0,)), (1, ()), (-1, (1,)), (0, (1, -2, 0))],
)
def test_domain_errors(table, g, a):
    with pytest.raises(ValueError):
        table.correlator(g, a)


def test_canonical_key_sorts_descending():
    assert canonical_key(1, [0, 2, 1]) == (1, (2, 1, 0))


def test_selection_rule_and_positivity(table):
    for g, n in shell_cells(1, 6):
        dim = 3 * g - 3 + n
        for total in range(dim + 3):
            for a in bounded_partitions(total, n):
                value = table.correlator(g, a)
                if total == dim:
                    assert value > 0, (g, a)
                else:
                    assert value == 0, (g, a)


def test_insertion_independence_small(table):
    for g, a in shell_keys(5):
        values = {table.dvv_rhs(g, a, i) for i in range(len(a))}
        assert len(values) == 1, (g, a, values)
        if (g, a) not in SEEDS:
            assert values == {table.correlator(g, a)}


def test_reduced_table_matches_dvv_oracle():
    # every non-seed key satisfies the full DVV rhs over lower keys, so by
    # induction on chi the string/dilaton-reduced table is the pure DVV one
    t = CorrelatorTable()
    t.fill_shell(10)
    keys = list(shell_keys(10))
    assert len(t) == len(keys)
    for g, a in keys:
        if (g, a) not in SEEDS:
            assert t.dvv_rhs(g, a, 0) == t.correlator(g, a), (g, a)


@st.composite
def genus0_keys(draw):
    """Exponent tuples of n <= 12 insertions on the genus-0 shell."""
    n = draw(st.integers(3, 12))
    cuts = sorted(draw(st.lists(st.integers(0, n - 3), min_size=n - 1, max_size=n - 1)))
    bounds = [0, *cuts, n - 3]
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


@settings(deadline=None)
@given(genus0_keys())
def test_genus0_closed_form(table, a):
    expected = Fraction(math.factorial(len(a) - 3), math.prod(math.factorial(x) for x in a))
    assert table.correlator(0, a) == expected


@settings(deadline=None)
@given(st.integers(1, 10))
def test_one_point_closed_form(table, g):
    assert table.correlator(g, (3 * g - 2,)) == Fraction(1, 24**g * math.factorial(g))


def test_string_equation(table):
    # keys holding a tau_0: the recursion with that insertion special
    # collapses to <tau_0 prod> = sum_i <tau_{a_i - 1} prod_rest>
    for g, a in shell_keys(6):
        if 0 not in a:
            continue
        rest = a[: a.index(0)] + a[a.index(0) + 1 :]
        string_sum = sum(
            (
                table.correlator(g, rest[:i] + (rest[i] - 1,) + rest[i + 1 :])
                for i in range(len(rest))
                if rest[i] >= 1
            ),
            Fraction(0),
        )
        assert table.dvv_rhs(g, a, a.index(0)) == string_sum
        if (g, a) not in SEEDS:
            assert string_sum == table.correlator(g, a)


def test_memo_hits_and_misses():
    t = CorrelatorTable()
    t.correlator(2, (4,))
    misses = t.misses
    assert misses > 0
    value = t.correlator(2, (4,))
    assert value == Fraction(1, 1152)
    assert t.misses == misses and t.hits > 0


def test_shell_contents_chi_1():
    t = correlator_shell(1)
    assert dict(t.items()) == {
        (0, (0, 0, 0)): Fraction(1),
        (1, (1,)): Fraction(1, 24),
    }


def test_shell_contents_chi_2():
    t = correlator_shell(2)
    assert dict(t.items()) == {
        (0, (0, 0, 0)): Fraction(1),
        (1, (1,)): Fraction(1, 24),
        (0, (1, 0, 0, 0)): Fraction(1),
        (1, (2, 0)): Fraction(1, 24),
        (1, (1, 1)): Fraction(1, 24),
    }


def test_shell_chi_3_contains_genus_2(table):
    t = correlator_shell(3)
    assert t.correlator(2, (4,)) == Fraction(1, 1152)


def test_perturbed_seed_breaks_insertion_independence():
    bad = CorrelatorTable(tau1=Fraction(1, 12))
    values = {bad.dvv_rhs(1, (2, 0), i) for i in range(2)}
    assert len(values) == 2
