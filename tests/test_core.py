from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airyqc.core import (
    bounded_partitions,
    double_factorial,
    orbit_size,
    rat_parse,
    rat_str,
    readings,
)

from _oracles import merge, multiset_permutations, sub_multisets


@pytest.mark.parametrize(
    "k, expected",
    [(-1, 1), (0, 1), (1, 1), (3, 3), (5, 15), (7, 105), (9, 945), (11, 10395)],
)
def test_double_factorial_values(k, expected):
    assert double_factorial(k) == expected


def test_double_factorial_recurrence():
    for a in range(0, 30):
        assert double_factorial(2 * a + 1) == (2 * a + 1) * double_factorial(2 * a - 1)


@pytest.mark.parametrize("k", [-2, -5])
def test_double_factorial_rejects_below_minus_one(k):
    with pytest.raises(ValueError):
        double_factorial(k)


@pytest.mark.parametrize("k", [2, 4, 10])
def test_double_factorial_rejects_even(k):
    with pytest.raises(ValueError):
        double_factorial(k)


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@given(rationals)
def test_rational_round_trips_through_text(x):
    assert rat_parse(rat_str(x)) == x


@pytest.mark.parametrize("text", ["2/4", "3/1", "-0", "03", "1/-2", "0/5", "", "1/24/2", "+3"])
def test_rat_parse_rejects_non_canonical(text):
    with pytest.raises(ValueError):
        rat_parse(text)


def test_rat_str_forms():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-1, 24)) == "-1/24"


def test_bounded_partitions():
    assert list(bounded_partitions(0, 3)) == [(0, 0, 0)]
    assert set(bounded_partitions(3, 2)) == {(3, 0), (2, 1)}
    parts = list(bounded_partitions(5, 8))
    assert len(parts) == 7  # p(5)
    assert all(sum(p) == 5 and len(p) == 8 for p in parts)
    assert all(p == tuple(sorted(p, reverse=True)) for p in parts)


def _recursive_partitions(total, parts):
    # a recursive generator of the 0-padded partitions, largest part first,
    # that shares no code with partition_walk: the oracle of the order
    if total < 0 or parts < 0:
        return

    def rec(remaining, slots, cap):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for p in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - p, slots - 1, p):
                yield (p,) + rest
        if remaining == 0:
            yield (0,) * slots

    yield from rec(total, parts, total)


def test_bounded_partitions_equal_the_recursive_generator_in_order():
    for total in range(-1, 31):
        for parts in range(-1, 13):
            assert list(bounded_partitions(total, parts)) == list(_recursive_partitions(total, parts)), (total, parts)


def test_multiset_permutations_and_orbit_size():
    perms = list(multiset_permutations((2, 1, 1, 0)))
    assert len(perms) == len(set(perms)) == orbit_size((2, 1, 1, 0)) == 12


def test_sub_multisets_count_subsets():
    # brute force over index subsets: each (mu, nu) pair, both descending,
    # with the number of index subsets that realize it
    for items in [(), (4,), (2, 2, 2, 2), (3, 1, 1, 0, 0), (5, 4, 4, 2, 2, 2, 0)]:
        brute = {}
        for r in range(len(items) + 1):
            for picked in combinations(range(len(items)), r):
                mu = tuple(sorted((items[i] for i in picked), reverse=True))
                nu = tuple(sorted((items[i] for i in range(len(items)) if i not in picked), reverse=True))
                brute[mu, nu] = brute.get((mu, nu), 0) + 1
        triples = list(sub_multisets(items))
        assert {(mu, nu): count for mu, nu, count in triples} == brute, items
        assert len(triples) == len(brute)
        for mu, nu, _ in triples:
            assert tuple(sorted(mu + nu, reverse=True)) == items


# every descending tuple of length <= 6 over the values 0..3
DESCENDING = [t for size in range(7) for t in combinations_with_replacement((3, 2, 1, 0), size)]


def test_merge_inverts_sub_multisets():
    for tail in DESCENDING:
        for mu, nu, mult in sub_multisets(tail):
            assert merge(mu, nu) == (tail, mult), (mu, nu)


def test_egf_weights_fold_in_the_merge_multiplicity():
    # the identity both recursion routes add by: two readings weighted by
    # their orbit sizes, times C(|mu| + |nu|, |mu|), give mult times the
    # orbit size of their merged tail
    for mu in DESCENDING:
        for nu in DESCENDING:
            tail, mult = merge(mu, nu)
            lhs = orbit_size(mu) * orbit_size(nu) * comb(len(mu) + len(nu), len(mu))
            assert lhs == mult * orbit_size(tail), (mu, nu)


def test_readings_are_the_distinct_orderings():
    for orbit in DESCENDING:
        for k in range(len(orbit) + 1):
            found = list(readings(orbit, k))
            distinct = {(p[:k], tuple(sorted(p[k:], reverse=True))) for p in multiset_permutations(orbit)}
            assert len(found) == len(set(found)) and set(found) == distinct, (orbit, k)
        # with every slot singled out, the orderings come in the oracle's order
        assert [p for p, _ in found] == list(multiset_permutations(orbit)), orbit
