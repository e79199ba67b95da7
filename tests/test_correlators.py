import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airyqc import CorrelatorTable, canonical_key, correlator_shell, is_stable, quantum_curve_report
from airyqc.core import bounded_partitions, orbit_size, partition_walk
from airyqc.correlators import cell_keys, shell_cells, shell_keys

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


def test_is_stable_needs_a_cell():
    assert is_stable(0, 3) and is_stable(1, 1)
    assert not is_stable(-1, 5)  # 2g - 2 + n > 0, but no genus -1
    assert not is_stable(2, 0)  # 2g - 2 + n > 0, but no marked point
    assert not is_stable(0, 2) and not is_stable(1, 0)


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


def test_one_point_closed_form(table):
    for g in range(1, 26):
        assert table.correlator(g, (3 * g - 2,)) == Fraction(1, 24**g * math.factorial(g)), g


def test_split_range_edges_at_high_genus():
    # the split loop runs g_1 only where 0 <= b_1 <= a_0 - 2; the one-point
    # keys and every special of the cells (5, 3) and (6, 2) reach each end
    # of that range: g_1 = 0, g_1 = g, b_1 = 0 and b_2 = 0
    t = CorrelatorTable()
    for g in range(1, 21):
        assert t.correlator(g, (3 * g - 2,)) == Fraction(1, 24**g * math.factorial(g)), g
    for g, n in ((5, 3), (6, 2)):
        for a in cell_keys(g, n):
            for i in range(n):
                assert t.dvv_rhs(g, a, i) == t.correlator(g, a), (g, a, i)


def dijkgraaf_two_point(g):
    """[<tau_a tau_{3g-1-a}>_g for a = 0..3g-1] from Dijkgraaf's two-point
    function (hep-th/9201003), written out here with no package helper:

        (x1 + x2) sum <tau_a tau_b>_g x1^a x2^b
            = exp((x1^3 + x2^3)/24) sum_n n!/(2n+1)! (x1 x2 (x1 + x2)/2)^n.

    Genus g is the part of degree 3g, the terms with m + n = g where m is
    the power taken from the exponential; set x2 = 1 and divide by x1 + 1.
    """
    deg = 3 * g
    rhs = [Fraction(0)] * (deg + 1)  # rhs[i] multiplies x1^i x2^(3g - i)
    for m in range(g + 1):
        n = g - m
        scale = Fraction(math.factorial(n), 24**m * math.factorial(m) * math.factorial(2 * n + 1) * 2**n)
        for i in range(m + 1):  # (x1^3 + x2^3)^m
            for j in range(n + 1):  # (x1 x2)^n (x1 + x2)^n
                rhs[3 * i + n + j] += scale * math.comb(m, i) * math.comb(n, j)
    quotient = [Fraction(0)] * deg
    quotient[deg - 1] = rhs[deg]
    for i in range(deg - 1, 0, -1):
        quotient[i - 1] = rhs[i] - quotient[i]
    assert rhs[0] == quotient[0], "x1 + x2 does not divide the genus-g part"
    return quotient


@st.composite
def two_point_keys(draw, max_genus=20):
    g = draw(st.integers(1, max_genus))
    return g, draw(st.integers(0, 3 * g - 1))


@settings(deadline=None)
@given(two_point_keys())
def test_dijkgraaf_two_point(table, key):
    g, a = key
    assert table.correlator(g, (a, 3 * g - 1 - a)) == dijkgraaf_two_point(g)[a]


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


def test_long_dilaton_chain():
    # <tau_1^k>_1 = (k - 1)!/24 by k - 1 dilaton steps, one Python frame each
    assert CorrelatorTable().correlator(1, (1,) * 600) == Fraction(math.factorial(599), 24)


def _free_walk(g, n):
    return list(partition_walk(3 * g - 3 + n, n, 2))


def test_free_keys_are_the_tau1_free_cell_keys():
    # the least-2 walk yields the tau_1-free keys of a cell, and without
    # zeros the core keys (every a_i >= 2) that core_sum reads, in its order
    for g, n in shell_cells(1, 12):
        expected = sorted(a for a in cell_keys(g, n) if 1 not in a)
        assert sorted(a for a, _ in _free_walk(g, n)) == expected, (g, n)
        core = [(a, m) for a, m in _free_walk(g, n) if 0 not in a]
        assert list(partition_walk(3 * g - 3 + n, n, 2, zeros=False)) == core, (g, n)


def test_free_walk_yields_each_free_key_once_with_its_weight():
    # core_sum weighs each key by n!/m, which must be orbit_size(a) / prod (2a_i+1);
    # the least-1 walk behind bounded_partitions carries the same weight on every cell key
    walks = [
        (_free_walk, lambda a: 1 not in a),
        (lambda g, n: partition_walk(3 * g - 3 + n, n, 1), lambda a: True),
    ]
    for walk_of, kept in walks:
        for g, n in shell_cells(1, 12):
            walk = list(walk_of(g, n))
            keys = [a for a, _ in walk]
            assert len(set(keys)) == len(keys), (g, n)
            assert sorted(keys) == sorted(a for a in cell_keys(g, n) if kept(a)), (g, n)
            for a, m in walk:
                assert Fraction(math.factorial(n), m) == Fraction(orbit_size(a), math.prod(2 * x + 1 for x in a)), (g, a)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_shell_keys_and_free_walk_orders_are_pinned():
    # the benchmark's cli_cache workload samples its seeded commands from
    # list(shell_keys(10)), and the memo traffic of core_sum follows the
    # order of the least-2 walk, so neither order may move
    shell = list(shell_keys(10))
    assert len(shell) == 601
    assert _digest(shell) == "33f3c19fa2aeeb62494f55fc6b928da017033615ca3711104a4f97fd93a23d34"
    walks = [(g, n, _free_walk(g, n)) for g, n in shell_cells(1, 12)]
    assert _digest(walks) == "985f21034e5c32cb8a16ee92d60f18a1d07ae66ba2e2868c111ec24a18c1f2f6"


def test_dvv_rhs_takes_any_index_as_special(table):
    for g, a in shell_keys(6):
        if (g, a) not in SEEDS:
            for i in range(len(a)):
                assert table.dvv_rhs(g, a, i) == table.correlator(g, a), (g, a, i)


def test_dvv_rhs_takes_any_special_at_chi_7_and_8(table):
    # specials larger than the rest, and rests with repeated 0s and 1s,
    # where a copy taken into the split leaves d = len(mu) - 2 - sum(mu)
    # unchanged or raises it, all through the split walk
    for g, n in shell_cells(7, 8):
        for a in cell_keys(g, n):
            for i in range(n):
                assert table.dvv_rhs(g, a, i) == table.correlator(g, a), (g, a, i)


def test_dvv_memo_traffic_is_pinned():
    # the split walk reads lower keys in a fixed order: the keys stored,
    # the memo hits and misses, and the order the memo fills in
    table = CorrelatorTable()
    quantum_curve_report(15, 1, table)
    quantum_curve_report(15, -1, table)
    assert (len(table), table.hits, table.misses) == (471, 1894, 469)
    assert _digest([key for key, _ in table.items()]) == "4b493b46e0dac41cbc042b6679e52dc971be4384cd27d8105f25a57fca298706"
    table = CorrelatorTable()
    table.fill_shell(12)
    assert (len(table), table.hits, table.misses) == (1481, 2573, 1479)
    # with the smallest special every split read hits; the largest one on a
    # fresh table misses there, so the fill order follows the walk's order
    table = CorrelatorTable()
    assert table.dvv_rhs(3, (7, 2, 1, 1, 0), 0) == Fraction(119, 8640)
    assert (len(table), table.hits, table.misses) == (41, 79, 39)
    assert _digest([key for key, _ in table.items()]) == "2956a18917468fde1bf370b1bc303022ca659eccb777aea13e08415ac300c82f"


@pytest.mark.parametrize("special", [-1, 2, True, 1.0, None])
def test_dvv_rhs_rejects_a_special_off_the_indices(table, special):
    # a negative index would name an entry from the end, and True would read index 1
    with pytest.raises(ValueError, match=r"^special must be an int in range\(2\), got "):
        table.dvv_rhs(1, (2, 0), special)


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


@pytest.mark.parametrize("tau1", [0.1, 1 / 24, True, False, "1/24", None])
def test_seed_must_be_exact(tau1):
    with pytest.raises(ValueError, match="tau1"):
        CorrelatorTable(tau1=tau1)


def test_seed_accepts_int_and_fraction():
    assert CorrelatorTable(tau1=1).correlator(1, (1,)) == Fraction(1)
    assert CorrelatorTable(tau1=Fraction(1, 23)).correlator(1, (1,)) == Fraction(1, 23)


def test_add_record_reads_as_hit():
    t = CorrelatorTable()
    t.add_record(2, [4], Fraction(1, 1152))
    assert (t.hits, t.misses) == (0, 0)
    assert t.correlator(2, (4,)) == Fraction(1, 1152)
    assert (t.hits, t.misses) == (1, 0)


@pytest.mark.parametrize(
    "g, a, value, message",
    [
        (1, [1], Fraction(1, 12), "value '1/12' conflicts with known '1/24'"),
        (1, [1, 1], Fraction(1, 12), "value '1/12' conflicts with known '1/24'"),
        (1, [1, 1, 1], Fraction(1, 13), "value '1/13' breaks the dilaton equation, which gives '1/12'"),
        (0, [1, 0, 0, 0], 2, "value '2' breaks the dilaton equation, which gives '1'"),
        (1, [0, 2], Fraction(1, 24), "exponents [0, 2] not sorted descending"),
        (2, [5], Fraction(1, 1152), "off-shell key: sum(a) = 5, not 3g - 3 + n = 4"),
        (-1, [0, 0, 0], 1, "genus must be a non-negative integer, got -1"),
        (False, [1, 0, 0, 0], 1, "genus must be a non-negative integer, got False"),
        (0, [0, 0], 1, "unstable (g, n) = (0, 2)"),
        (0, [0, 0, 0], 1.0, "value 1.0 is not an int or a Fraction"),
        (0, [1, 0, 0, 0], "1", "value '1' is not an int or a Fraction"),
    ],
)
def test_add_record_rejects_and_leaves_table_unchanged(g, a, value, message):
    # <tau_1^2>_1 = 1/24 is an earlier record, the lower key of <tau_1^3>_1
    t = CorrelatorTable()
    t.add_record(1, [1, 1], Fraction(1, 24))
    before = dict(t.items())
    with pytest.raises(ValueError) as err:
        t.add_record(g, a, value)
    assert str(err.value) == message
    assert len(t) == len(before) and dict(t.items()) == before
    assert (t.hits, t.misses) == (0, 0)
