import math
from fractions import Fraction as F

import pytest
from _oracles import fraction_diag, fraction_residual, fraction_s_coeff

from airyqc import (
    CorrelatorTable,
    WkbTerm,
    diag_Omega,
    quantum_curve_report,
    s_term,
    s_terms,
    t_recursion_check,
    verify_low_orders,
    verify_order,
)
from airyqc.core import _scale_exp, partition_walk
from airyqc.correlators import is_stable
from airyqc.wkb import _lagrange_row, _residual


def test_diag_Omega_values(table):
    assert diag_Omega(1, 1, table) == (F(1, 24), 3)
    assert diag_Omega(0, 3, table) == (F(1), 3)
    assert diag_Omega(0, 5, table) == (F(35), 9)
    assert diag_Omega(1, 3, table) == (F(83, 24), 9)
    assert diag_Omega(2, 1, table) == (F(35, 384), 9)


def test_diag_Omega_rejects_unstable_cells(table):
    for g, k in ((-1, 5), (0, 2), (2, 0)):
        with pytest.raises(ValueError, match=rf"unstable \(g, n\) = \({g}, {k}\)"):
            diag_Omega(g, k, table)


def test_s_terms_low(table):
    s0 = s_term(0, 1, table)
    assert (s0.coeff, s0.halfsteps) == (F(1, 3), -3)
    assert s_term(0, -1, table).coeff == F(-1, 3)
    s1 = s_term(1, 1, table)
    assert s1.kind == "log" and s1.coeff == F(1, 4)


def test_s2_s3_s4(table):
    # S_2 = 5/(24 z^3), S_3 = 5/(16 z^6), S_4 = 1105/(1152 z^9)
    assert s_term(2, 1, table) == WkbTerm(2, 1, "monomial", F(5, 24), 3)
    assert s_term(3, 1, table) == WkbTerm(3, 1, "monomial", F(5, 16), 6)
    assert s_term(4, 1, table) == WkbTerm(4, 1, "monomial", F(1105, 1152), 9)


def test_branch_covariance(table):
    for n in range(2, 13):
        plus = s_term(n, 1, table)
        minus = s_term(n, -1, table)
        assert minus.coeff == (-1) ** (n + 1) * plus.coeff
        assert minus.halfsteps == plus.halfsteps == 3 * n - 3


def test_monomial_collapse(table):
    # every diagonal Omega_{g,k} with 2g - 1 + k = n lands on the S_n
    # monomial of w-degree (3n-3)/2
    for n in range(2, 13):
        assert s_term(n, 1, table).halfsteps == 3 * n - 3
        for g in range(n // 2 + 1):
            assert diag_Omega(g, n + 1 - 2 * g, table)[1] == 3 * n - 3


def test_low_orders_hold_on_both_branches(table):
    assert verify_low_orders(s_terms(2, 1, table))
    assert verify_low_orders(s_terms(2, -1, table))


def test_low_orders_mutation_sensitive(table):
    for branch in (1, -1):
        terms = s_terms(2, branch, table)
        terms[2] = WkbTerm(2, branch, "monomial", branch * F(1, 4), 3)
        assert not verify_low_orders(terms), branch


@pytest.mark.parametrize("branch", [1, -1])
def test_orders_3_to_10(table, branch):
    terms = s_terms(10, branch, table)
    for n in range(3, 11):
        coeff, halfsteps = verify_order(n, branch, terms)
        assert coeff == 0 and halfsteps == 3 * n, n


def test_t_recursion(table):
    terms = s_terms(10, 1, table)
    for n in range(3, 11):
        assert t_recursion_check(n, terms)


def test_t_recursion_matches_order_residual(table):
    # the coordinate change is exact on monomials: zero residual in w
    # iff the t-form identity holds
    terms = s_terms(12, 1, table)
    for n in range(3, 13):
        assert (verify_order(n, 1, terms)[0] == 0) == t_recursion_check(n, terms)


def test_mutated_s3_breaks_both_forms(table):
    terms = dict(s_terms(4, 1, table))
    good = terms[3]
    terms[3] = WkbTerm(3, 1, "monomial", good.coeff + F(1, 7), good.halfsteps)
    assert verify_order(3, 1, terms)[0] != 0
    assert not t_recursion_check(3, terms)
    assert not t_recursion_check(4, terms)


def test_report_passes(table):
    for branch in (1, -1):
        report = quantum_curve_report(10, branch, table)
        assert report.passed
        assert [n for n, _ in report.residuals] == list(range(11))
        assert all(r == "0" for _, r in report.residuals)


def test_report_covers_every_order_from_zero(table):
    # R_0 and R_1 are defined on their own, so the report needs no floor above 0
    for N in (0, 1):
        report = quantum_curve_report(N, -1, table)
        assert report.passed and [n for n, _ in report.residuals] == list(range(N + 1))
    with pytest.raises(ValueError, match=r"^N must be >= 0$"):
        quantum_curve_report(-1, 1, table)


def test_perturbed_base_fails_at_first_consuming_order():
    bad = CorrelatorTable(tau1=F(1, 12))
    report = quantum_curve_report(10, 1, bad)
    assert not report.passed
    rendered = dict(report.residuals)
    assert rendered[0] == "0" and rendered[1] == "0"
    assert rendered[2] != "0"  # S_2 is the first term that consumes <tau_1>_1


def _airy_log_coeffs(N):
    """[h^m] log sum_k (-1)^k u_k h^k for m < N, with the Airy asymptotic
    coefficients u_k = (2k+1)(2k+3)...(6k-1) / (216^k k!) (DLMF 9.7.2)."""
    a = [F(1)]
    for k in range(1, N):
        num = math.prod(range(2 * k + 1, 6 * k, 2))
        a.append(F((-1) ** k * num, 216**k * math.factorial(k)))
    # L = log A with A_0 = 1:  L_m = a_m - (1/m) sum_{j<m} j L_j a_{m-j}
    L = [F(0)] * N
    for m in range(1, N):
        L[m] = a[m] - sum((j * L[j] * a[m - j] for j in range(1, m)), F(0)) / m
    return L


def test_quantum_curve_order_24_matches_airy_series():
    # a third route to S_n, independent of both DVV and EO
    table = CorrelatorTable()
    for branch in (1, -1):
        assert quantum_curve_report(24, branch, table).passed
    L = _airy_log_coeffs(24)
    for n, term in s_terms(24, -1, table).items():
        if n >= 2:
            assert term.coeff == 3 ** (n - 1) * L[n - 1], n


def test_verify_order_rejects_small_n(table):
    terms = s_terms(2, 1, table)
    with pytest.raises(ValueError):
        verify_order(2, 1, terms)
    with pytest.raises(ValueError):
        t_recursion_check(2, terms)


_PINNED_RESIDUALS = {
    # order: (tau1 = 1/12, tau1 = 1/23) on the plus branch; the minus
    # branch flips the sign of the even orders >= 4
    2: ("-1/8*(2u)^(-4/2)", "-1/184*(2u)^(-4/2)"),
    3: ("1/4*w^(9/2)", "1/92*w^(9/2)"),
    4: ("1*w^(12/2)", "1/23*w^(12/2)"),
    5: ("329/80*w^(15/2)", "3789/21160*w^(15/2)"),
    6: ("173/10*w^(18/2)", "4001/5290*w^(18/2)"),
}


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("col, tau1", [(0, F(1, 12)), (1, F(1, 23))])
def test_perturbed_base_residuals_pinned(branch, col, tau1):
    report = quantum_curve_report(6, branch, CorrelatorTable(tau1=tau1))
    expected = [(0, "0"), (1, "0")]
    for order, row in _PINNED_RESIDUALS.items():
        r = row[col]
        if branch == -1 and order >= 4 and order % 2 == 0:
            r = "-" + r
        expected.append((order, r))
    assert report.residuals == expected


def test_mutated_s3_residual_pinned(table):
    terms = dict(s_terms(4, 1, table))
    good = terms[3]
    terms[3] = WkbTerm(3, 1, "monomial", good.coeff + F(1, 7), good.halfsteps)
    assert verify_order(3, 1, terms) == (F(3, 7), 9)


def test_t_rec_suite_builds_the_terms_once(table, monkeypatch):
    from airyqc import suites

    orders = []

    def counting(N, branch, tbl):
        orders.append(N)
        return s_terms(N, branch, tbl)

    monkeypatch.setattr(suites, "s_terms", counting)
    checks = suites.suite_t_rec(8, table)
    assert orders == [8]
    assert [c.name for c in checks] == [f"n={n}" for n in range(3, 9)] and all(c.ok for c in checks)


# ---------------------------------------------------------------------------
# the dilaton fold that diag_Omega ran before the Itzykson-Zuber fold, kept
# as the oracle: every tau_1-free key of each cell, tau_0 keys included


def free_sum(table, g, n):
    """sum orbit_size(a) * prod (2a_i - 1)!! * <tau_a>_g over the tau_1-free
    keys a of the stable cell (g, n): the least-2 walk, each S(a) read by
    ``_value`` and weighted by n!/m over a running common denominator."""
    num, den = 0, 1
    for a, m in partition_walk(3 * g - 3 + n, n, 2):
        if den % m:
            lcm = math.lcm(den, m)
            num *= lcm // den
            den = lcm
        num += table._value(g, a) * (den // m)
    return F(math.factorial(n) * num, den * table._q**g << _scale_exp(g))


def dilaton_fold_diag(g, k, table, free_sums):
    """The coefficient of diag_Omega(g, k): removing the l tau_1's of each
    orbit by the dilaton equation leaves, with m = k - l,
    sum_l C(k, l) (2g-2+m)(2g-1+m)...(2g-3+m+l) F(g, m), F = ``free_sum``
    (memoized in ``free_sums``), and the base term (l - 1)! <tau_1>_1 of
    (g, m) = (1, 0)."""
    total = F(0)
    for l in range(k + 1):
        m = k - l
        if (g, m) == (1, 0):
            total += math.factorial(l - 1) * table.correlator(1, (1,))
        elif is_stable(g, m):
            if (g, m) not in free_sums:
                free_sums[(g, m)] = free_sum(table, g, m)
            rising = math.prod(range(2 * g - 2 + m, 2 * g - 2 + m + l))
            total += math.comb(k, l) * rising * free_sums[(g, m)]
    return total


@pytest.mark.parametrize("tau1", [F(1, 24), F(1, 23)], ids=["1/24", "1/23"])
def test_s_term_equals_the_dilaton_fold(tau1):
    # a mutated table obeys the string and dilaton steps it was built with,
    # so both folds must agree on it too
    table, oracle, free_sums = CorrelatorTable(tau1=tau1), CorrelatorTable(tau1=tau1), {}
    for n in range(2, 25):
        cells = [(g, n + 1 - 2 * g) for g in range(n // 2 + 1)]
        expected = sum(dilaton_fold_diag(g, k, oracle, free_sums) / math.factorial(k) for g, k in cells)
        assert s_term(n, 1, table).coeff == expected, n


def test_quantum_curve_reads_only_core_keys():
    # the dilaton fold stored 10189 keys here, every tau_1-free key of each cell
    table = CorrelatorTable()
    for branch in (1, -1):
        assert quantum_curve_report(20, branch, table).passed
    assert len(table) == 2404


# power series in X, truncated after X^_M, as lists of Fractions
_M = 13


def _mul(p, q):
    out = [F(0)] * (_M + 1)
    for i, pi in enumerate(p):
        for j in range(_M + 1 - i):
            out[i + j] += pi * q[j]
    return out


def _binomial(alpha, s):
    """(1 + s)^alpha for a series s with no constant term."""
    out, power, coeff = [F(0)] * (_M + 1), [F(1)] + [F(0)] * _M, F(1)
    for j in range(_M + 1):
        out = [o + coeff * c for o, c in zip(out, power)]
        power, coeff = _mul(power, s), coeff * (alpha - j) / (j + 1)
    return out


def _shift(s, j):
    """X^j s."""
    return ([F(0)] * j + s)[: _M + 1]


def test_universal_coefficients_equal_the_series_reversion():
    # v(X) from X = v (1 + 2v)^(-3/2) by the fixed point v = X (1 + 2v)^(3/2),
    # one more exact coefficient per pass
    v = [F(0)] * (_M + 1)
    for _ in range(_M):
        v = _shift(_binomial(F(3, 2), [2 * c for c in v]), 1)
    y = _mul(v, _binomial(F(-1), [-c for c in v]))
    y_powers, v_powers = [[F(1)] + [F(0)] * _M], [[F(1)] + [F(0)] * _M]
    for _ in range(_M):
        y_powers.append(_mul(y_powers[-1], y))
        v_powers.append(_mul(v_powers[-1], v))
    minus_log = [sum((v_powers[i][m] / i for i in range(1, _M + 1)), F(0)) for m in range(_M + 1)]
    # F_0 = 1/2 int_0^{u_0} (u - I_0(u))^2 du with I_0(u) = x (1 - 2 x^2 u)^(-1/2);
    # u = x s and r = u_0 / x = (1 + 2v)^(1/2) make it X/2 times
    # r^3/3 - 2 sum_j (2j-1)!!/j! X^j r^(j+2)/(j+2) + sum_j 2^j X^j r^(j+1)/(j+1)
    r = _binomial(F(1, 2), [2 * c for c in v])
    r_powers = [[F(1)] + [F(0)] * _M]
    for _ in range(_M + 2):
        r_powers.append(_mul(r_powers[-1], r))
    bracket = [c / 3 for c in r_powers[3]]
    for j in range(_M + 1):
        odd = F(math.prod(range(2 * j - 1, 0, -2)), math.factorial(j))
        for i, c in enumerate(_shift(r_powers[j + 2], j)):
            bracket[i] -= 2 * odd * c / (j + 2)
        for i, c in enumerate(_shift(r_powers[j + 1], j)):
            bracket[i] += F(2**j, j + 1) * c
    genus0 = [c / 2 for c in _shift(bracket, 1)]
    table = CorrelatorTable()
    for m in range(1, _M + 1):
        den, log, nums = _lagrange_row(m)
        log, c = F(log, den), [F(x, den) for x in nums]
        assert log == minus_log[m], m
        assert list(c) == [y_powers[chi][m] for chi in range(m + 1)], m
        assert all(y_powers[chi][m] == 0 for chi in range(m + 1, _M + 1)), m
        assert diag_Omega(1, m, table)[0] == math.factorial(m) * F(1, 24) * minus_log[m], m
        assert diag_Omega(0, m + 2, table)[0] == math.factorial(m + 2) * genus0[m], m


# ---------------------------------------------------------------------------
# the int sums against their Fraction forms (tests/_oracles.py)


@pytest.mark.parametrize("tau1", [F(1, 24), F(1, 12), F(1, 23)], ids=["1/24", "1/12", "1/23"])
def test_s_term_equals_the_fraction_assembly(tau1):
    table, oracle = CorrelatorTable(tau1=tau1), CorrelatorTable(tau1=tau1)
    for n in range(2, 25):
        for branch in (1, -1):
            assert s_term(n, branch, table).coeff == fraction_s_coeff(n, branch, oracle), (n, branch)
        for g in range(n // 2 + 1):
            k = n + 1 - 2 * g
            assert diag_Omega(g, k, table)[0] == fraction_diag(g, k, oracle), (g, k)


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("wrong", range(2, 7))
def test_residual_equals_the_fraction_residual(table, branch, wrong):
    terms = s_terms(12, branch, table)
    good = terms[wrong]
    terms[wrong] = WkbTerm(wrong, branch, "monomial", good.coeff * F(7, 5) - F(1, 3), good.halfsteps)
    residuals = [_residual(n, terms) for n in range(13)]
    assert residuals == [fraction_residual(n, terms) for n in range(13)]
    assert residuals[wrong] != 0 and not any(residuals[:wrong])


def test_residual_rejects_a_term_off_its_monomial(table):
    terms = s_terms(5, 1, table)
    good = terms[4]
    terms[4] = WkbTerm(4, 1, "monomial", good.coeff, good.halfsteps + 3)
    with pytest.raises(ValueError, match=r"^sigma_4 off its monomial w\^\(12/2\)$"):
        _residual(4, terms)
    terms[4] = WkbTerm(4, 1, "log", good.coeff)
    with pytest.raises(ValueError, match=r"^sigma_4 off its monomial"):
        verify_order(5, 1, terms)


def test_t_recursion_rejects_a_log_term(table):
    terms = s_terms(5, 1, table)
    terms[3] = WkbTerm(3, 1, "log", terms[3].coeff)
    with pytest.raises(ValueError, match=r"^S_3 is not a monomial$"):
        t_recursion_check(5, terms)


@pytest.mark.parametrize("order", [True, False, 2.0, "3", None])
def test_orders_must_be_ints(table, order):
    with pytest.raises(ValueError, match=r"^n must be an int, got "):
        s_term(order, 1, table)
    with pytest.raises(ValueError, match=r"^N must be an int, got "):
        s_terms(order, 1, table)
    with pytest.raises(ValueError, match=r"^N must be an int, got "):
        quantum_curve_report(order, -1, table)
    with pytest.raises(ValueError, match=r"^N must be >= 0$"):
        s_terms(-1, 1, table)


def test_branch_must_be_an_int(table):
    # True == 1 and 1.0 == 1, so a membership test alone would take either for +1
    for branch in (True, 1.0, 0):
        with pytest.raises(ValueError, match=r"^branch must be \+1 or -1$"):
            s_term(2, branch, table)
        with pytest.raises(ValueError, match=r"^branch must be \+1 or -1$"):
            quantum_curve_report(3, branch, table)
