"""Helpers of the test oracles that expand every split and every
permutation or count the multiplicity of a merge, which the package
itself no longer does, the Fraction
forms of the WKB sums and of the correlator-to-polynomial builders, which
it now runs on ints, and Dijkgraaf's closed-form two-point function."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

from airyqc.core import odd_weight, orbit_size
from airyqc.correlators import cell_keys


def accumulate(d: dict, key, c) -> None:
    """Add `c` to ``d[key]`` in a sparse dict, dropping the key when the
    sum is zero, so that ``d`` never stores a zero coefficient: the
    accumulator of the expanded Fraction steps.

    >>> d = {}
    >>> accumulate(d, (2, 1), Fraction(1, 2))
    >>> accumulate(d, (1, 2), Fraction(3))
    >>> accumulate(d, (2, 1), Fraction(-1, 2))
    >>> d
    {(1, 2): Fraction(3, 1)}
    """
    c += d.get(key, 0)
    if c:
        d[key] = c
    else:
        d.pop(key, None)


def multiset_permutations(items):
    """Yield each distinct permutation of `items` exactly once, by its own
    recursion over the remaining counts: the reference for
    ``core.readings`` read with every slot singled out."""
    items = tuple(sorted(items, reverse=True))
    n = len(items)
    counts = Counter(items)
    values = sorted(counts, reverse=True)
    out = [None] * n

    def rec(pos):
        if pos == n:
            yield tuple(out)
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                out[pos] = v
                yield from rec(pos + 1)
                counts[v] += 1

    yield from rec(0)


def sub_multisets(items):
    """Yield (mu, nu, count) over the distinct sub-multisets mu of `items`,
    nu the rest and `count` the number of index subsets realizing mu, by a
    product over the value counts: the reference for the split walk of
    ``CorrelatorTable._rhs``, which visits them in this order.  Both come
    out descending; the empty and the full mu are included.

    >>> list(sub_multisets((2, 1, 1)))[:3]
    [((), (2, 1, 1), 1), ((1,), (2, 1), 2), ((1, 1), (2,), 1)]
    """
    counts = sorted(Counter(items).items(), reverse=True)
    for picks in product(*(range(c + 1) for _, c in counts)):
        mu, nu, mult = (), (), 1
        for (v, c), k in zip(counts, picks):
            mu += (v,) * k
            nu += (v,) * (c - k)
            mult *= math.comb(c, k)
        yield mu, nu, mult


def merge(mu, nu):
    """(tail, mult): the descending merge of the descending tuples `mu`
    and `nu`, and the number of position sets of the tail that realize
    `mu`, prod_v C(count of v in the tail, count of v in mu); the inverse
    of the DVV right-hand side's split of a tail into a sub-multiset and
    the rest of it, and the multiplicity that the EGF weights of both
    recursion routes fold in.

    >>> merge((2, 1), (1, 0))
    ((2, 1, 1, 0), 2)
    """
    tail = tuple(sorted(mu + nu, reverse=True))
    mult = 1
    for v in set(mu).intersection(nu):
        mult *= math.comb(tail.count(v), mu.count(v))
    return tail, mult


def from_expanded(cls, nvars, terms):
    """Group a {full exponent tuple: coeff} dict into the orbits of a
    ``cls`` cell, checking that the data really is symmetric (orbit
    complete, coefficients constant on each orbit)."""
    grouped = {}
    for exps, coeff in terms.items():
        if not coeff:
            continue
        grouped.setdefault(tuple(sorted(exps, reverse=True)), []).append(coeff)
    orbits = {}
    for orbit, coeffs in grouped.items():
        if len(coeffs) != orbit_size(orbit) or any(c != coeffs[0] for c in coeffs):
            raise ValueError(f"terms are not symmetric on orbit {orbit}")
        orbits[orbit] = coeffs[0]
    return cls(nvars, orbits)


def correlator_cell(g, n, table, poly_cls, shift, exponents):
    """The cell whose orbit ``exponents(a)`` carries <tau_a>_g
    prod (2a_i + shift)!!, one public ``correlator`` read and one Fraction
    product per key: the builders' path before they read the memo ints."""
    orbits = {}
    for a in cell_keys(g, n):
        value = table.correlator(g, a)
        if value:
            orbits[exponents(a)] = value * odd_weight(a, shift)
    return poly_cls(n, orbits)


def ordered_splits(g, positions):
    """Yield each ordered split (g_1, A_1, g_2, A_2): g_1 + g_2 = g, and A_1,
    A_2 complementary sub-lists of `positions`.  Stability is the caller's."""
    for g1 in range(g + 1):
        for mask in range(1 << len(positions)):
            A1 = [p for i, p in enumerate(positions) if mask >> i & 1]
            A2 = [p for i, p in enumerate(positions) if not mask >> i & 1]
            yield g1, A1, g - g1, A2


# ---------------------------------------------------------------------------
# the WKB assembly and the order-hbar^n residual in Fractions, as ``wkb`` ran
# them before they summed ints over one denominator


def fraction_lagrange_row(m):
    """([X^m] (-log(1 - v)), (c(m, 0), ..., c(m, m))) as Fractions, each
    reduced on its own."""
    terms = [math.factorial(m)]
    for j in range(m):
        terms.append(terms[-1] * (3 * m - 2 * j) // (j + 1))
    den = m * terms[0]
    sums = (chi * sum(math.comb(m - j, chi) * terms[j] for j in range(m - chi + 1)) for chi in range(m + 1))
    return Fraction(sum(terms[:m]), den), tuple(Fraction(num, den) for num in sums)


def fraction_diag(g, k, table):
    """The coefficient of Omega_{g,k}(w, ..., w), one Fraction product per
    term of the Itzykson-Zuber fold."""
    if g == 0:
        return Fraction(math.prod(range(k, 3 * k - 7, 2)))
    log, c = fraction_lagrange_row(2 * g - 2 + k)
    if g == 1:
        total = log * table.correlator(1, (1,))
    else:
        ls = range(1, min(k, 3 * g - 3) + 1)
        total = sum((table.core_sum(g, l) * c[2 * g - 2 + l] / math.factorial(l) for l in ls), Fraction(0))
    return math.factorial(k) * total


def fraction_s_coeff(n, branch, table):
    """The coefficient of S_n (n >= 2): branch^(n+1) sum_g diag(g, k)/k!
    over the cells 2g - 1 + k = n."""
    total = Fraction(0)
    for g in range(n // 2 + 1):
        k = n + 1 - 2 * g
        total += fraction_diag(g, k, table) / math.factorial(k)
    return Fraction(branch) ** (n + 1) * total


def _w52d(coeff, halfsteps):
    """w^(5/2) d_w on a single monomial: exponent +3 half-steps."""
    return coeff * Fraction(halfsteps, 2), halfsteps + 3


def fraction_residual(n, terms):
    """The coefficient of R_n from the sigma_i as Fractions."""
    sigma = []
    for i in range(n + 1):
        t = terms[i]
        c, h = (t.coeff, 3) if t.kind == "log" else _w52d(t.coeff, t.halfsteps)
        if h != 3 * i:
            raise ValueError(f"sigma_{i} off its monomial w^({3 * i}/2)")
        sigma.append(c)
    total = sum(sigma[i] * sigma[n - i] for i in range(n + 1))
    if n == 0:
        return total - Fraction(1, 4)
    return total + _w52d(sigma[n - 1], 3 * n - 3)[0] - sigma[n - 1] / 2


# ---------------------------------------------------------------------------
# Dijkgraaf's two-point function, a closed form that shares no code with the
# package


def two_point_function(g):
    """[<tau_a tau_{3g-1-a}>_g for a = 0..3g-1], g >= 1, from Dijkgraaf's
    two-point function (hep-th/9201003; Liu-Xu, math/0701319)

        (x + y) sum <tau_a tau_b>_g x^a y^b
            = exp((x^3 + y^3)/24) sum_n n!/(2n+1)! (x y (x + y)/2)^n.

    Genus g is the part of degree 3g, the terms with k + n = g where k is
    the power taken from the exponential, summed as ints {power of x:
    coeff} over D = 24^g g! (2g+1)!, which every term's denominator
    24^k k! (2n+1)! 2^n divides; it is divided by x + y exactly, with no
    remainder.

    >>> two_point_function(2)
    [Fraction(1, 1152), Fraction(1, 384), Fraction(29, 5760), Fraction(29, 5760), Fraction(1, 384), Fraction(1, 1152)]
    """
    f = math.factorial
    den = 24**g * f(g) * f(2 * g + 1)
    rhs = [0] * (3 * g + 1)
    for k in range(g + 1):
        n = g - k
        scale = den // (24**k * f(k) * f(2 * n + 1) * 2**n) * f(n)
        for i in range(k + 1):  # (x^3 + y^3)^k
            for j in range(n + 1):  # (x y)^n (x + y)^n
                rhs[3 * i + n + j] += scale * math.comb(k, i) * math.comb(n, j)
    quotient, q = [], 0
    for c in rhs[:-1]:
        q = c - q
        quotient.append(Fraction(q, den))
    assert rhs[-1] == q, "x + y does not divide the genus-g part"
    return quotient
