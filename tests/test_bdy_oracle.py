"""The Bertola-Dubrovin-Yang n-point functions as an oracle for the DVV table.

Bertola, Dubrovin, Yang, "Correlation functions of the KdV hierarchy and
applications to intersection numbers over M_{g,n}", arXiv:1504.06452.
With (-1)!! = 1 and the 2x2 matrix series

    M(l) = [[-A/2, -B], [C, A/2]],
    A = sum_{g>=1} (6g-5)!! / (24^(g-1) (g-1)!) l^(2-3g),
    B = sum_{g>=0} (6g-1)!! / (24^g g!) l^(-3g),
    C = sum_{g>=0} (6g+1)/(6g-1) (6g-1)!! / (24^g g!) l^(1-3g),

every n-point function with n >= 2 is

    sum_d <tau_d1 ... tau_dn>_g prod (2d_i+1)!! l_i^(-d_i-1)
        = -(1/n) sum_{s in S_n} tr(M(l_s1) ... M(l_sn)) / prod_i (l_si - l_s(i+1))
          - delta_{n,2} (l_1 + l_2) / (l_1 - l_2)^2

with s(n+1) = s1.  Rotating a cycle changes neither the trace nor the
denominator, so the sum is n times the sum over the s with s1 = 1.  The
delta term has degree -1, so it is the genus-0 part of n = 2, where it
cancels the traces: (0, 2) is unstable and has no correlators.

Both sides are multiplied by a polynomial D, so no series is divided.
For n >= 3 a cycle uses each pair once, so D = prod_{i<j} (l_i - l_j)
suffices, and D / den_s is prod_{other pairs} (l_i - l_j) times -1 for
each cycle edge (a, b) with a > b.  For n = 2 the one cycle's denominator
is -(l_1 - l_2)^2, so D = (l_1 - l_2)^2 and D / den_s = -1.  Either way
D / den_s has degree deg D - n, and the genus-g part of the left side has
degree -(3g - 3 + 2n), so only the degree-(3 - n - 3g) part of each trace
is needed.  Every entry of M has degree at most 1, which prunes the
partial products that can no longer reach it.

The oracle has its own partitions, weights and permutations, and reads
the DVV table only through ``CorrelatorTable.correlator``.
"""

import math
from fractions import Fraction
from itertools import permutations

import pytest

from airyqc import CorrelatorTable


def _odd_factorial(k):
    """k!! for odd k >= -1, with (-1)!! = 1."""
    return math.prod(range(k, 0, -2))


def _matrix(min_degree):
    """The entries of M as lists of (degree, coefficient), down to min_degree."""
    A, B, C = [], [], []
    for g in range((1 - min_degree) // 3 + 1):
        w = Fraction(_odd_factorial(6 * g - 1), 24**g * math.factorial(g))
        B.append((-3 * g, w))
        C.append((1 - 3 * g, w * Fraction(6 * g + 1, 6 * g - 1)))
        if g >= 1:
            A.append((2 - 3 * g, Fraction(_odd_factorial(6 * g - 5), 24 ** (g - 1) * math.factorial(g - 1))))

    def keep(terms, scale):
        return [(d, scale * c) for d, c in terms if d >= min_degree]

    return {
        (0, 0): keep(A, Fraction(-1, 2)),
        (0, 1): keep(B, -1),
        (1, 0): keep(C, 1),
        (1, 1): keep(A, Fraction(1, 2)),
    }


def _trace(cycle, degree):
    """The degree-``degree`` part of tr(M(l_c1) ... M(l_cn)) as {exponents: coeff}."""
    n = len(cycle)
    M = _matrix(degree - (n - 1))
    partial = {(0, 0, ()): Fraction(1), (1, 1, ()): Fraction(1)}
    for k in range(n):
        room = n - 1 - k  # each later factor adds degree at most 1
        product = {}
        for (i, j, exps), c in partial.items():
            s = sum(exps)
            for jj in (0, 1):
                for d, m in M[j, jj]:
                    if s + d + room < degree or (room == 0 and s + d != degree):
                        continue
                    key = (i, jj, exps + (d,))
                    product[key] = product.get(key, 0) + c * m
        partial = product
    trace = {}
    for (i, j, exps), c in partial.items():
        if i == j:
            key = [0] * n
            for v, d in zip(cycle, exps):
                key[v] = d
            key = tuple(key)
            trace[key] = trace.get(key, 0) + c
    return trace


def _mul(p, q):
    out = {}
    for e, c in p.items():
        for f, d in q.items():
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + c * d
    return {k: c for k, c in out.items() if c}


def _mul_rational(p, q):
    """p * q for Fraction coefficients p and int coefficients q, multiplied
    out in integers over one common denominator of p."""
    den = math.lcm(*(c.denominator for c in p.values()))
    scaled = {k: c.numerator * (den // c.denominator) for k, c in p.items()}
    return {k: Fraction(c, den) for k, c in _mul(scaled, q).items()}


def _difference(n, a, b):
    """l_a - l_b in n variables."""
    return {tuple(int(v == a) for v in range(n)): 1, tuple(int(v == b) for v in range(n)): -1}


def _one(n):
    return {(0,) * n: 1}


def _multiplier(n):
    """D: prod_{i<j} (l_i - l_j), squared for n = 2."""
    D = _one(n)
    for i in range(n):
        for j in range(i + 1, n):
            D = _mul(D, _difference(n, i, j))
    return _mul(D, D) if n == 2 else D


def _cofactor(cycle):
    """D / prod_i (l_ci - l_c(i+1)) for a cycle through n >= 2 variables."""
    n = len(cycle)
    if n == 2:
        return {(0, 0): -1}
    edges = {(cycle[i], cycle[(i + 1) % n]) for i in range(n)}
    out = _one(n)
    for i in range(n):
        for j in range(i + 1, n):
            if (j, i) in edges:
                out = {k: -c for k, c in out.items()}
            elif (i, j) not in edges:
                out = _mul(out, _difference(n, i, j))
    return out


def bdy_side(n, g):
    """D times the genus-g part of the BDY right-hand side, summed in
    integers over one common denominator of the traces."""
    cycles = [(0,) + rest for rest in permutations(range(1, n))]
    traces = [_trace(cycle, 3 - n - 3 * g) for cycle in cycles]
    den = math.lcm(*(c.denominator for trace in traces for c in trace.values()))
    total = {}
    for cycle, trace in zip(cycles, traces):
        scaled = {k: c.numerator * (den // c.denominator) for k, c in trace.items()}
        for key, c in _mul(scaled, _cofactor(cycle)).items():
            total[key] = total.get(key, 0) - c
    if (n, g) == (2, 0):  # D times -(l_1 + l_2) / (l_1 - l_2)^2
        for key in ((1, 0), (0, 1)):
            total[key] = total.get(key, 0) - den
    return {k: Fraction(c, den) for k, c in total.items() if c}


def _compositions(total, parts):
    """Ordered tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def dvv_side(n, g, table):
    """D times the genus-g n-point function read from the DVV table."""
    generating = {}
    for d in _compositions(3 * g - 3 + n, n):
        weight = math.prod(_odd_factorial(2 * di + 1) for di in d)
        generating[tuple(-di - 1 for di in d)] = weight * table.correlator(g, d)
    return _mul_rational(generating, _multiplier(n))


REACH = [(2, g) for g in range(11)] + [(3, g) for g in range(11)] + [(4, g) for g in range(4)] + [(5, g) for g in range(3)]


@pytest.mark.parametrize("n, g", REACH)
def test_bdy_equals_dvv(table, n, g):
    assert bdy_side(n, g) == dvv_side(n, g, table)


def test_bdy_rejects_wrong_tau1_seed():
    bad = CorrelatorTable(tau1=Fraction(1, 23))
    assert bdy_side(3, 0) == dvv_side(3, 0, bad)  # genus 0 never reads <tau_1>_1
    assert bdy_side(3, 1) != dvv_side(3, 1, bad)
    assert bdy_side(4, 2) != dvv_side(4, 2, bad)
    assert bdy_side(2, 1) != dvv_side(2, 1, bad)
    assert bdy_side(5, 1) != dvv_side(5, 1, bad)
