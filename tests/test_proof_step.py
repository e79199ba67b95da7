"""The paper's proof step, term by term: the Omega step specializes to the
t-recursion of the WKB terms.

Write S_i = c_i w^(h_i/2), h_i = 3i - 3, and d_w S_i = c'_i w^(h_i/2 - 1).
The principal specialization w_0 = ... = w_n = w of d_{w_0} Omega_{g,n+1}
is the sum of the step's table entries, each tail times its orbit size,
over the step's denominator 4 L^2, and d_w S_m is the sum of these over
the steps (g, n) with 2g + n = m, each over n!.  The split entries give
sum_{i+j=m, i,j>=2} c'_i c'_j, and the genus and transfer entries give
c_(m-1) (h/2) (h+3)/2, h = h_(m-1): with d_t = w^(5/2) d_w, the two sides
of d_t S_m = d_t^2 S_(m-1) + sum d_t S_i d_t S_j.  The left side comes from
the chain of Omega cells built from the two seeds alone, the right from the
DVV table through the Itzykson-Zuber fold of ``wkb``.
"""

import math
from fractions import Fraction as F

import pytest

import airyqc.wkb
from airyqc import CorrelatorTable, Omega_base, Omega_step
from airyqc.core import orbit_size
from airyqc.correlators import is_stable, shell_cells
from airyqc.polynomials import _calD_dx, _lower_cells, _split_table, _step_values
from airyqc.wkb import s_terms

ORDERS = range(3, 13)


@pytest.fixture(scope="module")
def chain():
    cells = {}
    for g, n in shell_cells(1, max(ORDERS) - 2):
        cells[(g, n)] = Omega_base(g, n) if (g, n) in ((0, 3), (1, 1)) else Omega_step(g, n - 1, cells)
    return cells


def _specialized(m, chain):
    """(split part, genus and transfer part) of d_w S_m from the steps."""
    split_sum = rest_sum = F(0)
    for g in range(m // 2 + 1):
        n = m - 2 * g
        if not is_stable(g, n + 1):
            continue
        split = _split_table(_lower_cells(g, n, chain, 2, _calD_dx)[2])
        step, den = _step_values(g, n, chain, 2, _calD_dx)
        scale = F(1, math.factorial(n) * den)
        split_sum += scale * sum(orbit_size(tail) * c for tail, c in split.items())
        rest_sum += scale * sum(orbit_size(tail) * (c - split.get(tail, 0)) for tail, c in step.items())
    return split_sum, rest_sum


def _failures(chain, terms):
    """The orders m at which each identity fails, (split, genus and transfer)."""
    c = {i: terms[i].coeff for i in range(2, max(ORDERS) + 1)}
    dc = {i: c[i] * F(3 * i - 3, 2) for i in c}
    split_bad, rest_bad = [], []
    for m in ORDERS:
        split_sum, rest_sum = _specialized(m, chain)
        h = 3 * (m - 1) - 3
        if split_sum != sum((dc[i] * dc[m - i] for i in range(2, m - 1)), F(0)):
            split_bad.append(m)
        if rest_sum != c[m - 1] * F(h, 2) * F(h + 3, 2):
            rest_bad.append(m)
    return split_bad, rest_bad


def test_omega_step_specializes_to_the_t_recursion(chain):
    assert _failures(chain, s_terms(max(ORDERS), 1, CorrelatorTable())) == ([], [])


def test_a_wrong_lagrange_row_breaks_both_identities(chain, monkeypatch):
    # c(5, 5) + 1/den moves S_6 alone: the split identity then fails at
    # every m with a c'_6 c'_j term, the genus one at m = 7
    row = airyqc.wkb._lagrange_row

    def wrong(m):
        den, log, c = row(m)
        return (den, log, c[:-1] + (c[-1] + 1,)) if m == 5 else (den, log, c)

    monkeypatch.setattr(airyqc.wkb, "_lagrange_row", wrong)
    assert _failures(chain, s_terms(max(ORDERS), 1, CorrelatorTable())) == ([8, 9, 10, 11, 12], [7])
