"""Dijkgraaf's two-point function as an oracle for the two recursion routes.

``_oracles.two_point_function`` sums the closed form

    (x + y) sum <tau_a tau_b>_g x^a y^b
        = exp((x^3 + y^3)/24) sum_n n!/(2n+1)! (x y (x + y)/2)^n

(R. Dijkgraaf, hep-th/9201003) with no partitions and no recursion, and
<tau_{3g-2}>_g = 1/(24^g g!) is the one-point function exp(x^3/24)/x^2.
``test_correlators.test_dijkgraaf_two_point`` checks the DVV table
against both through genus 30.  Here the seed-only Omega chain and the
EO cells are checked on their (g, 1) and (g, 2) cells through
2g - 2 + n = 12, each orbit mapped back to <tau_a>_g by the builders'
weights, so neither check reads a DVV value.
"""

import math
from fractions import Fraction

import pytest

from airyqc import Omega_base, Omega_step, eo_shell
from airyqc.correlators import shell_cells

from _oracles import two_point_function

MAX_CHI = 12


def _odd_factorial(k):
    """k!! for odd k >= -1, with (-1)!! = 1."""
    return math.prod(range(k, 0, -2))


def _seed_only_Omega_chain():
    cells = {}
    for g, n in shell_cells(1, MAX_CHI):
        if (g, n) in ((0, 3), (1, 1)):
            cells[(g, n)] = Omega_base(g, n)
        else:
            cells[(g, n)] = Omega_step(g, n - 1, cells)
    return cells


# each route's cells, and the orbit of a that carries
# <tau_a>_g prod (2a_i + shift)!!
ROUTES = {
    "Omega-chain": (_seed_only_Omega_chain, lambda a: tuple(2 * ai + 1 for ai in a), -1),
    "eo": (lambda: eo_shell(MAX_CHI), tuple, 1),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_one_and_two_point_cells_against_the_closed_forms(route):
    build, exponents, shift = ROUTES[route]
    cells = build()
    checked = 0
    for g in range(1, MAX_CHI // 2 + 1):
        two_point = two_point_function(g)
        expected = {
            1: {(3 * g - 2,): Fraction(1, 24**g * math.factorial(g))},
            2: {(3 * g - 1 - b, b): two_point[3 * g - 1 - b] for b in range((3 * g - 1) // 2 + 1)},
        }
        for n, values in expected.items():
            weighted = {
                exponents(a): value * math.prod(_odd_factorial(2 * ai + shift) for ai in a)
                for a, value in values.items()
            }
            assert cells[(g, n)].orbits == weighted, (g, n)
            checked += len(weighted)
    assert checked == 39
