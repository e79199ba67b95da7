"""``diag_Omega`` folds the dilaton equation: it sums only the tau_1-free
orbits of each cell.  The oracle here sums every orbit, tau_1 ones
included, with its own partitions, orbit counts and weights, reading the
values from a separate table."""

import math
from collections import Counter
from fractions import Fraction as F

import pytest

from airyqc import CorrelatorTable, diag_Omega, quantum_curve_report


def _partitions(total, parts, largest):
    """Descending tuples of ``parts`` non-negative integers <= ``largest``
    summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), -1, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _full_key_diagonal(g, k, table):
    total = F(0)
    for a in _partitions(3 * g - 3 + k, k, 3 * g - 3 + k):
        orbit = math.factorial(k)
        for mult in Counter(a).values():
            orbit //= math.factorial(mult)
        weight = math.prod(math.prod(range(2 * x - 1, 0, -2)) for x in a)
        total += orbit * weight * table.correlator(g, a)
    return total


def _cells(order):
    """Stable (g, k) with 2g - 1 + k <= order."""
    for g in range(order // 2 + 1):
        for k in range(1, order + 2 - 2 * g):
            if 2 * g - 2 + k > 0:
                yield g, k


@pytest.mark.parametrize("tau1, order", [(F(1, 24), 20), (F(1, 23), 10)])
def test_fold_matches_full_key_sum(tau1, order):
    folded, oracle = CorrelatorTable(tau1=tau1), CorrelatorTable(tau1=tau1)
    for g, k in _cells(order):
        assert diag_Omega(g, k, folded) == (_full_key_diagonal(g, k, oracle), 6 * g - 6 + 3 * k), (g, k)


def test_fold_reads_cells_once_per_table():
    table = CorrelatorTable()
    first = quantum_curve_report(8, 1, table)
    misses, hits = table.misses, table.hits
    second = quantum_curve_report(8, -1, table)
    assert first.passed and second.passed
    # the second branch computes nothing and reads only the seed <tau_1>_1,
    # once per g = 1 cell (k = 1, ..., 7)
    assert (table.misses, table.hits) == (misses, hits + 7)
