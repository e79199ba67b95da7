"""The integer correlator table against the Fraction table it replaced.

``_FractionTable`` is the DVV table as it was before the memo held the
ints S = 2^E(g) q^g ttau: the same string and dilaton reductions and the
same full right-hand side, with the same special insertion (the smallest
entry), summed in ``Fraction``s in the ttau normalization and divided by
prod (2a_i+1)!! at the end.  Its job is the integer scale, not the choice
of special, which only a mutated seed can see.  It walks the splits by
the reference ``sub_multisets`` of ``_oracles``, not by the table's own
walk, and shares only ``odd_weight`` and ``is_stable`` with the table, no
arithmetic.
"""

import re
from fractions import Fraction

import pytest

import airyqc.correlators
from airyqc import CorrelatorTable
from airyqc.cli import main
from airyqc.core import odd_weight, orbit_size
from airyqc.correlators import cell_keys, is_stable, shell_cells, shell_keys
from test_wkb import free_sum

from _oracles import sub_multisets

HALF = Fraction(1, 2)


class _FractionTable:
    def __init__(self, tau1):
        self.memo = {(0, (0, 0, 0)): Fraction(1), (1, (1,)): Fraction(tau1)}

    def value(self, g, a):
        if sum(a) != 3 * g - 3 + len(a):
            return Fraction(0)
        value = self.memo.get((g, a))
        if value is None:
            value = self.memo[(g, a)] = self._reduce(g, a)
        return value

    def _reduce(self, g, a):
        if 1 in a and is_stable(g, len(a) - 1):
            i = a.index(1)
            return (2 * g - 3 + len(a)) * self.value(g, a[:i] + a[i + 1 :])
        if a[-1] == 0 and is_stable(g, len(a) - 1):
            rest = a[:-1]
            total = Fraction(0)
            for j, v in enumerate(rest):
                if v and rest[j + 1 : j + 2] != (v,):
                    total += rest.count(v) * self.value(g, rest[:j] + (v - 1,) + rest[j + 1 :])
            return total
        return self._rhs(g, a[-1], a[:-1])

    def _tnorm(self, g, a):
        return self.value(g, a) * odd_weight(a, 1)

    def _rhs(self, g, a0, rest):
        n = len(rest)
        total = Fraction(0)
        for i, v in enumerate(rest):
            b = a0 + v - 1
            if b >= 0 and rest[i + 1 : i + 2] != (v,):
                child = tuple(sorted(rest[:i] + rest[i + 1 :] + (b,), reverse=True))
                total += rest.count(v) * (2 * v + 1) * self._tnorm(g, child)
        if g >= 1 and a0 >= 2 and is_stable(g - 1, n + 2):
            for b1 in range(a0 - 1):
                child = tuple(sorted(rest + (b1, a0 - 2 - b1), reverse=True))
                total += HALF * self._tnorm(g - 1, child)
        if a0 >= 2:
            for mu, nu, mult in sub_multisets(rest):
                for g1 in range(g + 1):
                    g2 = g - g1
                    if not (is_stable(g1, len(mu) + 1) and is_stable(g2, len(nu) + 1)):
                        continue
                    b1 = 3 * g1 - 2 + len(mu) - sum(mu)
                    b2 = a0 - 2 - b1
                    if b1 < 0 or b2 < 0:
                        continue
                    f1 = self._tnorm(g1, tuple(sorted(mu + (b1,), reverse=True)))
                    f2 = self._tnorm(g2, tuple(sorted(nu + (b2,), reverse=True)))
                    total += HALF * mult * f1 * f2
        return total / odd_weight((a0,) + rest, 1)


@pytest.mark.parametrize(
    "tau1, max_chi",
    [(Fraction(1, 24), 11), (Fraction(1, 23), 9), (Fraction(1, 12), 9)],
    ids=["1/24", "1/23", "1/12"],
)
def test_int_table_equals_fraction_table(tau1, max_chi):
    table, oracle = CorrelatorTable(tau1=tau1), _FractionTable(tau1)
    table.fill_shell(max_chi)
    for g, a in shell_keys(max_chi):
        assert table.correlator(g, a) == oracle.value(g, a), (g, a)
    assert dict(table.items()) == oracle.memo
    assert all(type(s) is int for s in table._memo.values())


@pytest.mark.parametrize("tau1", [Fraction(1, 24), Fraction(1, 23)], ids=["1/24", "1/23"])
def test_free_sum_equals_fraction_sum(tau1):
    # the integer cell sums: core_sum over the core keys (every a_i >= 2),
    # and the oracle's free_sum over the tau_1-free keys
    table, oracle = CorrelatorTable(tau1=tau1), _FractionTable(tau1)

    def fraction_sum(g, n, kept):
        keys = (a for a in cell_keys(g, n) if kept(a))
        return sum((orbit_size(a) * odd_weight(a, -1) * oracle.value(g, a) for a in keys), Fraction(0))

    for g, n in shell_cells(1, 9):
        assert table.core_sum(g, n) == fraction_sum(g, n, lambda a: a[-1] >= 2), (g, n)
        assert free_sum(table, g, n) == fraction_sum(g, n, lambda a: 1 not in a), (g, n)


@pytest.fixture
def short_scale(monkeypatch):
    """E(g) = 3g, which drops v2(g!) and is too small from genus 2 on."""
    monkeypatch.setattr(airyqc.correlators, "_scale_exp", lambda g: 3 * g)


def test_halving_check_names_the_key(short_scale):
    # <tau_4>_2 needs E(2) = 7; at 2^6 the split <tau_1>_1 <tau_1>_1 is odd
    table = CorrelatorTable()
    with pytest.raises(ValueError, match=re.escape("DVV sum of (g, a) = (2, (4,)) is odd")):
        table.correlator(2, (4,))


def test_halving_check_exits_2(short_scale, capsys):
    assert main(["correlator", "2", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: DVV sum of (g, a) = (2, (4,)) is odd: the scale 2^E(g) q^g is too small for it\n"


def test_halving_is_exact_for_any_int_memo():
    # a wrong but integral record changes values, never the parity of a sum
    table = CorrelatorTable()
    table.add_record(2, [4], Fraction(106, 120960))
    table.add_record(1, [2, 0], Fraction(1, 20))
    table.fill_shell(8)
    assert table.correlator(2, (4,)) != Fraction(1, 1152)


@pytest.mark.parametrize("tau1, unit", [(Fraction(1, 24), 120960), (Fraction(1, 23), 120960 * 23**2)], ids=["1/24", "1/23"])
def test_add_record_takes_only_whole_multiples_of_the_unit(tau1, unit):
    # the unit of <tau_4>_2 is 1 / (9!! 2^E(2) q^2)
    table = CorrelatorTable(tau1=tau1)
    with pytest.raises(ValueError, match=re.escape(f"is not a multiple of 1/{unit}")):
        table.add_record(2, [4], Fraction(1, 2 * unit))
    assert len(table) == 2
    table.add_record(2, [4], Fraction(7, unit))
    assert table.correlator(2, (4,)) == Fraction(7, unit)
