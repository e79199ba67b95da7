"""Psi-class intersection numbers via the DVV (Virasoro) recursion.

``CorrelatorTable`` memoizes <tau_{a_1} ... tau_{a_n}>_g, the intersection
numbers of psi classes on the moduli space of stable genus-g curves with n
marked points.  Values are computed by the Dijkgraaf-Verlinde-Verlinde
recursion written in the normalization ttau_a = (2a+1)!! tau_a, where it
reads (a_0 is the special insertion, [n]_i drops index i):

    <ttau_{a_0} prod ttau_{a_i}>_g
        = sum_i (2a_i+1) <ttau_{a_0+a_i-1} prod_{[n]_i} ttau_{a_j}>_g
        + 1/2 sum_{b_1+b_2=a_0-2} ( <ttau_{b_1} ttau_{b_2} prod ttau>_{g-1}
        + sum_{stable ordered splits} <ttau_{b_1} ...>_{g_1} <ttau_{b_2} ...>_{g_2} )

Insertions with a negative subscript contribute zero, the splitting sum
runs over ordered pairs (g_1, A_1), (g_2, A_2) with both parts stable, and
the two base values <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24 are seeded (the
recursion itself yields no constant term for them).

A value is nonzero only on the dimension shell sum(a_i) = 3g - 3 + n; keys
off that shell evaluate to 0 without recursing.

Before the full recursion, a key is reduced by the string and dilaton
equations (Witten 1991) whenever (g, n - 1) is stable:

    <tau_0 prod tau_{a_i}>_g = sum_i <tau_{a_i - 1} prod_{[n]_i} tau_{a_j}>_g
    <tau_1 prod tau_{a_i}>_g = (2g - 3 + n) <prod tau_{a_i}>_g

(dilaton first when the key holds a tau_1).  Both follow from the
recursion with the tau_0 resp. tau_1 insertion made special, so only the
core keys, every a_i >= 2, run the full right-hand side.  ``dvv_rhs``
always evaluates that full right-hand side and is the oracle the reduced
table is checked against.
"""

from __future__ import annotations

from fractions import Fraction

from .core import HALF, ZERO, bounded_partitions, odd_weight, sub_multisets

__all__ = [
    "CorrelatorTable",
    "canonical_key",
    "correlator_shell",
    "is_stable",
    "shell_cells",
    "shell_keys",
]


def is_stable(g: int, n: int) -> bool:
    return 2 * g - 2 + n > 0


def canonical_key(g, exponents):
    """Validate (g, exponents) and return the canonical sorted key.

    Raises ValueError for negative genus or exponents, empty insertion
    lists, and unstable (g, n).
    """
    exponents = tuple(exponents)
    n = len(exponents)
    if not isinstance(g, int) or g < 0:
        raise ValueError(f"genus must be a non-negative integer, got {g!r}")
    if n == 0:
        raise ValueError("at least one insertion is required")
    if any(not isinstance(a, int) or a < 0 for a in exponents):
        raise ValueError(f"exponents must be non-negative integers, got {exponents!r}")
    if not is_stable(g, n):
        raise ValueError(f"unstable (g, n) = ({g}, {n})")
    return g, tuple(sorted(exponents, reverse=True))


class CorrelatorTable:
    """Write-once memo of correlator values, with hit/miss counters.

    Every key computed, reduced ones included, is stored.  ``misses``
    counts keys computed; ``hits`` counts memo lookups that found a value,
    the recursion's own lookups of lower keys included.

    The two base values can be overridden (``tau0_cubed``, ``tau1``), which
    is used by mutation tests to confirm the downstream identities actually
    depend on them.  An overridden seed propagates through the string and
    dilaton reductions as through the full recursion, so such a table no
    longer satisfies ``dvv_rhs`` for every choice of special insertion.

    >>> t = CorrelatorTable()
    >>> t.correlator(1, (1,))
    Fraction(1, 24)
    >>> t.correlator(2, (4,))
    Fraction(1, 1152)
    """

    def __init__(self, *, tau0_cubed: Fraction = Fraction(1), tau1: Fraction = Fraction(1, 24)):
        self._memo = {}
        self.hits = 0
        self.misses = 0
        self._memo[(0, (0, 0, 0))] = Fraction(tau0_cubed)
        self._memo[(1, (1,))] = Fraction(tau1)

    def __len__(self):
        return len(self._memo)

    def __contains__(self, key):
        return key in self._memo

    def items(self):
        return self._memo.items()

    def correlator(self, g, exponents) -> Fraction:
        """<tau_{a_1} ... tau_{a_n}>_g, memoized."""
        return self._value(*canonical_key(g, exponents))

    def _value(self, g, a) -> Fraction:
        """Value of the canonical key (g, a): zero off the shell, else from
        the memo, else reduced or recursed and stored."""
        if sum(a) != 3 * g - 3 + len(a):
            return ZERO
        value = self._memo.get((g, a))
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        value = self._reduce(g, a)
        self._store(g, a, value)
        return value

    def _reduce(self, g, a) -> Fraction:
        """Dilaton or string equation when (g, n - 1) is stable, else the
        full recursion with the largest exponent special."""
        n = len(a)
        if is_stable(g, n - 1):
            if 1 in a:
                i = a.index(1)
                return (2 * g - 3 + n) * self._value(g, a[:i] + a[i + 1 :])
            if a[-1] == 0:
                rest = a[:-1]
                total = ZERO
                for j, v in enumerate(rest):
                    # lower the last copy of each v >= 1; the key stays sorted
                    if v and rest[j + 1 : j + 2] != (v,):
                        total += rest.count(v) * self._value(g, rest[:j] + (v - 1,) + rest[j + 1 :])
                return total
        return self._rhs(g, a[0], a[1:])

    def dvv_rhs(self, g, exponents, special: int) -> Fraction:
        """Evaluate the recursion's right-hand side with ``exponents[special]``
        as the special insertion; zero off the dimension shell, where every
        term's key is off the shell too.

        Every choice of ``special`` must return the same value, equal to
        :meth:`correlator` on every key but the two seeds; the string and
        dilaton reductions that :meth:`correlator` takes first are an
        optimization, not part of the result.
        """
        g, _ = canonical_key(g, exponents)
        a0 = exponents[special]
        rest = tuple(sorted(exponents[:special] + exponents[special + 1 :], reverse=True))
        return self._rhs(g, a0, rest)

    def _store(self, g, a, value):
        prior = self._memo.setdefault((g, a), value)
        assert prior == value, f"memo for {(g, a)} changed: {prior} -> {value}"

    def _tnorm(self, g, exponents) -> Fraction:
        """Correlator of a canonical key in the ttau normalization:
        value * prod (2a_i+1)!!."""
        c = self._value(g, exponents)
        if not c:
            return ZERO
        return c * odd_weight(exponents, 1)

    def _rhs(self, g, a0, rest) -> Fraction:
        n = len(rest)
        total = ZERO

        # transfer term: join a_0 with one other insertion
        seen = set()
        for i, v in enumerate(rest):
            if v in seen:
                continue
            seen.add(v)
            count = rest.count(v)
            b = a0 + v - 1
            if b < 0:
                continue
            child = tuple(sorted(rest[:i] + rest[i + 1 :] + (b,), reverse=True))
            total += count * (2 * v + 1) * self._tnorm(g, child)

        # genus reduction (skipped for (g-1, n+2) unstable, only (1,1) targets)
        if g >= 1 and a0 >= 2 and is_stable(g - 1, n + 2):
            for b1 in range(a0 - 1):
                b2 = a0 - 2 - b1
                child = tuple(sorted(rest + (b1, b2), reverse=True))
                total += HALF * self._tnorm(g - 1, child)

        # stable splittings, ordered pairs with the 1/2 prefactor
        if a0 >= 2:
            for mu, mult in sub_multisets(rest):
                nu_list = list(rest)
                for v in mu:
                    nu_list.remove(v)
                nu = tuple(nu_list)
                for g1 in range(g + 1):
                    g2 = g - g1
                    if not (is_stable(g1, len(mu) + 1) and is_stable(g2, len(nu) + 1)):
                        continue
                    # only the on-shell b_1 can contribute; others vanish
                    b1 = 3 * g1 - 2 + len(mu) - sum(mu)
                    b2 = a0 - 2 - b1
                    if b1 < 0 or b2 < 0:
                        continue
                    f1 = self._tnorm(g1, tuple(sorted(mu + (b1,), reverse=True)))
                    if not f1:
                        continue
                    f2 = self._tnorm(g2, tuple(sorted(nu + (b2,), reverse=True)))
                    if not f2:
                        continue
                    total += HALF * mult * f1 * f2

        return total / odd_weight((a0,) + rest, 1)

    def fill_shell(self, max_chi: int) -> None:
        """Compute every on-shell key with 2g - 2 + n <= max_chi, shell by
        shell."""
        if max_chi < 1:
            raise ValueError("max_chi must be >= 1")
        for g, a in shell_keys(max_chi):
            self._value(g, a)

    def sorted_records(self):
        """Memo contents as (g, a, value) sorted by (2g-2+n, g, a)."""
        return sorted(
            ((g, a, v) for (g, a), v in self._memo.items()),
            key=lambda r: (2 * r[0] - 2 + len(r[1]), r[0], r[1]),
        )


def shell_cells(min_chi: int, max_chi: int):
    """Stable (g, n) cells with min_chi <= 2g - 2 + n <= max_chi, n >= 1."""
    for chi in range(min_chi, max_chi + 1):
        for g in range(0, (chi + 1) // 2 + 1):
            n = chi + 2 - 2 * g
            if n >= 1:
                yield g, n


def shell_keys(max_chi: int):
    """All on-shell canonical keys with 2g - 2 + n <= max_chi."""
    for g, n in shell_cells(1, max_chi):
        for a in bounded_partitions(3 * g - 3 + n, n):
            yield g, a


def correlator_shell(max_chi: int, table: CorrelatorTable | None = None) -> CorrelatorTable:
    """Populate (or create) a table with every key of the given shells."""
    if table is None:
        table = CorrelatorTable()
    table.fill_shell(max_chi)
    return table
