"""Psi-class intersection numbers via the DVV (Virasoro) recursion.

``CorrelatorTable`` memoizes <tau_{a_1} ... tau_{a_n}>_g, the intersection
numbers of psi classes on the moduli space of stable genus-g curves with n
marked points.  Values are computed by the Dijkgraaf-Verlinde-Verlinde
recursion written in the normalization ttau_a = (2a+1)!! tau_a, where it
reads (a_0 is the special insertion, [n]_i drops index i):

    <ttau_{a_0} prod ttau_{a_i}>_g
        = sum_i (2a_i+1) <ttau_{a_0+a_i-1} prod_{[n]_i} ttau_{a_j}>_g
        + 1/2 sum_{b_1+b_2=a_0-2} ( <ttau_{b_1} ttau_{b_2} prod ttau>_{g-1}
        + sum_{ordered splits} <ttau_{b_1} ...>_{g_1} <ttau_{b_2} ...>_{g_2} )

Insertions with a negative subscript contribute zero, the splitting sum
runs over ordered pairs (g_1, A_1), (g_2, A_2), and the two base values
<tau_0^3>_0 = 1 and <tau_1>_1 = 1/24 are seeded (the recursion itself
yields no constant term for them).

A value is nonzero only on the dimension shell sum(a_i) = 3g - 3 + n; keys
off that shell evaluate to 0 without recursing, the only zero test.  No
unstable cell has an on-shell key, and an on-shell split part with
b_i = 3g_i - 2 + |A_i| - sum(A_i) >= 0 is stable.

Before the full recursion, a key is reduced by the dilaton equation (Witten
1991) when it holds a tau_1 and (g, n - 1) is stable, else by the string
equation when it holds a tau_0:

    <tau_1 prod tau_{a_i}>_g = (2g - 3 + n) <prod tau_{a_i}>_g
    <tau_0 prod tau_{a_i}>_g = sum_i <tau_{a_i - 1} prod_{[n]_i} tau_{a_j}>_g

The string equation is the right-hand side with a_0 = 0, whose genus and
split terms vanish.  Every key that is not reduced by the dilaton equation
takes its smallest exponent as a_0, so only the core keys, every
a_i >= 2, run the right-hand side with a_0 >= 2, and they run it with the
fewest genus and split terms: a_0 - 1 genus reads, and about a_0/3 + 1
split pairs per sub-multiset of the rest.  The split term walks the
sub-multisets mu of the rest on one explicit stack over the rest's value
counts, carrying the number of index subsets realizing mu and
d = |mu| - 2 - sum(mu); a leaf is read only for the g_1 whose
b_1 = 3 g_1 + d is on the shell, 0 <= b_1 <= a_0 - 2, and the others
(about 60% of them in the quantum-curve check) build no tuple.  ``dvv_rhs``
evaluates the right-hand side for any special insertion and is the oracle
the reduced table is checked against.

The memo holds integers: the key (g, a) maps to S = 2^E(g) q^g ttau(g, a),
where ttau = value * prod (2a_i+1)!!, E(g) = 3g + v2(g!) = v2(24^g g!) and
q is the denominator of 24 <tau_1>_1 (1 at the true seed).  In that scale
the dilaton step is S = 3 (2g-3+n) S(lower), and twice the right-hand side,
the string step included, is an integer sum:

    2 sum_i (2a_i+1) S(transfer) + (q S(genus g-1)) << (E(g) - E(g-1))
        + sum S(g_1) S(g_2) << (E(g) - E(g_1) - E(g_2))

(the shift of a split is v2(C(g, g_1)) >= 0).  The sum is halved once.
Mirrored terms are equal, and a split of the rest into two equal halves
has an even multiplicity, so only two kinds of term can make it odd: the
genus term with b_1 = b_2, shifted by E(g) - E(g-1) >= 3, and the split
g_1 = g_2 = g/2 of an empty rest, shifted by E(g) - 2E(g/2) >= 1.  So the
halving is exact for any memo of ints, and a scale too small for some key
shows as an odd sum, which raises ValueError naming the key: one parity
test per full right-hand side certifies the scale, every other step being
integral by construction.  Every computed S is an int, so a value read
from a cache is rejected unless its S is one.  Values become Fractions only
at the table's boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import _scale_exp, add_over, bounded_partitions, exact, odd_weight, partition_walk, rat_str

__all__ = [
    "CorrelatorTable",
    "canonical_key",
    "correlator_shell",
    "is_stable",
    "shell_cells",
    "shell_keys",
]


def is_stable(g: int, n: int) -> bool:
    """True exactly when g >= 0, n >= 1 and 2g - 2 + n > 0."""
    return g >= 0 and n >= 1 and 2 * g - 2 + n > 0


def require_stable(g, n) -> None:
    """Raise ValueError unless (g, n) is a stable cell."""
    if not is_stable(g, n):
        raise ValueError(f"unstable (g, n) = ({g}, {n})")


def cell_keys(g, n):
    """The canonical on-shell exponent tuples of the stable cell (g, n),
    sum(a) = 3g - 3 + n, in descending order."""
    require_stable(g, n)
    return bounded_partitions(3 * g - 3 + n, n)


def canonical_key(g, exponents):
    """Validate (g, exponents) and return the canonical sorted key.

    Raises ValueError for negative genus or exponents, a genus or exponent
    that is not exactly an ``int`` (``True`` is rejected), empty insertion
    lists, and unstable (g, n).
    """
    exponents = tuple(exponents)
    if type(g) is not int or g < 0:
        raise ValueError(f"genus must be a non-negative integer, got {g!r}")
    if not exponents:
        raise ValueError("at least one insertion is required")
    if any(type(a) is not int or a < 0 for a in exponents):
        raise ValueError(f"exponents must be non-negative integers, got {exponents!r}")
    require_stable(g, len(exponents))
    return g, tuple(sorted(exponents, reverse=True))


def _dilaton(g, a):
    """(2g - 3 + n, a with one tau_1 removed) when the dilaton equation
    applies to the canonical key (g, a), else None."""
    if 1 in a and is_stable(g, len(a) - 1):
        i = a.index(1)
        return 2 * g - 3 + len(a), a[:i] + a[i + 1 :]
    return None


class CorrelatorTable:
    """Write-once memo of correlator values, with hit/miss counters.

    Every key computed, reduced ones included, is stored, as the int
    S = 2^E(g) q^g ttau(g, a) of the module docstring; ``correlator``,
    ``items``, ``cell_values``, ``core_sum`` and ``dvv_rhs`` return
    Fractions, and ``add_record`` takes one; ``items`` yields the memo in
    no fixed order, and the cache file's record order is the cache's own.
    ``misses`` counts keys computed; ``hits`` counts memo lookups that
    found a value, the recursion's own lookups of lower keys included.
    Besides <tau_1>_1, the WKB terms read only ``core_sum``.

    The seed <tau_1>_1 can be overridden (``tau1``, an int or a Fraction),
    which is used by mutation tests to confirm the downstream identities
    actually depend on it.  An overridden seed propagates through the
    string and dilaton reductions as through the full recursion, so such a
    table no longer satisfies ``dvv_rhs`` for every choice of special
    insertion.  A genus-g value is a polynomial of degree at most g in the
    seed, so the factor q^g keeps such a table integral too.

    >>> t = CorrelatorTable()
    >>> t.correlator(1, (1,))
    Fraction(1, 24)
    >>> t.correlator(2, (4,))
    Fraction(1, 1152)
    """

    def __init__(self, *, tau1: Fraction = Fraction(1, 24)):
        tau1 = exact(tau1, "tau1")
        self._q = (24 * tau1).denominator
        self._core_sums = {}
        self.hits = 0
        self.misses = 0
        # S of <tau_0^3>_0 = 1 and of <tau_1>_1 = tau1: 2^3 q 3!! tau1
        self._memo = {(0, (0, 0, 0)): 1, (1, (1,)): (24 * self._q * tau1).numerator}

    def __len__(self):
        return len(self._memo)

    def _unit(self, g, a) -> int:
        """S / value of the key (g, a): prod (2a_i+1)!! 2^E(g) q^g."""
        return (odd_weight(a, 1) << _scale_exp(g)) * self._q**g

    def _fraction(self, g, a, s) -> Fraction:
        return Fraction(s, self._unit(g, a))

    def items(self):
        """The stored ((g, a), value) pairs, values as Fractions."""
        return (((g, a), self._fraction(g, a, s)) for (g, a), s in self._memo.items())

    def correlator(self, g, exponents) -> Fraction:
        """<tau_{a_1} ... tau_{a_n}>_g, memoized."""
        g, a = canonical_key(g, exponents)
        return self._fraction(g, a, self._value(g, a))

    def cell_values(self, g, n, shift):
        """Yield (a, <tau_a>_g prod (2a_i + shift)!!) for each
        ``cell_keys(g, n)`` key a, straight from the memo ints: shift 1
        (the omega and W weights) gives Fraction(S, 2^E(g) q^g), and shift
        -1 (the Omega weights) Fraction(S, 2^E(g) q^g prod (2a_i + 1)).
        Each key is read once through the memo, so ``hits`` and ``misses``
        count as :meth:`correlator` would; the genus is checked as there.

        >>> dict(CorrelatorTable().cell_values(1, 2, -1))
        {(2, 0): Fraction(1, 8), (1, 1): Fraction(1, 24)}
        """
        if type(shift) is not int or shift not in (1, -1):
            raise ValueError(f"shift must be 1 or -1, got {shift!r}")
        keys = cell_keys(g, n)
        canonical_key(g, keys[0])
        den = self._q**g << _scale_exp(g)
        for a in keys:
            s = self._value(g, a)
            yield a, Fraction(s, den if shift == 1 else den * math.prod([2 * x + 1 for x in a]))

    def add_record(self, g, a, value) -> None:
        """Store a value read from outside the table, such as a cache record:
        ``a`` canonical as given and on the shell, ``value`` exact, in
        agreement with any known value and with the dilaton equation, and a
        whole multiple of 1 / (prod (2a_i+1)!! 2^E(g) q^g), as every value
        the table computes is.  Otherwise raise ValueError and leave the
        table unchanged.  ``hits`` and ``misses`` are not touched."""
        g, key = canonical_key(g, a)
        if key != tuple(a):
            raise ValueError(f"exponents {list(a)} not sorted descending")
        if sum(key) != 3 * g - 3 + len(key):
            raise ValueError(f"off-shell key: sum(a) = {sum(key)}, not 3g - 3 + n = {3 * g - 3 + len(key)}")
        value = exact(value, "value")
        unit = self._unit(g, key)
        s, r = divmod(value.numerator * unit, value.denominator)
        known = self._memo.get((g, key))
        if known is not None and (r or s != known):
            raise ValueError(f"value {rat_str(value)!r} conflicts with known {rat_str(self._fraction(g, key, known))!r}")
        if dilaton := _dilaton(g, key):
            factor, lower = dilaton
            base = self._memo.get((g, lower))
            if base is not None and (r or s != 3 * factor * base):
                gives = rat_str(self._fraction(g, key, 3 * factor * base))
                raise ValueError(f"value {rat_str(value)!r} breaks the dilaton equation, which gives {gives!r}")
        if r:
            raise ValueError(f"value {rat_str(value)!r} is not a multiple of 1/{unit}, as every value of this key is")
        self._memo[(g, key)] = s

    def core_sum(self, g, l) -> Fraction:
        """sum orbit_size(a) * prod (2a_i - 1)!! * <tau_a>_g over the core
        keys a of the stable cell (g, l), every a_i >= 2, once per table
        (the memo is write-once, the seeds fixed).  That is l!/(2^E(g) q^g)
        times sum S(a)/m(a), m the weight of ``partition_walk``, so the walk
        adds each S(a) over a running common denominator, the lcm of the
        weights so far (``core.add_over``).

        >>> CorrelatorTable().core_sum(2, 1)
        Fraction(35, 384)
        """
        require_stable(g, l)
        total = self._core_sums.get((g, l))
        if total is None:
            num, den = 0, 1
            for a, m in partition_walk(3 * g - 3 + l, l, 2, zeros=False):
                num, den = add_over(num, den, self._value(g, a), m)
            total = Fraction(math.factorial(l) * num, den * self._q**g << _scale_exp(g))
            self._core_sums[(g, l)] = total
        return total

    def _value(self, g, a) -> int:
        """S of the canonical key (g, a): zero off the shell, else from the
        memo, else computed once and stored.  A key holding a tau_1 with
        (g, n - 1) stable takes the dilaton step, and every other key
        ``_rhs`` with its smallest exponent special: the string step when
        it holds a tau_0, else the full right-hand side, whose cost grows
        with the special exponent.  The string branch needs no stability
        test: <tau_0^3>_0 is the only key with a tau_0 and an unstable
        (g, n - 1), and it is seeded."""
        if sum(a) != 3 * g - 3 + len(a):
            return 0
        value = self._memo.get((g, a))
        if value is not None:
            self.hits += 1
            return value
        self.misses += 1
        if dilaton := _dilaton(g, a):
            factor, lower = dilaton
            value = 3 * factor * self._value(g, lower)
        else:
            value = self._rhs(g, a[-1], a[:-1])
        prior = self._memo.setdefault((g, a), value)
        assert prior == value, f"memo for {(g, a)} changed: {prior} -> {value}"
        return value

    def dvv_rhs(self, g, exponents, special: int) -> Fraction:
        """Evaluate the recursion's right-hand side with ``exponents[special]``
        as the special insertion; zero off the dimension shell, where every
        term's key is off the shell too.

        Every choice of ``special`` must return the same value, equal to
        :meth:`correlator` on every key but the two seeds; the string and
        dilaton reductions that :meth:`correlator` takes first are an
        optimization, not part of the result.  A ``special`` that is not
        an int in range(n) raises ValueError.
        """
        g, a = canonical_key(g, exponents)
        if type(special) is not int or not 0 <= special < len(a):
            raise ValueError(f"special must be an int in range({len(a)}), got {special!r}")
        a0 = exponents[special]
        i = a.index(a0)
        rest = a[:i] + a[i + 1 :]
        return self._fraction(g, a, self._rhs(g, a0, rest))

    def _rhs(self, g, a0, rest) -> int:
        """S of the key (a0,) + rest from the right-hand side with a0
        special: twice it is an integer sum, halved once; an odd sum raises
        ValueError naming the key.  With a0 = 0 it is the string step.

        The split term reads the memo inline, through ``dict.get``, and
        calls :meth:`_value` only on a miss, so a read adds no frame to the
        recursion (the string chain's depth bound); its hits are added to
        ``hits`` on return, which then counts as if every read went through
        ``_value``.  Its walk visits the sub-multisets of the descending
        rest in the order of their count vectors, the largest value's count
        slowest, so the memo fills in a fixed order.  The shift
        E(g) - E(g_1) - E(g - g_1) is taken once per g_1, through the
        module's ``_scale_exp`` at call time."""
        e = _scale_exp(g)
        total = 0

        # transfer term: join a_0 with one other insertion, each distinct
        # v read at its last copy
        for i, v in enumerate(rest):
            b = a0 + v - 1
            if b >= 0 and rest[i + 1 : i + 2] != (v,):
                child = tuple(sorted(rest[:i] + rest[i + 1 :] + (b,), reverse=True))
                total += 2 * rest.count(v) * (2 * v + 1) * self._value(g, child)

        # genus reduction
        if g >= 1 and a0 >= 2:
            genus = 0
            for b1 in range(a0 - 1):
                b2 = a0 - 2 - b1
                genus += self._value(g - 1, tuple(sorted(rest + (b1, b2), reverse=True)))
            total += (self._q * genus) << (e - _scale_exp(g - 1))

        # splittings, ordered pairs: a node (j, mu, nu, mult, d) has put
        # k of the c copies of each of the first j runs (v, c) of the rest
        # into mu and the others into nu, mult = prod C(c, k) and
        # d = len(mu) - 2 - sum(mu); the leaf loop takes the last run (an
        # empty rest is one run of no copies) and reads only the on-shell
        # b_1 = 3 g_1 + d with 0 <= b_1 <= a0 - 2
        if a0 >= 2:
            get = self._memo.get
            hits = 0
            scale = [_scale_exp(h) for h in range(g + 1)]
            shifts = [e - scale[g1] - scale[g - g1] for g1 in range(g + 1)]
            runs = [(v, rest.count(v)) for v in sorted(set(rest), reverse=True)] or [(0, 0)]
            last = len(runs) - 1
            stack = [(0, (), (), 1, -2)]
            while stack:
                j, mu, nu, mult, d = stack.pop()
                v, c = runs[j]
                if j < last:
                    for k in range(c, -1, -1):
                        stack.append((j + 1, mu + (v,) * k, nu + (v,) * (c - k), mult * math.comb(c, k), d + k - k * v))
                    continue
                for k in range(c + 1):
                    dk = d + k - k * v
                    lo, hi = (0 if dk >= 0 else -(dk // 3)), (a0 - 2 - dk) // 3
                    if hi > g:
                        hi = g
                    if lo > hi:
                        continue
                    m, left, right = mult * math.comb(c, k), mu + (v,) * k, nu + (v,) * (c - k)
                    for g1 in range(lo, hi + 1):
                        b1 = 3 * g1 + dk
                        key = (g1, tuple(sorted(left + (b1,), reverse=True)))
                        f1 = get(key)
                        if f1 is None:
                            f1 = self._value(*key)
                        else:
                            hits += 1
                        key = (g - g1, tuple(sorted(right + (a0 - 2 - b1,), reverse=True)))
                        f2 = get(key)
                        if f2 is None:
                            f2 = self._value(*key)
                        else:
                            hits += 1
                        total += (m * f1 * f2) << shifts[g1]
            self.hits += hits

        if total & 1:
            key = tuple(sorted((a0,) + rest, reverse=True))
            raise ValueError(f"DVV sum of (g, a) = ({g}, {key}) is odd: the scale 2^E(g) q^g is too small for it")
        return total >> 1

    def fill_shell(self, max_chi: int) -> None:
        """Compute every on-shell key with 2g - 2 + n <= max_chi, shell by
        shell."""
        if max_chi < 1:
            raise ValueError("max_chi must be >= 1")
        for g, a in shell_keys(max_chi):
            self._value(g, a)


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
        for a in cell_keys(g, n):
            yield g, a


def correlator_shell(max_chi: int) -> CorrelatorTable:
    """A new table holding every key of the given shells."""
    table = CorrelatorTable()
    table.fill_shell(max_chi)
    return table
