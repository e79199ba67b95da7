"""Exact scalars and small combinatorial helpers shared by every module.

Every coefficient in this package is a ``fractions.Fraction``; no floating
point enters any computation anywhere.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

_RAT_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?\Z")


def rat_str(x: Fraction) -> str:
    """Canonical text form of a rational: "p/q", or "p" when q == 1."""
    return str(x)


def rat_parse(text: str) -> Fraction:
    """Parse a rational in canonical "p/q" form, rejecting anything else.

    Canonical means lowest terms, positive denominator, denominator omitted
    when it equals 1, no leading zeros or signs on the denominator.

    >>> rat_parse("1/24")
    Fraction(1, 24)
    >>> rat_parse("2/4")
    Traceback (most recent call last):
        ...
    ValueError: non-canonical rational '2/4': not in lowest terms
    """
    if not isinstance(text, str) or not _RAT_RE.match(text):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in text:
        num_s, den_s = text.split("/")
        num, den = int(num_s), int(den_s)
        if den == 1:
            raise ValueError(f"non-canonical rational {text!r}: denominator 1 must be omitted")
        if math.gcd(abs(num), den) != 1:
            raise ValueError(f"non-canonical rational {text!r}: not in lowest terms")
        return Fraction(num, den)
    if text == "-0":
        raise ValueError("non-canonical rational '-0'")
    return Fraction(int(text))


@lru_cache(maxsize=None)
def double_factorial(k: int) -> int:
    """k!! for odd k >= 1, with (-1)!! = 0!! = 1.

    Even k >= 2 is rejected on purpose: only odd double factorials occur as
    normalization weights here, and accepting even arguments would let a
    silent off-by-one slip through.

    >>> double_factorial(9)
    945
    >>> double_factorial(-1)
    1
    """
    if k < -1:
        raise ValueError(f"double factorial undefined for k = {k}")
    if k in (-1, 0):
        return 1
    if k % 2 == 0:
        raise ValueError(f"even argument {k} rejected (odd double factorials only)")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def odd_weight(a, shift: int) -> int:
    """prod (2a_i + shift)!! over the exponents `a`: shift +1 gives the
    ttau (omega, W) weights, shift -1 the Omega weights.

    >>> odd_weight((2, 0), 1)
    15
    >>> odd_weight((2, 0), -1)
    3
    """
    w = 1
    for ai in a:
        w *= double_factorial(2 * ai + shift)
    return w


def accumulate(d: dict, key, c) -> None:
    """Add `c` to ``d[key]`` in a sparse dict, dropping the key when the
    sum is zero, so that ``d`` never stores a zero coefficient.

    >>> d = {}
    >>> accumulate(d, (2, 1), Fraction(1, 2))
    >>> accumulate(d, (1, 2), Fraction(3))
    >>> accumulate(d, (2, 1), Fraction(-1, 2))
    >>> d
    {(1, 2): Fraction(3, 1)}
    """
    c += d.get(key, ZERO)
    if c:
        d[key] = c
    else:
        d.pop(key, None)


def bounded_partitions(total: int, parts: int):
    """Yield all descending tuples of `parts` non-negative integers summing
    to `total` (partitions of `total` into at most `parts` parts, 0-padded).
    """
    if total < 0 or parts < 0:
        return

    def rec(remaining, slots, cap):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for p in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - p, slots - 1, p):
                yield (p,) + rest
        if remaining == 0:
            yield (0,) * slots

    yield from rec(total, parts, total)


def multiset_permutations(items):
    """Yield each distinct permutation of `items` exactly once."""
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


def orbit_size(orbit) -> int:
    """Number of distinct permutations of the exponent tuple `orbit`."""
    n = math.factorial(len(orbit))
    for c in Counter(orbit).values():
        n //= math.factorial(c)
    return n


def sub_multisets(items):
    """Yield (sub_multiset, count) pairs over distinct sub-multisets of
    `items`, where `count` is the number of index subsets realizing it.
    Includes the empty and the full sub-multiset.
    """
    counts = sorted(Counter(items).items(), reverse=True)
    values = [v for v, _ in counts]
    ranges = [range(c + 1) for _, c in counts]
    for picks in product(*ranges):
        mu = []
        mult = 1
        for (v, c), k in zip(counts, picks):
            mu.extend([v] * k)
            mult *= math.comb(c, k)
        yield tuple(sorted(mu, reverse=True)), mult
