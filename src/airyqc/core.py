"""Exact scalars and small combinatorial helpers shared by every module.

Every coefficient in this package is a ``fractions.Fraction``, except in the
correlator table's memo and the EO route's series, which hold ints at the
per-genus scale 2^E(g) of :func:`_scale_exp`, in the sums of a polynomial
recursion step, which are ints over one denominator per step, and in the
D-lemma check, whose two sides are int polynomials; no floating point enters
any computation anywhere.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

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


def _scale_exp(g):
    """E(g) = 3g + v2(g!) = v2(24^g g!), the power of 2 that makes
    2^E(g) (2a+1)!! <tau_a>_g an integer at the true seed: the scale of the
    DVV table's memo and of the EO route's series (v2(g!) = g - popcount(g),
    by Legendre's formula).

    >>> [_scale_exp(g) for g in range(9)]
    [0, 3, 7, 10, 15, 18, 22, 25, 31]
    """
    return 4 * g - g.bit_count()


def exact(value, what: str) -> Fraction:
    """`value` as a Fraction; only an int (not a bool) or a Fraction is
    exact input, and anything else raises ValueError naming `what`.

    >>> exact(0.1, "tau1")
    Traceback (most recent call last):
        ...
    ValueError: tau1 0.1 is not an int or a Fraction
    """
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{what} {value!r} is not an int or a Fraction")
    return value if isinstance(value, Fraction) else Fraction(value)


def add_over(num: int, den: int, x: int, d: int) -> tuple[int, int]:
    """num/den + x/d as ints over the running common denominator, which
    grows to lcm(den, d) only when d does not divide it; no gcd is taken,
    so a sum of many terms builds one Fraction at its end.

    >>> add_over(1, 6, 1, 4)
    (5, 12)
    """
    if den % d:
        lcm = math.lcm(den, d)
        num *= lcm // den
        den = lcm
    return num + x * (den // d), den


def partition_walk(total: int, parts: int, least: int, zeros: bool = True):
    """Yield (a, m) once for each descending tuple a of `parts` non-negative
    integers that sums to `total` and whose nonzero entries are all
    >= `least` >= 1 (with `zeros` false, every entry), in the walk's order,
    not sorted.  The walk picks each distinct part v >= least with its
    count c, from the largest down, on an explicit stack whose nodes are a
    key's head, the sum and the number of slots left for its tail, the cap
    v - 1 on the next part, and the weight so far; a head whose slots
    cannot all take a part is not pushed.  The weight m = (parts-k)!
    prod_v c_v! (2v+1)^c_v, over the k nonzero entries and their distinct
    values v with counts c_v, makes parts!/m = orbit_size(a) / prod (2a_i+1).

    >>> list(partition_walk(4, 2, 1))
    [((2, 2), 50), ((3, 1), 21), ((4, 0), 9)]
    >>> list(partition_walk(4, 2, 1, zeros=False))
    [((2, 2), 50), ((3, 1), 21)]
    """
    floor = 0 if zeros else least
    stack = [((), total, parts, total, 1)] if total >= floor * parts else []
    while stack:
        head, left, slots, cap, m = stack.pop()
        if left == 0:
            yield head + (0,) * slots, m * math.factorial(slots)
            continue
        for v in range(min(cap, left), least - 1, -1):
            if v * slots < left:
                break
            w = 2 * v + 1
            key, mv = head, m
            for c in range(1, min(slots, left // v) + 1):
                if left - c * v < floor * (slots - c):
                    break
                key += (v,)
                mv *= c * w
                stack.append((key, left - c * v, slots - c, v - 1, mv))


def bounded_partitions(total: int, parts: int):
    """All descending tuples of `parts` non-negative integers summing to
    `total` (partitions of `total` into at most `parts` parts, 0-padded),
    in descending order: the keys of ``partition_walk`` with least 1,
    sorted."""
    if parts < 0:
        return []
    return sorted((a for a, _ in partition_walk(total, parts, 1)), reverse=True)


def orbit_size(orbit) -> int:
    """Number of distinct permutations of the exponent tuple `orbit`."""
    n = math.factorial(len(orbit))
    for v in set(orbit):
        n //= math.factorial(orbit.count(v))
    return n


def readings(orbit: tuple, k: int) -> list:
    """(chosen, tail) once for each distinct ordered choice of `k` entries
    of the descending tuple `orbit`, the tail being the rest of it, still
    descending: the readings of a symmetric cell's orbit with `k`
    variables singled out, in the order of their chosen entries.

    >>> readings((2, 1, 1), 2)
    [((2, 1), (1,)), ((1, 2), (1,)), ((1, 1), (2,))]
    """
    if not k:
        return [((), orbit)]
    return [
        (chosen + (v,), rest[:i] + rest[i + 1 :])
        for chosen, rest in readings(orbit, k - 1)
        for i, v in enumerate(rest)
        if not i or rest[i - 1] != v
    ]

