"""Independent recomputation of W_{g,n} by the Eynard-Orantin recursion.

The Airy curve x = z^2/2, y = z has its single branch point at the origin,
conjugation z -> -z, Bergman kernel dz1 dz2/(z1 - z2)^2, and recursion
kernel factor 1/(z (z_0^2 - z^2)).  The recursion is evaluated with formal
Laurent series: the residue at z = 0 is read off as the coefficient of
z^(-1), never via numerical contours, so this route shares no values with
the correlator engine.  With the DVV table it shares only the scale
exponent :func:`~airyqc.core._scale_exp` and the stability tests, and
with the omega/Omega step the EGF-weighted reading walk, the target
orbits ``cell_keys``, the division ``polynomials._per_orbit`` and the
reader ``polynomials._read_cell``, which checks a cell's symmetry.

``ZSeries`` is a Laurent series in the active variable z, truncated at
order ``trunc``, whose coefficients are Laurent polynomials in its own
block of ``nspec`` spectator variables: each spectator monomial is the
tuple of its exponents over that block.  A product is the product over
disjoint blocks, the first factor's spectators and then the second's, so
the monomial of a product term is its factors' tuples joined end to end
and its ``nspec`` is the sum of theirs.  No series says which variables
its spectators are; :func:`eo_W` places the blocks.

Every product goes through one routine, :func:`_mul_into`, which adds
into a stratum dict in place only the strata z^k its caller keeps, and
one certificate, :func:`exact_through`: f1 * f2 is exact through
z^min(trunc_1 + val_2, trunc_2 + val_1).  ``ZSeries.__mul__`` keeps the
strata the certificate covers; :func:`eo_W` keeps the even strata z^k,
k <= 0, of each split product and then only the z^(-1) stratum of the
kernel contraction.

:func:`eo_W` works orbit-wise.  A lower cell enters as its terms whose
spectator exponents descend (:func:`series_from_cell`), so one product
stands for every split with the same (g_1, |A_1|), and a size pair and
its mirror are multiplied once, at twice the weight.  The residue of each
|A_1| is read forward by the EGF rule of the omega/Omega step: each
term adds into one table at its sorted spectator tail, which fixes the
z_0 exponent by the degree, and each target orbit reads that table once
per distinct z_0 exponent; all of them must agree, which checks the
symmetry of z_0 against the spectators.

It runs on ints: each genus-g_i cell enters at the scale 2^E(g_i) on
which the DVV table is integral, and the mirror weights and the
recursion's 1/2 fold into non-negative left shifts by keeping the
bracket at 2^E(g), one bit more than W_{g,n} needs, so only the result
is divided, by 2^(E(g)+1).
"""

from __future__ import annotations

import math

from .core import ZERO, _scale_exp, orbit_size, readings
from .correlators import cell_keys, require_stable, shell_cells
from .polynomials import SparseSymPoly, _lower_cell, _per_orbit, _read_cell

__all__ = [
    "ZSeries",
    "kernel_series",
    "b02_series",
    "series_from_cell",
    "eo_W",
    "eo_shell",
]


class ZSeries:
    """Truncated Laurent series in z over spectator Laurent polynomials.

    ``terms`` maps a z-exponent to a {spectator exponent tuple: coefficient}
    dict, each tuple of length ``nspec``; ``trunc`` is the largest
    z-exponent through which the series is exact (math.inf for exact
    Laurent polynomials).  The constructor drops zero coefficients, so the
    arithmetic below sums without checking.
    """

    __slots__ = ("nspec", "trunc", "terms")

    def __init__(self, nspec, trunc, terms):
        self.nspec = nspec
        self.trunc = trunc
        self.terms = {}
        for k, poly in terms.items():
            if k > trunc:
                continue
            clean = {e: c for e, c in poly.items() if c}
            if clean:
                self.terms[k] = clean

    def valuation(self):
        """Lowest z-exponent the series can have; a series with no terms
        is zero through z^trunc."""
        return min(self.terms) if self.terms else self.trunc + 1

    def __add__(self, other):
        assert self.nspec == other.nspec
        trunc = min(self.trunc, other.trunc)
        out = {}
        for src in (self.terms, other.terms):
            for k, poly in src.items():
                if k > trunc:
                    continue
                tgt = out.setdefault(k, {})
                for e, c in poly.items():
                    tgt[e] = tgt.get(e, ZERO) + c
        return ZSeries(self.nspec, trunc, out)

    def __mul__(self, other):
        """The product over disjoint blocks: this series' spectators, then
        the other's."""
        trunc = exact_through(self, other)
        terms = {}
        _mul_into(terms, self, other, lambda k: k <= trunc)
        return ZSeries(self.nspec + other.nspec, trunc, terms)

    def residue(self) -> dict:
        """Coefficient of z^(-1) as a {spectator exponent tuple: coeff}
        Laurent polynomial.

        Raises if truncation cannot certify the z^(-1) stratum.
        """
        if self.trunc < -1:
            raise ValueError(f"series truncated at {self.trunc}, residue stratum not exact")
        return dict(self.terms.get(-1, {}))


def kernel_series(M) -> ZSeries:
    """1/(z (z_0^2 - z^2)) = sum_{j>=0} z^(2j-1) z_0^(-2j-2), through z^M,
    its one spectator z_0."""
    if M < -1:
        raise ValueError("truncation must be >= -1")
    return ZSeries(1, M, {2 * j - 1: {(-2 * j - 2,): 1} for j in range((M + 1) // 2 + 1)})


def b02_series(sign: int, M) -> ZSeries:
    """Expansion of the two-point cell with one leg active, its one
    spectator w:

        1/(+z - w)^2 = sum_{m>=0} (m+1) z^m w^(-m-2)         sign = +1
        1/(-z - w)^2 = sum_{m>=0} (m+1) (-1)^m z^m w^(-m-2)  sign = -1
    """
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if M < 0:
        raise ValueError("truncation must be >= 0")
    return ZSeries(1, M, {m: {(-m - 2,): (m + 1) * sign**m} for m in range(M + 1)})


def series_from_cell(cell: SparseSymPoly, nspec: int, *, scale: int = 0, flats: dict | None = None) -> ZSeries:
    """2^scale times the terms of a stable cell W(z, w_1, ..., w_nspec),
    or W(z, -z, w_1, ..., w_nspec) when the cell has nspec + 2 variables,
    whose spectator exponents descend along w_1 ... w_nspec, each times
    the orbit size of its spectator tail, as an exact ZSeries with int
    coefficients: by the cell's symmetry that many terms are the one with
    the spectators permuted, an EGF weight :func:`eo_W` divides out once
    per tail.  Other counts of active legs and a coefficient that 2^scale
    does not make an integer raise ValueError.  Cells are even in every
    variable, so the sign of an active leg never matters.

    ``flats``, a dict the caller keeps, lets a cell be scaled and flattened
    (:func:`_flatten`) once however often its series is asked for: it
    holds the series by (id(cell), nspec, scale) next to the cell itself,
    whose reference keeps that id from naming another cell.
    """
    active = cell.nvars - nspec
    if active not in (1, 2):
        raise ValueError(f"{active} active legs, expected 1 or 2")
    flats = {} if flats is None else flats
    key = (id(cell), nspec, scale)
    if key not in flats:
        flats[key] = cell, ZSeries(nspec, math.inf, _flatten(cell, active, scale))
    return flats[key][1]


def _flatten(cell: SparseSymPoly, active: int, scale: int) -> dict:
    """2^scale times the cell with ``active`` legs on z and the rest of each
    orbit, descending, on the spectators, as {z-exponent: {spectator
    exponent tuple: int}}; a leg exponent a is the z-exponent -2a - 2.  An
    orbit adds one entry for each distinct ordered choice of its active
    values (``core.readings``), its coefficient scaled and checked for
    integrality once and then weighted by the orbit size of the entry's
    tail."""
    strata = {}
    for orbit, coeff in cell.orbits.items():
        c, r = divmod(coeff.numerator << scale, coeff.denominator)
        if r:
            raise ValueError(f"coefficient {coeff} is not an integer at scale 2^{scale}")
        for chosen, tail in readings(orbit, active):
            tgt = strata.setdefault(-2 * (sum(chosen) + active), {})
            e = tuple([-2 * a - 2 for a in tail])
            tgt[e] = tgt.get(e, 0) + c * orbit_size(tail)
    return strata


def exact_through(f1: ZSeries, f2: ZSeries):
    """The truncation certificate: f1 * f2 is exact through this z-exponent.

    A W_(0,2) leg cut at z^1 times the W_(0,3) leg, whose pole is z^(-2),
    is exact only through z^(-1):

    >>> w03 = series_from_cell(SparseSymPoly(3, {(0, 0, 0): 1}), 2)
    >>> exact_through(b02_series(1, 1), w03)
    -1
    """
    return min(f1.trunc + f2.valuation(), f2.trunc + f1.valuation())


def _mul_into(out: dict, f1: ZSeries, f2: ZSeries, keep, scale: int = 1) -> None:
    """Add the strata z^k of f1 * f2 with ``keep(k)`` true, times the int
    ``scale``, into the stratum dict ``out`` in place; no other stratum is
    formed.  Exactness is the caller's, by :func:`exact_through`.  The
    blocks are disjoint, so the monomial of a term is its factors' tuples
    joined end to end:

    >>> out = {}
    >>> _mul_into(out, kernel_series(1), b02_series(1, 1), lambda k: k <= 0)
    >>> out
    {-1: {(-2, -2): 1}, 0: {(-2, -3): 2}}
    """
    for k1, p1 in f1.terms.items():
        for k2, p2 in f2.terms.items():
            k = k1 + k2
            if not keep(k):
                continue
            tgt = out.setdefault(k, {})
            get = tgt.get
            for e1, c1 in p1.items():
                c1 *= scale
                for e2, c2 in p2.items():
                    e = e1 + e2
                    tgt[e] = get(e, 0) + c1 * c2


def eo_W(g: int, n: int, lower: dict, *, flats: dict | None = None) -> SparseSymPoly:
    """W_{g,n}(z_0, ..., z_{n-1}) by one step of the residue recursion.

        W_{g,n} = 1/2 res_{z=0} 1/(z (z_0^2 - z^2)) (
                      W_{g-1,n+1}(z, -z, z_rest)
                    + sum over ordered splits W_{g_1}(z, z_A1) W_{g_2}(-z, z_A2))

    with W_{0,1} = 0 (terms dropped), W_{0,2} legs expanded by
    :func:`b02_series` through z^M, M = 6g + 2n, and W_{0,2}(z, -z) =
    1/(4 z^2) in the first term.  The kernel is odd in z, so the residue
    reads only the even strata of the bracket: each split product adds its
    strata z^j, j even and j <= 0, into a stratum dict by
    :func:`_mul_into`, and this even part, the ``ZSeries`` ``inner``, is
    exact through z^0.

    Size pairs: the cells are symmetric, so the splits with one (g_1,
    |A_1| = k) differ only by which spectators the legs sit on.  One
    product stands for all of them: over disjoint blocks, leg 1's
    spectators are z_1 ... z_k and leg 2's z_(k+1) ... z_(n-1), each leg
    holding only its terms whose spectator exponents descend
    (:func:`series_from_cell`).  It goes into the stratum dict of its k,
    the genus term, on z_1 ... z_(n-1), into that of k = n - 1.  A split
    and its mirror (g_2, A_2, g_1, A_1) give the products P(z) and P(-z),
    whose even strata are equal, so each unordered pair {(g_1, k), (g_2,
    n-1-k)} is multiplied once, at twice the weight, and its truncation
    certificate, which the mirror shares, is checked once; a pair with
    (g_1, k) = (g_2, n-1-k) is its own mirror and has weight 1.

    Read forward: ``kernel_series(M)``, whose one spectator is z_0, is
    contracted with each k's ``inner`` by the same routine, forming only
    the z^(-1) stratum, which ``ZSeries.residue`` reads.  A residue term
    a = (v; mu; nu), mu = a[1:k+1] on leg 1's spectators and nu on leg
    2's, must have degree 3g - 3 + n and descending mu and nu, as every
    product term does.  It stands for the mult subsets A_1 of its tail
    sorted(mu + nu) whose spectator exponents form mu, and its legs'
    orbit sizes times the pair's C(n-1, k) (1 for the genus and base
    terms) are mult orbit_size(tail), so it adds into one table at the
    tail with no multiplicity, and ``polynomials._per_orbit`` divides
    each tail by its orbit size once; after the degree check v = 3g - 3
    + n - sum(tail), so the tail alone is the key.  ``_read_cell`` then
    reads that table at the tail of each one-slot reading of each target
    orbit of ``cell_keys(g, n)`` and requires the readings of an orbit
    to agree: the symmetry of z_0 against the spectators, which the
    construction does not give.

    Scale: ``inner`` holds 2^E(g) times the even part of the bracket, in
    ints, with E = :func:`~airyqc.core._scale_exp`, so the residue r is
    2^(E(g)+1) W_{g,n}, and each reading of the table is the int pair
    (r, 2^(E(g)+1)), so the symmetry check compares ints over one
    denominator and each orbit makes one Fraction.  Each cell enters at
    its own scale, the kernel and the W_(0,2) legs as they are, and each
    term is shifted left, on top of its binomial, by

        E(g) - E(g-1) >= 3               the genus term,
        E(g) + 1 - E(g_1) - E(g_2) >= 1  a pair with its mirror,
        E(g) - 2 E(g/2) >= 0             a pair that is its own mirror,

    the last two being popcount(g_1) + popcount(g_2) - popcount(g) + 1 and
    popcount(g/2) by E(g) = 4g - popcount(g); the base term 1/4 of (1, 1)
    is the int 2^3 / 4 = 2.

    Legs: :func:`series_from_cell` builds each lower cell's leg with one
    ``flats`` dict, so that each cell is scaled and flattened once however
    many targets use it; :func:`eo_shell` passes one dict to all its
    calls.  An entry names its cell by identity and holds it, so a dict
    filled from other lower cells is never misread.

    Checks, each raising ValueError: every lower cell is integral at its
    scale (:func:`_flatten`), every split product is exact through z^0
    and each contraction through z^(-1) (:func:`exact_through`; the latter
    says the kernel's truncation reaches every stratum of ``inner``),
    every exponent of every residue term is even and negative, every
    residue term lies on a target orbit (its degree and the descent of its
    legs), each tail sum is a multiple of its orbit size, and the readings
    of each orbit agree.  The output has the exponent-table form of
    ``tW_from_correlators``.
    """
    require_stable(g, n)
    M = 6 * g + 2 * n
    E = _scale_exp(g)
    flats = {} if flats is None else flats

    def leg(gi, k, sign):
        if (gi, k) == (0, 1):
            return b02_series(sign, M)
        return series_from_cell(_lower_cell(lower, gi, k + 1), k, scale=_scale_exp(gi), flats=flats)

    inner = {}  # by k = |A_1|: a stratum dict over the spectators z_1 ... z_(n-1)
    if (g, n) == (1, 1):
        inner[0] = {-2: {(): 2}}
    elif g >= 1:
        genus = series_from_cell(_lower_cell(lower, g - 1, n + 1), n - 1, scale=_scale_exp(g - 1))
        shift = E - _scale_exp(g - 1)
        inner[n - 1] = {j: {e: c << shift for e, c in poly.items()} for j, poly in genus.terms.items()}

    for g1 in range(g + 1):
        for k in range(n):
            g2, k2 = g - g1, n - 1 - k
            if (g1, k) > (g2, k2) or (g1, k) == (0, 0) or (g2, k2) == (0, 0):
                continue  # the mirror is taken instead, or W_(0,1) = 0
            f1 = leg(g1, k, 1)
            if (g1, k) == (g2, k2):  # its own mirror; only a W_(0,2) leg depends on its sign
                f2 = leg(g2, k2, -1) if (g1, k) == (0, 1) else f1
                shift = E - 2 * _scale_exp(g1)
            else:
                f2, shift = leg(g2, k2, -1), E + 1 - _scale_exp(g1) - _scale_exp(g2)
            exact = exact_through(f1, f2)
            if exact < 0:
                raise ValueError(f"product exact only through z^{exact}, residue strata need z^0")
            _mul_into(inner.setdefault(k, {}), f1, f2, lambda j: j <= 0 and not j % 2, math.comb(n - 1, k) << shift)

    kernel = kernel_series(M)
    degree = 3 * g - 3 + n
    table = {}  # {descending tail: sum of c}
    for k, strata in inner.items():
        even = ZSeries(n - 1, 0, strata)
        exact = exact_through(kernel, even)
        if exact < -1:
            raise ValueError(f"kernel truncated at z^{M} does not reach stratum z^{even.valuation()} of W_({g},{n})")
        out = {}
        _mul_into(out, kernel, even, lambda j: j == -1)
        for exps, c in ZSeries(n, exact, out).residue().items():
            a = tuple([(-e - 2) >> 1 for e in exps])
            if min(a) < 0 or tuple([-2 * x - 2 for x in a]) != exps:
                raise ValueError(f"non-even or non-negative exponent {exps} in W_({g},{n})")
            mu, nu = a[1 : k + 1], a[k + 1 :]
            if sum(a) != degree or sorted(mu, reverse=True) != list(mu) or sorted(nu, reverse=True) != list(nu):
                raise ValueError(f"residue term {a} of W_({g},{n}), k = {k}, lies on no orbit of degree {degree}")
            tail = tuple(sorted(a[1:], reverse=True))
            table[tail] = table.get(tail, 0) + c
    return _read_cell(SparseSymPoly, g, n, cell_keys(g, n), _per_orbit(table), lambda v, num: (num, 1 << E + 1))


def eo_shell(max_chi: int) -> dict:
    """All stable cells with 2g - 2 + n <= max_chi, computed in shell order."""
    table, flats = {}, {}
    for g, n in shell_cells(1, max_chi):
        table[(g, n)] = eo_W(g, n, table, flats=flats)
    return table
