"""Independent recomputation of W_{g,n} by the Eynard-Orantin recursion.

The Airy curve x = z^2/2, y = z has its single branch point at the origin,
conjugation z -> -z, Bergman kernel dz1 dz2/(z1 - z2)^2, and recursion
kernel factor 1/(z (z_0^2 - z^2)).  The recursion is evaluated with formal
Laurent series: the residue at z = 0 is read off as the coefficient of
z^(-1), never via numerical contours, so this route shares no values with
the correlator engine, and of its arithmetic only the scale exponent
:func:`~airyqc.core._scale_exp`.

``ZSeries`` is a Laurent series in the active variable z, truncated at
order ``trunc``, whose coefficients are Laurent polynomials in the
spectator variables z_0 ... z_{n-1}.  Every product goes through one
routine, :func:`_mul_into`, which adds into a stratum dict in place only
the strata z^k its caller keeps, and one certificate,
:func:`exact_through`: f1 * f2 is exact through
z^min(trunc_1 + val_2, trunc_2 + val_1).  ``ZSeries.__mul__`` keeps the
strata the certificate covers; :func:`eo_W` keeps the even strata
z^k, k <= 0, of each split product and then only the z^(-1) stratum of
the kernel contraction, which it reads with ``ZSeries.residue``.

:func:`eo_W` runs on ints: each genus-g_i cell enters at the scale
2^E(g_i) on which the DVV table is integral, each split is added together
with its mirror, and the recursion's 1/2 folds into non-negative left
shifts, so only the result is divided by 2^E(g).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .core import ZERO, _scale_exp, ordered_splits
from .correlators import require_stable, shell_cells
from .polynomials import SparseSymPoly, _lower_cell

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
    dict; ``trunc`` is the largest z-exponent through which the series is
    exact (math.inf for exact Laurent polynomials).  The constructor drops
    zero coefficients, so the arithmetic below sums without checking.
    """

    __slots__ = ("nspec", "trunc", "terms")

    def __init__(self, nspec, trunc, terms=None):
        self.nspec = nspec
        self.trunc = trunc
        self.terms = {}
        if terms:
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
        assert self.nspec == other.nspec
        trunc = exact_through(self, other)
        return ZSeries(self.nspec, trunc, _mul_into({}, self, other, lambda k: k <= trunc))

    def residue(self) -> dict:
        """Coefficient of z^(-1) as a spectator Laurent polynomial.

        Raises if truncation cannot certify the z^(-1) stratum.
        """
        if self.trunc < -1:
            raise ValueError(f"series truncated at {self.trunc}, residue stratum not exact")
        return dict(self.terms.get(-1, {}))


def kernel_series(M, nspec: int) -> ZSeries:
    """1/(z (z_0^2 - z^2)) = sum_{j>=0} z^(2j-1) z_0^(-2j-2), through z^M."""
    if M < -1:
        raise ValueError("truncation must be >= -1")
    terms = {}
    j = 0
    while 2 * j - 1 <= M:
        exps = [0] * nspec
        exps[0] = -2 * j - 2
        terms[2 * j - 1] = {tuple(exps): 1}
        j += 1
    return ZSeries(nspec, M, terms)


def b02_series(sign: int, i: int, M, nspec: int) -> ZSeries:
    """Expansion of the two-point cell with one leg active:

        1/(+z - z_i)^2 = sum_{m>=0} (m+1) z^m z_i^(-m-2)         sign = +1
        1/(-z - z_i)^2 = sum_{m>=0} (m+1) (-1)^m z^m z_i^(-m-2)  sign = -1
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if M < 0:
        raise ValueError("truncation must be >= 0")
    terms = {}
    for m in range(M + 1):
        exps = [0] * nspec
        exps[i] = -m - 2
        terms[m] = {tuple(exps): (m + 1) * sign**m}
    return ZSeries(nspec, M, terms)


def series_from_cell(cell: SparseSymPoly, spectators, nspec: int, *, scale: int = 0) -> ZSeries:
    """2^scale times a stable cell W(z, z_{spectators}), or W(z, -z,
    z_{spectators}) when the cell has two variables more than
    ``spectators``, as an exact ZSeries with int coefficients; any other
    count of active legs raises ValueError, and so does a cell coefficient
    that 2^scale does not make an integer.  Each coefficient of the cell's
    cached expansion is scaled and checked as it is read.  Cells are even
    in every variable, so the sign of an active leg never matters.
    """
    spectators = tuple(spectators)
    active = cell.nvars - len(spectators)
    if active not in (1, 2):
        raise ValueError(f"{active} active legs, expected 1 or 2")
    terms = {}
    for vec, coeff in cell.expand().items():
        c, r = divmod(coeff.numerator << scale, coeff.denominator)
        if r:
            raise ValueError(f"coefficient {coeff} is not an integer at scale 2^{scale}")
        k = -2 * (sum(vec[:active]) + active)
        exps = [0] * nspec
        for pos, a in zip(spectators, vec[active:]):
            exps[pos] = -2 * a - 2
        tgt = terms.setdefault(k, {})
        e = tuple(exps)
        tgt[e] = tgt.get(e, 0) + c
    return ZSeries(nspec, math.inf, terms)


def exact_through(f1: ZSeries, f2: ZSeries):
    """The truncation certificate: f1 * f2 is exact through this z-exponent.

    A W_(0,2) leg cut at z^1 times the W_(0,3) leg, whose pole is z^(-2),
    is exact only through z^(-1):

    >>> w03 = series_from_cell(SparseSymPoly(3, {(0, 0, 0): 1}), (2, 3), 4)
    >>> exact_through(b02_series(1, 1, 1, 4), w03)
    -1
    """
    return min(f1.trunc + f2.valuation(), f2.trunc + f1.valuation())


def _mul_into(out: dict, f1: ZSeries, f2: ZSeries, keep, shift: int = 0) -> dict:
    """Add the strata z^k of f1 * f2 with ``keep(k)`` true, times 2^shift,
    into the stratum dict ``out`` in place and return it; no other stratum
    is formed.  A nonzero ``shift`` needs int coefficients in f1.
    Exactness is the caller's, by :func:`exact_through`."""
    for k1, p1 in f1.terms.items():
        for k2, p2 in f2.terms.items():
            k = k1 + k2
            if not keep(k):
                continue
            tgt = out.setdefault(k, {})
            for e1, c1 in p1.items():
                if shift:
                    c1 <<= shift
                for e2, c2 in p2.items():
                    e = tuple(map(add, e1, e2))
                    tgt[e] = tgt.get(e, 0) + c1 * c2
    return out


def eo_W(g: int, n: int, lower: dict) -> SparseSymPoly:
    """W_{g,n}(z_0, ..., z_{n-1}) by one step of the residue recursion.

        W_{g,n} = 1/2 res_{z=0} 1/(z (z_0^2 - z^2)) (
                      W_{g-1,n+1}(z, -z, z_rest)
                    + sum over ordered splits W_{g_1}(z, ...) W_{g_2}(-z, ...))

    with W_{0,1} = 0 (terms dropped), W_{0,2} legs expanded by
    :func:`b02_series` through z^M, M = 6g + 2n, and W_{0,2}(z, -z) =
    1/(4 z^2) in the first term.  The kernel is odd in z, so the residue
    reads only the even strata of the bracket: each split product adds its
    strata z^k, k even and k <= 0, into one stratum dict by
    :func:`_mul_into`, and this even part, the ``ZSeries`` ``inner``, is
    exact through z^0.  Then ``kernel_series(M, n)`` is contracted with
    ``inner`` by the same routine, forming only the z^(-1) stratum, which
    ``ZSeries.residue`` reads.

    Mirror fold: a split (g_1, A_1, g_2, A_2) and its mirror (g_2, A_2,
    g_1, A_1) give the products P(z) and P(-z), whose even strata are
    equal, so each unordered split is multiplied once, at twice the weight,
    and its truncation certificate, which the mirror shares, is checked
    once.  Only the split g_1 = g_2 = g/2 of n = 1 is its own mirror.

    Scale: ``inner`` holds 2^(E(g) - 1) times the even part of the
    bracket, in ints, with E = :func:`~airyqc.core._scale_exp`, so the
    residue r is 2^E(g) W_{g,n} and each output coefficient is r / 2^E(g).
    Each cell enters at its own scale through :func:`series_from_cell`,
    the kernel and the W_(0,2) legs as they are, and each term is shifted
    left by

        E(g) - E(g-1) - 1 >= 2           the genus term,
        E(g) - E(g_1) - E(g_2) >= 0      an unordered split pair,
        E(g) - 2 E(g/2) - 1 >= 0         the self-mirrored split,

    the last two being popcount(g_1) + popcount(g_2) - popcount(g) and
    popcount(g/2) - 1 by E(g) = 4g - popcount(g); the base term 1/4 of
    (1, 1) is the int 2^(3 - 1) / 4 = 1.

    Checks, each raising ValueError: every lower cell is integral at its
    scale (:func:`series_from_cell`), every split product is exact through
    z^0 and the contraction through z^(-1) (:func:`exact_through`; the
    latter says the kernel's truncation reaches every stratum of
    ``inner``), every exponent of the result is even and negative, and the
    result is symmetric (``SparseSymPoly.from_expanded``).  The output has
    the exponent-table form of ``tW_from_correlators``.
    """
    require_stable(g, n)
    M = 6 * g + 2 * n
    rest = list(range(1, n))
    E = _scale_exp(g)

    def leg(gi, A, sign):
        if (gi, len(A)) == (0, 1):
            return b02_series(sign, A[0], M, n)
        return series_from_cell(_lower_cell(lower, gi, len(A) + 1), A, n, scale=_scale_exp(gi))

    inner = {}
    if (g, n) == (1, 1):
        inner[-2] = {(0,): 1}
    elif g >= 1:
        genus = series_from_cell(_lower_cell(lower, g - 1, n + 1), rest, n, scale=_scale_exp(g - 1))
        shift = E - _scale_exp(g - 1) - 1
        inner = {k: {e: c << shift for e, c in poly.items()} for k, poly in genus.terms.items()}

    for g1, A1, g2, A2 in ordered_splits(g, rest):
        if (g1, A1) > (g2, A2) or (g1, len(A1)) == (0, 0) or (g2, len(A2)) == (0, 0):
            continue  # the mirror is taken instead, or W_(0,1) = 0
        f1 = leg(g1, A1, 1)
        if (g1, A1) == (g2, A2):  # n = 1 and g_1 = g/2: its own mirror
            f2, shift = f1, E - 2 * _scale_exp(g1) - 1
        else:
            f2, shift = leg(g2, A2, -1), E - _scale_exp(g1) - _scale_exp(g2)
        exact = exact_through(f1, f2)
        if exact < 0:
            raise ValueError(f"product exact only through z^{exact}, residue strata need z^0")
        _mul_into(inner, f1, f2, lambda k: k <= 0 and not k % 2, shift)

    inner = ZSeries(n, 0, inner)
    kernel = kernel_series(M, n)
    exact = exact_through(kernel, inner)
    if exact < -1:
        raise ValueError(f"kernel truncated at z^{M} does not reach stratum z^{inner.valuation()} of W_({g},{n})")
    residue = ZSeries(n, exact, _mul_into({}, kernel, inner, lambda k: k == -1)).residue()

    terms = {}
    for exps, coeff in residue.items():
        if any(e >= 0 or e % 2 for e in exps):
            raise ValueError(f"non-even or non-negative exponent {exps} in W_({g},{n})")
        terms[tuple((-e - 2) // 2 for e in exps)] = Fraction(coeff, 1 << E)
    try:
        return SparseSymPoly.from_expanded(n, terms)
    except ValueError as exc:
        raise ValueError(f"W_({g},{n}) failed its symmetry check: {exc}") from None


def eo_shell(max_chi: int) -> dict:
    """All stable cells with 2g - 2 + n <= max_chi, computed in shell order."""
    table = {}
    for g, n in shell_cells(1, max_chi):
        table[(g, n)] = eo_W(g, n, table)
    return table
