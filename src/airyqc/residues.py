"""Independent recomputation of W_{g,n} by the Eynard-Orantin recursion.

The Airy curve x = z^2/2, y = z has its single branch point at the origin,
conjugation z -> -z, Bergman kernel dz1 dz2/(z1 - z2)^2, and recursion
kernel factor 1/(z (z_0^2 - z^2)).  The recursion is evaluated with formal
Laurent series: the residue at z = 0 is read off as the coefficient of
z^(-1), never via numerical contours, so this route shares no code or
values with the correlator engine.

``ZSeries`` is a Laurent series in the active variable z, truncated at
order ``trunc``, whose coefficients are Laurent polynomials in the
spectator variables z_0 ... z_{n-1}.  Multiplication tracks the order
through which the product is still exact, and ``residue`` refuses to
answer when the z^(-1) stratum is not within the exact range; that check
is what guarantees the truncation chosen by :func:`eo_W` loses nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import HALF, ZERO
from .correlators import is_stable, shell_cells
from .polynomials import SparseSymPoly

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

    @classmethod
    def zero(cls, nspec):
        return cls(nspec, math.inf)

    def valuation(self):
        return min(self.terms) if self.terms else math.inf

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
        if not self.terms or not other.terms:
            return ZSeries.zero(self.nspec)
        trunc = min(self.trunc + other.valuation(), other.trunc + self.valuation())
        out = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                k = k1 + k2
                if k > trunc:
                    continue
                tgt = out.setdefault(k, {})
                for e1, c1 in p1.items():
                    for e2, c2 in p2.items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        tgt[e] = tgt.get(e, ZERO) + c1 * c2
        return ZSeries(self.nspec, trunc, out)

    def scaled(self, factor):
        return ZSeries(
            self.nspec,
            self.trunc,
            {k: {e: c * factor for e, c in poly.items()} for k, poly in self.terms.items()},
        )

    def residue(self) -> dict:
        """Coefficient of z^(-1) as a spectator Laurent polynomial.

        Raises if truncation cannot certify the z^(-1) stratum.
        """
        if self.trunc < -1:
            raise ValueError(f"series truncated at {self.trunc}, residue stratum not exact")
        return dict(self.terms.get(-1, {}))


def kernel_series(M, nspec: int = 1) -> ZSeries:
    """1/(z (z_0^2 - z^2)) = sum_{j>=0} z^(2j-1) z_0^(-2j-2), through z^M."""
    if M < -1:
        raise ValueError("truncation must be >= -1")
    terms = {}
    j = 0
    while 2 * j - 1 <= M:
        exps = [0] * nspec
        exps[0] = -2 * j - 2
        terms[2 * j - 1] = {tuple(exps): Fraction(1)}
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
        terms[m] = {tuple(exps): Fraction((m + 1) * (sign**m))}
    return ZSeries(nspec, M, terms)


def series_from_cell(cell: SparseSymPoly, spectators, nspec: int, *, both_active: bool = False) -> ZSeries:
    """A stable cell W(z, z_{spectators}) (or W(z, -z, z_{spectators}) when
    ``both_active``) as an exact ZSeries.  Cells are even in every variable,
    so the sign of an active leg never matters.
    """
    spectators = tuple(spectators)
    active = 2 if both_active else 1
    assert cell.nvars == active + len(spectators)
    terms = {}
    for vec, coeff in cell.expand().items():
        k = sum(-2 * a - 2 for a in vec[:active])
        exps = [0] * nspec
        for pos, a in zip(spectators, vec[active:]):
            exps[pos] = -2 * a - 2
        tgt = terms.setdefault(k, {})
        e = tuple(exps)
        tgt[e] = tgt.get(e, ZERO) + coeff
    return ZSeries(nspec, math.inf, terms)


def eo_W(g: int, n: int, lower: dict) -> SparseSymPoly:
    """W_{g,n}(z_0, ..., z_{n-1}) by one step of the residue recursion.

        W_{g,n} = 1/2 res_{z=0} 1/(z (z_0^2 - z^2)) (
                      W_{g-1,n+1}(z, -z, z_rest)
                    + sum over ordered splits W_{g_1}(z, ...) W_{g_2}(-z, ...))

    with W_{0,1} = 0 (terms dropped), W_{0,2} legs expanded by
    :func:`b02_series`, and W_{0,2}(z, -z) = 1/(4 z^2) in the first term.
    Symmetry of the result is checked, not imposed, and the output is
    converted to the same exponent-table form as ``tW_from_correlators``.
    """
    if g < 0 or n < 1 or not is_stable(g, n):
        raise ValueError(f"unstable (g, n) = ({g}, {n})")
    M = 6 * g + 2 * n
    nspec = n
    rest = list(range(1, n))

    def cell(g_, n_):
        try:
            return lower[(g_, n_)]
        except KeyError:
            raise ValueError(f"missing lower cell ({g_}, {n_})") from None

    inner = ZSeries.zero(nspec)
    if g >= 1:
        if (g, n) == (1, 1):
            inner = inner + ZSeries(nspec, math.inf, {-2: {(0,) * nspec: Fraction(1, 4)}})
        else:
            inner = inner + series_from_cell(cell(g - 1, n + 1), rest, nspec, both_active=True)

    for g1 in range(g + 1):
        g2 = g - g1
        for mask in range(1 << len(rest)):
            A1 = [rest[i] for i in range(len(rest)) if mask >> i & 1]
            A2 = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
            n1, n2 = len(A1) + 1, len(A2) + 1
            if (g1, n1) == (0, 1) or (g2, n2) == (0, 1):
                continue
            if (g1, n1) == (0, 2):
                f1 = b02_series(1, A1[0], M, nspec)
            else:
                f1 = series_from_cell(cell(g1, n1), A1, nspec)
            if (g2, n2) == (0, 2):
                f2 = b02_series(-1, A2[0], M, nspec)
            else:
                f2 = series_from_cell(cell(g2, n2), A2, nspec)
            inner = inner + f1 * f2

    res = (kernel_series(M, nspec) * inner).residue()

    terms = {}
    for exps, coeff in res.items():
        if any(e >= 0 or e % 2 for e in exps):
            raise ValueError(f"non-even or non-negative exponent {exps} in W_({g},{n})")
        terms[tuple((-e - 2) // 2 for e in exps)] = HALF * coeff
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
