"""The residue route one shell further, its explicit checks firing, a
Fraction oracle for its integer scale, and the quantum curve from its cells."""

import math
import re
from fractions import Fraction

import pytest

from airyqc import SparseSymPoly, residues, s_term, tW_from_correlators
from airyqc.core import HALF, orbit_size
from airyqc.correlators import require_stable, shell_cells
from airyqc.suites import suite_dvv_eo

from _oracles import from_expanded, multiset_permutations, ordered_splits


def test_eo_equals_dvv_at_chi_7(table, wtable6):
    lower = dict(wtable6)
    for g, n in shell_cells(7, 7):
        lower[(g, n)] = residues.eo_W(g, n, lower)
        assert lower[(g, n)] == tW_from_correlators(g, n, table), (g, n)


def test_eo_equals_dvv_at_chi_8_and_9(table, wtable6):
    lower = dict(wtable6)
    for g, n in shell_cells(7, 9):
        lower[(g, n)] = residues.eo_W(g, n, lower)
        if 2 * g - 2 + n >= 8:
            assert lower[(g, n)] == tW_from_correlators(g, n, table), (g, n)


def test_truncation_certificate_fires(monkeypatch, wtable6):
    # W_(0,3) has a z^-2 pole, so a W_(0,2) leg cut at z^1 leaves the
    # product's z^0 stratum inexact
    original = residues.b02_series
    monkeypatch.setattr(residues, "b02_series", lambda sign, M: original(sign, 1))
    with pytest.raises(ValueError, match="exact only through z\\^-1"):
        residues.eo_W(0, 4, wtable6)


def _patched_b02(monkeypatch, change):
    # each W_(0,2) leg's series with every term (exponents, coeff) of the
    # leg of sign ``sign`` replaced by change(sign, exponents, coeff)
    original = residues.b02_series

    def patched(sign, M):
        s = original(sign, M)
        terms = {k: dict(change(sign, e, c) for e, c in p.items()) for k, p in s.terms.items()}
        return residues.ZSeries(s.nspec, s.trunc, terms)

    monkeypatch.setattr(residues, "b02_series", patched)


def test_symmetry_check_fires(monkeypatch, wtable6, table):
    # the kernel's term z^1 z_0^-4 doubled breaks z_0 against the spectators
    original = residues.kernel_series

    def doubled(M):
        s = original(M)
        s.terms[1] = {e: 2 * c for e, c in s.terms[1].items()}
        return s

    monkeypatch.setattr(residues, "kernel_series", doubled)
    with pytest.raises(ValueError) as err:
        residues.eo_W(0, 4, wtable6)
    assert str(err.value) == "cell (0, 4): terms are not symmetric on orbit (1, 0, 0, 0)"
    # a W_(0,2) leg doubled on the z side only: every W_(0,2) leg but the
    # -z one of W_(0,3) is a first leg, on z_1, so the cells it feeds are
    # doubled whole and stay symmetric, and the comparison with DVV is
    # what catches it
    monkeypatch.setattr(residues, "kernel_series", original)
    _patched_b02(monkeypatch, lambda sign, e, c: (e, 2 * c if sign == 1 else c))
    assert [c.line() for c in suite_dvv_eo(2, table) if not c.ok] == [
        "FAIL dvv-eo W_(0,3): first differing orbit (0, 0, 0): eo=2, dvv=1",
        "FAIL dvv-eo W_(0,4): first differing orbit (1, 0, 0, 0): eo=12, dvv=3",
        "FAIL dvv-eo W_(1,2): first differing orbit (2, 0): eo=5/4, dvv=5/8",
    ]


def test_every_residue_term_is_read(monkeypatch, wtable6):
    # an extra orbit of W_(0,3) off its degree 0 puts terms into W_(1,2)'s
    # residue, within the kernel's truncation, that no orbit of degree 2 reads
    lower = dict(wtable6)
    lower[(0, 3)] = SparseSymPoly(3, {(0, 0, 0): 1, (1, 0, 0): 1})
    with pytest.raises(ValueError) as err:
        residues.eo_W(1, 2, lower)
    assert str(err.value) == "residue term (2, 1) of W_(1,2), k = 1, lies on no orbit of degree 2"
    # every lower cell entering with each tail in every order, not only
    # descending, puts terms into the residue whose legs do not descend;
    # the orders of a tail of z-exponents e come in descending order of
    # its leg exponents a = (-e - 2)/2
    flatten = residues._flatten

    def every_order(cell, active, scale):
        strata = flatten(cell, active, scale)
        return {k: {p: c for tail, c in poly.items() for p in [*multiset_permutations(tail)][::-1]} for k, poly in strata.items()}

    monkeypatch.setattr(residues, "_flatten", every_order)
    with pytest.raises(ValueError) as err:
        residues.eo_W(0, 5, wtable6)
    assert str(err.value) == "residue term (0, 1, 0, 1, 0) of W_(0,5), k = 1, lies on no orbit of degree 2"


def test_exponent_parity_check_fires(monkeypatch, wtable6):
    # a W_(0,2) leg with z_i^(-m-3) in place of z_i^(-m-2) leaves an odd exponent
    _patched_b02(monkeypatch, lambda sign, e, c: ((e[0] - 1,), c))
    with pytest.raises(ValueError) as err:
        residues.eo_W(0, 4, wtable6)
    assert str(err.value) == "non-even or non-negative exponent (-2, -5, -2, -2) in W_(0,4)"


def test_kernel_coverage_fires(wtable6):
    # an off-shell W_(0,3) puts z^-28 into W_(1,2)'s first term, beyond the
    # kernel's truncation z^10
    lower = dict(wtable6)
    lower[(0, 3)] = SparseSymPoly(3, {(6, 6, 0): 1})
    with pytest.raises(ValueError, match="kernel truncated at z\\^10"):
        residues.eo_W(1, 2, lower)


def test_series_from_cell_needs_one_or_two_active_legs():
    with pytest.raises(ValueError, match="3 active legs, expected 1 or 2"):
        residues.series_from_cell(SparseSymPoly(3, {(0, 0, 0): 1}), 0)


def test_each_leg_is_built_once(monkeypatch, wtable6):
    # a leg (g_i, |A|) other than W_(0,2) depends neither on its sign nor
    # on where it sits, so a pair that is its own mirror shares one series;
    # and one eo_shell flattens each lower cell once for each count of
    # active legs
    built, flattened = [], []
    original, flatten = residues.series_from_cell, residues._flatten

    def counting(cell, nspec, **kw):
        built.append((id(cell), nspec, kw["scale"]))
        return original(cell, nspec, **kw)

    def counting_flatten(cell, active, scale):
        flattened.append((id(cell), active, scale))
        return flatten(cell, active, scale)

    monkeypatch.setattr(residues, "series_from_cell", counting)
    monkeypatch.setattr(residues, "_flatten", counting_flatten)
    for g, n in shell_cells(1, 6):
        built.clear()
        assert residues.eo_W(g, n, wtable6) == wtable6[(g, n)]
        assert len(built) == len(set(built)), (g, n)
    flattened.clear()
    assert residues.eo_shell(6) == wtable6
    assert flattened and len(flattened) == len(set(flattened))


def test_flats_never_serve_a_replaced_cell(wtable6):
    # an entry names its cell by identity: a dict filled from other cells
    # of the same shape is never read for a new one
    flats = {}
    one, two = SparseSymPoly(3, {(0, 0, 0): 1}), SparseSymPoly(3, {(0, 0, 0): 2})
    first = residues.series_from_cell(one, 2, flats=flats)
    second = residues.series_from_cell(two, 2, flats=flats)
    assert second.terms == residues.series_from_cell(two, 2).terms != first.terms
    # filled over the shell, then W_(1,1) replaced: its scale check fires
    flats.clear()
    for g, n in shell_cells(1, 6):
        residues.eo_W(g, n, wtable6, flats=flats)
    lower = dict(wtable6)
    lower[(1, 1)] = SparseSymPoly(1, {(1,): Fraction(1, 16)})
    with pytest.raises(ValueError, match=re.escape("coefficient 1/16 is not an integer at scale 2^3")):
        residues.eo_W(1, 2, lower, flats=flats)


@pytest.mark.parametrize(
    "key, cell, target, message",
    [
        ((0, 3), SparseSymPoly(3, {(0, 0, 0): Fraction(1, 3)}), (0, 4), "coefficient 1/3 is not an integer at scale 2^0"),
        ((1, 1), SparseSymPoly(1, {(1,): Fraction(1, 16)}), (1, 2), "coefficient 1/16 is not an integer at scale 2^3"),
    ],
    ids=["W_(0,3)=1/3", "W_(1,1)=1/16"],
)
def test_scale_check_fires(wtable6, key, cell, target, message):
    # a lower cell off the scale 2^E(g) on which every genus-g cell is integral
    lower = dict(wtable6)
    lower[key] = cell
    with pytest.raises(ValueError, match=re.escape(message)):
        residues.eo_W(*target, lower)


# --- the Fraction route: eo_W before it ran on ints ---------------------------

def _fraction_series(cell, spectators, n):
    """The cell W(z, z_spectators), or W(z, -z, z_spectators) with two
    active legs, in its Fraction coefficients: exact, and as {(z-exponent,
    exponent n-vector): coeff} with each spectator exponent at its
    position."""
    active = cell.nvars - len(spectators)
    terms = {}
    for vec, coeff in cell.expand().items():
        exps = [0] * n
        for pos, a in zip(spectators, vec[active:]):
            exps[pos] = -2 * a - 2
        key = (sum(-2 * a - 2 for a in vec[:active]), tuple(exps))
        terms[key] = terms.get(key, 0) + coeff
    return math.inf, terms


def _unit(n, i, e):
    exps = [0] * n
    exps[i] = e
    return tuple(exps)


def _fraction_product(f1, f2, keep):
    """The strata z^k with ``keep(k)`` of f1 * f2, each (trunc, terms) as
    :func:`_fraction_series` makes them, by adding exponent n-vectors
    entry-wise, and the z-exponent through which the product is exact."""
    (t1, d1), (t2, d2) = f1, f2
    v1, v2 = (min((k for k, _ in d), default=t + 1) for t, d in (f1, f2))
    trunc = min(t1 + v2, t2 + v1)
    out = {}
    for (k1, e1), c1 in d1.items():
        for (k2, e2), c2 in d2.items():
            k = k1 + k2
            if k <= trunc and keep(k):
                key = (k, tuple(a + b for a, b in zip(e1, e2)))
                out[key] = out.get(key, 0) + c1 * c2
    return trunc, out


def _fraction_eo_W(g, n, lower):
    """W_{g,n} in Fractions: every ordered split on its own spectator
    positions, each product at weight 1, and the 1/2 applied to the
    residue."""
    require_stable(g, n)
    M = 6 * g + 2 * n
    rest = list(range(1, n))

    def leg(gi, A, sign):
        if (gi, len(A)) == (0, 1):
            return M, {(m, _unit(n, A[0], -m - 2)): (m + 1) * sign**m for m in range(M + 1)}
        return _fraction_series(lower[(gi, len(A) + 1)], A, n)

    inner = {}
    if (g, n) == (1, 1):
        inner[(-2, (0,))] = Fraction(1, 4)
    elif g >= 1:
        inner = _fraction_series(lower[(g - 1, n + 1)], rest, n)[1]
    for g1, A1, g2, A2 in ordered_splits(g, rest):
        if (g1, len(A1)) == (0, 0) or (g2, len(A2)) == (0, 0):
            continue
        exact, product = _fraction_product(leg(g1, A1, 1), leg(g2, A2, -1), lambda k: k <= 0)
        assert exact >= 0
        for key, c in product.items():
            inner[key] = inner.get(key, 0) + c
    kernel = M, {(2 * j - 1, _unit(n, 0, -2 * j - 2)): 1 for j in range((M + 1) // 2 + 1)}
    exact, residue = _fraction_product(kernel, (0, inner), lambda k: k == -1)
    assert exact >= -1
    terms = {tuple((-e - 2) // 2 for e in exps): HALF * c for (_, exps), c in residue.items() if c}
    return from_expanded(SparseSymPoly, n, terms)


def test_integer_route_equals_fraction_route(wtable6):
    oracle = {}
    for g, n in shell_cells(1, 6):
        oracle[(g, n)] = _fraction_eo_W(g, n, oracle)
        assert wtable6[(g, n)] == oracle[(g, n)], (g, n)


# --- the quantum curve from the EO cells --------------------------------------

def _eo_cells(max_chi, seed):
    """The cells in ``seed`` and, in shell order, every other stable cell
    with 2g - 2 + n <= max_chi computed by ``eo_W`` from them."""
    cells = dict(seed)
    for g, n in shell_cells(1, max_chi):
        if (g, n) not in cells:
            cells[(g, n)] = residues.eo_W(g, n, cells)
    return cells


def _eo_s_n(n, cells):
    """S_n = sum over 2g - 1 + k = n of 1/k! times the diagonal of W_{g,k},
    sum_a orbit_size(a) c(a) / prod (2a_i + 1) over its tW orbits a."""
    total = Fraction(0)
    for g in range(n // 2 + 1):
        k = n + 1 - 2 * g
        diagonal = sum(Fraction(orbit_size(a) * c) / math.prod(2 * ai + 1 for ai in a) for a, c in cells[(g, k)].orbits.items())
        total += diagonal / math.factorial(k)
    return total


def _s_n_mismatches(cells, table, last=8):
    return [n for n in range(2, last + 1) if _eo_s_n(n, cells) != s_term(n, 1, table).coeff]


def test_quantum_curve_from_eo_cells(wtable6, table):
    # S_2 ... S_8, the quantum curve's WKB terms through hbar^7, from EO cells alone
    assert _s_n_mismatches(_eo_cells(7, wtable6), table) == []


def test_quantum_curve_through_hbar9_from_eo_cells(wtable6, table):
    # S_2 ... S_9, the WKB terms the order hbar^9 identity reads past S_0
    # and S_1, from the chi 7 and 8 cells that eo_W builds on chi <= 6
    cells = _eo_cells(8, wtable6)
    assert sorted(set(cells) - set(wtable6)) == sorted(shell_cells(7, 8))
    assert _s_n_mismatches(cells, table, 9) == []


def test_quantum_curve_through_hbar11_from_eo_cells(wtable6, table):
    # S_2 ... S_11, the WKB terms the order hbar^11 identity reads past S_0
    # and S_1, from the EO cells with chi <= 10
    cells = _eo_cells(10, wtable6)
    assert sorted(set(cells) - set(wtable6)) == sorted(shell_cells(7, 10))
    assert _s_n_mismatches(cells, table, 11) == []


def test_quantum_curve_from_eo_cells_catches_a_doubled_base(wtable6, table):
    # W_(1,1) at twice its value breaks S_2, the one term that reads it, and
    # the later cells fed with it cannot be formed: W_(1,2) is not symmetric
    doubled = SparseSymPoly(1, {a: 2 * c for a, c in wtable6[(1, 1)].orbits.items()})
    assert _s_n_mismatches({**_eo_cells(7, wtable6), (1, 1): doubled}, table) == [2]
    genus0 = {(g, n): cell for (g, n), cell in wtable6.items() if g == 0}
    with pytest.raises(ValueError, match=re.escape("cell (1, 2): terms are not symmetric on orbit (2, 0)")):
        _eo_cells(7, {**genus0, (1, 1): doubled})
