"""The residue route one shell further, and its explicit checks firing."""

import pytest

from airyqc import SparseSymPoly, residues, tW_from_correlators
from airyqc.correlators import shell_cells


def test_eo_equals_dvv_at_chi_7(table, wtable6):
    lower = dict(wtable6)
    for g, n in shell_cells(7, 7):
        lower[(g, n)] = residues.eo_W(g, n, lower)
        assert lower[(g, n)] == tW_from_correlators(g, n, table), (g, n)


def test_truncation_certificate_fires(monkeypatch, wtable6):
    # W_(0,3) has a z^-2 pole, so a W_(0,2) leg cut at z^1 leaves the
    # product's z^0 stratum inexact
    original = residues.b02_series
    monkeypatch.setattr(residues, "b02_series", lambda sign, i, M, nspec: original(sign, i, 1, nspec))
    with pytest.raises(ValueError, match="exact only through z\\^-1"):
        residues.eo_W(0, 4, wtable6)


def _patched_b02(monkeypatch, change):
    # each W_(0,2) leg's series with every term (exponents, coeff) of
    # spectator i replaced by change(i, exponents, coeff)
    original = residues.b02_series

    def patched(sign, i, M, nspec):
        s = original(sign, i, M, nspec)
        terms = {k: dict(change(i, e, c) for e, c in p.items()) for k, p in s.terms.items()}
        return residues.ZSeries(nspec, s.trunc, terms)

    monkeypatch.setattr(residues, "b02_series", patched)


def test_symmetry_check_fires(monkeypatch, wtable6):
    # a W_(0,2) leg doubled on spectator 1 only breaks the S_4 symmetry
    _patched_b02(monkeypatch, lambda i, e, c: (e, 2 * c if i == 1 else c))
    with pytest.raises(ValueError) as err:
        residues.eo_W(0, 4, wtable6)
    assert str(err.value) == "W_(0,4) failed its symmetry check: terms are not symmetric on orbit (1, 0, 0, 0)"


def test_exponent_parity_check_fires(monkeypatch, wtable6):
    # a W_(0,2) leg with z_i^(-m-3) in place of z_i^(-m-2) leaves an odd exponent
    _patched_b02(monkeypatch, lambda i, e, c: (e[:i] + (e[i] - 1,) + e[i + 1 :], c))
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
        residues.series_from_cell(SparseSymPoly(3, {(0, 0, 0): 1}), (), 4)


def test_each_leg_is_built_once(monkeypatch, wtable6):
    # a leg (g_i, A) other than W_(0,2) does not depend on its sign, so a
    # split and its mirror share one series
    built = []
    original = residues.series_from_cell

    def counting(cell, spectators, nspec, **kw):
        built.append((id(cell), tuple(spectators), kw.get("both_active", False)))
        return original(cell, spectators, nspec, **kw)

    monkeypatch.setattr(residues, "series_from_cell", counting)
    for g, n in shell_cells(1, 6):
        built.clear()
        assert residues.eo_W(g, n, wtable6) == wtable6[(g, n)]
        assert len(built) == len(set(built)), (g, n)
