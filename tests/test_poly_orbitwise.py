"""The orbit-wise recursion steps against the expanded steps they replaced.

``_expanded_omega_step``, ``_expanded_Omega_step_dw0`` and
``_expanded_Omega_step`` build the target over every permutation of every
lower cell, and the first and last regroup it with ``from_expanded``, which
checks symmetry in all n+1 variables.  They use only the public operators
and share no code path with the steps in ``airyqc.polynomials``.
"""

from fractions import Fraction as F

import pytest

from airyqc import (
    CorrelatorTable,
    HalfPowerPoly,
    Omega_base,
    Omega_from_correlators,
    Omega_step,
    Omega_step_dw0,
    SparseSymPoly,
    calD_op,
    d_op,
    omega_base,
    omega_from_correlators,
    omega_step,
)
from airyqc.core import HALF, accumulate, ordered_splits
from airyqc.correlators import is_stable, shell_cells
from airyqc.suites import suite_Omega_rec, suite_omega_rec

# --- the expanded steps ------------------------------------------------------


def _d0(terms):
    return {(e[0] - 2,) + e[1:]: c * e[0] / 2 for e, c in terms.items()}


def _transfer(acc, terms, op, nvars, shift=0):
    tails = {}
    for vec, coeff in terms.items():
        tails.setdefault(vec[1:], {})[vec[0]] = coeff
    images = [(tail, op(f)) for tail, f in tails.items()]
    for i in range(1, nvars):
        spectators = [p for p in range(1, nvars) if p != i]
        for tail, image in images:
            exps = [0] * nvars
            for pos, e in zip(spectators, tail):
                exps[pos] = e
            for (u, v), c in image.items():
                exps[0], exps[i] = u + shift, v
                accumulate(acc, tuple(exps), c)


def _split_terms(g, n, lower, shift, prep=lambda terms: terms):
    nvars = n + 1
    for g1, A1, g2, A2 in ordered_splits(g, range(1, nvars)):
        if not (is_stable(g1, len(A1) + 1) and is_stable(g2, len(A2) + 1)):
            continue
        terms1 = prep(lower[(g1, len(A1) + 1)].expand())
        terms2 = prep(lower[(g2, len(A2) + 1)].expand())
        for vec1, c1 in terms1.items():
            exps = [0] * nvars
            for pos, e in zip(A1, vec1[1:]):
                exps[pos] = e
            for vec2, c2 in terms2.items():
                exps[0] = vec1[0] + vec2[0] + shift
                for pos, e in zip(A2, vec2[1:]):
                    exps[pos] = e
                yield tuple(exps), c1 * c2


def _expanded_omega_step(g, n, lower):
    nvars = n + 1
    acc = {}
    if g >= 1:
        for vec, coeff in lower[(g - 1, n + 2)].expand().items():
            accumulate(acc, (vec[0] + vec[1] + 1,) + vec[2:], HALF * coeff)
    for exps, coeff in _split_terms(g, n, lower, 1):
        accumulate(acc, exps, HALF * coeff)
    if n >= 1:
        _transfer(acc, lower[(g, n)].expand(), d_op, nvars)
    return SparseSymPoly.from_expanded(nvars, acc)


def _expanded_Omega_step_dw0(g, n, lower):
    nvars = n + 1
    acc = {}
    if g >= 1:
        for vec, coeff in lower[(g - 1, n + 2)].expand().items():
            accumulate(acc, (vec[0] + vec[1] + 1,) + vec[2:], coeff * vec[0] * vec[1] / 4)
    for exps, coeff in _split_terms(g, n, lower, 5, _d0):
        accumulate(acc, exps, coeff)
    if n >= 1:
        _transfer(acc, _d0(lower[(g, n)].expand()), calD_op, nvars, shift=-3)
    return acc


def _expanded_Omega_step(g, n, lower):
    terms = {}
    for exps, coeff in _expanded_Omega_step_dw0(g, n, lower).items():
        k = exps[0]
        assert k != -2
        accumulate(terms, (k + 2,) + exps[1:], coeff * F(2, k + 2))
    return HalfPowerPoly.from_expanded(n + 1, terms)


# --- orbit-wise steps == expanded steps ----------------------------------------

STEP_CELLS = [cell for cell in shell_cells(1, 5) if cell not in ((0, 3), (1, 1))]


@pytest.fixture(scope="module")
def lower_cells(table):
    omega = {cell: omega_from_correlators(*cell, table) for cell in shell_cells(1, 5)}
    Omega = {cell: Omega_from_correlators(*cell, table) for cell in shell_cells(1, 5)}
    return omega, Omega


@pytest.mark.parametrize("cell", STEP_CELLS)
def test_orbitwise_steps_match_expanded_steps(lower_cells, cell):
    g, n1 = cell
    omega, Omega = lower_cells
    assert omega_step(g, n1 - 1, omega) == _expanded_omega_step(g, n1 - 1, omega)
    assert Omega_step_dw0(g, n1 - 1, Omega) == _expanded_Omega_step_dw0(g, n1 - 1, Omega)
    assert Omega_step(g, n1 - 1, Omega) == _expanded_Omega_step(g, n1 - 1, Omega)


def test_expanded_oracle_sees_the_recursion(table):
    # the oracle itself reproduces the defining series, so the comparison
    # above is not between two equally wrong steps
    omega = {(0, 3): omega_base(0, 3), (1, 1): omega_base(1, 1)}
    Omega = {(0, 3): Omega_base(0, 3), (1, 1): Omega_base(1, 1)}
    for g, n1 in shell_cells(2, 5):
        omega[(g, n1)] = _expanded_omega_step(g, n1 - 1, omega)
        Omega[(g, n1)] = _expanded_Omega_step(g, n1 - 1, Omega)
        assert omega[(g, n1)] == omega_from_correlators(g, n1, table), (g, n1)
        assert Omega[(g, n1)] == Omega_from_correlators(g, n1, table), (g, n1)


# --- the w_0 against w_i symmetry check inside the steps -------------------------


def test_steps_reject_asymmetric_lower_data():
    # omega_{1,1} seeded as w^2/4 instead of w^2/8: the genus term and the
    # transfer term of omega_{1,2} no longer agree on w_0 against w_1
    lower = {(0, 3): omega_base(0, 3), (1, 1): SparseSymPoly(1, {(2,): F(1, 4)})}
    with pytest.raises(ValueError, match="terms are not symmetric"):
        omega_step(1, 1, lower)
    with pytest.raises(ValueError, match="terms are not symmetric"):
        _expanded_omega_step(1, 1, lower)
    Olower = {(0, 3): Omega_base(0, 3), (1, 1): HalfPowerPoly(1, {(3,): F(1, 12)})}
    with pytest.raises(ValueError, match="terms are not symmetric"):
        Omega_step(1, 1, Olower)
    with pytest.raises(ValueError, match="terms are not symmetric"):
        _expanded_Omega_step(1, 1, Olower)


def test_steps_check_lower_cells_up_front():
    lower = {(0, 3): omega_base(0, 3), (1, 1): omega_base(1, 1)}
    # only the split term reads (0, 3); with the transfer cell (0, 4) empty
    # the missing cell must still be reported
    with pytest.raises(ValueError, match=r"missing lower cell \(0, 3\)"):
        omega_step(0, 4, {(0, 4): SparseSymPoly(4, {})})
    with pytest.raises(ValueError, match="degree"):
        omega_step(1, 1, {**lower, (1, 1): SparseSymPoly(1, {(3,): F(1, 8)})})
    with pytest.raises(ValueError, match="degree"):
        Omega_step(0, 3, {(0, 3): HalfPowerPoly(3, {(3, 1, 1): F(1)})})
    # right degree, but off the omega lattice: targets with a zero exponent
    # would escape the orbit-wise symmetry check
    with pytest.raises(ValueError, match="exponent below 1"):
        omega_step(0, 3, {(0, 3): SparseSymPoly(3, {(3, 0, 0): F(1)})})


# --- reach --------------------------------------------------------------------


def test_recursion_suites_reach_chi_9():
    table = CorrelatorTable()
    for suite in (suite_omega_rec, suite_Omega_rec):
        checks = suite(9, table)
        assert len(checks) == len(list(shell_cells(1, 9)))
        assert all(c.ok for c in checks), [c.line() for c in checks if not c.ok]


# --- exact coefficients only ---------------------------------------------------


@pytest.mark.parametrize("coeff", [0.1, 0.5, True, False, "1/8", None])
def test_orbit_polys_reject_inexact_coefficients(coeff):
    with pytest.raises(ValueError, match="coefficient"):
        SparseSymPoly(1, {(2,): coeff})
    with pytest.raises(ValueError, match="coefficient"):
        HalfPowerPoly(1, {(3,): coeff})


def test_orbit_polys_accept_int_and_fraction():
    assert SparseSymPoly(1, {(2,): 3}).orbits == {(2,): F(3)}
    assert HalfPowerPoly(1, {(3,): F(1, 24), (5,): 0}).orbits == {(3,): F(1, 24)}
