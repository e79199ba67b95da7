"""The orbit-wise recursion steps against the expanded steps they replaced.

``_expanded_omega_step``, ``_expanded_Omega_step_dw0`` and
``_expanded_Omega_step`` build the target over every permutation of every
lower cell, and the first and last regroup it with ``from_expanded``
(``tests/_oracles.py``), which checks symmetry in all n+1 variables.
They use only the public operators ``d_op`` and ``calD_op``, which the
steps apply too (``tests/test_transfer.py`` checks those against the
defining series), and share no other code path with the steps in
``airyqc.polynomials``.
"""

from fractions import Fraction as F
from itertools import permutations

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
from airyqc.core import HALF, accumulate, readings
from airyqc.correlators import is_stable, shell_cells
from airyqc.polynomials import _calD_dx, _lower_cells, _split_table, _step_values, _targets
from airyqc.suites import suite_Omega_rec, suite_omega_rec

from _oracles import from_expanded, ordered_splits, sub_multisets

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
    return from_expanded(SparseSymPoly, nvars, acc)


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
    return from_expanded(HalfPowerPoly, n + 1, terms)


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


def test_step_denominators_are_a_true_lcm(lower_cells):
    # each lower cell over its own prime denominator >= 5: a step that reads
    # its cells over anything short of the lcm of all their denominators, the
    # transfer cell's included, drops a term.  Omega_step_dw0 does not
    # symmetrize, so the rescaled cells need not give a symmetric target.
    primes = (p for p in range(5, 1000) if all(p % d for d in range(2, p)))
    Omega = {
        cell: HalfPowerPoly(cell[1], {o: c * F(3, p) for o, c in poly.orbits.items()})
        for (cell, poly), p in zip(lower_cells[1].items(), primes)
    }
    for g, n1 in STEP_CELLS:
        assert Omega_step_dw0(g, n1 - 1, Omega) == _expanded_Omega_step_dw0(g, n1 - 1, Omega), (g, n1)


# --- the split table against the per-tail walk it replaced ----------------------


def _walk_split_term(tail, splits):
    # the split term of one tail read the way the steps once read it: each
    # (mu, nu) from sub_multisets with its count, then both cells of every
    # pair of len(mu) at the readings whose rests are mu and nu
    total = 0
    for mu, nu, mult in sub_multisets(tail):
        for cell1, cell2 in splits.get(len(mu), ()):
            c1 = cell1.get(mu)
            c2 = c1 and cell2.get(nu)
            if c2:
                total += mult * c1 * c2
    return total


def test_split_table_equals_the_sub_multiset_walk(table):
    # the weighted unordered pairs of _lower_cells through _split_table's
    # EGF division, against the walk over every ordered pair, whose cells
    # are read here over the step's L without any EGF weight
    for s, op, build in ((1, d_op, omega_from_correlators), (2, _calD_dx, Omega_from_correlators)):
        weight = (lambda p: 1) if s == 1 else (lambda p: p)
        lower = {cell: build(*cell, table) for cell in shell_cells(1, 9)}
        for g, n1 in shell_cells(1, 10):
            if (g, n1) in ((0, 3), (1, 1)):
                continue
            n = n1 - 1
            L, _, splits, _ = _lower_cells(g, n, lower, s, op)
            by_m, unordered = {}, 0
            for m in range(n + 1):
                for g1 in range(g + 1):
                    pair = ((g1, m + 1), (g - g1, n - m + 1))
                    if all(is_stable(*cell) for cell in pair):
                        unordered += pair[0] <= pair[1]
                        reads = [
                            {rest: weight(x) * c * L for orbit, c in lower[cell].orbits.items() for (x,), rest in readings(orbit, 1)}
                            for cell in pair
                        ]
                        by_m.setdefault(m, []).append(reads)
            assert len(splits) == unordered
            split = _split_table(splits)
            tails = {tail for orbit in _targets(g, n1, s) for _, tail in readings(orbit, 1)}
            assert set(split) <= tails, (s, g, n1)
            for tail in tails:
                assert split.get(tail, 0) == _walk_split_term(tail, by_m), (s, g, n1, tail)


def test_split_table_rejects_a_reading_without_its_egf_weight(table):
    # the step to omega_{1,4} keeps the pair ((0, 4), (1, 1)) at scale 16;
    # the reading (2, 1, 1) of omega_{0,4} carries 9 = 3 * orbit_size, and
    # one more leaves the tail (2, 1, 1) off a multiple of its orbit size
    lower = {cell: omega_from_correlators(*cell, table) for cell in shell_cells(1, 5)}
    _, _, splits, _ = _lower_cells(1, 3, lower, 1, d_op)
    assert splits[1] == (16, {(1, 1, 1): 3, (2, 1, 1): 9}, {(): 1})
    _split_table(splits)
    scale, read1, read2 = splits[1]
    splits[1] = scale, {**read1, (2, 1, 1): 10}, read2
    with pytest.raises(ValueError, match=r"tail \(2, 1, 1\) is not a multiple of its orbit size 3"):
        _split_table(splits)


def test_split_readings_are_kept_per_cell_and_degree(table):
    # a second chain over cells the first chain has read takes the same
    # steps; the same cell object placed at another (h, k) is checked and
    # read again, so its degree check fires there
    chain = {(0, 3): Omega_base(0, 3), (1, 1): Omega_base(1, 1)}
    for g, n1 in shell_cells(2, 6):
        chain[(g, n1)] = Omega_step(g, n1 - 1, chain)
    assert (2, 6) in chain[(0, 4)]._reads
    again = {}
    for g, n1 in shell_cells(2, 6):
        again[(g, n1)] = Omega_step(g, n1 - 1, chain)
        assert again[(g, n1)] == chain[(g, n1)] == Omega_from_correlators(g, n1, table), (g, n1)
    moved = {**chain, (1, 3): chain[(0, 3)]}
    with pytest.raises(ValueError, match=r"lower cell \(1, 3\) has degree 3, not 9"):
        Omega_step(1, 4, moved)


# --- the forward genus and transfer passes against the per-target pulls ------


def _slots(orbit, k):
    # every ordered choice of k distinct positions of the orbit: their
    # entries, and the rest of the orbit, still descending
    for pos in permutations(range(len(orbit)), k):
        yield tuple(orbit[i] for i in pos), tuple(e for i, e in enumerate(orbit) if i not in pos)


def _pull_genus_term(genus, e0, tail, s):
    # the genus term of one target reading as the steps once read it: the
    # two-slot readings (p, q, tail) summed over p + q = e_0 - 2s + 1
    pq = e0 - 2 * s + 1
    return sum(genus.get((p, pq - p, tail), 0) for p in range(1, pq, s))


def _transfer_term(image, u, tail):
    # the transfer term of one target reading as the steps once read it: w_0
    # at u and w_i at v, one read per distinct tail entry v, times its count
    total = 0
    for v in set(tail):
        rest = list(tail)
        rest.remove(v)
        total += tail.count(v) * image.get((u, v, tuple(rest)), 0)
    return total


def test_forward_passes_equal_the_per_target_pulls(table):
    # the genus and transfer terms that each step adds forward into its one
    # table, against the per-target range sum over p and the per-target
    # transfer read they replaced.  The two-slot genus readings and the
    # transfer image are rebuilt here from the orbits, slot by slot.
    for s, op, build in ((1, d_op, omega_from_correlators), (2, _calD_dx, Omega_from_correlators)):
        weight = (lambda p: 1) if s == 1 else (lambda p: p)
        lower = {cell: build(*cell, table) for cell in shell_cells(1, 9)}
        for g, n1 in shell_cells(1, 10):
            if (g, n1) in ((0, 3), (1, 1)):
                continue
            n = n1 - 1
            L, genus, splits, image = _lower_cells(g, n, lower, s, op)
            two_slot = {}
            if g >= 1:
                for orbit, c in lower[(g - 1, n + 2)].orbits.items():
                    for (p, q), rest in _slots(orbit, 2):
                        two_slot[(p, q, rest)] = weight(p) * weight(q) * c * L
            assert sorted(genus) == sorted((tail, c) for (_, _, tail), c in two_slot.items())
            by_tail = {}
            for orbit, c in lower[(g, n)].orbits.items() if n >= 1 else ():
                for (x,), rest in _slots(orbit, 1):
                    by_tail.setdefault(rest, {})[x] = c * L
            assert image == {(u, v, rest): c for rest, f in by_tail.items() for (u, v), c in op(f).items()}
            split = _split_table(splits)
            keys = set(split) | {tail for tail, _ in genus}
            keys |= {tuple(sorted(rest + (v,), reverse=True)) for _, v, rest in image}
            readings1 = [(e0, tail) for orbit in _targets(g, n1, s) for (e0,), tail in readings(orbit, 1)]
            assert keys <= {tail for _, tail in readings1}, (s, g, n1)
            step, den = _step_values(g, n, lower, s, op)
            assert den == 2 * s * L * L
            for e0, tail in readings1:
                genus_term = L * _pull_genus_term(two_slot, e0, tail, s)
                transfer_term = 2 * L * _transfer_term(image, e0 + s - 1, tail)
                assert step.get(tail, 0) == split.get(tail, 0) + genus_term + transfer_term, (s, g, n1, tail)


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


def test_recursion_suites_reach_chi_11():
    table = CorrelatorTable()
    for suite in (suite_omega_rec, suite_Omega_rec):
        checks = suite(11, table)
        assert len(checks) == len(list(shell_cells(1, 11)))
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
