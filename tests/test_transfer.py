"""The transfer operators D and calD are used where they are defined.

``d_op`` and ``calD_op`` are the only code that knows D's weights and
calD's range: the recursion steps, the D/calD bridge and the d-lemma all
apply them.  A wrong operator must therefore show up in every one of
those checks.
"""

from airyqc import polynomials
from airyqc.correlators import shell_cells
from airyqc.polynomials import (
    Omega_base,
    Omega_from_correlators,
    Omega_step,
    d_bridge_holds,
    omega_base,
    omega_from_correlators,
    omega_step,
    verify_d_lemma,
)

real_d_op = polynomials.d_op
real_calD_op = polynomials.calD_op


def _d_op_wrong_weight(f):
    # the j = 0 term u^(m+1) v carries weight 2 instead of 1
    return {uv: 2 * c if uv[1] == 1 else c for uv, c in real_d_op(f).items()}


def _d_op_raised_last_term(f):
    # the j = m term u v^(m+1) carries weight 2m + 2 instead of 2m + 1
    return {uv: c + 1 if uv[0] == 1 else c for uv, c in real_d_op(f).items()}


def _calD_op_short_range(f):
    # t runs over 0..a instead of 0..a+1: the u^1 term is lost
    return {uv: c for uv, c in real_calD_op(f).items() if uv[0] != 2}


def _steps_against_series(step, base, series, table, max_chi=5):
    """The cells where the recursion disagrees with the defining series."""
    lower = {cell: base(*cell) for cell in ((0, 3), (1, 1))}
    wrong = []
    for g, n1 in shell_cells(2, max_chi):
        lower[(g, n1)] = series(g, n1, table)
        try:
            if step(g, n1 - 1, lower) != lower[(g, n1)]:
                wrong.append((g, n1))
        except ValueError:
            wrong.append((g, n1))
    return wrong


def test_unmutated_operators_pass_every_check(table):
    assert all(verify_d_lemma(m) for m in range(6))
    assert _steps_against_series(omega_step, omega_base, omega_from_correlators, table) == []
    assert _steps_against_series(Omega_step, Omega_base, Omega_from_correlators, table) == []
    assert d_bridge_holds(0, 4, table)


def test_wrong_d_weight_fails_lemma_and_omega_step(table, monkeypatch):
    monkeypatch.setattr(polynomials, "d_op", _d_op_wrong_weight)
    assert not any(verify_d_lemma(m) for m in range(6))
    wrong = _steps_against_series(omega_step, omega_base, omega_from_correlators, table)
    assert (0, 4) in wrong and (1, 2) in wrong
    assert not d_bridge_holds(0, 4, table)


def test_raised_last_d_weight_fails_every_lemma(monkeypatch):
    monkeypatch.setattr(polynomials, "d_op", _d_op_raised_last_term)
    assert not any(verify_d_lemma(m) for m in range(6))


def test_short_calD_range_fails_Omega_step_and_bridge(table, monkeypatch):
    monkeypatch.setattr(polynomials, "calD_op", _calD_op_short_range)
    wrong = _steps_against_series(Omega_step, Omega_base, Omega_from_correlators, table)
    assert (0, 4) in wrong and (1, 2) in wrong
    assert not d_bridge_holds(0, 4, table)


BRIDGE_CELLS = list(shell_cells(1, 7))


def test_bridge_reaches_chi_7(table):
    failing = [cell for cell in BRIDGE_CELLS if not d_bridge_holds(*cell, table)]
    assert failing == []
    assert len(BRIDGE_CELLS) == 23


def test_d_lemma_suite_checks_each_cell_once(table, monkeypatch):
    from airyqc import suites

    calls = []

    def counting(g, n, tbl):
        calls.append((g, n))
        return d_bridge_holds(g, n, tbl)

    monkeypatch.setattr(suites, "d_bridge_holds", counting)
    checks = suites.suite_d_lemma(0, 7, table)
    assert calls == BRIDGE_CELLS
    bridge = [c.name for c in checks[1:]]
    assert bridge == [f"bridge (g,n)=({g},{n}) i={i}" for g, n in BRIDGE_CELLS for i in range(1, n + 1)]
    assert len(bridge) == 92
    assert all(c.ok for c in checks)
