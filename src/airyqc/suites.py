"""Executable verification suites tying the engines together.

Each suite runs a family of exact identities and reports one Check per
identity, with enough provenance to locate a counterexample: which
equation, which (g, n) cell, which orbit.  The CLI `verify` command and
the acceptance tests drive these.
"""

from __future__ import annotations

from collections import namedtuple

from .core import rat_str
from .correlators import CorrelatorTable, shell_cells
from .polynomials import (
    Omega_base,
    Omega_from_correlators,
    Omega_step,
    d_bridge_holds,
    omega_base,
    omega_from_correlators,
    omega_step,
    tW_from_correlators,
    verify_d_lemma,
)
from .residues import eo_shell
from .wkb import quantum_curve_report, s_terms, t_recursion_check

__all__ = [
    "Check",
    "suite_dvv_eo",
    "suite_omega_rec",
    "suite_Omega_rec",
    "suite_d_lemma",
    "suite_quantum_curve",
    "suite_t_rec",
    "first_failure",
    "SUITES",
]


class Check(namedtuple("Check", "suite name ok detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        if self.ok:
            return f"ok {self.suite} {self.name}"
        return f"FAIL {self.suite} {self.name}: {self.detail}"


def first_failure(checks):
    for c in checks:
        if not c.ok:
            return c
    return None


def _poly_diff(name, left, right):
    """First differing orbit between two orbit-stored polynomials."""
    for orbit in sorted(set(left.orbits) | set(right.orbits), reverse=True):
        lc, rc = left.orbits.get(orbit), right.orbits.get(orbit)
        if lc != rc:
            ls = rat_str(lc) if lc is not None else "absent"
            rs = rat_str(rc) if rc is not None else "absent"
            return f"first differing orbit {orbit}: {name[0]}={ls}, {name[1]}={rs}"
    return "no differing orbit (?)"


def suite_dvv_eo(max_chi: int, table: CorrelatorTable):
    """Residue recursion against the correlator route, cell by cell."""
    checks = []
    for (g, n), by_eo in eo_shell(max_chi).items():
        by_dvv = tW_from_correlators(g, n, table)
        ok = by_eo == by_dvv
        detail = "" if ok else _poly_diff(("eo", "dvv"), by_eo, by_dvv)
        checks.append(Check("dvv-eo", f"W_({g},{n})", ok, detail))
    return checks


def _rec_suite(name, base, step, reference, max_chi, table):
    """One recursion step per cell (seeds for the base cells), each checked
    against the defining series built from the correlator table."""
    checks = []
    lower = {}
    for g, n in shell_cells(1, max_chi):
        if (g, n) in ((0, 3), (1, 1)):
            cell = base(g, n)
            label = f"{name}_({g},{n}) seed"
        else:
            cell = step(g, n - 1, lower)
            label = f"{name}_({g},{n}) step"
        lower[(g, n)] = cell
        ref = reference(g, n, table)
        ok = cell == ref
        detail = "" if ok else _poly_diff(("rec", "def"), cell, ref)
        checks.append(Check(f"{name}-rec", label, ok, detail))
    return checks


def suite_omega_rec(max_chi: int, table: CorrelatorTable):
    """omega recursion against the defining series, including the seeds."""
    return _rec_suite("omega", omega_base, omega_step, omega_from_correlators, max_chi, table)


def suite_Omega_rec(max_chi: int, table: CorrelatorTable):
    """Omega recursion (with antidifferentiation) against the defining series."""
    return _rec_suite("Omega", Omega_base, Omega_step, Omega_from_correlators, max_chi, table)


def suite_d_lemma(max_m: int, bridge_max_chi: int, table: CorrelatorTable):
    """Closed form of D_{u,v} x^m, plus the D/calD compatibility bridge."""
    checks = []
    for m in range(max_m + 1):
        checks.append(Check("d-lemma", f"m={m}", verify_d_lemma(m)))
    for g, n in shell_cells(1, bridge_max_chi):
        # both cells are symmetric, so one check covers every i
        ok = d_bridge_holds(g, n, table)
        checks.extend(Check("d-lemma", f"bridge (g,n)=({g},{n}) i={i}", ok) for i in range(1, n + 1))
    return checks


def suite_quantum_curve(order: int, table: CorrelatorTable):
    """Order-by-order residuals of the quantum curve, both branches."""
    checks = []
    for branch in (1, -1):
        report = quantum_curve_report(order, branch, table)
        for n, residual in report.residuals:
            ok = residual == "0"
            checks.append(
                Check(
                    "quantum-curve",
                    f"order {n} branch {report.branch_str()}",
                    ok,
                    "" if ok else f"residual {residual}",
                )
            )
    return checks


def suite_t_rec(order: int, table: CorrelatorTable):
    """The t-coordinate form of the order-n identities, on one set of terms."""
    checks = []
    terms = s_terms(order, 1, table)
    for n in range(3, order + 1):
        checks.append(Check("t-rec", f"n={n}", t_recursion_check(n, terms)))
    return checks


SUITES = {
    "dvv-eo": suite_dvv_eo,
    "omega-rec": suite_omega_rec,
    "Omega-rec": suite_Omega_rec,
    "d-lemma": suite_d_lemma,
    "quantum-curve": suite_quantum_curve,
    "t-rec": suite_t_rec,
}
