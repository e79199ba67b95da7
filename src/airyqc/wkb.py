"""WKB terms of the Airy wave function and the quantum-curve identities.

With Z = exp sum_{n>=0} hbar^(n-1) S_n, the operator equation
(1/2 (hbar d_u)^2 - u) Z = 0 splits into one exact identity per power of
hbar.  In the coordinate w = 1/(2u) every S_n with n >= 2 is a single
monomial: the diagonal evaluations of the Omega cells with 2g - 1 + k = n
all land on w^((3n-3)/2), and

    S_n = (branch)^(n+1) sum_{2g-1+k=n} Omega_{g,k}(w, ..., w) / k!

where branch = +1 or -1 selects the root z = branch * sqrt(2u).  The
order-hbar^n identity (n >= 3) then reads

    w^(5/2) d_w S_n = branch * ( (w^(5/2) d_w)^2 S_{n-1}
                      + sum_{i+j=n, i,j>=2} w^(5/2) d_w S_i * w^(5/2) d_w S_j )

and substituting t = -(2/3) w^(-3/2) (so w^(5/2) d_w = d_t) gives the
coordinate-free form d_t S_n = d_t^2 S_{n-1} + sum d_t S_i d_t S_j on the
plus branch.  Orders 0..2 involve S_0 = branch * (2u)^(3/2) / 3 and the
logarithmic S_1 = -log(2u)/4 + const; they are checked in a tiny exact
calculus of (2u)^(k/2) monomials where both stay rational.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import HALF, ZERO, accumulate, bounded_partitions, odd_weight, orbit_size, rat_str
from .correlators import CorrelatorTable, is_stable

__all__ = [
    "WkbTerm",
    "QuantumCurveReport",
    "diag_Omega",
    "s_term",
    "s_terms",
    "low_order_residuals",
    "verify_low_orders",
    "verify_order",
    "t_recursion_check",
    "quantum_curve_report",
]


@dataclass(frozen=True)
class WkbTerm:
    """One S_n: a single w-monomial, or the logarithmic n = 1 slot.

    For monomials ``coeff`` already carries the branch dressing and
    ``halfsteps`` is the w-exponent in half-steps (S_2 on the plus branch
    is coeff 5/24, halfsteps 3, i.e. (5/24) w^(3/2) = 5/(24 z^3)).  For the
    log term ``coeff`` is the coefficient of log(w); the additive constant
    never enters any checked identity.
    """

    n: int
    branch: int
    kind: str  # "monomial" | "log"
    coeff: Fraction
    halfsteps: int | None = None

    def text(self) -> str:
        if self.kind == "log":
            return f"{rat_str(self.coeff)} * log(w) + C"
        return f"{rat_str(self.coeff)} * w^({self.halfsteps}/2)"


def _check_branch(branch: int):
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")


def diag_Omega(g: int, k: int, table: CorrelatorTable) -> tuple[Fraction, int]:
    """Coefficient and half-step exponent of Omega_{g,k}(w, ..., w).

    Computed orbit-wise without building the polynomial; homogeneity makes
    the diagonal a single monomial of half-step degree 6g - 6 + 3k.  Each
    orbit a contributes its correlator times the integer weight
    orbit_size(a) * prod (2a_i - 1)!!.
    """
    if not is_stable(g, k) or k < 1:
        raise ValueError(f"unstable (g, k) = ({g}, {k})")
    total = ZERO
    for a in bounded_partitions(3 * g - 3 + k, k):
        value = table.correlator(g, a)
        if not value:
            continue
        total += orbit_size(a) * odd_weight(a, -1) * value
    return total, 6 * g - 6 + 3 * k


def s_term(n: int, branch: int, table: CorrelatorTable | None = None) -> WkbTerm:
    """Assemble S_n from diagonal Omega evaluations (n >= 2), or return the
    fixed S_0, S_1 forms."""
    _check_branch(branch)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return WkbTerm(0, branch, "monomial", Fraction(branch, 3), -3)
    if n == 1:
        return WkbTerm(1, branch, "log", Fraction(1, 4))
    if table is None:
        table = CorrelatorTable()
    coeff = ZERO
    halfsteps = 3 * n - 3
    for g in range(n // 2 + 1):
        k = n + 1 - 2 * g
        if k < 1 or not is_stable(g, k):
            continue
        c, h = diag_Omega(g, k, table)
        if h != halfsteps:
            raise ValueError(f"diagonal of Omega_({g},{k}) off the S_{n} monomial")
        coeff += c / math.factorial(k)
    return WkbTerm(n, branch, "monomial", Fraction(branch) ** (n + 1) * coeff, halfsteps)


def s_terms(N: int, branch: int, table: CorrelatorTable | None = None) -> dict[int, WkbTerm]:
    if table is None:
        table = CorrelatorTable()
    return {n: s_term(n, branch, table) for n in range(N + 1)}


# ---------------------------------------------------------------------------
# orders 0..2 in the (2u)^(1/2) calculus

def _du(d):
    """d/du on a {half-step k: coeff} dict of (2u)^(k/2) monomials:
    d/du (2u)^(k/2) = k (2u)^((k-2)/2)."""
    out = {}
    for k, c in d.items():
        v = c * k
        if v:
            out[k - 2] = v
    return out


def _dmul(d1, d2):
    out = {}
    for k1, c1 in d1.items():
        for k2, c2 in d2.items():
            accumulate(out, k1 + k2, c1 * c2)
    return out


def _dadd(*ds):
    out = {}
    for d in ds:
        for k, c in d.items():
            accumulate(out, k, c)
    return out


def _dscale(d, f):
    return {k: c * f for k, c in d.items() if c * f}


def low_order_residuals(branch: int, table: CorrelatorTable | None = None, s2_coeff: Fraction | None = None):
    """Residuals of the order hbar^0, hbar^1, hbar^2 identities, each as a
    {(2u) half-step: coeff} dict (empty dict means the identity holds).

    ``s2_coeff`` overrides the branch-undressed S_2 coefficient (the true
    value is 5/24); mutation tests use it to confirm sensitivity.
    """
    _check_branch(branch)
    if s2_coeff is None:
        s2_coeff = s_term(2, branch, table).coeff * Fraction(branch) ** 3
    e = Fraction(branch)
    dS0 = {1: e}                      # d_u of branch*(2u)^(3/2)/3
    d2S0 = _du(dS0)
    dS1 = {-2: -HALF}                 # d_u of -log(2u)/4
    d2S1 = _du(dS1)
    dS2 = _du({-3: e * s2_coeff})     # S_2 = branch * s2_coeff * (2u)^(-3/2)

    order0 = _dadd(_dscale(_dmul(dS0, dS0), HALF), {2: -HALF})
    order1 = _dadd(_dscale(d2S0, HALF), _dmul(dS0, dS1))
    order2 = _dadd(_dscale(d2S1, HALF), _dmul(dS0, dS2), _dscale(_dmul(dS1, dS1), HALF))
    return [order0, order1, order2]


def verify_low_orders(branch: int, table: CorrelatorTable | None = None, s2_coeff: Fraction | None = None) -> bool:
    """True iff the hbar^0..hbar^2 identities hold exactly."""
    return all(not r for r in low_order_residuals(branch, table, s2_coeff))


# ---------------------------------------------------------------------------
# orders >= 3 in the w monomial calculus

def _w52d(coeff, halfsteps):
    """w^(5/2) d_w on a single monomial: exponent +3 half-steps."""
    return coeff * Fraction(halfsteps, 2), halfsteps + 3


def verify_order(n: int, branch: int, table: CorrelatorTable | None = None, terms: dict | None = None):
    """Residual of the order hbar^n identity (n >= 3), as an exact monomial
    (coefficient, w half-steps); the coefficient is zero iff the quantum
    curve equation holds at this order."""
    if n < 3:
        raise ValueError("verify_order handles n >= 3; use verify_low_orders below that")
    _check_branch(branch)
    if terms is None:
        terms = s_terms(n, branch, table)

    def mono(i):
        t = terms[i]
        assert t.kind == "monomial"
        return t.coeff, t.halfsteps

    lhs_c, lhs_h = _w52d(*mono(n))
    rhs_c, rhs_h = _w52d(*_w52d(*mono(n - 1)))
    for i in range(2, n - 1):
        ci, hi = _w52d(*mono(i))
        cj, hj = _w52d(*mono(n - i))
        assert hi + hj == rhs_h
        rhs_c += ci * cj
    assert lhs_h == rhs_h
    return lhs_c - branch * rhs_c, lhs_h


def t_recursion_check(n: int, table: CorrelatorTable | None = None, terms: dict | None = None) -> bool:
    """Order-n identity in the coordinate t = -(2/3) w^(-3/2), where
    S_n = d_n t^(1-n):  d_t S_n = d_t^2 S_{n-1} + sum_{i+j=n} d_t S_i d_t S_j.

    Stated on the plus branch (the minus branch flips the overall sign).
    """
    if n < 3:
        raise ValueError("t_recursion_check handles n >= 3")
    if terms is None:
        terms = s_terms(n, 1, table)

    def d(i):
        t = terms[i]
        assert t.kind == "monomial"
        # w^((3i-3)/2) = (-3t/2)^(1-i)
        return t.coeff * Fraction(-3, 2) ** (1 - i)

    lhs = d(n) * (1 - n)
    rhs = d(n - 1) * (2 - n) * (1 - n)
    for i in range(2, n - 1):
        j = n - i
        rhs += d(i) * (1 - i) * d(j) * (1 - j)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the aggregated report

@dataclass
class QuantumCurveReport:
    """Per-order residuals of the quantum curve equation through hbar^N."""

    max_order: int
    branch: int
    residuals: list  # [(order, rendered residual string)]

    @property
    def passed(self) -> bool:
        return all(r == "0" for _, r in self.residuals)

    def branch_str(self) -> str:
        return "+" if self.branch == 1 else "-"

    def text(self) -> str:
        lines = [
            f"order {order}: {'ok' if r == '0' else 'RESIDUAL ' + r}"
            for order, r in self.residuals
        ]
        verdict = "pass" if self.passed else "FAIL"
        lines.append(f"quantum curve through hbar^{self.max_order}, branch {self.branch_str()}: {verdict}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = [
            {"order": order, "branch": self.branch_str(), "residual": r}
            for order, r in self.residuals
        ]
        return json.dumps(payload, separators=(", ", ": "))


def _render_u_residual(d) -> str:
    if not d:
        return "0"
    parts = [f"{rat_str(c)}*(2u)^({k}/2)" for k, c in sorted(d.items(), reverse=True)]
    return " + ".join(parts)


def quantum_curve_report(N: int, branch: int, table: CorrelatorTable | None = None) -> QuantumCurveReport:
    """Check every order 0..N on the given branch and collect residuals."""
    if N < 2:
        raise ValueError("N must be >= 2")
    _check_branch(branch)
    if table is None:
        table = CorrelatorTable()
    residuals = []
    for order, res in enumerate(low_order_residuals(branch, table)):
        residuals.append((order, _render_u_residual(res)))
    terms = s_terms(N, branch, table)
    for order in range(3, N + 1):
        coeff, halfsteps = verify_order(order, branch, table, terms)
        residuals.append((order, "0" if not coeff else f"{rat_str(coeff)}*w^({halfsteps}/2)"))
    return QuantumCurveReport(N, branch, residuals)
