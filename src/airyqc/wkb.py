"""WKB terms of the Airy wave function and the quantum-curve identities.

With Z = exp sum_{n>=0} hbar^(n-1) S_n, the operator equation
(1/2 (hbar d_u)^2 - u) Z = 0 splits into one exact identity per power of
hbar.  In the coordinate w = 1/(2u) every S_n with n >= 2 is a single
monomial: the diagonal evaluations of the Omega cells with 2g - 1 + k = n
all land on w^((3n-3)/2), and

    S_n = (branch)^(n+1) sum_{2g-1+k=n} Omega_{g,k}(w, ..., w) / k!

where branch = +1 or -1 selects the root z = branch * sqrt(2u).  The sum
is [X^(n-1)] of the free energy F = sum_g F_g at t_a = (2a-1)!! x^(2a+1),
X = x^3 = w^(3/2), and the string and dilaton equations fold F_g in
closed form (Itzykson-Zuber, hep-th/9201001; Eguchi-Yamada-Yang,
hep-th/9403191).  With u_0 = x (1 - 2 x^2 u_0)^(-1/2) the genus-0 string
solution, v = u_0^3 (so X = v (1 + 2v)^(-3/2)) and y = v / (1 - v),

    F_g = sum_l C(g, l) / l! * y^(2g-2+l)  (g >= 2),   F_1 = -<tau_1>_1 log(1 - v)

where C(g, l) = ``CorrelatorTable.core_sum(g, l)`` sums the core keys of
the cell (g, l), every a_i >= 2, and F_0 is universal.  Lagrange
inversion, [X^m] H(v) = (1/m) [v^(m-1)] H'(v) (1 + 2v)^(3m/2), gives

    c(m, chi) = [X^m] y^chi = (chi/m) sum_j C(m-j, chi) C(3m/2, j) 2^j.

So S_n reads only the core keys, <tau_1>_1 and what the DVV recursion
needs for them; the fold holds for any table that obeys the string and
dilaton steps, one with an overridden seed included.  Every cell of S_n
has m = n - 1, so its terms are int numerators over one running common
denominator, read as one Fraction per S_n.

With S_0 = branch * (2u)^(3/2) / 3, the logarithmic S_1 = log(w)/4 + const,
and sigma_i = w^(5/2) d_w S_i (a monomial of w-degree 3i/2 for every i),
substituting d_u = -2 w^2 d_w turns the order-hbar^n part of the equation,
1/2 sum_{i+j=n} S_i' S_j' + 1/2 S_{n-1}'' - u [n=0], into 2 w^(-1) R_n with

    R_n = sum_{i+j=n} sigma_i sigma_j + w^(5/2) d_w sigma_{n-1}
          - 1/2 w^(3/2) sigma_{n-1} - [n=0]/4,

a single monomial w^(3n/2), summed as ints over one denominator per
order.  Every order 0..N is checked by R_n = 0.  The checks read only
the terms, which ``s_terms`` builds once per table; a wrong S_i is
tested by replacing its entry.  For n >= 3, sigma_0 = -branch/2 and
sigma_1 = w^(3/2)/4 cancel the other S_0 and S_1 terms, leaving

    w^(5/2) d_w S_n = branch * ( (w^(5/2) d_w)^2 S_{n-1}
                      + sum_{i+j=n, i,j>=2} w^(5/2) d_w S_i * w^(5/2) d_w S_j )

and substituting t = -(2/3) w^(-3/2) (so w^(5/2) d_w = d_t) gives the
coordinate-free form d_t S_n = d_t^2 S_{n-1} + sum d_t S_i d_t S_j on the
plus branch.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .core import add_over, rat_str
from .correlators import CorrelatorTable, require_stable

__all__ = [
    "WkbTerm",
    "QuantumCurveReport",
    "diag_Omega",
    "s_term",
    "s_terms",
    "verify_low_orders",
    "verify_order",
    "t_recursion_check",
    "quantum_curve_report",
]


class WkbTerm(namedtuple("WkbTerm", "n branch kind coeff halfsteps", defaults=(None,))):
    """One S_n: a single w-monomial (``kind`` "monomial"), or the
    logarithmic n = 1 slot (``kind`` "log").

    For monomials ``coeff`` (a Fraction) already carries the branch dressing
    and ``halfsteps`` is the w-exponent in half-steps (S_2 on the plus branch
    is coeff 5/24, halfsteps 3, i.e. (5/24) w^(3/2) = 5/(24 z^3)).  For the
    log term ``coeff`` is the coefficient of log(w), ``halfsteps`` is None,
    and the additive constant never enters any checked identity.
    """

    __slots__ = ()

    def text(self) -> str:
        if self.kind == "log":
            return f"{rat_str(self.coeff)} * log(w) + C"
        return f"{rat_str(self.coeff)} * w^({self.halfsteps}/2)"


def _check_branch(branch: int):
    if type(branch) is not int or branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")


def _check_order(n, name: str):
    if type(n) is not int:
        raise ValueError(f"{name} must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be >= 0")


@lru_cache(maxsize=None)
def _lagrange_row(m: int) -> tuple[int, int, tuple[int, ...]]:
    """(den, L, (C_0, ..., C_m)) for m >= 1, ints over den = m * m! with
    [X^m] (-log(1 - v)) = L/den and c(m, chi) = C_chi/den, by Lagrange
    inversion: [X^m] (-log(1 - v)) = (1/m) sum_{j<m} C(3m/2, j) 2^j, each
    C(3m/2, j) 2^j = 3m (3m - 2) ... (3m - 2j + 2) / j! taken over m!.

    >>> _lagrange_row(2)
    (4, 14, (0, 16, 4))
    """
    terms = [math.factorial(m)]
    for j in range(m):
        terms.append(terms[-1] * (3 * m - 2 * j) // (j + 1))
    sums = (chi * sum(math.comb(m - j, chi) * terms[j] for j in range(m - chi + 1)) for chi in range(m + 1))
    return m * terms[0], sum(terms[:m]), tuple(sums)


def _diag_over(g: int, k: int, table: CorrelatorTable, num: int = 0, den: int = 1) -> tuple[int, int]:
    """num/den + Omega_{g,k}(w, ..., w)/k! as ints over a running common
    denominator (``core.add_over``), each term of the fold in
    :func:`diag_Omega` added as an int numerator.  Every cell with
    2g - 2 + k = m shares the Lagrange row c(m, .) and its denominator.
    Raises ValueError unless (g, k) is a stable cell."""
    require_stable(g, k)
    if g == 0:
        return add_over(num, den, math.prod(range(k, 3 * k - 7, 2)), math.factorial(k))
    row, log, c = _lagrange_row(2 * g - 2 + k)
    if g == 1:
        tau1 = table.correlator(1, (1,))
        return add_over(num, den, log * tau1.numerator, row * tau1.denominator)
    for l in range(1, min(k, 3 * g - 3) + 1):
        core = table.core_sum(g, l)
        num, den = add_over(num, den, core.numerator * c[2 * g - 2 + l], core.denominator * math.factorial(l) * row)
    return num, den


def diag_Omega(g: int, k: int, table: CorrelatorTable) -> tuple[Fraction, int]:
    """Coefficient and half-step exponent of Omega_{g,k}(w, ..., w).

    Homogeneity makes the diagonal a single monomial of half-step degree
    6g - 6 + 3k.  Its coefficient, the sum over the orbits a of the cell of
    orbit_size(a) * prod (2a_i - 1)!! * <tau_a>_g, is k! [X^m] F_g with
    m = 2g - 2 + k, folded as in the module docstring:

        g = 0:   (k-3)! [x^(k-3)] (1 - 2x)^(-k/2) = k (k+2) ... (3k-8)
        g = 1:   k! <tau_1>_1 [X^k] (-log(1 - v))
        g >= 2:  k! sum_{l=1..min(k, 3g-3)} C(g, l) / l! * c(m, 2g-2+l)

    <tau_1>_1 is read from the table, so that an overridden seed
    propagates.  Raises ValueError unless (g, k) is a stable cell.
    """
    num, den = _diag_over(g, k, table)
    return Fraction(math.factorial(k) * num, den), 6 * g - 6 + 3 * k


def s_term(n: int, branch: int, table: CorrelatorTable) -> WkbTerm:
    """Assemble S_n from diagonal Omega evaluations (n >= 2), or return the
    fixed S_0, S_1 forms (``table`` is read only for n >= 2).  Every cell
    of S_n has 2g - 2 + k = n - 1, so one Lagrange row serves all of them,
    and their terms are summed as ints into one Fraction.  Raises
    ValueError unless ``n`` is an int >= 0."""
    _check_branch(branch)
    _check_order(n, "n")
    if n == 0:
        return WkbTerm(0, branch, "monomial", Fraction(branch, 3), -3)
    if n == 1:
        return WkbTerm(1, branch, "log", Fraction(1, 4))
    num, den = 0, 1
    for g in range(n // 2 + 1):
        num, den = _diag_over(g, n + 1 - 2 * g, table, num, den)
    return WkbTerm(n, branch, "monomial", Fraction(branch ** (n + 1) * num, den), 3 * n - 3)


def s_terms(N: int, branch: int, table: CorrelatorTable) -> dict[int, WkbTerm]:
    _check_order(N, "N")
    return {n: s_term(n, branch, table) for n in range(N + 1)}


# ---------------------------------------------------------------------------
# the order-hbar^n residual R_n in the w monomial calculus

def _residual(n: int, terms: dict) -> Fraction:
    """Coefficient of the monomial R_n (w-degree 3n/2); zero iff the
    order-hbar^n identity holds.

    sigma_i = w^(5/2) d_w S_i is f_i/2 times the coefficient c_i of S_i,
    f_i its half-step exponent (2 for the log term), and lands on
    w^(3i/2), else ValueError.  Over D = 2 lcm(denominators of the c_i),
    s_i = D sigma_i is an int, and the w^(5/2) d_w sigma_(n-1) and
    -1/2 w^(3/2) sigma_(n-1) terms add up to (3n - 4)/2 sigma_(n-1), so

        D^2 R_n = sum_i s_i s_(n-i) + D s_(n-1) (3n - 4)/2 - [n=0] D^2/4

    is an int sum, read as one Fraction.
    """
    coeffs = []
    for i in range(n + 1):
        t = terms[i]
        # w^(5/2) d_w (c log w) = c w^(3/2);  w^(5/2) d_w (c w^(f/2)) = c f/2 w^((f+3)/2)
        f, h = (2, 3) if t.kind == "log" else (t.halfsteps, t.halfsteps + 3)
        if h != 3 * i:
            raise ValueError(f"sigma_{i} off its monomial w^({3 * i}/2)")
        coeffs.append((t.coeff, f))
    half = math.lcm(*(c.denominator for c, _ in coeffs))  # D/2
    s = [c.numerator * f * (half // c.denominator) for c, f in coeffs]
    total = sum(s[i] * s[n - i] for i in range(n + 1))
    total += -half * half if n == 0 else half * (3 * n - 4) * s[n - 1]
    return Fraction(total, 4 * half * half)


def verify_low_orders(terms: dict) -> bool:
    """True iff the hbar^0..hbar^2 identities hold exactly for the terms
    S_0, S_1, S_2 (``terms`` as from :func:`s_terms`, on either branch)."""
    return all(_residual(n, terms) == 0 for n in range(3))


def verify_order(n: int, branch: int, terms: dict):
    """Residual of the order hbar^n identity (n >= 3), as an exact monomial
    (coefficient, w half-steps) = (-branch * R_n, 3n); the coefficient is
    zero iff the quantum curve equation holds at this order.

    For n >= 3, 2 sigma_0 sigma_n = -branch sigma_n and 2 sigma_1 sigma_{n-1}
    cancels -1/2 w^(3/2) sigma_{n-1}, so the coefficient is that of
    w^(5/2) d_w S_n - branch * ( (w^(5/2) d_w)^2 S_{n-1}
    + sum_{i+j=n, i,j>=2} w^(5/2) d_w S_i * w^(5/2) d_w S_j ).

    It reads only ``terms`` (S_0..S_n on ``branch``, as from :func:`s_terms`).
    """
    if n < 3:
        raise ValueError("verify_order handles n >= 3; use verify_low_orders below that")
    _check_branch(branch)
    return -branch * _residual(n, terms), 3 * n


def t_recursion_check(n: int, terms: dict) -> bool:
    """Order-n identity in the coordinate t = -(2/3) w^(-3/2), where
    S_n = d_n t^(1-n):  d_t S_n = d_t^2 S_{n-1} + sum_{i+j=n} d_t S_i d_t S_j.

    Stated on the plus branch (the minus branch flips the overall sign);
    it reads only ``terms`` (S_2..S_n on the plus branch).
    """
    if n < 3:
        raise ValueError("t_recursion_check handles n >= 3")

    def d(i):
        t = terms[i]
        if t.kind != "monomial":
            raise ValueError(f"S_{i} is not a monomial")
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

class QuantumCurveReport(namedtuple("QuantumCurveReport", "max_order branch residuals")):
    """Per-order residuals of the quantum curve equation through hbar^N:
    ``residuals`` lists (order, rendered residual string) pairs."""

    __slots__ = ()

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


def quantum_curve_report(N: int, branch: int, table: CorrelatorTable) -> QuantumCurveReport:
    """Check every order 0..N on the given branch and collect residuals.
    Raises ValueError unless ``N`` is an int >= 0."""
    _check_order(N, "N")
    _check_branch(branch)
    terms = s_terms(N, branch, table)
    residuals = []
    for order in range(N + 1):
        if order < 3:
            # the order-hbar^n part of the equation is 2 R_n (2u)^((2 - 3n)/2)
            coeff, monomial = 2 * _residual(order, terms), f"(2u)^({2 - 3 * order}/2)"
        else:
            coeff, halfsteps = verify_order(order, branch, terms)
            monomial = f"w^({halfsteps}/2)"
        residuals.append((order, f"{rat_str(coeff)}*{monomial}" if coeff else "0"))
    return QuantumCurveReport(N, branch, residuals)
