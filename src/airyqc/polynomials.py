"""Sparse exact polynomials for the w-coordinate form of the recursion.

Two closely related generating polynomials are built from the correlator
table over each cell's on-shell keys (w_i = 1/z_i^2 turns the z-space
generating functions into honest polynomials):

    omega_{g,n} = sum <tau_a>_g prod (2a_i+1)!! w_i^(a_i+1)      integer exponents
    Omega_{g,n} = sum <tau_a>_g prod (2a_i-1)!! w_i^(a_i+1/2)    half-integer exponents

Both are symmetric, so they are stored one representative per exponent
orbit: a map from the descending-sorted exponent tuple to the coefficient
carried by *each* monomial in that orbit.  Half-integer exponents are
stored as integer half-steps (w^(5/2) <-> 5), keeping all arithmetic in
the rational domain.

The module also implements, as executable identities, the one-step
recursions that rebuild omega_{g,n+1} and Omega_{g,n+1} from lower cells,
together with the transfer operators

    D_{u,v} x^m      = uv (u^m + 3 u^(m-1) v + ... + (2m+1) v^m)
    calD_{u,v} x^(a-1/2) = u v^(1/2) (u^(a+1) + u^a v + ... + v^(a+1))

that encode the contribution of the two-point function to the recursion.
The steps and both sides of ``d_bridge_holds`` apply ``d_op`` and ``calD_op``
once per spectator tail; split terms come from ``core.ordered_splits``, and
one slot map 2 w^(3/2) d_w takes Omega to omega monomials.
omega_{0,3} = w1 w2 w3 and omega_{1,1} = w1^2/8 (and their Omega
counterparts) are seeded base cells: the recursion step for either target
would need the excluded two-point cell.
"""

from __future__ import annotations

from fractions import Fraction

from .core import HALF, accumulate, multiset_permutations, odd_weight, orbit_size, ordered_splits, rat_str
from .correlators import CorrelatorTable, cell_keys, is_stable, require_stable

__all__ = [
    "SparseSymPoly",
    "HalfPowerPoly",
    "omega_from_correlators",
    "tW_from_correlators",
    "Omega_from_correlators",
    "omega_from_Omega",
    "d_op",
    "calD_op",
    "verify_d_lemma",
    "omega_base",
    "Omega_base",
    "omega_step",
    "Omega_step",
    "Omega_step_dw0",
    "d_bridge_holds",
    "poly_orbit_records",
    "poly_text",
]


# ---------------------------------------------------------------------------
# canonical symmetric storage

class _OrbitPoly:
    """Shared internals of the two symmetric polynomial types."""

    __slots__ = ("nvars", "orbits", "_expanded")

    def __init__(self, nvars, orbits):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        clean = {}
        for orbit, coeff in orbits.items():
            orbit = tuple(orbit)
            if len(orbit) != nvars:
                raise ValueError(f"orbit {orbit} does not have {nvars} entries")
            if tuple(sorted(orbit, reverse=True)) != orbit:
                raise ValueError(f"orbit {orbit} is not sorted descending")
            self._check_exponent_lattice(orbit)
            if coeff:
                clean[orbit] = Fraction(coeff)
        self.nvars = nvars
        self.orbits = clean
        self._expanded = None

    @staticmethod
    def _check_exponent_lattice(orbit):
        if any(not isinstance(e, int) for e in orbit):
            raise ValueError(f"exponents must be integers, got {orbit}")

    @classmethod
    def from_expanded(cls, nvars, terms):
        """Group a {full exponent tuple: coeff} dict into orbits, checking
        that the data really is symmetric (orbit complete, coefficients
        constant on each orbit).
        """
        grouped = {}
        for exps, coeff in terms.items():
            if not coeff:
                continue
            grouped.setdefault(tuple(sorted(exps, reverse=True)), []).append(coeff)
        orbits = {}
        for orbit, coeffs in grouped.items():
            if len(coeffs) != orbit_size(orbit) or any(c != coeffs[0] for c in coeffs):
                raise ValueError(f"terms are not symmetric on orbit {orbit}")
            orbits[orbit] = coeffs[0]
        return cls(nvars, orbits)

    def expand(self):
        """Full {exponent tuple: coeff} dict (cached; treat as read-only)."""
        if self._expanded is None:
            out = {}
            for orbit, coeff in self.orbits.items():
                for perm in multiset_permutations(orbit):
                    out[perm] = coeff
            self._expanded = out
        return self._expanded

    def sorted_orbits(self):
        return sorted(self.orbits.items(), key=lambda kv: kv[0], reverse=True)

    def homogeneous_degree(self):
        degrees = {sum(orbit) for orbit in self.orbits}
        if len(degrees) > 1:
            raise ValueError(f"not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop() if degrees else None

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.nvars == other.nvars
            and self.orbits == other.orbits
        )

    def __bool__(self):
        return bool(self.orbits)

    def __repr__(self):
        return f"{type(self).__name__}({self.nvars}, {dict(self.sorted_orbits())!r})"


class SparseSymPoly(_OrbitPoly):
    """Symmetric polynomial with non-negative integer exponents."""

    @staticmethod
    def _check_exponent_lattice(orbit):
        if any(not isinstance(e, int) or e < 0 for e in orbit):
            raise ValueError(f"exponents must be non-negative integers, got {orbit}")


class HalfPowerPoly(_OrbitPoly):
    """Symmetric polynomial with exponents in (1/2) + Z>=0, stored as odd
    positive integer half-steps (w^(5/2) is half-step 5)."""

    @staticmethod
    def _check_exponent_lattice(orbit):
        if any(not isinstance(e, int) or e < 1 or e % 2 == 0 for e in orbit):
            raise ValueError(f"half-steps must be odd positive integers, got {orbit}")


# ---------------------------------------------------------------------------
# builders from the correlator table

def _from_correlators(g, n, table, poly_cls, shift, exponents):
    """The cell whose orbit ``exponents(a)`` carries <tau_a>_g
    prod (2a_i + shift)!!, over the on-shell orbits a of (g, n)."""
    orbits = {}
    for a in cell_keys(g, n):
        value = table.correlator(g, a)
        if value:
            orbits[exponents(a)] = value * odd_weight(a, shift)
    return poly_cls(n, orbits)


def omega_from_correlators(g: int, n: int, table: CorrelatorTable) -> SparseSymPoly:
    """omega_{g,n}: orbit (a_i + 1) carries <tau_a>_g prod (2a_i+1)!!."""
    poly = _from_correlators(g, n, table, SparseSymPoly, 1, lambda a: tuple(ai + 1 for ai in a))
    assert poly.homogeneous_degree() in (None, 3 * g - 3 + 2 * n)
    return poly


def tW_from_correlators(g: int, n: int, table: CorrelatorTable) -> SparseSymPoly:
    """W_{g,n} in exponent-table form: orbit (a_i) carries the coefficient
    of prod 1/z_i^(2a_i+2), i.e. <tau_a>_g prod (2a_i+1)!!."""
    return _from_correlators(g, n, table, SparseSymPoly, 1, tuple)


def Omega_from_correlators(g: int, n: int, table: CorrelatorTable) -> HalfPowerPoly:
    """Omega_{g,n}: orbit half-steps (2a_i + 1) carry <tau_a>_g prod (2a_i-1)!!."""
    poly = _from_correlators(g, n, table, HalfPowerPoly, -1, lambda a: tuple(2 * ai + 1 for ai in a))
    assert poly.homogeneous_degree() in (None, 6 * g - 6 + 3 * n)
    return poly


def _to_omega(vec, coeff):
    """2 w^(3/2) d_w on each slot of the half-step monomial coeff * w^vec,
    w^(k/2) -> k w^((k+1)/2); returns (integer exponents, coefficient)."""
    for k in vec:
        coeff *= k
    return tuple((k + 1) // 2 for k in vec), coeff


def omega_from_Omega(g: int, n: int, Om: HalfPowerPoly) -> SparseSymPoly:
    """Recover omega_{g,n} = 2^n prod w_j^(3/2) d_{w_1} ... d_{w_n} Omega_{g,n}.

    On a monomial prod w^(k_j/2) the right side is prod k_j w^((k_j+1)/2),
    and (2a-1)!! (2a+1) = (2a+1)!! restores the omega weights.
    """
    terms = dict(_to_omega(vec, coeff) for vec, coeff in Om.expand().items())
    return SparseSymPoly.from_expanded(n, terms)


# ---------------------------------------------------------------------------
# transfer operators

def d_op(f: dict) -> dict:
    """Linear extension of D_{u,v} x^m = uv sum_{j=0..m} (2j+1) u^(m-j) v^j.

    `f` maps non-negative integer exponents to coefficients; the result
    maps (u, v) exponent pairs to coefficients and is divisible by uv.
    """
    out = {}
    for m, coeff in f.items():
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"exponent {m!r} not a non-negative integer")
        if not coeff:
            continue
        for j in range(m + 1):
            accumulate(out, (m - j + 1, j + 1), (2 * j + 1) * coeff)
    return out


def calD_op(f: dict) -> dict:
    """Linear extension of calD_{u,v} x^(a-1/2) = u v^(1/2) sum_{t=0..a+1}
    u^(a+1-t) v^t.

    Input exponents are half-steps 2a - 1 (a >= 0); output keys are
    (u half-step, v half-step) pairs, u even and v odd.
    """
    out = {}
    for h, coeff in f.items():
        if not isinstance(h, int) or h < -1 or h % 2 == 0:
            raise ValueError(f"half-step {h!r} not of the form 2a - 1 with a >= 0")
        if not coeff:
            continue
        a = (h + 1) // 2
        for t in range(a + 2):
            accumulate(out, (2 * (a + 2 - t), 2 * t + 1), coeff)
    return out


def verify_d_lemma(m: int) -> bool:
    """Check, as exact polynomials in (u, v), the closed form of D_{u,v}x^m.

    Clearing (u-v)^2 from the rational-function definition gives

        u(u+v) u^m - 3v(u-v) v^m - 2v^2 v^m - 2m v^(m+1) (u-v)
            = (u-v)^2 sum_{j=0..m} (2j+1) u^(m-j) v^j.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    lhs = {}
    accumulate(lhs, (m + 2, 0), Fraction(1))
    accumulate(lhs, (m + 1, 1), Fraction(1))
    accumulate(lhs, (1, m + 1), Fraction(-3))
    accumulate(lhs, (0, m + 2), Fraction(3))
    accumulate(lhs, (0, m + 2), Fraction(-2))
    accumulate(lhs, (1, m + 1), Fraction(-2 * m))
    accumulate(lhs, (0, m + 2), Fraction(2 * m))

    rhs = {}
    square = {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}
    for j in range(m + 1):
        for (su, sv), sc in square.items():
            accumulate(rhs, (m - j + su, j + sv), (2 * j + 1) * sc)
    return lhs == rhs


# ---------------------------------------------------------------------------
# plain multivariate helpers (internal; exponent tuples of fixed length)

def _d0(terms):
    """d_{w_0} on a half-step dict: w_0^(h/2) -> (h/2) w_0^((h-2)/2)."""
    return {(e[0] - 2,) + e[1:]: c * e[0] / 2 for e, c in terms.items()}


def _transfer(acc, terms, op, targets, nvars, shift=0):
    """Accumulate op_{w_0, w_i} applied to slot 0 of the expanded cell
    `terms`, for each variable i in `targets`.

    `op` (d_op or calD_op) runs once per spectator tail; its (u, v)
    exponents land on (w_0, w_i), with `shift` added to u, and the tail
    fills the remaining variables in order.
    """
    tails = {}
    for vec, coeff in terms.items():
        tails.setdefault(vec[1:], {})[vec[0]] = coeff
    images = [(tail, op(f)) for tail, f in tails.items()]
    for i in targets:
        spectators = [p for p in range(1, nvars) if p != i]
        for tail, image in images:
            exps = [0] * nvars
            for pos, e in zip(spectators, tail):
                exps[pos] = e
            for (u, v), c in image.items():
                exps[0], exps[i] = u + shift, v
                accumulate(acc, tuple(exps), c)


# ---------------------------------------------------------------------------
# seeded bases and one-step recursions

def omega_base(g: int, n: int) -> SparseSymPoly:
    if (g, n) == (0, 3):
        return SparseSymPoly(3, {(1, 1, 1): Fraction(1)})
    if (g, n) == (1, 1):
        return SparseSymPoly(1, {(2,): Fraction(1, 8)})
    raise ValueError(f"({g}, {n}) is not a seeded base cell")


def Omega_base(g: int, n: int) -> HalfPowerPoly:
    if (g, n) == (0, 3):
        return HalfPowerPoly(3, {(1, 1, 1): Fraction(1)})
    if (g, n) == (1, 1):
        return HalfPowerPoly(1, {(3,): Fraction(1, 24)})
    raise ValueError(f"({g}, {n}) is not a seeded base cell")


def _check_step_target(g, n1):
    require_stable(g, n1)
    if (g, n1) in ((0, 3), (1, 1)):
        raise ValueError(f"({g}, {n1}) is a seeded base cell, not a recursion target")


def _lower_cell(lower, g, n):
    try:
        return lower[(g, n)]
    except KeyError:
        raise ValueError(f"missing lower cell ({g}, {n})") from None


def _split_terms(g, n, lower, shift, prep=lambda terms: terms):
    """Each (exponents, coeff) term of the products over the stable ordered
    splits of genus g and variables 1..n: slot 0 of both `prep`-ed expanded
    cells summed onto w_0 plus `shift`, the other slots placed on A_1, A_2."""
    nvars = n + 1
    for g1, A1, g2, A2 in ordered_splits(g, range(1, nvars)):
        if not (is_stable(g1, len(A1) + 1) and is_stable(g2, len(A2) + 1)):
            continue
        terms1 = prep(_lower_cell(lower, g1, len(A1) + 1).expand())
        terms2 = prep(_lower_cell(lower, g2, len(A2) + 1).expand())
        for vec1, c1 in terms1.items():
            exps = [0] * nvars
            for pos, e in zip(A1, vec1[1:]):
                exps[pos] = e
            for vec2, c2 in terms2.items():
                exps[0] = vec1[0] + vec2[0] + shift
                for pos, e in zip(A2, vec2[1:]):
                    exps[pos] = e
                yield tuple(exps), c1 * c2


def omega_step(g: int, n: int, lower: dict) -> SparseSymPoly:
    """One recursion step: build omega_{g,n+1}(w_0, ..., w_n) from lower
    cells,

        omega_{g,n+1} = 1/2 w_0 omega_{g-1,n+2}(w_0, w_0, w_[n])
            + 1/2 w_0 sum over stable ordered splits
                  omega_{g_1}(w_0, w_{A_1}) omega_{g_2}(w_0, w_{A_2})
            + sum_i D_{w_0, w_i} omega_{g,n}(x, w_ode) with slot i removed.

    Symmetry of the total in all n+1 variables is asserted, not imposed.
    """
    nvars = n + 1
    _check_step_target(g, nvars)
    acc = {}

    if g >= 1:
        cell = _lower_cell(lower, g - 1, n + 2)
        for vec, coeff in cell.expand().items():
            exps = (vec[0] + vec[1] + 1,) + vec[2:]
            accumulate(acc, exps, HALF * coeff)

    for exps, coeff in _split_terms(g, n, lower, 1):
        accumulate(acc, exps, HALF * coeff)

    if n >= 1:
        _transfer(acc, _lower_cell(lower, g, n).expand(), d_op, range(1, nvars), nvars)

    return SparseSymPoly.from_expanded(nvars, acc)


def Omega_step_dw0(g: int, n: int, lower: dict) -> dict:
    """The w_0 derivative of Omega_{g,n+1} as a plain half-step dict,

        d_{w_0} Omega_{g,n+1} = w_0^(5/2) d_x d_y Omega_{g-1,n+2}|_{x=y=w_0}
            + w_0^(5/2) sum over stable ordered splits d Omega d Omega
            + w_0^(-3/2) sum_i calD_{w_0,w_i} d_x Omega_{g,n}(x, ...).

    Keys are (n+1)-tuples of half-steps; entry 0 need not lie on the Omega
    lattice until the antiderivative is taken.
    """
    nvars = n + 1
    _check_step_target(g, nvars)
    acc = {}

    if g >= 1:
        cell = _lower_cell(lower, g - 1, n + 2)
        for vec, coeff in cell.expand().items():
            c = coeff * vec[0] * vec[1] / 4
            accumulate(acc, (vec[0] + vec[1] + 1,) + vec[2:], c)

    for exps, coeff in _split_terms(g, n, lower, 5, _d0):
        accumulate(acc, exps, coeff)

    if n >= 1:
        _transfer(acc, _d0(_lower_cell(lower, g, n).expand()), calD_op, range(1, nvars), nvars, shift=-3)

    return acc


def Omega_step(g: int, n: int, lower: dict) -> HalfPowerPoly:
    """Antidifferentiate :func:`Omega_step_dw0` in w_0 with zero constant
    term; the result must land on the Omega exponent lattice."""
    nvars = n + 1
    terms = {}
    for exps, coeff in Omega_step_dw0(g, n, lower).items():
        k = exps[0]
        if k == -2:
            raise ValueError(f"term {exps} would antidifferentiate to a logarithm")
        accumulate(terms, (k + 2,) + exps[1:], coeff * Fraction(2, k + 2))
    return HalfPowerPoly.from_expanded(nvars, terms)


# ---------------------------------------------------------------------------
# compatibility of the two transfer operators

def d_bridge_holds(g: int, n: int, i: int, table: CorrelatorTable) -> bool:
    """Check that the two encodings of the transfer term agree:

        D_{w_0,w_i} omega_{g,n}(x, w)  ==
        2^(n+1) prod_j w_j^(3/2) d_{w_1} ... d_{w_n} calD_{w_0,w_i}
            d_x Omega_{g,n}(x, w)

    as exact polynomials in w_0, ..., w_n (variable i of the cell is the
    one routed through the operator).
    """
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    nvars = n + 1

    lhs = {}
    _transfer(lhs, omega_from_correlators(g, n, table).expand(), d_op, (i,), nvars)

    rhs = {}
    _transfer(rhs, _d0(Omega_from_correlators(g, n, table).expand()), calD_op, (i,), nvars)
    bridged = {}
    for exps, coeff in rhs.items():
        assert exps[0] % 2 == 0
        tail, c = _to_omega(exps[1:], 2 * coeff)
        accumulate(bridged, (exps[0] // 2,) + tail, c)

    return lhs == bridged


# ---------------------------------------------------------------------------
# rendering and export

def _halfstep_str(h: int) -> str:
    return f"{h}/2"


def poly_orbit_records(poly, kind: str) -> list:
    """Orbit records for JSON export, sorted by orbit descending."""
    records = []
    for orbit, coeff in poly.sorted_orbits():
        if kind == "Omega":
            exported = [_halfstep_str(h) for h in orbit]
        else:
            exported = list(orbit)
        records.append({"orbit": exported, "coeff": rat_str(coeff)})
    return records


def poly_text(poly, kind: str) -> str:
    """Canonical one-line-per-orbit text rendering.

    W cells print in the 1/z^(2a+2) notation, omega cells as monomials in
    w_i, Omega cells with explicit half-integer exponents.
    """
    lines = []
    for orbit, coeff in poly.sorted_orbits():
        if kind == "W":
            mono = " ".join(f"z{i + 1}^{2 * a + 2}" for i, a in enumerate(orbit))
            lines.append(f"{rat_str(coeff)} / ({mono})")
        elif kind == "omega":
            factors = []
            for i, e in enumerate(orbit):
                if e == 0:
                    continue
                factors.append(f"w{i + 1}" + (f"^{e}" if e > 1 else ""))
            lines.append(f"{rat_str(coeff)} * " + " ".join(factors))
        elif kind == "Omega":
            mono = " ".join(f"w{i + 1}^({_halfstep_str(h)})" for i, h in enumerate(orbit))
            lines.append(f"{rat_str(coeff)} * {mono}")
        else:
            raise ValueError(f"unknown kind {kind!r}")
    if not lines:
        return "0"
    return "\n".join(lines)
