"""Sparse exact polynomials for the w-coordinate form of the recursion.

Two closely related generating polynomials are built from the correlator
table over each cell's on-shell keys (w_i = 1/z_i^2 turns the z-space
generating functions into honest polynomials):

    omega_{g,n} = sum <tau_a>_g prod (2a_i+1)!! w_i^(a_i+1)      integer exponents
    Omega_{g,n} = sum <tau_a>_g prod (2a_i-1)!! w_i^(a_i+1/2)    half-integer exponents

Both are symmetric, so they are stored one representative per exponent
orbit: a map from the descending-sorted exponent tuple to the coefficient
carried by *each* monomial in that orbit.  Half-integer exponents are
stored as integer half-steps (w^(5/2) <-> 5).  Cells hold Fractions; a
recursion step reads all its lower cells as ints over one common
denominator L and makes one Fraction per target orbit.

The module also implements, as executable identities, the one-step
recursions that rebuild omega_{g,n+1} and Omega_{g,n+1} from lower cells,
together with the transfer operators

    D_{u,v} x^m      = uv (u^m + 3 u^(m-1) v + ... + (2m+1) v^m)
    calD_{u,v} x^(a-1/2) = u v^(1/2) (u^(a+1) + u^a v + ... + v^(a+1))

that encode the contribution of the two-point function to the recursion.
``d_op`` is the only code that knows D's weights and ``calD_op`` the only
code that knows calD's range: the steps, ``d_bridge_holds`` and
``verify_d_lemma`` all apply them, the first two through one orbit-wise
image (``_transfer``) of the int-read transfer cell.  Both recursions
are one step on the exponent lattice s a + 1, s = 1 for omega and s = 2
half-steps for Omega; the degree, the pair weight and the 1/(2s) scale
follow from s.  Every lower cell is homogeneous, so each descending tail
on w_1..w_n fixes w_0's exponent, and the step adds its genus readings,
its split products and its transfer image forward into one {tail: int}
table over L^2.  The split term multiplies each unordered pair of split
cells once, each cell read once per chain and each reading carrying an
EGF weight, so that a product adds at its sorted tail with no
multiplicity and each tail is divided by its orbit size once
(``_split_table``).  One reader, ``_read_cell``, builds the target cell
from that table: it reads each target orbit once per distinct entry on
w_0 as int pairs, and the readings must agree, which checks symmetry of
w_0 against w_i; symmetry in w_1..w_n is manifest.  The EO route
(``residues``) reads its lower cells by the same walk and EGF weights
and builds its cells from a {tail: int} table through the same division
(``_per_orbit``) and reader.  One slot map 2 w^(3/2) d_w takes Omega to
omega monomials, orbit to orbit.
omega_{0,3} = w1 w2 w3 and omega_{1,1} = w1^2/8 (and their Omega
counterparts) are seeded base cells: the recursion step for either target
would need the excluded two-point cell.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import accumulate, exact, orbit_size, rat_str, readings
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

    __slots__ = ("nvars", "orbits", "_expanded", "_reads")

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
            coeff = exact(coeff, "coefficient")
            if coeff:
                clean[orbit] = coeff
        self.nvars = nvars
        self.orbits = clean
        self._expanded = None
        self._reads = {}  # the split readings of the recursion steps, by (s, degree)

    def expand(self):
        """Full {exponent tuple: coeff} dict (cached; treat as read-only)."""
        if self._expanded is None:
            out = {}
            for orbit, coeff in self.orbits.items():
                for perm, _ in readings(orbit, len(orbit)):
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
        if any(type(e) is not int or e < 0 for e in orbit):
            raise ValueError(f"exponents must be non-negative integers, got {orbit}")


class HalfPowerPoly(_OrbitPoly):
    """Symmetric polynomial with exponents in (1/2) + Z>=0, stored as odd
    positive integer half-steps (w^(5/2) is half-step 5)."""

    @staticmethod
    def _check_exponent_lattice(orbit):
        if any(type(e) is not int or e < 1 or e % 2 == 0 for e in orbit):
            raise ValueError(f"half-steps must be odd positive integers, got {orbit}")


# ---------------------------------------------------------------------------
# builders from the correlator table

def _from_correlators(g, n, table, poly_cls, shift, exponents):
    """The cell whose orbit ``exponents(a)`` carries <tau_a>_g
    prod (2a_i + shift)!!, over the on-shell orbits a of (g, n), read from
    the table's memo ints by ``CorrelatorTable.cell_values``."""
    return poly_cls(n, {exponents(a): value for a, value in table.cell_values(g, n, shift) if value})


def _degree(g, n, s):
    """Degree of the cell (g, n) on the lattice s a + 1: the w-degree of
    omega_{g,n} (s = 1), the half-step degree of Omega_{g,n} (s = 2)."""
    return s * (3 * g - 3 + n) + n


def omega_from_correlators(g: int, n: int, table: CorrelatorTable) -> SparseSymPoly:
    """omega_{g,n}: orbit (a_i + 1) carries <tau_a>_g prod (2a_i+1)!!."""
    poly = _from_correlators(g, n, table, SparseSymPoly, 1, lambda a: tuple(ai + 1 for ai in a))
    assert poly.homogeneous_degree() in (None, _degree(g, n, 1))
    return poly


def tW_from_correlators(g: int, n: int, table: CorrelatorTable) -> SparseSymPoly:
    """W_{g,n} in exponent-table form: orbit (a_i) carries the coefficient
    of prod 1/z_i^(2a_i+2), i.e. <tau_a>_g prod (2a_i+1)!!."""
    return _from_correlators(g, n, table, SparseSymPoly, 1, tuple)


def Omega_from_correlators(g: int, n: int, table: CorrelatorTable) -> HalfPowerPoly:
    """Omega_{g,n}: orbit half-steps (2a_i + 1) carry <tau_a>_g prod (2a_i-1)!!."""
    poly = _from_correlators(g, n, table, HalfPowerPoly, -1, lambda a: tuple(2 * ai + 1 for ai in a))
    assert poly.homogeneous_degree() in (None, _degree(g, n, 2))
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
    and (2a-1)!! (2a+1) = (2a+1)!! restores the omega weights.  The slot map
    k -> (k+1)/2 is strictly increasing, so it takes orbits to orbits.
    """
    return SparseSymPoly(n, dict(_to_omega(orbit, coeff) for orbit, coeff in Om.orbits.items()))


# ---------------------------------------------------------------------------
# transfer operators

def d_op(f: dict) -> dict:
    """Linear extension of D_{u,v} x^m = uv sum_{j=0..m} (2j+1) u^(m-j) v^j.

    `f` maps non-negative integer exponents to coefficients; the result
    maps (u, v) exponent pairs to coefficients and is divisible by uv.
    Terms never share a key: the image of x^m has degree m + 2.
    """
    out = {}
    for m, coeff in f.items():
        if type(m) is not int or m < 0:
            raise ValueError(f"exponent {m!r} not a non-negative integer")
        if not coeff:
            continue
        for j in range(m + 1):
            out[(m - j + 1, j + 1)] = (2 * j + 1) * coeff
    return out


def calD_op(f: dict) -> dict:
    """Linear extension of calD_{u,v} x^(a-1/2) = u v^(1/2) sum_{t=0..a+1}
    u^(a+1-t) v^t.

    Input exponents are half-steps 2a - 1 (a >= 0); output keys are
    (u half-step, v half-step) pairs, u even and v odd.  Terms never share
    a key: the image of x^(a-1/2) has half-step degree 2a + 5.
    """
    out = {}
    for h, coeff in f.items():
        if type(h) is not int or h < -1 or h % 2 == 0:
            raise ValueError(f"half-step {h!r} not of the form 2a - 1 with a >= 0")
        if not coeff:
            continue
        a = (h + 1) // 2
        for t in range(a + 2):
            out[(2 * (a + 2 - t), 2 * t + 1)] = coeff
    return out


def verify_d_lemma(m: int) -> bool:
    """Check, as exact polynomials in (u, v), that ``d_op`` gives the closed
    form of D_{u,v}x^m.  Clearing (u-v)^2 from the rational-function
    definition gives, with the left side written out term by term,

        uv (u(u+v) u^m - 3v(u-v) v^m - 2v^2 v^m - 2m v^(m+1) (u-v))
            = (u-v)^2 D_{u,v} x^m.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    lhs = {}
    accumulate(lhs, (m + 3, 1), Fraction(1))
    accumulate(lhs, (m + 2, 2), Fraction(1))
    accumulate(lhs, (2, m + 2), Fraction(-3))
    accumulate(lhs, (1, m + 3), Fraction(3))
    accumulate(lhs, (1, m + 3), Fraction(-2))
    accumulate(lhs, (2, m + 2), Fraction(-2 * m))
    accumulate(lhs, (1, m + 3), Fraction(2 * m))

    rhs = {}
    square = {(2, 0): Fraction(1), (1, 1): Fraction(-2), (0, 2): Fraction(1)}
    for (u, v), c in d_op({m: Fraction(1)}).items():
        for (su, sv), sc in square.items():
            accumulate(rhs, (u + su, v + sv), c * sc)
    return lhs == rhs


def _calD_dx(f):
    """calD_{u,v} 2 d_x on a half-step dict, 2 d_x x^(h/2) = h x^((h-2)/2)."""
    return calD_op({h - 2: h * c for h, c in f.items()})


def _transfer(cell, op, L):
    """op_{w_0, w_i} (``d_op`` or ``_calD_dx``) on slot 0 of the orbit-stored
    cell read as ints over L, run once per spectator tail: {(u, v, rest): c},
    c/L the coefficient of w_0^u w_i^v w^rest, rest descending on the
    spectators in any order.  The cell is symmetric, so the image does not
    depend on i."""
    tails = {}
    for orbit, c in cell.orbits.items():
        for (x,), tail in readings(orbit, 1):
            tails.setdefault(tail, {})[x] = _over(c, L)
    return {(u, v, tail): c for tail, f in tails.items() for (u, v), c in op(f).items()}


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


def _lower_cell(lower, g, n):
    try:
        return lower[(g, n)]
    except KeyError:
        raise ValueError(f"missing lower cell ({g}, {n})") from None


# weight(p) of a lower-cell slot w^(p/s) in the step on the lattice s a + 1:
# 1 for omega, and p for Omega, from d_w w^(p/2) = (p/2) w^((p-2)/2)
_WEIGHTS = {1: lambda p: 1, 2: lambda p: p}


def _fetch(lower, h, k, s):
    """The lower cell (h, k), checked homogeneous of its ``_degree`` on the
    lattice s a + 1 with every exponent >= 1, so that every term of the
    step lands on a target orbit."""
    cell = _lower_cell(lower, h, k)
    d, want = cell.homogeneous_degree(), _degree(h, k, s)
    if d not in (None, want):
        raise ValueError(f"lower cell ({h}, {k}) has degree {d}, not {want}")
    if any(orbit[-1] < 1 for orbit in cell.orbits):
        raise ValueError(f"lower cell ({h}, {k}) has an exponent below 1")
    return cell


def _split_reading(lower, h, k, s):
    """The split cell (h, k) fetched, checked and read once per lattice s
    and degree: (D, {rest: weight(x) c D orbit_size(rest)}) over its
    one-slot readings (x, rest), keyed by rest alone since the checked
    degree fixes x, D the lcm of the cell's coefficient denominators.  The
    factor orbit_size(rest) = |rest|!/aut(rest) is the reading's EGF weight
    (``_split_table``).  The reading is kept on the cell, keyed by s and
    the degree it was checked at, so a later step reuses it and the same
    cell placed at another (h, k) is checked and read again."""
    cell = _lower_cell(lower, h, k)
    key = (s, _degree(h, k, s))
    read = cell._reads.get(key)
    if read is None:
        _fetch(lower, h, k, s)
        D = math.lcm(*(c.denominator for c in cell.orbits.values()))
        weight = _WEIGHTS[s]
        values = {
            rest: weight(x) * _over(c, D) * orbit_size(rest)
            for orbit, c in cell.orbits.items()
            for (x,), rest in readings(orbit, 1)
        }
        read = cell._reads[key] = D, values
    return read


def _lower_cells(g, n, lower, s, op):
    """The lower cells of the step to (g, n+1) on the lattice s a + 1,
    fetched and checked up front (``_fetch``): the genus cell (g-1, n+2),
    the stable split pairs (g_1, m+1), (g-g_1, n-m+1), and the transfer
    cell (g, n) (none for n = 0).

    Returns (L, genus, splits, image), L the lcm of the coefficient
    denominators of all these cells and every value an int over L or L^2:
    the genus cell as (rest, weight(x) weight(y) c L) over its
    ``core.readings`` ((x, y), rest) of two slots, the transfer cell as
    its ``_transfer`` image under `op`, and the splits as one
    (scale, reading_1, reading_2) per unordered pair, the ``_split_reading``
    of each cell over its own D_i.  A pair and its mirror add the same
    products into the same tails, so only the pair whose first cell is <=
    its mirror's is kept, at weight w = 2, or 1 when it is its own mirror;
    its scale w C(n, m) (L / D_1) (L / D_2) puts its products over L^2 with
    the binomial that ``_split_table``'s EGF division expects."""
    genus_cell = [_fetch(lower, g - 1, n + 2, s)] if g >= 1 else []
    reads, pairs = {}, []
    for m in range(n + 1):
        for g1 in range(g + 1):
            pair = (g1, m + 1), (g - g1, n - m + 1)
            if all(is_stable(*cell) for cell in pair):
                for cell in pair:
                    if cell not in reads:
                        reads[cell] = _split_reading(lower, *cell, s)
                if pair[0] <= pair[1]:
                    pairs.append(((1 if pair[0] == pair[1] else 2) * math.comb(n, m), *pair))
    transfer = [_fetch(lower, g, n, s)] if n >= 1 else []
    L = math.lcm(
        *(c.denominator for cell in [*genus_cell, *transfer] for c in cell.orbits.values()),
        *(D for D, _ in reads.values()),
    )
    weight = _WEIGHTS[s]
    genus = [
        (rest, weight(x) * weight(y) * _over(c, L))
        for cell in genus_cell
        for orbit, c in cell.orbits.items()
        for (x, y), rest in readings(orbit, 2)
    ]
    splits = []
    for scale, cell1, cell2 in pairs:
        (D1, read1), (D2, read2) = reads[cell1], reads[cell2]
        splits.append((scale * (L // D1) * (L // D2), read1, read2))
    return L, genus, splits, _transfer(transfer[0], op, L) if transfer else {}


def _over(c, den):
    """The Fraction `c` times `den`, a multiple of its denominator, as an int."""
    return c.numerator * (den // c.denominator)


def _targets(g, nvars, s):
    """The target orbits of (g, nvars): each ``cell_keys`` a as (s a_i + 1),
    the builders' map for omega (1) and Omega (2)."""
    return [tuple(s * a + 1 for a in key) for key in cell_keys(g, nvars)]


def _split_table(splits):
    """The split term of every tail, {tail: sum of mult c_1 c_2}, as one
    forward product of the weighted split pairs of ``_lower_cells``: each
    reading mu of the first cell times each nu of the second, added at the
    merged tail sorted(mu + nu) with no multiplicity.  The cells are
    homogeneous, so their w_0 entries follow from mu and nu, and no
    product read is zero.

    The multiplicity is folded in by EGF weights.  A product has mult =
    aut(tail) / (aut(mu) aut(nu)) position sets of the tail realizing mu,
    aut(t) the product of the factorials of t's value counts.  Each reading
    carries orbit_size(rest) = |rest|!/aut(rest) and each pair C(n, m), so
    a product adds mult c_1 c_2 n!/aut(tail) = mult c_1 c_2
    orbit_size(tail), and each tail is divided by its orbit size once at
    the end (``_per_orbit``), exactly for any int readings of this form.

    >>> _split_table([(2, {(1,): 2}, {(1,): 5, (3,): 7})])
    {(1, 1): 20, (3, 1): 14}
    """
    table = {}
    for scale, cell1, cell2 in splits:
        for mu, c1 in cell1.items():
            c1 *= scale
            for nu, c2 in cell2.items():
                tail = tuple(sorted(mu + nu, reverse=True))
                table[tail] = table.get(tail, 0) + c1 * c2
    return _per_orbit(table)


def _per_orbit(table):
    """The {tail: int} `table` with each sum divided, in place, by its
    tail's orbit size: the one division of both routes' EGF-weighted sums
    (``_split_table``, ``residues.eo_W``); a remainder raises ValueError.

    >>> _per_orbit({(1, 1): 5, (2, 1): 4})
    {(1, 1): 5, (2, 1): 2}
    >>> _per_orbit({(2, 1, 1): 10})
    Traceback (most recent call last):
        ...
    ValueError: term sum 10 of tail (2, 1, 1) is not a multiple of its orbit size 3
    """
    for tail, c in table.items():
        k = orbit_size(tail)
        q, r = divmod(c, k)
        if r:
            raise ValueError(f"term sum {c} of tail {tail} is not a multiple of its orbit size {k}")
        table[tail] = q
    return table


def _read_cell(cls, g, nvars, orbits, table, value):
    """The cell (g, nvars) on `orbits` read from the {tail: int} `table`:
    each one-slot reading (e_0, tail) of an orbit (``core.readings``) gives
    the coefficient p/q, (p, q) = value(e_0, table[tail]) with ints p and
    q > 0, and all readings of an orbit must agree, p q' == p' q.  This is
    the check of w_0 against w_i, on either route; each orbit makes one
    Fraction.

    >>> _read_cell(SparseSymPoly, 0, 3, [(2, 1, 1)], {(1, 1): 4, (2, 1): 4}, lambda e0, num: (num, 1))
    SparseSymPoly(3, {(2, 1, 1): Fraction(4, 1)})
    """
    cell = {}
    for orbit in orbits:
        first = None
        for (e0,), tail in readings(orbit, 1):
            p, q = value(e0, table.get(tail, 0))
            if first is None:
                first = p, q
            elif p * first[1] != first[0] * q:
                raise ValueError(f"cell ({g}, {nvars}): terms are not symmetric on orbit {orbit}")
        cell[orbit] = Fraction(*first)
    return cls(nvars, cell)


def _step_values(g, n, lower, s, op):
    """The one recursion step on the lattice s a + 1: (table, den) with
    table[tail]/den the coefficient at (e_0, tail) of omega_{g,n+1} (s = 1),
    or at half-steps (e_0 - 2, tail) of d_{w_0} Omega_{g,n+1} (s = 2), for
    each reading (e_0, tail) of a target orbit (``_read_cell``); den = 2s L^2
    is the same for every tail.

    The coefficient is 1/(2s) times the genus and split terms plus the
    transfer term, all added into the one {tail: int} table of
    ``_split_table``, which holds 2s L^2 times each coefficient: each genus
    reading (p, q, tail) times L, and each entry (u, v, rest) of the `op`
    image of the cell (g, n), over L for ``d_op`` and over 2L for the 2 d_x
    of ``_calD_dx``, times 2L on the tail rest + v, once per w_i carrying v.
    The lower cells are homogeneous, so each tail fixes e_0 = p + q + 2s - 1
    = u - s + 1 and no term reads it.
    """
    nvars = n + 1
    require_stable(g, nvars)
    if (g, nvars) in ((0, 3), (1, 1)):
        raise ValueError(f"({g}, {nvars}) is a seeded base cell, not a recursion target")
    L, genus, splits, image = _lower_cells(g, n, lower, s, op)
    table = _split_table(splits)
    for tail, c in genus:
        table[tail] = table.get(tail, 0) + L * c
    for (_, v, rest), c in image.items():
        tail = tuple(sorted(rest + (v,), reverse=True))
        table[tail] = table.get(tail, 0) + 2 * L * tail.count(v) * c
    return table, 2 * s * L * L


def omega_step(g: int, n: int, lower: dict) -> SparseSymPoly:
    """One recursion step: build omega_{g,n+1}(w_0, ..., w_n) from lower
    cells,

        omega_{g,n+1} = 1/2 w_0 omega_{g-1,n+2}(w_0, w_0, w_[n])
            + 1/2 w_0 sum over stable ordered splits
                  omega_{g_1}(w_0, w_{A_1}) omega_{g_2}(w_0, w_{A_2})
            + sum_i D_{w_0, w_i} omega_{g,n}(x, w_[n]) with slot i removed.

    This is :func:`_step_values` on the lattice a + 1 (s = 1) with
    ``d_op``.  Symmetry in w_1..w_n is manifest; symmetry of w_0 against
    w_i is checked on every full target orbit by :func:`_read_cell`.
    """
    table, den = _step_values(g, n, lower, 1, d_op)
    return _read_cell(SparseSymPoly, g, n + 1, _targets(g, n + 1, 1), table, lambda e0, num: (num, den))


def Omega_step_dw0(g: int, n: int, lower: dict) -> dict:
    """The w_0 derivative of Omega_{g,n+1} as a plain half-step dict,

        d_{w_0} Omega_{g,n+1} = w_0^(5/2) d_x d_y Omega_{g-1,n+2}|_{x=y=w_0}
            + w_0^(5/2) sum over stable ordered splits d Omega d Omega
            + w_0^(-3/2) sum_i calD_{w_0,w_i} d_x Omega_{g,n}(x, ...).

    Keys are (n+1)-tuples of half-steps; entry 0 need not lie on the Omega
    lattice until the antiderivative is taken.  The values are
    :func:`_step_values` on the half-step lattice 2a + 1 (s = 2) with
    ``_calD_dx``, read at each target reading (k, tail) and spread over
    the orderings of the tail on w_1..w_n.
    """
    table, den = _step_values(g, n, lower, 2, _calD_dx)
    out = {}
    for orbit in _targets(g, n + 1, 2):
        for (k,), tail in readings(orbit, 1):
            num = table.get(tail)
            if num:
                c = Fraction(num, den)
                for perm, _ in readings(tail, n):
                    out[(k - 2,) + perm] = c
    return out


def Omega_step(g: int, n: int, lower: dict) -> HalfPowerPoly:
    """Antidifferentiate :func:`Omega_step_dw0` in w_0 with zero constant
    term, orbit-wise: w_0^((k-2)/2) -> (2/k) w_0^(k/2) on each (k, tail)
    reading of a full orbit, and all readings of an orbit must agree (the
    symmetry of w_0 against w_i, checked by :func:`_read_cell`)."""
    table, den = _step_values(g, n, lower, 2, _calD_dx)
    return _read_cell(HalfPowerPoly, g, n + 1, _targets(g, n + 1, 2), table, lambda k, num: (2 * num, k * den))


# ---------------------------------------------------------------------------
# compatibility of the two transfer operators

def d_bridge_holds(g: int, n: int, table: CorrelatorTable) -> bool:
    """Check that the two encodings of the transfer term agree:

        D_{w_0,w_i} omega_{g,n}(x, w)  ==
        2^(n+1) prod_j w_j^(3/2) d_{w_1} ... d_{w_n} calD_{w_0,w_i}
            d_x Omega_{g,n}(x, w)

    as exact polynomials in w_0, ..., w_n (variable i of the cell is the
    one routed through the operator).  Both sides are ``_transfer`` images
    over one L; the right one is mapped by ``_to_omega`` on (v, rest), w_0's
    even half-step u becomes u/2, and ``_calD_dx``'s 2 d_x is the 2 left of
    2^(n+1).  As both cells are symmetric, equal images give the identity
    for every i.
    """
    cells = omega_from_correlators(g, n, table), Omega_from_correlators(g, n, table)
    L = math.lcm(*(c.denominator for cell in cells for c in cell.orbits.values()))
    lhs = _transfer(cells[0], d_op, L)
    rhs = {}
    for (u, v, rest), c in _transfer(cells[1], _calD_dx, L).items():
        assert u % 2 == 0
        exps, c = _to_omega((v,) + rest, c)
        rhs[(u // 2, exps[0], exps[1:])] = c
    return lhs == rhs


# ---------------------------------------------------------------------------
# rendering and export

def _check_kind(kind):
    if kind not in ("W", "omega", "Omega"):
        raise ValueError(f"unknown kind {kind!r}")


def poly_orbit_records(poly, kind: str) -> list:
    """Orbit records for JSON export, sorted by orbit descending."""
    _check_kind(kind)
    records = []
    for orbit, coeff in poly.sorted_orbits():
        if kind == "Omega":
            exported = [f"{h}/2" for h in orbit]
        else:
            exported = list(orbit)
        records.append({"orbit": exported, "coeff": rat_str(coeff)})
    return records


def poly_text(poly, kind: str) -> str:
    """Canonical one-line-per-orbit text rendering.

    W cells print in the 1/z^(2a+2) notation, omega cells as monomials in
    w_i, Omega cells with explicit half-integer exponents.
    """
    _check_kind(kind)
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
        else:
            mono = " ".join(f"w{i + 1}^({h}/2)" for i, h in enumerate(orbit))
            lines.append(f"{rat_str(coeff)} * {mono}")
    if not lines:
        return "0"
    return "\n".join(lines)
