"""Helpers of the test oracles that expand every split and every
permutation, which the package itself no longer does."""

from airyqc.core import orbit_size


def from_expanded(cls, nvars, terms):
    """Group a {full exponent tuple: coeff} dict into the orbits of a
    ``cls`` cell, checking that the data really is symmetric (orbit
    complete, coefficients constant on each orbit)."""
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


def ordered_splits(g, positions):
    """Yield each ordered split (g_1, A_1, g_2, A_2): g_1 + g_2 = g, and A_1,
    A_2 complementary sub-lists of `positions`.  Stability is the caller's."""
    for g1 in range(g + 1):
        for mask in range(1 << len(positions)):
            A1 = [p for i, p in enumerate(positions) if mask >> i & 1]
            A2 = [p for i, p in enumerate(positions) if not mask >> i & 1]
            yield g1, A1, g - g1, A2
