"""The EGF weights of the residue route's legs: each reading carries the
orbit size of its spectator tail, and without it the route fails loudly."""

import pytest

from airyqc import residues
from airyqc.core import orbit_size, readings


def test_each_leg_reading_carries_the_orbit_size_of_its_tail(wtable6):
    cell = wtable6[(0, 5)]
    legs = residues.series_from_cell(cell, 4)
    expected = {}
    for orbit, coeff in cell.orbits.items():
        for (x,), tail in readings(orbit, 1):
            e = tuple(-2 * a - 2 for a in tail)
            expected.setdefault(-2 * x - 2, {})[e] = coeff * orbit_size(tail)
    assert legs.terms == expected
    assert any(orbit_size(tail) > 1 for orbit in cell.orbits for _, tail in readings(orbit, 1))


def test_legs_without_their_egf_weight_break_the_symmetry_check(monkeypatch):
    # the mirror of the omega/Omega step's rejection test: the first cell
    # whose legs have a tail with two distinct values, W_(0,5) from the
    # W_(0,4) leg, reads z_0 against the spectators apart
    monkeypatch.setattr(residues, "orbit_size", lambda tail: 1)
    with pytest.raises(ValueError) as err:
        residues.eo_shell(6)
    assert str(err.value) == "cell (0, 5): terms are not symmetric on orbit (1, 1, 0, 0, 0)"
