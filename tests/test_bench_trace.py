"""The benchmark's layer tracer (``bench/layertrace.py``) wraps named entry
points of every layer.  A refactor that deletes or renames one of them must
fail here, not first in a traced benchmark run."""

from pathlib import Path

import pytest

from airyqc import polynomials, residues, suites, wkb

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_layer_trace_wraps_and_restores_entry_points(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layertrace import LayerTrace

    originals = {
        (wkb, "verify_order"): wkb.verify_order,
        (wkb, "s_terms"): wkb.s_terms,
        (residues.ZSeries, "residue"): residues.ZSeries.residue,
        (polynomials._OrbitPoly, "expand"): polynomials._OrbitPoly.expand,
    }
    suite_fns = dict(suites.SUITES)
    trace = LayerTrace()
    try:
        trace.install()  # raises if any wrapped name is gone
        for (owner, name), original in originals.items():
            assert getattr(owner, name).__wrapped__ is original, name
    finally:
        trace.uninstall()
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name
    assert suites.SUITES == suite_fns


@pytest.mark.parametrize("max_chi, cells, residue_terms", [(6, 18, 476), (8, 28, 2380)])
def test_layer_trace_counts_the_eo_series(monkeypatch, max_chi, cells, residue_terms):
    # the tracer sizes each residue by the length of its stratum dicts: one
    # per size |A_1| of a cell's splits, each holding only the terms whose
    # spectator exponents descend within each leg
    monkeypatch.syspath_prepend(str(BENCH))
    from layertrace import LayerTrace

    trace = LayerTrace()
    try:
        trace.install()
        residues.eo_shell(max_chi)
    finally:
        trace.uninstall()
    counts = trace.summary()
    assert (counts["residues.cells"], counts["residues.residue_terms"]) == (cells, residue_terms)
