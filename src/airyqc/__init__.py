"""airyqc: exact psi-class intersection numbers on moduli spaces of curves,
the Eynard-Orantin recursion on the Airy curve, and order-by-order
verification of the quantum Airy curve equation.

Everything is computed in exact rational arithmetic.  The package keeps two
independent routes to the same numbers, the DVV (Virasoro) recursion and
the residue recursion on the Airy curve, and ships the identity suites
that confront them with each other and with the quantum curve.
"""

from .core import double_factorial, rat_parse, rat_str
from .correlators import CorrelatorTable, canonical_key, correlator_shell, is_stable, shell_cells, shell_keys
from .polynomials import (
    HalfPowerPoly,
    Omega_base,
    Omega_from_correlators,
    Omega_step,
    Omega_step_dw0,
    SparseSymPoly,
    calD_op,
    d_bridge_holds,
    d_op,
    omega_base,
    omega_from_Omega,
    omega_from_correlators,
    omega_step,
    poly_orbit_records,
    poly_text,
    tW_from_correlators,
    verify_d_lemma,
)
from .residues import ZSeries, b02_series, eo_W, eo_shell, kernel_series, series_from_cell
from .wkb import (
    QuantumCurveReport,
    WkbTerm,
    diag_Omega,
    quantum_curve_report,
    s_term,
    s_terms,
    t_recursion_check,
    verify_low_orders,
    verify_order,
)
from .cache import CacheFormatError, dumps_table, load_table, loads_table, save_table

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
