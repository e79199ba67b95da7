"""The quantum Airy curve, order by order.

Quantizing the Airy curve 1/2 v^2 - u = 0 with u -> u, v -> hbar d_u gives
the operator A = 1/2 (hbar d_u)^2 - u, and the WKB wave function
Z = exp sum hbar^(n-1) S_n built from the recursion's output satisfies
A Z = 0.  Expanding in hbar turns that single equation into one exact
rational identity per order; this script checks them and shows they are
sharp (a single wrong coefficient anywhere breaks the chain).

Run:  python3 demos/quantum_curve.py
"""

from fractions import Fraction

from airyqc import CorrelatorTable, WkbTerm, quantum_curve_report, s_terms, t_recursion_check, verify_low_orders

table = CorrelatorTable()
terms = s_terms(7, 1, table)

print("The first WKB terms (single monomials in w = 1/z^2 = 1/(2u)):")
for n in range(5):
    print(f"  S_{n} = {terms[n].text()}")

print("\nOrders 0..10 of A Z = 0, plus branch:")
print(quantum_curve_report(10, 1, table).text())

print("\nSame through the minus branch:")
print(quantum_curve_report(10, -1, table).text())

print("\nIn the coordinate t = -(2/3) w^(-3/2) the identity is bare:")
for n in range(3, 8):
    print(f"  d_t S_{n} = d_t^2 S_{n-1} + sum d_t S_i d_t S_j : {t_recursion_check(n, terms)}")

print("\nSharpness: wrong inputs break the chain at the first order that sees them.")
print("  S_2 coefficient forced to 1/4 -> orders 0..2 hold?",
      verify_low_orders({**terms, 2: WkbTerm(2, 1, "monomial", Fraction(1, 4), 3)}))
bad = CorrelatorTable(tau1=Fraction(1, 12))
report = quantum_curve_report(4, 1, bad)
print("  <tau_1>_1 seeded as 1/12 -> report:")
for order, residual in report.residuals:
    print(f"    order {order}: {'ok' if residual == '0' else residual}")
