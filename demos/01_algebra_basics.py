"""Words, Laurent polynomials, and derivations.

Walks through the algebra layer: free reduction, products that cancel
across the junction, and the system derivation annihilating the commutator
integral.
"""

from selsolve import NCPoly, Word, apply_derivation, poly_mul
from selsolve.ncalgebra import U, U_INV, V, V_INV
from selsolve.symmetry import COMMUTATOR_UV, COMMUTATOR_VU, kontsevich_system

u, v = Word((U,)), Word((V,))
ui, vi = Word((U_INV,)), Word((V_INV,))

print("words reduce as they multiply:")
print(f"  (u v) (v^-1 u)     = {Word((U, V)) * Word((V_INV, U))}")
print(f"  (u v u^-1) (u v^-1) = {Word((U, V, U_INV)) * Word((U, V_INV))}")
print(f"  u u^-1              = {u * ui}")

print("\npolynomials distribute over words:")
p = NCPoly({u: 1, v: 1})
q = NCPoly({ui: 1})
print(f"  (u + v)(u^-1) = {poly_mul(p, q)}")

dt = kontsevich_system()
print("\nthe system flow:")
print(f"  D_t u = {dt.image_u}")
print(f"  D_t v = {dt.image_v}")
ui_poly = NCPoly.from_word(ui)
print(f"  D_t u^-1 = {apply_derivation(dt, ui_poly)}  (derived, not stored)")

i_poly = NCPoly.from_word(COMMUTATOR_UV)
i_inv = NCPoly.from_word(COMMUTATOR_VU)
print("\nthe commutator word is a first integral:")
print(f"  I      = {i_poly}")
print(f"  I^-1   = {i_inv}")
print(f"  I I^-1 = {poly_mul(i_poly, i_inv)}")
print(f"  D_t I  = {apply_derivation(dt, i_poly)}")
print(f"  D_t I^-1 = {apply_derivation(dt, i_inv)}")
