from fractions import Fraction

import pytest

from selsolve.errors import NonlinearProductError
from selsolve.linsys import KIND_C, AffineForm, UnknownId
from selsolve.ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, Derivation,
                                NCPoly, Word, apply_derivation, poly_mul)
from selsolve.symmetry import (COMMUTATOR_UV, COMMUTATOR_VU, build_ansatz,
                               formulate_symcon, kontsevich_system)

C0 = UnknownId(KIND_C, 0)
C1 = UnknownId(KIND_C, 1)


def test_poly_mul_combines_words():
    a = NCPoly({Word((U,)): 1, Word((V,)): 1})
    b = NCPoly({Word((U_INV,)): 1})
    assert poly_mul(a, b) == NCPoly({EMPTY_WORD: 1, Word((V, U_INV)): 1})


def test_poly_mul_carries_linear_coefficient():
    a = NCPoly({Word((U,)): AffineForm.unknown(C0)})
    b = NCPoly({Word((V,)): 1})
    assert poly_mul(a, b) == NCPoly({Word((U, V)): AffineForm.unknown(C0)})


def test_poly_mul_rejects_nonlinear():
    a = NCPoly({Word((U,)): AffineForm.unknown(C0)})
    b = NCPoly({Word((V,)): AffineForm.unknown(C1)})
    with pytest.raises(NonlinearProductError):
        poly_mul(a, b)


def test_system_images():
    dt = kontsevich_system()
    assert dt.image_u == NCPoly(
        {Word((U, V)): 1, Word((U, V_INV)): -1, Word((V_INV,)): -1})
    assert dt.image_v == NCPoly(
        {Word((V, U)): -1, Word((V, U_INV)): 1, Word((U_INV,)): 1})


def test_derivation_of_identity_word():
    dt = kontsevich_system()
    assert apply_derivation(dt, NCPoly.from_word(EMPTY_WORD)).is_zero
    uu = poly_mul(NCPoly.from_word(Word((U,))),
                  NCPoly.from_word(Word((U_INV,))))
    assert apply_derivation(dt, uu).is_zero


def test_derivation_image_of_u_inverse():
    # Oracle: expand -u^-1 (D_t u) u^-1 directly.
    dt = kontsevich_system()
    uinv = NCPoly.from_word(Word((U_INV,)))
    expected = -poly_mul(poly_mul(uinv, dt.image_u), uinv)
    assert expected == NCPoly({
        Word((V, U_INV)): -1,
        Word((V_INV, U_INV)): 1,
        Word((U_INV, V_INV, U_INV)): 1,
    })


def test_commutator_word_is_first_integral():
    dt = kontsevich_system()
    assert apply_derivation(dt, NCPoly.from_word(COMMUTATOR_UV)).is_zero
    assert apply_derivation(dt, NCPoly.from_word(COMMUTATOR_VU)).is_zero
    product = poly_mul(NCPoly.from_word(COMMUTATOR_UV),
                       NCPoly.from_word(COMMUTATOR_VU))
    assert product == NCPoly.from_word(EMPTY_WORD)
    assert apply_derivation(dt, product).is_zero


def test_derivation_linear_over_coefficients():
    dt = kontsevich_system()
    p = NCPoly({Word((U,)): AffineForm.unknown(C0, Fraction(3, 2)),
                Word((V, U)): AffineForm.unknown(C1)})
    result = apply_derivation(dt, p)
    # every coefficient of the image stays affine in the same unknowns
    assert {u for c in result.terms.values() for u in c.coeffs} <= {C0, C1}
    assert all(c.const == 0 for c in result.terms.values())


def test_derivation_with_unknown_images_rejects_unknown_poly():
    q = NCPoly({Word((U,)): AffineForm.unknown(C0)})
    d = Derivation(q, NCPoly.zero())
    with pytest.raises(NonlinearProductError):
        apply_derivation(d, q)
    # so does a system flow whose images carry unknowns
    with pytest.raises(NonlinearProductError):
        formulate_symcon(d, build_ansatz(1), "u")


def test_poly_str():
    p = NCPoly({EMPTY_WORD: 2, Word((U, V)): AffineForm.unknown(C0)})
    assert str(p) == "2 + (c0) u v"
    assert str(NCPoly.zero()) == "0"
