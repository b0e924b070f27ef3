"""The Leibniz kernel and the live-unknown formulations against a reference.

The reference is the straightforward loop: inverse-letter images
materialized as -g^-1 d(g) g^-1 by polynomial products, every contribution
added as an ``AffineForm``, the ansatz images built in full and then pruned,
and conditions assembled by ``NCPoly`` subtraction.  The kernel must give
exactly the same polynomials.  The side condition, an incidence in the
package, is also checked against D_tau(I) accumulated by the kernel, and
so is its first harvest.
"""

import random
from fractions import Fraction

import pytest

from selsolve.linsys import KIND_A, KIND_C, AffineForm, UnknownId
from selsolve.ncalgebra import (U_INV, V_INV, Accumulator, Derivation,
                                NCPoly, Word, affine_product,
                                apply_derivation, poly_mul, reduce_letters,
                                reduce_sandwich, word_key, word_mul, word_pow)
from selsolve.symmetry import (COMMUTATOR_UV, NecessaryCondition,
                               SortedCondition, build_ansatz, complete_split,
                               formulate_nc, formulate_symcon,
                               kontsevich_system, prune_ncpoly,
                               selective_split, side_condition_k0,
                               sorted_terms)

from test_properties import random_poly, random_word


def reference_inverse_image(image, inv_letter):
    g = NCPoly.from_word(Word((inv_letter,)))
    return -poly_mul(poly_mul(g, image), g)


def reference_apply(d, p):
    images = (d.image_u, d.image_v,
              reference_inverse_image(d.image_u, U_INV),
              reference_inverse_image(d.image_v, V_INV))
    acc = {}
    for word, coeff in p.terms.items():
        for i, g in enumerate(word):
            prefix, suffix = word[:i], word[i + 1:]
            for iw, ic in images[g].terms.items():
                w = word_mul(word_mul(prefix, iw), suffix)
                piece = affine_product(coeff, ic)
                cur = acc.get(w)
                acc[w] = piece if cur is None else cur + piece
    return NCPoly(acc)


def reference_dtau(ansatz, zeros):
    t = len(ansatz.words)
    q1 = NCPoly({w: AffineForm.unknown(ansatz.unknowns[i])
                 for i, w in enumerate(ansatz.words)})
    q2 = NCPoly({w: AffineForm.unknown(ansatz.unknowns[t + i])
                 for i, w in enumerate(ansatz.words)})
    return Derivation(prune_ncpoly(q1, zeros), prune_ncpoly(q2, zeros))


def reference_symcon(system, ansatz, which, zeros):
    dtau = reference_dtau(ansatz, zeros)
    dtx, qx = ((system.image_u, dtau.image_u) if which == "u"
               else (system.image_v, dtau.image_v))
    return reference_apply(dtau, dtx) - reference_apply(system, qx)


def reference_nc(ansatz, k0, zeros):
    residual = reference_apply(reference_dtau(ansatz, zeros),
                               NCPoly.from_word(COMMUTATOR_UV))
    for i in range(2 * k0 + 1):
        power = word_pow(COMMUTATOR_UV, i - k0)
        aux = AffineForm.unknown(UnknownId(KIND_A, i))
        residual = residual - NCPoly.from_word(power, aux)
    return residual


def accumulator_nc(ansatz, zeros):
    """The side condition as the Leibniz kernel builds it: D_tau(I) summed
    per word, then -a_k on each I^k."""
    k0 = side_condition_k0(ansatz.degree)
    acc = Accumulator()
    acc.add_derivation(ansatz.derivation(zeros),
                       NCPoly.from_word(COMMUTATOR_UV))
    for i in range(2 * k0 + 1):
        slot = acc.words.setdefault(word_pow(COMMUTATOR_UV, i - k0), {})
        slot[UnknownId(KIND_A, i)] = -1
    return acc.poly()


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_formulations_match_reference(degree):
    # k0 is 3 for every degree up to 10
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    empty = set()
    harvested = set()
    selective_split(SortedCondition(sorted_terms(
        reference_nc(ansatz, 3, empty))), harvested)
    assert len(harvested) > 0
    for zeros in (empty, harvested):
        nc = formulate_nc(ansatz, zeros)
        assert nc.residual == reference_nc(ansatz, 3, zeros)
        assert nc.residual == accumulator_nc(ansatz, zeros)
        for which in ("u", "v"):
            assert formulate_symcon(system, ansatz, which, zeros) \
                == reference_symcon(system, ansatz, which, zeros)
        dtau = ansatz.derivation(zeros)
        assert apply_derivation(dtau, NCPoly.from_word(COMMUTATOR_UV)) \
            == reference_apply(reference_dtau(ansatz, zeros),
                               NCPoly.from_word(COMMUTATOR_UV))
        assert apply_derivation(system, dtau.image_u) \
            == reference_apply(system, dtau.image_u)


@pytest.mark.parametrize("degree", range(3, 9))
def test_first_harvest_matches_accumulator_reference(degree):
    # the incidence's first pass registers the same zeros and keeps the
    # same (word key, coefficient) list, in order, as a pass over the
    # sorted accumulated polynomial; once from nothing, once after an S
    # harvest
    ansatz = build_ansatz(degree)
    harvested = set()
    selective_split(SortedCondition(sorted_terms(
        formulate_symcon(kontsevich_system(), ansatz, "u"))), harvested)
    assert len(harvested) > 0
    for start in (set(), harvested):
        got_zeros, want_zeros = set(start), set(start)
        got = SortedCondition(NecessaryCondition(ansatz, start).keyed_terms())
        want = SortedCondition(sorted_terms(accumulator_nc(ansatz, start)))
        found = selective_split(got, got_zeros)
        assert found == selective_split(want, want_zeros) > 0
        assert got_zeros == want_zeros
        assert got.terms == want.terms


def random_affine_poly(rng, unknowns, with_const):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        coeffs = {rng.choice(unknowns): Fraction(rng.randint(-4, 4),
                                                 rng.randint(1, 3))}
        const = rng.randint(-3, 3) if with_const else 0
        terms[random_word(rng, 5)] = AffineForm(const, coeffs)
    return NCPoly(terms)


def test_kernel_matches_reference_on_random_polynomials():
    # Both kernel modes, with constants next to unknowns and cancellation
    # between contributions.
    rng = random.Random(201)
    unknowns = [UnknownId(KIND_C, i) for i in range(6)]
    dt = kontsevich_system()
    for _ in range(300):
        plain = random_poly(rng)
        affine = random_affine_poly(rng, unknowns, rng.random() < 0.5)
        assert apply_derivation(dt, plain) == reference_apply(dt, plain)
        assert apply_derivation(dt, affine) == reference_apply(dt, affine)
        d = Derivation(random_affine_poly(rng, unknowns, True),
                       random_affine_poly(rng, unknowns, False))
        assert apply_derivation(d, plain) == reference_apply(d, plain)


def test_reduce_sandwich_is_free_reduction():
    rng = random.Random(202)
    for _ in range(2000):
        left, mid, right = (random_word(rng) for _ in range(3))
        assert reduce_sandwich(left, mid, right) \
            == reduce_letters(left + mid + right)


def test_live_derivation_equals_pruned_full_images():
    ansatz = build_ansatz(3)
    zeros = set(ansatz.unknowns[::3])
    live = ansatz.derivation(zeros)
    full = ansatz.derivation()
    assert live.image_u == prune_ncpoly(full.image_u, zeros)
    assert live.image_v == prune_ncpoly(full.image_v, zeros)
    assert len(full.image_u.terms) == len(ansatz.words)


def test_sorted_condition_keeps_pruned_remainder_in_order():
    c = [UnknownId(KIND_C, i) for i in range(5)]
    p = NCPoly({
        Word((1, 0)): AffineForm(0, {c[1]: 1, c[2]: 1}),
        Word((0,)): AffineForm.unknown(c[2]),
        Word((0, 1)): AffineForm(3, {c[3]: 1}),
        Word((1,)): AffineForm(0, {c[3]: 2, c[4]: 1}),
    })
    condition = SortedCondition(sorted_terms(p))
    assert [k for k, _ in condition.terms] == [
        word_key(w) for w in (Word((0,)), Word((1,)), Word((0, 1)),
                              Word((1, 0)))]
    zeros = {c[3]}
    # u registers c2 at once, so v u then prunes to the single term c1
    assert selective_split(condition, zeros) == 3
    assert zeros == {c[1], c[2], c[3], c[4]}
    # the constant left of u v stays for the final split to report
    assert condition.terms == [(word_key(Word((0, 1))),
                                AffineForm.constant(3))]
    assert selective_split(condition, zeros) == 0
    split = complete_split([condition.terms], c, zeros)
    assert [(eq.id, eq.lhs) for eq in split.equations] \
        == [(0, AffineForm.constant(1))]
