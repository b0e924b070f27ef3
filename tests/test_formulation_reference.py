"""The Leibniz kernel and the live-unknown formulations against a reference.

The reference is the straightforward loop: inverse-letter images
materialized as -g^-1 d(g) g^-1 by polynomial products, every contribution
added as an ``AffineForm``, the ansatz images built in full and then pruned,
and conditions assembled by ``NCPoly`` subtraction.  The kernel must give
exactly the same polynomials.

The package formulates both kinds of condition on word keys: the side
condition as an incidence, the commutators and ``apply_derivation`` by
one keyed Leibniz kernel.  Each is also checked against the word-tuple
Leibniz kernel the package used before, kept here in full
(:class:`ReferenceAccumulator`, with :func:`reduce_sandwich` and its mode
for unknowns in the derivation's images), and so is the first harvest of
each.  The side condition, held as its incidence through a whole staged
run, is checked pass by pass against its decoded pairs.
"""

import random
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve.errors import NonlinearProductError
from selsolve.linsys import KIND_A, KIND_C, AffineForm, UnknownId
from selsolve.ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, Derivation,
                                NCPoly, Word, _join_keys, affine_product,
                                apply_derivation, key_word, poly_mul,
                                reduce_letters, word_key, word_mul, word_pow)
from selsolve.pipeline import run_strategy
from selsolve.symmetry import (COMMUTATOR_UV, NecessaryCondition,
                               SortedCondition, build_ansatz, complete_split,
                               enumerate_keys, formulate_nc, formulate_symcon,
                               kontsevich_system, prune_ncpoly, relabelled,
                               selective_split, side_condition_k0)

from test_properties import random_poly, random_word
from test_words import enumerate_words, reduced_words, sorted_terms

derandomized = settings(derandomize=True, database=None, deadline=None,
                       max_examples=300)


def reference_words(max_degree):
    """Every reduced word of degree <= max_degree as a letter tuple, in
    deglex order: each level extends the last by the letters that do not
    cancel."""
    words, level = [EMPTY_WORD], [EMPTY_WORD]
    for _ in range(max_degree):
        level = [Word(w + (g,)) for w in level for g in (U, V, U_INV, V_INV)
                 if not w or g != w[-1] ^ 2]
        words += level
    return words


def ansatz_words(ansatz):
    return [key_word(k) for k in ansatz.keys]


def mask_of(ansatz, zeros):
    """The dead mask over the ansatz's slots of a set of unknowns."""
    slot = {u: s for s, u in enumerate(ansatz.slot_unknowns())}
    dead = bytearray(ansatz.slot_count)
    for u in zeros:
        dead[slot[u]] = 1
    return dead


def zeros_of(ansatz, dead):
    """The unknowns of the dead slots."""
    return set(compress(ansatz.slot_unknowns(), dead))


def labelled(ansatz, terms):
    """(word key, coefficient) pairs over slots, over unknowns instead."""
    return list(relabelled(terms, dict(enumerate(ansatz.slot_unknowns()))))


def slotted(ansatz, terms):
    """(word key, coefficient) pairs over unknowns, over slots instead."""
    return list(relabelled(terms, {u: s for s, u in
                                   enumerate(ansatz.slot_unknowns())}))


def reduce_sandwich(left, mid, right):
    """Reduced product left * mid * right of three reduced words.

    ``mid`` cancels against the end of ``left`` and the start of
    ``right``; only when it is used up can ``left`` meet ``right``.  The
    result is a plain tuple or a :class:`Word`.
    """
    ll, lm = len(left), len(mid)
    k = 0
    while k < ll and k < lm and left[ll - 1 - k] == mid[k] ^ 2:
        k += 1
    if k == lm:
        return word_mul(left[:ll - k], right)
    lr, rest = len(right), lm - k
    j = 0
    while j < rest and j < lr and mid[lm - 1 - j] == right[j] ^ 2:
        j += 1
    if j == rest:
        return word_mul(left[:ll - k], right[j:])
    return left[:ll - k] + mid[k:lm - j] + right[j:]


def _affine_items(coeff):
    items = list(coeff.coeffs.items())
    if coeff.const:
        items.append((None, coeff.const))
    return items


class ReferenceAccumulator:
    """The Leibniz kernel over word tuples in both of its modes: unknowns
    in the polynomial's coefficients, or in the derivation's images.

    ``words`` maps a word (a reduced letter tuple) to a dict from unknown
    to rational, with the key ``None`` for the constant.  An inverse
    letter g^-1 at position i contributes -(word[:i+1]) d(g) (word[i:]),
    the sandwich identity d(g^-1) = -g^-1 d(g) g^-1 widened by one letter
    on each side.
    """

    def __init__(self):
        self.words = {}

    def add_derivation(self, d, p, sign=1):
        if d.has_unknowns and p.has_unknowns:
            raise NonlinearProductError(
                "derivation images and polynomial both carry unknowns")
        linear_in_p = not d.has_unknowns
        images = tuple(
            [(w, w[0] ^ 2 if w else -2, w[-1] ^ 2 if w else -2, c.const, c)
             for w, c in image.terms.items()]
            for image in (d.image_u, d.image_v))
        words = self.words
        for word, coeff in p.terms.items():
            p_const = coeff.const
            p_items = _affine_items(coeff) if linear_in_p else ()
            for i, g in enumerate(word):
                if g & 2:
                    left, right, s = word[:i + 1], word[i:], -sign
                else:
                    left, right, s = word[:i], word[i + 1:], sign
                left_end = left[-1] if left else -1
                right_start = right[0] if right else -1
                for mid, first, last, i_const, c in images[g & 1]:
                    if first == left_end or last == right_start or not mid:
                        w = reduce_sandwich(left, mid, right)
                    else:
                        w = left + mid + right
                    slot = words.get(w)
                    if slot is None:
                        words[w] = slot = {}
                    if linear_in_p:
                        factor = s * i_const
                        for key, value in p_items:
                            slot[key] = slot.get(key, 0) + factor * value
                    else:
                        factor = s * p_const
                        for key, value in c.coeffs.items():
                            slot[key] = slot.get(key, 0) + factor * value
                        if i_const:
                            slot[None] = slot.get(None, 0) + factor * i_const

    def poly(self):
        """The accumulated polynomial; words whose sum vanished drop out."""
        terms = {}
        for w, slot in self.words.items():
            const = slot.pop(None, 0)
            slot = {k: v for k, v in slot.items() if v}
            if slot or const:
                terms[Word(w)] = AffineForm(const, slot)
        self.words = {}
        return NCPoly(terms)


def reference_kernel(d, p):
    acc = ReferenceAccumulator()
    acc.add_derivation(d, p)
    return acc.poly()


def accumulator_symcon(system, ansatz, which, zeros):
    """The commutator condition as the word-tuple kernel builds it:
    D_tau(P_x) and -D_t(Q_x) summed into one accumulator."""
    dtau = ansatz.derivation(zeros)
    dtx, qx = ((system.image_u, dtau.image_u) if which == "u"
               else (system.image_v, dtau.image_v))
    acc = ReferenceAccumulator()
    acc.add_derivation(dtau, dtx)
    acc.add_derivation(system, qx, sign=-1)
    return acc.poly()


def keyed(ansatz, condition):
    """(word key, coefficient) list of a condition, in deglex order, over
    the unknowns of its slots."""
    return labelled(ansatz, condition.keyed_terms())


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
    words = reference_words(ansatz.degree)
    t = len(words)
    unknowns = ansatz.slot_unknowns()
    q1 = NCPoly({w: AffineForm.unknown(unknowns[i])
                 for i, w in enumerate(words)})
    q2 = NCPoly({w: AffineForm.unknown(unknowns[t + i])
                 for i, w in enumerate(words)})
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
    acc = ReferenceAccumulator()
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
    harvested = bytearray(ansatz.slot_count)
    selective_split(SortedCondition(slotted(ansatz, sorted_terms(
        reference_nc(ansatz, 3, empty)))), harvested)
    harvested = zeros_of(ansatz, harvested)
    assert len(harvested) > 0
    for zeros in (empty, harvested):
        dead = mask_of(ansatz, zeros)
        nc = formulate_nc(ansatz, dead)
        assert nc.residual == reference_nc(ansatz, 3, zeros)
        assert nc.residual == accumulator_nc(ansatz, zeros)
        for which in ("u", "v"):
            assert keyed(ansatz, formulate_symcon(system, ansatz, which,
                                                  dead)) \
                == sorted_terms(reference_symcon(system, ansatz, which,
                                                 zeros))
        dtau = ansatz.derivation(zeros)
        assert reference_kernel(dtau, NCPoly.from_word(COMMUTATOR_UV)) \
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
    harvested = bytearray(ansatz.slot_count)
    selective_split(SortedCondition(
        formulate_symcon(kontsevich_system(), ansatz, "u").keyed_terms()),
        harvested)
    assert any(harvested)
    for start in (bytearray(ansatz.slot_count), harvested):
        got_dead, want_dead = bytearray(start), bytearray(start)
        got = SortedCondition(NecessaryCondition(ansatz, start))
        want = SortedCondition(slotted(ansatz, sorted_terms(
            accumulator_nc(ansatz, zeros_of(ansatz, start)))))
        found = selective_split(got, got_dead)
        assert found == selective_split(want, want_dead) > 0
        assert got_dead == want_dead
        assert len(got.terms) == len(want.terms)
        assert list(got.terms) == want.terms


@pytest.mark.parametrize("degree", range(3, 9))
def test_held_incidence_matches_decoded_pairs_pass_by_pass(degree):
    # The fixpoint strategy run twice in lockstep: N held as the incidence,
    # as a staged run holds it, and N decoded into (word key, coefficient)
    # pairs up front.  Every pass finds as many zeros, the same ones, and
    # leaves the same words; then both give the same F system.
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    nc = NecessaryCondition(ansatz)
    side = [SortedCondition(list(nc.keyed_terms())), SortedCondition(nc)]
    zeros = [bytearray(ansatz.slot_count), bytearray(ansatz.slot_count)]
    commutator = []
    passes = []

    def harvest(conditions):
        found = [selective_split(c, z) for c, z in zip(conditions, zeros)]
        assert found[0] == found[1]
        assert zeros[0] == zeros[1]
        pairs, held = side
        assert len(held.terms) == len(pairs.terms)
        assert list(held.terms) == pairs.terms
        passes.append(found[0])
        return found[0]

    def step_s():
        if not commutator:
            commutator.extend(SortedCondition(
                formulate_symcon(system, ansatz, "u", z).keyed_terms())
                for z in zeros)
        return harvest(commutator)

    while harvest(side):
        pass
    while step_s():
        while harvest(side):
            pass
    assert len(passes) > 4 and sum(passes) > 0
    pairs, held = (
        complete_split([relabelled(terms, ids) for terms in (
            n.terms, s.terms,
            formulate_symcon(system, ansatz, "v", z).keyed_terms())],
            ids.values())
        for n, s, z in zip(side, commutator, zeros)
        for ids in [ansatz.live_unknowns(z)])
    assert held == pairs
    assert len(held) > 0


def reference_incidence(ansatz, dead):
    """The side condition's sorted ints built slot by slot: each live
    slot's two target words reduced letter by letter, one pair of entries
    appended per slot."""
    k0 = side_condition_k0(ansatz.degree)
    shift = (2 * ansatz.slot_count).bit_length()
    keys, i_word = ansatz.keys, COMMUTATOR_UV
    t = len(keys)
    entries = [word_key(word_pow(i_word, i - k0)) << shift
               | (2 * t + i) << 1 | 1 for i in range(2 * k0 + 1)]
    for g in (U, V):
        for s in range(g * t, g * t + t):
            if dead[s]:
                continue
            w = key_word(keys[s - g * t])
            plus = word_key(reduce_letters(i_word[:g] + w + i_word[g + 1:]))
            minus = word_key(reduce_letters(i_word[:g + 3] + w
                                            + i_word[g + 2:]))
            if plus != minus:
                entries += (plus << shift | s << 1,
                            minus << shift | s << 1 | 1)
    return sorted(entries)


@pytest.mark.parametrize("degree", range(3, 8))
def test_incidence_matches_per_slot_reference(degree):
    # from nothing, and from the zeros of an SNF run
    ansatz = build_ansatz(degree)
    state, _ = run_strategy(degree, "SNF")
    live = [u for u in ansatz.slot_unknowns()[:ansatz.unknown_count]
            if u not in state.zeros]
    assert 0 < len(live) < ansatz.unknown_count
    for zeros in (set(), state.zeros):
        dead = mask_of(ansatz, zeros)
        assert NecessaryCondition(ansatz, dead)._entries \
            == reference_incidence(ansatz, dead)


def random_affine_poly(rng, unknowns, with_const):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        coeffs = {rng.choice(unknowns): Fraction(rng.randint(-4, 4),
                                                 rng.randint(1, 3))}
        const = rng.randint(-3, 3) if with_const else 0
        terms[random_word(rng, 5)] = AffineForm(const, coeffs)
    return NCPoly(terms)


def test_kernel_matches_reference_on_random_polynomials():
    # The package's keyed kernel and both modes of the word-tuple one,
    # with constants next to unknowns and cancellation between
    # contributions; the package refuses unknowns in the images.
    rng = random.Random(201)
    unknowns = [UnknownId(KIND_C, i) for i in range(6)]
    dt = kontsevich_system()
    for _ in range(300):
        plain = random_poly(rng)
        affine = random_affine_poly(rng, unknowns, rng.random() < 0.5)
        assert apply_derivation(dt, plain) == reference_apply(dt, plain)
        assert apply_derivation(dt, affine) == reference_apply(dt, affine)
        assert reference_kernel(dt, affine) == reference_apply(dt, affine)
        d = Derivation(random_affine_poly(rng, unknowns, True),
                       random_affine_poly(rng, unknowns, False))
        assert reference_kernel(d, plain) == reference_apply(d, plain)
        with pytest.raises(NonlinearProductError):
            apply_derivation(d, plain)


def test_reduce_sandwich_is_free_reduction():
    rng = random.Random(202)
    for _ in range(2000):
        left, mid, right = (random_word(rng) for _ in range(3))
        assert reduce_sandwich(left, mid, right) \
            == reduce_letters(left + mid + right)


def test_live_derivation_equals_pruned_full_images():
    ansatz = build_ansatz(3)
    zeros = set(ansatz.slot_unknowns()[:ansatz.unknown_count:3])
    live = ansatz.derivation(zeros)
    full = ansatz.derivation()
    assert live.image_u == prune_ncpoly(full.image_u, zeros)
    assert live.image_v == prune_ncpoly(full.image_v, zeros)
    assert list(full.image_u.terms) == ansatz_words(ansatz)


def test_sorted_condition_keeps_pruned_remainder_in_order():
    c = range(5)  # slots
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
    dead = bytearray(5)
    dead[3] = 1
    # u registers slot 2 at once, so v u then prunes to the single slot 1
    assert selective_split(condition, dead) == 3
    assert dead == bytearray((0, 1, 1, 1, 1))
    # the constant left of u v stays for the final split to report
    assert condition.terms == [(word_key(Word((0, 1))),
                                AffineForm.constant(3))]
    assert selective_split(condition, dead) == 0
    split = complete_split([condition.terms], c)
    assert [(eq.id, eq.lhs) for eq in split.equations] \
        == [(0, AffineForm.constant(1))]


@pytest.mark.parametrize("degree", range(0, 8))
def test_key_enumeration_matches_word_tuples(degree):
    # the ansatz's keys are the word-tuple enumeration, keyed, and
    # enumerate_words decodes them back
    words = reference_words(degree)
    assert enumerate_keys(degree) == [word_key(w) for w in words]
    assert enumerate_words(degree) == words
    assert all(isinstance(w, Word) for w in enumerate_words(degree))
    if degree:
        assert build_ansatz(degree).keys == tuple(map(word_key, words))


@pytest.mark.parametrize("degree", range(1, 8))
def test_keyed_symcon_matches_accumulator(degree):
    # equal (word key, coefficient) lists for u and v: with no zeros,
    # after the first N harvest and with random zero subsets, one of them
    # dense enough to leave few words
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    harvested = bytearray(ansatz.slot_count)
    selective_split(SortedCondition(formulate_nc(ansatz).keyed_terms()),
                    harvested)
    rng = random.Random(degree)
    unknowns = ansatz.slot_unknowns()[:ansatz.unknown_count]
    zero_sets = [set(), zeros_of(ansatz, harvested),
                 {u for u in unknowns if rng.random() < 0.3},
                 {u for u in unknowns if rng.random() < 0.9}]
    for zeros in zero_sets:
        dead = mask_of(ansatz, zeros)
        for which in "uv":
            got = keyed(ansatz, formulate_symcon(system, ansatz, which,
                                                 dead))
            want = sorted_terms(accumulator_symcon(system, ansatz, which,
                                                   zeros))
            assert got == want, (which, len(zeros))
            assert got


@pytest.mark.parametrize("degree", range(3, 8))
def test_keyed_symcon_harvest_matches_accumulator(degree):
    # the S step's harvest, once from nothing and once after the N
    # fixpoint, registers the same zeros and keeps the same list
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    after_n = bytearray(ansatz.slot_count)
    nc = SortedCondition(formulate_nc(ansatz).keyed_terms())
    while selective_split(nc, after_n):
        pass
    for start in (bytearray(ansatz.slot_count), after_n):
        got_dead, want_dead = bytearray(start), bytearray(start)
        got = SortedCondition(
            formulate_symcon(system, ansatz, "u", start).keyed_terms())
        want = SortedCondition(slotted(ansatz, sorted_terms(
            accumulator_symcon(system, ansatz, "u",
                               zeros_of(ansatz, start)))))
        assert selective_split(got, got_dead) \
            == selective_split(want, want_dead) > 0
        assert got_dead == want_dead
        assert got.terms == want.terms


def test_keyed_symcon_rejects_another_generator():
    with pytest.raises(ValueError):
        formulate_symcon(kontsevich_system(), build_ansatz(1), "w")


@st.composite
def cancelling_sandwiches(draw):
    """(L, mid, R), reduced each, built to cancel: mid starts by undoing
    the end of L, and R by undoing the end of L mid, so that mid may be
    used up and the cancellation run on into L."""
    left = draw(reduced_words(8))
    k = draw(st.integers(0, len(left)))
    mid = reduce_letters(Word(left[len(left) - k:]).inverse()
                         + draw(reduced_words(3)))
    joined = reduce_letters(left + mid)
    j = draw(st.integers(0, len(joined)))
    right = reduce_letters(Word(joined[len(joined) - j:]).inverse()
                           + draw(reduced_words(4)))
    return left, mid, right


@derandomized
@given(cancelling_sandwiches())
def test_join_keys_is_free_reduction(sandwich):
    left, mid, right = sandwich
    bits = 2 * len(right)
    assert _join_keys(word_key(left), mid, word_key(right) - (1 << bits),
                      bits) == word_key(reduce_letters(left + mid + right))


def test_join_keys_cascades_through_a_cancelled_middle():
    # a v^-1 image term at a u after a v: mid cancels against L's v, and
    # the cancellation runs on between L and R; an empty mid lets L meet R
    for left, mid, right, want in (
            ((U, V), (V_INV,), (U_INV, V), (V,)),
            ((V, U, V), (V_INV, U_INV), (V_INV, U), (U,)),
            ((U,), (U_INV,), (), ()),
            ((), (), (V,), (V,)),
            ((U, V), (), (V_INV, U_INV), ())):
        bits = 2 * len(right)
        assert _join_keys(word_key(left), mid,
                          word_key(right) - (1 << bits), bits) \
            == word_key(want)
