from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve.ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, Word,
                                key_word, reduce_letters, word_key, word_mul,
                                word_pow)
from selsolve.symmetry import COMMUTATOR_UV, enumerate_keys, sandwich_keys

keyed = settings(derandomize=True, database=None, deadline=None,
                 max_examples=200)


def enumerate_words(max_degree):
    """All reduced words of degree <= max_degree, in deglex order."""
    return [key_word(k) for k in enumerate_keys(max_degree)]


def sorted_terms(p):
    """(word key, coefficient) per word of ``p``, in increasing key order,
    which is deglex order."""
    return sorted([(word_key(w), c) for w, c in p.terms.items()],
                  key=itemgetter(0))


@st.composite
def reduced_words(draw, max_size=12):
    letters = []
    for _ in range(draw(st.integers(0, max_size))):
        draw_from = [g for g in (U, V, U_INV, V_INV)
                     if not letters or g != letters[-1] ^ 2]
        letters.append(draw(st.sampled_from(draw_from)))
    return Word(letters)


def side_sandwich(i):
    """(L, R) around letter i of I: I[:i], I[i+1:] at u or v, and the
    widened I[:i+1], I[i:] at an inverse letter."""
    if COMMUTATOR_UV[i] & 2:
        return COMMUTATOR_UV[:i + 1], COMMUTATOR_UV[i:]
    return COMMUTATOR_UV[:i], COMMUTATOR_UV[i + 1:]


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word((U, U_INV))
    with pytest.raises(ValueError):
        Word((V, V_INV, U))
    with pytest.raises(ValueError):
        Word((7,))


def test_empty_word_is_identity():
    w = Word((U, V, U_INV))
    assert word_mul(EMPTY_WORD, w) == w
    assert word_mul(w, EMPTY_WORD) == w
    assert EMPTY_WORD.degree == 0
    assert str(EMPTY_WORD) == "1"


def test_single_cancellation():
    assert word_mul(Word((U, V)), Word((V_INV, U))) == Word((U, U))


def test_full_cancellation():
    assert word_mul(Word((U,)), Word((U_INV,))) == EMPTY_WORD


def test_cascading_cancellation():
    assert word_mul(Word((U, V, U_INV)), Word((U, V_INV))) == Word((U,))


def test_inverse_word():
    w = Word((U, V, U_INV, V_INV))
    assert w.inverse() == Word((V, U, V_INV, U_INV))
    assert word_mul(w, w.inverse()) == EMPTY_WORD
    assert word_mul(w.inverse(), w) == EMPTY_WORD


def test_word_pow():
    w = Word((U, V, U_INV, V_INV))
    assert word_pow(w, 0) == EMPTY_WORD
    assert word_pow(w, 1) == w
    assert word_pow(w, 2) == Word((U, V, U_INV, V_INV, U, V, U_INV, V_INV))
    assert word_pow(w, -1) == w.inverse()
    assert word_pow(w, -2) == word_pow(w.inverse(), 2)


def test_reduce_letters():
    assert reduce_letters([U, U_INV]) == EMPTY_WORD
    assert reduce_letters([U, V, V_INV, U_INV, V]) == Word((V,))
    assert reduce_letters([]) == EMPTY_WORD


def test_degree_bound():
    a = Word((U, V))
    b = Word((V_INV, U))
    prod = word_mul(a, b)
    assert prod.degree <= a.degree + b.degree
    # equality exactly when no cancellation at the junction
    c = Word((V, U))
    assert word_mul(a, c).degree == a.degree + c.degree


def test_word_str():
    for letters, text in (((), "1"), ((U,), "u"),
                          ((U, V, U_INV, V_INV), "u v u^-1 v^-1"),
                          ((V_INV, U_INV), "v^-1 u^-1")):
        assert str(Word(letters)) == text


def test_operator_mul():
    assert Word((U,)) * Word((U_INV,)) == EMPTY_WORD


@keyed
@given(st.lists(reduced_words(), max_size=30))
def test_word_key_order_is_deglex_order(words):
    assert sorted(words, key=word_key) \
        == sorted(words, key=lambda w: (len(w), tuple(w)))


@keyed
@given(reduced_words())
def test_key_word_decodes_word_key(w):
    assert key_word(word_key(w)) == w
    assert isinstance(key_word(word_key(w)), Word)


@keyed
@given(reduced_words(), st.integers(0, 3))
def test_sandwich_key_is_free_reduction(w, i):
    left, right = side_sandwich(i)
    assert sandwich_keys(left, right, [word_key(w)]) \
        == [word_key(reduce_letters(left + w + right))]


@st.composite
def sandwich_runs(draw):
    """(L, R, words): L and R of 0-4 letters each, and words of mixed
    lengths, unsorted and with repeats, some built to undo the end of L
    or the start of R or both, so that L w R may cancel to the empty
    word."""
    left, right = draw(reduced_words(4)), draw(reduced_words(4))
    undoing = st.builds(
        lambda mid, a, b: reduce_letters((left.inverse() if a else ()) + mid
                                         + (right.inverse() if b else ())),
        reduced_words(3), st.booleans(), st.booleans())
    words = draw(st.lists(st.one_of(reduced_words(10), undoing),
                          max_size=40))
    words += words[:draw(st.integers(0, len(words)))]
    return left, right, draw(st.permutations(words))


@keyed
@given(sandwich_runs())
def test_sandwich_keys_on_runs_of_mixed_lengths(case):
    left, right, words = case
    assert sandwich_keys(left, right, iter(map(word_key, words))) \
        == [word_key(reduce_letters(left + w + right)) for w in words]


def test_sandwich_keys_cancel_to_the_empty_word():
    left, right = Word((U, V)), Word((V, U_INV, V_INV))
    whole = reduce_letters(left.inverse() + right.inverse())
    short = Word((U,))
    keys = [word_key(w) for w in (whole, short, whole, EMPTY_WORD)]
    assert sandwich_keys(left, right, iter(keys)) \
        == [1, word_key(reduce_letters(left + short + right)), 1,
            word_key(left + right)]


def test_sandwich_keys_on_every_short_word():
    # every word up to length 6: each shorter than L and R together, where
    # they may meet, and the first ones that go through the tables
    words = enumerate_words(6)
    for i in range(4):
        left, right = side_sandwich(i)
        assert sandwich_keys(left, right, map(word_key, words)) \
            == [word_key(reduce_letters(left + w + right)) for w in words]
