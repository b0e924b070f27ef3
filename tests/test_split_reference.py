"""The complete split against the pair-based split it replaced.

``complete_split`` walks each incidence's ints straight into packed rows.
The split the package ran before decoded every word into a (word key,
``AffineForm``) pair first (``Incidence.keyed_terms``) and put each
coefficient through ``canonical_row``; it is kept here in full as
:func:`reference_complete_split`.  The two must give the same system,
array for array: ids, constants, row starts, columns, values and
universe.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selsolve import symmetry
from selsolve.linsys import LinearSystem, canonical_row
from selsolve.symmetry import (Incidence, build_ansatz, complete_split,
                               formulate_nc, formulate_symcon,
                               kontsevich_system)

from test_oracle_reference import derandomized


def reference_complete_split(conditions, universe):
    """Split (word key, coefficient) pairs, condition by condition, one
    canonical row per word whose coefficient does not vanish; ids run
    0.. across the conditions."""
    system = LinearSystem.over(tuple(sorted(set(universe))))
    column = {u: c for c, u in enumerate(system.universe)}.__getitem__
    coeffs = (coeff for terms in conditions for _, coeff in terms
              if not coeff.is_zero)
    for k, coeff in enumerate(coeffs):
        system.append(k, *canonical_row(coeff.const,
                                        list(map(column, coeff.coeffs)),
                                        list(coeff.coeffs.values())))
    return system


def arrays(system):
    """Everything a system holds, its arrays as tuples, value types kept."""
    return (tuple(system.ids), system.consts, tuple(system.starts),
            tuple(system.cols), [(type(r), r) for r in system.values],
            system.universe)


def split_both(conditions, slot_count, dead=None):
    """The split and its reference over the same conditions.

    The mask goes to the split as it is: the live slots are numbered in
    order, as F does, or every slot is its own column when ``dead`` is
    None; the reference labels each live slot by that column, over the
    columns.
    """
    labels = list(range(slot_count))
    if dead is not None:
        live = [s for s in range(slot_count) if not dead[s]]
        labels = [None] * slot_count
        for c, s in enumerate(live):
            labels[s] = c
    universe = range(len([c for c in labels if c is not None]))
    got = complete_split(conditions, universe, dead)
    want = reference_complete_split(
        [c.keyed_terms(labels) for c in conditions], universe)
    return got, want


def random_dead(rng, slot_count, share):
    return bytearray(rng.random() < share for _ in range(slot_count))


@pytest.mark.parametrize("degree", range(3, 8))
def test_split_matches_reference_on_the_symmetry_conditions(degree):
    # N, S_u and S_v over every slot, then over the live slots of a
    # random dead mask that kills whole words among others
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    rng = random.Random(degree)
    for dead in (None, random_dead(rng, ansatz.slot_count, 0.3)):
        conditions = [formulate_nc(ansatz, dead)] + [
            formulate_symcon(system, ansatz, x, dead) for x in "uv"]
        got, want = split_both(conditions, ansatz.slot_count, dead)
        assert arrays(got) == arrays(want)
        assert len(got) > 0


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_split_matches_reference_in_small_chunks(chunk, monkeypatch):
    # words cut across the split's chunks are held back whole
    monkeypatch.setattr(symmetry, "_SPLIT_CHUNK", chunk)
    system = kontsevich_system()
    ansatz = build_ansatz(3)
    rng = random.Random(chunk)
    for dead in (None, random_dead(rng, ansatz.slot_count, 0.5)):
        conditions = [formulate_nc(ansatz, dead),
                      formulate_symcon(system, ansatz, "u", dead)]
        got, want = split_both(conditions, ansatz.slot_count, dead)
        assert arrays(got) == arrays(want)


COEFFICIENTS = st.sampled_from([1, -1, 1, -1, 2, -2, 3, -6, Fraction(1, 3),
                                Fraction(-2, 5), Fraction(7, 2)])


@st.composite
def incidences(draw):
    """Per-slot sums over a few word keys, packed; a slot sums once."""
    slot_count = draw(st.integers(1, 7))
    keys = st.integers(1, 80)
    sums = draw(st.dictionaries(
        st.integers(0, slot_count - 1),
        st.dictionaries(keys, COEFFICIENTS, max_size=5), max_size=slot_count))
    return slot_count, sorted(sums.items())


@derandomized
@given(st.lists(incidences(), min_size=1, max_size=3), st.data())
def test_split_matches_reference_on_random_incidences(conditions, data):
    # exact coefficients that are not +-1 and Fractions go through
    # canonical_row; dead slots drop out, and a word left with none makes
    # no row, with no mask, a random one and one with every slot dead
    slot_count = max(n for n, _ in conditions)
    packed = [Incidence.pack(sums, slot_count) for _, sums in conditions]
    dead = bytearray(data.draw(st.lists(st.booleans(), min_size=slot_count,
                                        max_size=slot_count)))
    chunk = data.draw(st.integers(1, 9))
    with mock.patch.object(symmetry, "_SPLIT_CHUNK", chunk):
        for mask in (None, dead, bytearray([1]) * slot_count):
            got, want = split_both(packed, slot_count, mask)
            assert arrays(got) == arrays(want)


def test_negative_first_entry_flips_the_row():
    # the lowest column fixes the sign: -c0 + c1 = 0 is c0 - c1 = 0,
    # c0 - 1/2 c3 = 0 is 2 c0 - c3 = 0, and -2 c1 - 4 c2 = 0 is
    # c1 + 2 c2 = 0
    condition = Incidence.pack([(0, {5: -1, 6: 1}), (1, {5: 1, 7: -2}),
                                (2, {7: -4}), (3, {6: Fraction(-1, 2)})], 4)
    got, want = split_both([condition], 4)
    assert arrays(got) == arrays(want)
    assert [eq.lhs.coeffs for eq in got.equations] == [
        {0: 1, 1: -1}, {0: 2, 3: -1}, {1: 1, 2: 2}]


def test_empty_and_dead_words_make_no_rows():
    # an empty incidence makes no row; a word whose every slot is dead
    # makes none and takes no id, so the ids run on over the others
    empty = Incidence.pack([], 3)
    words = Incidence.pack([(0, {1: 1, 2: -1}), (1, {2: 1, 3: 1}),
                            (2, {3: 1})], 3)
    dead = bytearray((1, 0, 0))
    got, want = split_both([empty, words, empty, words], 3, dead)
    assert arrays(got) == arrays(want)
    assert [eq.id for eq in got.equations] == [0, 1, 2, 3]
    assert [eq.lhs.coeffs for eq in got.equations] == [
        {0: 1}, {0: 1, 1: 1}, {0: 1}, {0: 1, 1: 1}]
    assert len(complete_split([empty], range(3))) == 0
    all_dead = complete_split([words], (), bytearray((1, 1, 1)))
    assert (len(all_dead), all_dead.universe) == (0, ())


@pytest.mark.parametrize("dead", [None, bytearray((0, 1, 0, 0, 0, 0))],
                         ids=["every slot", "slot 1 dead"])
@pytest.mark.parametrize("coefficient", [1, Fraction(3, 2)],
                         ids=["unit", "exact"])
def test_split_puts_each_word_back_in_slot_order(dead, coefficient):
    # an entry's sign bit sits above its slot, so within a word a -1 on a
    # low slot walks after a +1 on a higher one; the split puts each word
    # back in slot order, so its columns ascend, with rows of +-1 and with
    # an exact coefficient among them
    condition = Incidence.pack([
        (0, {5: -1, 6: -1, 7: 1}), (1, {5: -1, 6: 1}),
        (2, {5: 1, 6: -1, 7: 1}), (3, {5: coefficient, 7: -1}),
        (4, {6: 1}), (5, {5: 1, 6: -1, 7: -1})], 6)
    shift = condition._shift
    word_5 = [e & (1 << shift - 1) - 1 for e in condition.walk()
              if e >> shift == 5]
    assert word_5 == [2, 3, 5, 0, 1]  # its +1s, then its -1s
    got, want = split_both([condition], 6, dead)
    assert arrays(got) == arrays(want)  # canonical_row of decoded terms
    assert len(got) == 3
    for a, b in zip(got.starts, got.starts[1:]):
        cols = list(got.cols[a:b])
        assert cols == sorted(cols)
