"""The compact build of an :class:`Incidence`.

Packed entries arrive in chunks, are bucketed into key-ordered
``array('Q')`` buckets, and are walked in sorted order one bucket at a
time.  The chunk constant is patched down to a few entries here, so every
build crosses many chunk boundaries; the walk and the harvest must not
see them.
"""

from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve import symmetry
from selsolve.linsys import AffineForm
from selsolve.ncalgebra import derive_keys
from selsolve.pipeline import default_strategy, run_strategy
from selsolve.symmetry import (WIDEST_ENTRY_BITS, Incidence,
                               NecessaryCondition, _bucketed, _drained,
                               build_ansatz, enumerate_keys,
                               formulate_symcon, kontsevich_system,
                               selective_split, widest_entry_bits)

from test_acceptance import STEP_TRACES, assert_trace

derandomized = settings(derandomize=True, database=None, deadline=None,
                        max_examples=200)


def drained(incidence):
    """The order the first harvest walks the buckets in."""
    return list(chain.from_iterable(_drained(list(incidence._buckets))))


@st.composite
def packed_sums(draw):
    """(slot, {key: +-1}) per slot over a random slot count, with keys of
    mixed bit lengths up to the widest entry an incidence holds."""
    slot_count = draw(st.integers(1, 40))
    shift = (2 * slot_count).bit_length()
    widest = WIDEST_ENTRY_BITS - shift  # the bit length of the widest key
    keys = st.one_of(
        st.integers(1, 2 ** 6),  # a handful of buckets
        st.integers(2 ** 40, 2 ** 40 + 2 ** 20),  # one bucket
        st.integers(0, widest - 1).flatmap(
            lambda b: st.integers(1 << b, (2 << b) - 1)))  # many
    slots = draw(st.lists(st.integers(0, slot_count - 1), unique=True,
                          max_size=slot_count))
    return slot_count, [(s, draw(st.dictionaries(keys, st.sampled_from(
        (1, -1)), max_size=12))) for s in slots]


@derandomized
@given(packed_sums(), st.integers(1, 5))
def test_bucketed_walk_is_sorted_order(case, chunk):
    slot_count, sums = case
    shift = (2 * slot_count).bit_length()
    expected = sorted(k << shift | (c < 0) << shift - 1 | s
                      for s, by_key in sums for k, c in by_key.items())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetry, "_CHUNK", chunk)
        incidence = Incidence.pack(sums, slot_count)
    assert list(incidence.walk()) == expected
    assert drained(incidence) == expected
    # the walk keeps the buckets; a second one reads the same
    assert list(incidence.walk()) == expected
    assert len(incidence) == len({e >> shift for e in expected})
    assert all(e.bit_length() <= WIDEST_ENTRY_BITS for e in expected)


@derandomized
@given(st.lists(st.integers(0, 2 ** WIDEST_ENTRY_BITS - 1)),
       st.integers(1, 7))
def test_bucketed_chunks_of_any_ints_walk_sorted(ints, size):
    chunks = [ints[i:i + size] for i in range(0, len(ints), size)]
    buckets = _bucketed(chunks)
    assert [least for least, _ in buckets] == sorted(
        {least for least, _ in buckets})
    assert list(chain.from_iterable(_drained(buckets))) == sorted(ints)
    assert buckets == []  # each bucket is dropped once sorted


def test_bucket_shapes():
    assert _bucketed([]) == [] and _bucketed([[], []]) == []
    one = _bucketed([[2 ** 40 + 5, 2 ** 40 + 1], [2 ** 40 + 3]])
    assert [(least, list(items)) for least, items in one] == [
        (2 ** 40, [2 ** 40 + 1, 2 ** 40 + 5, 2 ** 40 + 3])]
    # every bit length is its own bucket, and so are distinct top bits
    many = _bucketed([[1 << b for b in range(60)] + [3 << 58]])
    assert len(many) == 61
    # an int wider than 64 bits is held less its bucket's bits above 64
    wide = (1 << 70) + 12345
    ((least, items),) = _bucketed([[wide]])
    assert least == 1 << 70 and list(items) == [12345]
    assert list(chain.from_iterable(_drained([(least, items)]))) == [wide]


def test_an_int_wider_than_an_incidence_holds_overflows():
    with pytest.raises(OverflowError):
        _bucketed([[(1 << WIDEST_ENTRY_BITS) | (1 << 64)]])


def test_pack_keeps_exact_sums_across_chunk_boundaries(monkeypatch):
    # non-unit sums on either side of every chunk boundary keep their
    # exact values through the build, a harvest and the decode
    monkeypatch.setattr(symmetry, "_CHUNK", 2)
    third, half = Fraction(1, 3), Fraction(-5, 2)
    sums = [(0, {7: third, 9: 1}), (1, {7: -1, 8: half, 9: 2}),
            (2, {8: 1, 9: 0}), (3, {10: Fraction(7, 4)}), (4, {8: -3})]
    condition = Incidence.pack(sums, 5)
    shift = condition._shift
    sign = 1 << shift - 1
    assert condition._exact == {
        7 << shift | 0: third, 8 << shift | sign | 1: half,
        9 << shift | 1: 2, 10 << shift | 3: Fraction(7, 4),
        8 << shift | sign | 4: -3}
    assert list(condition.keyed_terms()) == [
        (7, AffineForm(0, {0: third, 1: -1})),
        (8, AffineForm(0, {1: half, 2: 1, 4: -3})),
        (9, AffineForm(0, {0: 1, 1: 2})),
        (10, AffineForm(0, {3: Fraction(7, 4)}))]
    dead = bytearray(5)
    assert selective_split(condition, dead) == 1  # key 10 marks slot 3
    assert list(condition.keyed_terms()) == [
        (7, AffineForm(0, {0: third, 1: -1})),
        (8, AffineForm(0, {1: half, 2: 1, 4: -3})),
        (9, AffineForm(0, {0: 1, 1: 2}))]


@pytest.mark.parametrize("degree", range(3, 8))
def test_staged_run_on_tiny_chunks_reproduces_step_traces(degree,
                                                          monkeypatch):
    monkeypatch.setattr(symmetry, "_CHUNK", 5)
    _, report = run_strategy(degree, default_strategy(degree))
    assert_trace(report, STEP_TRACES[degree])


@pytest.mark.parametrize("degree", range(3, 8))
def test_widest_entry_bits_is_the_widest_formulated(degree):
    # the side condition's widest entry is every formulation's widest
    # over the symmetry ansatz; D_t's over one image for first integrals
    ansatz = build_ansatz(degree)
    system = kontsevich_system()
    widest = widest_entry_bits(degree)
    assert max(NecessaryCondition(ansatz).walk()).bit_length() == widest
    for x in "uv":
        assert max(formulate_symcon(system, ansatz, x).walk()).bit_length() \
            < widest
    keys = enumerate_keys(degree)
    integrals = Incidence.pack(enumerate(derive_keys(system, keys)),
                               len(keys))
    assert max(integrals.walk()).bit_length() \
        == widest_entry_bits(degree, 1)
