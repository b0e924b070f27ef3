"""Symmetry computation for the non-abelian Laurent ODE
u_t = uv - uv^-1 - v^-1,  v_t = -vu + vu^-1 + u^-1.

A degree-n flow ansatz u_tau = Q1, v_tau = Q2 carries one fresh unknown per
reduced word of degree <= n.  Requiring the flow to commute with the system
([D_t, D_tau] u = [D_t, D_tau] v = 0), plus the cheaper first-order side
condition D_tau(I) = sum(a_k I^k) for the known first integral
I = u v u^-1 v^-1, yields large sparse linear selection systems for those
unknowns.  This module formulates the conditions, splits them into
equations, and harvests vanishing unknowns straight from a condition
without materializing its system (selective splitting).

Words are packed ints (:func:`word_key`) and unknowns are slots
throughout formulation.  The ansatz stores only its word keys, in an
``array('Q')``; slot i of the 2t ansatz slots is the unknown c_i, and
slot 2t + j is the side condition's auxiliary a_j.  The unknowns known
to vanish are a ``bytearray`` mask over the slots, 1 per dead slot, and
each condition is formulated over the live slots and labels them by
slot.  Every condition is an :class:`Incidence` of packed ints
``key << shift | slot << 1 | sign``, one per nonzero coefficient, whose
order is deglex order; a coefficient that is not +-1 keeps its exact
value in a side table.  The entries are made in chunks and live as
key-ordered ``array('Q')`` buckets until the first harvest; a walk sorts
one bucket at a time, so no list of every entry exists as Python ints.
Both kinds of condition take D_tau(P) from one rule over one walk of
the live slots (:func:`_dtau_targets`).  The side condition
(:class:`NecessaryCondition`) packs two entries per live slot directly,
half a chunk of slots at a time.  A commutator condition sums per source
word: each live slot's dict of sums is seeded with its D_tau(D_t x)
targets, the Leibniz kernel adds -D_t(Q_x) into it, and its nonzero sums
are packed before the next slot's dict is made, so no table over every
word is held and no word is decoded.  A staged run holds each condition
as its incidence; every harvest is one pass over the ints in key order
that prunes, marks the slot of each 1-term word dead and keeps the
surviving ints, as a list, for the next pass.  A condition is decoded
into (word key, coefficient) pairs once, when it is split, over its
slots or their labels, dead slots dropped; :func:`complete_split` is
the one path from such pairs to a numbered :class:`LinearSystem`, which
is solved over slots until a solution is given out in unknowns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, compress, groupby, islice
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import TooLargeError
from .linsys import (FORMULATE_MAX_UNKNOWNS, KIND_A, KIND_C, AffineForm,
                     Equation, LinearSystem, Rational, UnknownId,
                     canonicalize, unknown_limit)
from .ncalgebra import (U, U_INV, V, V_INV, Derivation, NCPoly, Word,
                        derive_keys, key_word, reduce_letters, word_key,
                        word_pow)
from .solver import lsss_solve, prune_zeros

#: Group commutator u v u^-1 v^-1 and its inverse: the generating first
#: integrals of the default system.
COMMUTATOR_UV = Word((U, V, U_INV, V_INV))
COMMUTATOR_VU = Word((V, U, V_INV, U_INV))

DEFAULT_K0 = 3

#: Reference rows (k, e1, t1, e2, t2, p) of :func:`system_stats` for
#: degrees 3..8.
EXPECTED_STATS = {
    3: (106, 142, 192, 448, 1034, 1),
    4: (322, 430, 616, 1412, 3706, 2),
    5: (970, 1294, 1904, 4448, 12914, 4),
    6: (2914, 3886, 5784, 13878, 44098, 5),
    7: (8746, 11662, 17440, 43052, 148346, 7),
    8: (26242, 34990, 52424, 132954, 493162, 8),
}


def side_condition_k0(degree: int) -> int:
    """Smallest k0 for which I^-k0 .. I^k0 cover D_tau(I) at this degree.

    D_tau(I) reaches word degree n + 5 and I^k has degree 4|k|, so the span
    needs k0 >= (n + 5) // 4; never below :data:`DEFAULT_K0`.
    """
    return max(DEFAULT_K0, (degree + 5) // 4)


def kontsevich_system() -> Derivation:
    """The system flow D_t, with unknown-free Laurent polynomial images."""
    p1 = NCPoly({Word((U, V)): 1, Word((U, V_INV)): -1, Word((V_INV,)): -1})
    p2 = NCPoly({Word((V, U)): -1, Word((V, U_INV)): 1, Word((U_INV,)): 1})
    return Derivation(p1, p2, name="Dt")


def enumerate_keys(max_degree: int) -> list[int]:
    """:func:`word_key` of every reduced word of degree <= max_degree, in
    increasing order, which is deglex order.

    Counts satisfy t(n) = 3 t(n-1) + 2 with t(0) = 1: every shorter word
    extends by the three letters that do not cancel its last one, and the
    empty word (key 1) by all four.
    """
    return list(chain.from_iterable(_key_levels(max_degree)))


def _key_levels(max_degree: int) -> Iterator[list[int]]:
    """The keys of :func:`enumerate_keys`, one word length at a time."""
    level = [1]
    yield level
    for _ in range(max_degree):
        level = [k << 2 | g for k in level for g in range(4)
                 if g != (k & 3) ^ 2 or k == 1]
        yield level


def ansatz_term_count(degree: int) -> int:
    """Closed form of the t(n) = 3 t(n-1) + 2 recursion."""
    return 2 * 3 ** degree - 1


#: ``mask.translate(FLIP)`` turns a dead mask into a live one.
FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@dataclass
class SymmetryAnsatz:
    """Most general degree-n flow with one fresh unknown per term.

    Only word keys are stored, in deglex order, in an ``array('Q')``
    from :func:`build_ansatz` (any sequence of keys will do).  Slot i is
    the coefficient of the word with key ``keys[i]`` in Q1 = u_tau and
    slot t + i its coefficient in Q2 = v_tau, where t = len(keys); the
    side condition's auxiliaries follow in slots 2t ..
    :attr:`slot_count` - 1.  The conditions read the keys and label by
    slot; the unknowns are made only where one is needed, all through
    :meth:`slot_unknowns`, and :meth:`derivation` decodes the live words
    into Q1 and Q2.
    """

    degree: int
    keys: Sequence[int]

    @property
    def unknown_count(self) -> int:
        return 2 * len(self.keys)

    @property
    def slot_count(self) -> int:
        """Ansatz slots plus the 2 k0 + 1 auxiliaries of the side condition."""
        return self.unknown_count + 2 * side_condition_k0(self.degree) + 1

    def slot_unknowns(self) -> tuple[UnknownId, ...]:
        """The unknown of every slot, in slot order, which is id order:
        c_i for slot i < 2t, a_j for slot 2t + j."""
        c = self.unknown_count
        return (UnknownId.span(KIND_C, c)
                + UnknownId.span(KIND_A, self.slot_count - c))

    def derivation(self, zeros: Collection[UnknownId] = ()) -> Derivation:
        """D_tau over the unknowns that are not in ``zeros``."""
        t = len(self.keys)
        unknowns = self.slot_unknowns()
        q1, q2 = (NCPoly._raw({
            key_word(k): AffineForm._raw(0, {uid: 1})
            for k, uid in zip(self.keys, unknowns[start:start + t])
            if uid not in zeros}) for start in (0, t))
        return Derivation(q1, q2, name="Dtau")


def build_ansatz(degree: int) -> SymmetryAnsatz:
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    keys = array("Q")
    for level in _key_levels(degree):
        keys.fromlist(level)
    return SymmetryAnsatz(degree, keys)


def prune_ncpoly(p: NCPoly, zeros: set[UnknownId]) -> NCPoly:
    """Prune every coefficient; words whose coefficient vanishes drop out."""
    if not zeros:
        return p
    acc = {}
    for w, c in p.terms.items():
        pruned = prune_zeros(c, zeros)
        if not pruned.is_zero:
            acc[w] = pruned
    return NCPoly._from_acc(acc)


def sandwich(left: tuple, right: tuple) -> Callable[[Iterable[int]],
                                                     list[int]]:
    """The map from reduced word keys to the :func:`word_key` of
    reduce(left w right) per key w, its tables built once for every batch
    of keys it is given.

    Only the first len(left) and last len(right) letters of w can cancel,
    so a w as long as both takes one table lookup per end; a shorter one,
    where left may meet right, is reduced letter by letter.  The keys are
    taken in runs of one length, which share every shift, and each run is
    one comprehension.
    """
    nl, nr = len(left), len(right)
    # the head of w, its first nl letters, has a key h in [4^nl, 2 * 4^nl),
    # and reduce(left head) changes it by moves[h]; h indexes moves as it
    # is, so the first 4^nl entries are never read
    moves = [0] * 4 ** nl + [word_key(reduce_letters(left + key_word(h))) - h
                             for h in range(4 ** nl, 2 * 4 ** nl)]
    # the tail of w, its last nr letters, reduces against right to a key
    # of s letter bits; a key k followed by it is (k << s) + offset
    tails = [word_key(reduce_letters(key_word(4 ** nr + t) + right))
             for t in range(4 ** nr)]
    shifts = [t.bit_length() - 1 for t in tails]
    offsets = [t - (1 << s) for t, s in zip(tails, shifts)]
    tail_mask, drop = 4 ** nr - 1, 2 * nr

    def apply(keys: Iterable[int]) -> list[int]:
        out: list[int] = []
        for bits, run in groupby(keys, int.bit_length):
            m = bits >> 1
            if m < nl + nr:
                out += [word_key(reduce_letters(left + key_word(k) + right))
                        for k in run]
                continue
            # k >> drop is the key of w without its tail; k >> at, its head's
            mid, at = 2 * (m - nl - nr), 2 * (m - nl)
            placed = [move << mid for move in moves]
            out += [((k >> drop) + placed[k >> at] << shifts[k & tail_mask])
                    + offsets[k & tail_mask] for k in run]
        return out
    return apply


def _dtau_targets(p: NCPoly, ansatz: SymmetryAnsatz, dead: bytes | None,
                  size: int | None = None) -> Iterator[tuple]:
    """D_tau(P) over the live slots: the one D_tau rule, and the one walk
    of the live slots, every slot live when ``dead`` is None.

    D_tau(c L g R) = c L Q_g R, so each letter of P's terms is one
    (:func:`sandwich` map, coefficient) column of its generator g.  At
    g^-1, d(g^-1) = -g^-1 d(g) g^-1 widens the sandwich by the letter on
    both sides and flips the sign.  Yields per chunk of up to ``size``
    live slots of g, all of them by default: (g, their word keys, the
    slots, (target keys, coefficient) per column of g).
    """
    columns: tuple[list, list] = ([], [])
    for word, coeff in p.terms.items():
        for i, g in enumerate(word):
            if g & 2:
                left, right, c = word[:i + 1], word[i:], -coeff.const
            else:
                left, right, c = word[:i], word[i + 1:], coeff.const
            columns[g & 1].append((sandwich(left, right), c))
    t = len(ansatz.keys)
    for g in (U, V):
        keys, slots = iter(ansatz.keys), iter(range(g * t, g * t + t))
        if dead is not None:
            live = dead[g * t:g * t + t].translate(FLIP)
            keys, slots = compress(keys, live), compress(slots, live)
        while chunk := list(islice(keys, size)):
            yield (g, chunk, list(islice(slots, len(chunk))),
                   [(apply(chunk), c) for apply, c in columns[g]])


#: The sign bit of an entry whose coefficient is +-1.
_UNIT_SIGN = {1: 0, -1: 1}

#: Packed entries reach an :class:`Incidence` in chunks of about this
#: many ints; N's chunks hold half as many live slots.
_CHUNK = 1 << 12
#: A bucket holds the entries of one bit length that agree in this many
#: top bits, its leading 1 included.
_TOP_BITS = 7
#: An ``array('Q')`` item holds the 64 low bits of an entry; the bits
#: above them lie in its bucket's top bits, so no entry may be wider.
WIDEST_ENTRY_BITS = 64 + _TOP_BITS


def _bucketed(chunks: Iterable[list[int]]) -> list[tuple[int, array]]:
    """Packed ints into buckets, as (least int of the bucket, its ints)
    per bucket in increasing order.

    A bucket holds the ints of one bit length that agree in their top
    :data:`_TOP_BITS` bits, in an ``array('Q')`` in arrival order.  Each
    chunk is sorted once and cut at the bucket bounds by bisection, so no
    int is handled alone in Python.  An int wider than 64 bits is held
    less the bits from 64 up of its bucket's least int, which it shares
    up to :data:`WIDEST_ENTRY_BITS` bits; a wider one overflows the
    array.
    """
    buckets: dict[int, array] = {}
    for chunk in chunks:
        chunk.sort()
        i, end = 0, len(chunk)
        while i < end:
            low = max(chunk[i].bit_length() - _TOP_BITS, 0)
            least = chunk[i] >> low << low
            j = bisect_left(chunk, least + (1 << low), i)
            high = least >> 64 << 64
            part = [e - high for e in chunk[i:j]] if high else chunk[i:j]
            if least in buckets:
                buckets[least].fromlist(part)
            else:
                buckets[least] = array("Q", part)
            i = j
    return sorted(buckets.items())


def _sorted_bucket(bucket: tuple[int, array]) -> list[int]:
    """A bucket's ints as a sorted list, their bits above 64 restored."""
    least, items = bucket
    high = least >> 64 << 64
    ordered = sorted(items)
    return [high + e for e in ordered] if high else ordered


def _drained(buckets: list[tuple[int, array]]) -> Iterator[list[int]]:
    """Each bucket sorted, in order, and dropped from ``buckets`` as it
    is."""
    buckets.reverse()
    while buckets:
        yield _sorted_bucket(buckets.pop())


class Incidence:
    """A condition as a sorted sparse incidence of words and slots.

    An entry is one int, ``key << shift | slot << 1 | sign``: the word's
    :func:`word_key` above the slot whose coefficient it carries, and 1 in
    the sign bit for a negative one.  In int order the words run deglex,
    and within a word every slot occurs at most once.  A coefficient
    that is not +-1 keeps its exact value in a side table keyed by the
    entry, read only when decoding; the conditions of the default system
    have none.

    The entries arrive in chunks and are held in key-ordered
    ``array('Q')`` buckets (:func:`_bucketed`) until the first
    :meth:`harvest`, which sorts and drops one bucket at a time, so no
    list of every entry exists as Python ints; it keeps the live entries
    of the words that survive as a list, and later passes walk that.
    The condition stays these ints until it is split: :meth:`keyed_terms`
    decodes what is left, and ``len`` is the number of words left.
    """

    __slots__ = ("_buckets", "_entries", "_shift", "_exact", "_words")

    def __init__(self, chunks: Iterable[list[int]], shift: int,
                 exact: dict[int, Rational] | None = None):
        self._buckets: list | None = _bucketed(chunks)
        self._entries: list[int] = []
        self._shift = shift
        self._exact = exact if exact is not None else {}
        self._words: int | None = None

    @classmethod
    def pack(cls, sums: Iterable[tuple[int, Mapping[int, Rational]]],
             slot_count: int) -> "Incidence":
        """The incidence of per-slot sums: (slot, map from word key to
        coefficient) per slot; a sum of 0 drops out.  The sums are packed
        as they arrive and spilled into the buckets chunk by chunk."""
        shift = (2 * slot_count).bit_length()
        exact: dict[int, Rational] = {}

        def chunks() -> Iterator[list[int]]:
            entries: list[int] = []
            for slot, by_key in sums:
                base = slot << 1
                try:
                    entries += [k << shift | base | _UNIT_SIGN[c]
                                for k, c in by_key.items() if c]
                except KeyError:  # a sum that is not +-1 is kept exactly
                    for k, c in by_key.items():
                        if c:
                            e = k << shift | base | (c < 0)
                            entries.append(e)
                            if c != 1 and c != -1:
                                exact[e] = c
                if len(entries) >= _CHUNK:
                    yield entries
                    entries = []
            yield entries
        return cls(chunks(), shift, exact)

    def walk(self) -> Iterable[int]:
        """The entries left, in key order; buckets not yet harvested are
        sorted one at a time as they are reached, and kept."""
        if self._buckets is None:
            return self._entries
        return chain.from_iterable(map(_sorted_bucket, self._buckets))

    def __len__(self) -> int:
        if self._words is None:
            shift = self._shift
            self._words = len({e >> shift for e in self.walk()})
        return self._words

    def keyed_terms(self, labels: Sequence | None = None
                    ) -> Iterator[tuple[int, AffineForm]]:
        """(word key, coefficient) per word left, in deglex order, over
        slots or over ``labels``, the label of each slot.  A slot labelled
        None is dead and drops out, and so does a word left with none."""
        shift, exact = self._shift, self._exact
        low = (1 << shift) - 1
        if labels is None:
            labels = range(1 << shift - 1)
        unit = (1, -1)
        word, coeffs = 0, {}  # 0 is no word's key
        for e in self.walk():
            key = e >> shift
            if key != word:
                coeffs.pop(None, None)
                if coeffs:
                    yield word, AffineForm._raw(0, coeffs)
                word, coeffs = key, {}
            coeffs[labels[(e & low) >> 1]] = exact.get(e) or unit[e & 1]
        coeffs.pop(None, None)
        if coeffs:
            yield word, AffineForm._raw(0, coeffs)

    @property
    def terms(self) -> "DecodedTerms":
        """Word key to coefficient over slots, a view for tests and
        tracing."""
        return DecodedTerms(self)

    def harvest(self, dead: bytearray) -> int:
        """One :func:`selective_split` pass over the ints, in key order.

        An entry whose slot is dead drops out as it is reached; a word
        left with one entry marks its slot dead, one left with more keeps
        them.  Every coefficient is nonzero on distinct slots, so a word
        vanishes only by pruning.  Returns the number of slots marked.
        """
        shift = self._shift
        low = (1 << shift) - 1
        entries, buckets, self._buckets = self._entries, self._buckets, None
        if buckets is not None:
            entries = chain.from_iterable(_drained(buckets))
        kept, run, word, found, words = [], [], 0, 0, 0
        # a word is settled when the next begins; 0 is no word's key
        for e in chain(entries, (0,)):
            key = e >> shift
            if key != word:
                if len(run) == 1:
                    dead[(run[0] & low) >> 1] = 1
                    found += 1
                elif run:
                    kept += run
                    words += 1
                run, word = [], key
            if not dead[(e & low) >> 1]:
                run.append(e)
        self._entries, self._words = kept, words
        return found


class DecodedTerms(Mapping):
    """The words left in an :class:`Incidence`, word key to coefficient
    over slots, decoded each time they are read; ``len`` decodes
    nothing."""

    __slots__ = ("_incidence",)

    def __init__(self, incidence: Incidence):
        self._incidence = incidence

    def __len__(self) -> int:
        return len(self._incidence)

    def __iter__(self) -> Iterator[int]:
        return (key for key, _ in self._incidence.keyed_terms())

    def __getitem__(self, key: int) -> AffineForm:
        return dict(self._incidence.keyed_terms())[key]

    def items(self) -> Iterator[tuple[int, AffineForm]]:
        return self._incidence.keyed_terms()

    def values(self) -> Iterator[AffineForm]:
        return (coeff for _, coeff in self._incidence.keyed_terms())


class NecessaryCondition(Incidence):
    """D_tau(I) = sum over k of a_k I^k as an :class:`Incidence`.

    D_tau(I), from the rule of :func:`_dtau_targets`, puts the live slot
    of a word w in Q1 (Q2) on reduce(L w R) with +1 around u (v) and -1
    around u^-1 (v^-1), I = u v u^-1 v^-1, or nowhere where the two
    coincide; the auxiliary a_j in slot 2t + j occurs with -1 on
    I^(j - k0), k0 from :func:`side_condition_k0`.  Only the slots live
    in ``dead`` enter; the auxiliaries always do.
    """

    __slots__ = ("_ansatz",)

    def __init__(self, ansatz: SymmetryAnsatz, dead: bytes | None = None):
        self._ansatz = ansatz
        shift = (2 * ansatz.slot_count).bit_length()
        super().__init__(self._chunks(dead, shift), shift)

    def _chunks(self, dead: bytes | None, shift: int
                ) -> Iterator[list[int]]:
        """The entries in chunks: the auxiliaries', then those of up to
        half a chunk of live slots at a time, generator by generator."""
        ansatz = self._ansatz
        k0, c = side_condition_k0(ansatz.degree), ansatz.unknown_count
        yield [word_key(word_pow(COMMUTATOR_UV, j - k0)) << shift
               | (c + j) << 1 | 1 for j in range(2 * k0 + 1)]
        for _, _, slots, ((plus, _), (minus, _)) in _dtau_targets(
                NCPoly.from_word(COMMUTATOR_UV), ansatz, dead,
                max(_CHUNK // 2, 1)):
            entries = [p << shift | s << 1 for p, q, s in
                       zip(plus, minus, slots) if p != q]
            entries += [q << shift | s << 1 | 1 for p, q, s in
                        zip(plus, minus, slots) if p != q]
            yield entries

    @property
    def residual(self) -> NCPoly:
        """The condition as a polynomial over its unknowns, a view for
        tests and tracing."""
        return NCPoly._raw({key_word(k): c for k, c in self.keyed_terms(
            self._ansatz.slot_unknowns())})


def formulate_nc(ansatz: SymmetryAnsatz,
                 dead: bytes | None = None) -> NecessaryCondition:
    """The side condition over the slots live in ``dead``."""
    return NecessaryCondition(ansatz, dead)


def formulate_symcon(system: Derivation, ansatz: SymmetryAnsatz, which: str,
                     dead: bytes | None = None) -> Incidence:
    """The commutator condition D_tau(D_t x) - D_t(D_tau x) for x = u or v.

    Identically zero exactly when the ansatz flow commutes with the system
    D_t on that generator.  Only the slots live in ``dead`` enter the
    ansatz, and every word stays a key.  D_tau(P_x) for P_x = D_t x comes
    from the rule of :func:`_dtau_targets`, one batch of live slots per
    generator.  Each live slot's targets seed its own dict of sums, into
    which the Leibniz kernel :func:`derive_keys` adds -D_t(Q_x) for a slot
    of Q_x; each nonzero sum becomes one entry of the :class:`Incidence`,
    labelled by slot, and no other slot's sums are held meanwhile.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    x = "uv".index(which)

    def seeded(count: int, columns: list) -> Iterator[dict]:
        for i in range(count):
            acc: dict = {}
            for targets, c in columns:
                key = targets[i]
                acc[key] = acc.get(key, 0) + c
            yield acc

    def sums() -> Iterator[tuple[int, dict]]:
        for g, keys, slots, columns in _dtau_targets(
                (system.image_u, system.image_v)[x], ansatz, dead):
            acc = seeded(len(keys), columns)
            if g == x:
                acc = derive_keys(system, keys, -1, acc)
            yield from zip(slots, acc)

    return Incidence.pack(sums(), ansatz.slot_count)


def selective_split(p: Incidence, dead: bytearray) -> int:
    """Harvest zeros from words whose pruned coefficient is a single term.

    One pass in key order over the incidence's ints, labelled by slot;
    each word is pruned against the ``dead`` mask as it is reached, so
    finds take effect immediately, and the incidence keeps the remainder
    for the next pass (:meth:`Incidence.harvest`).  Returns the number of
    slots marked dead.
    """
    return p.harvest(dead)


def complete_split(conditions: Iterable[Iterable[tuple[int, AffineForm]]],
                   universe: Iterable[UnknownId]) -> LinearSystem:
    """Split each condition completely, in order, into one system.

    A condition is (word key, coefficient) pairs in key order; one
    equation is made per word whose coefficient does not vanish, and the
    ids run 0.. across the conditions.  Equations from distinct words stay
    apart even when their content coincides.
    """
    equations: list[Equation] = []
    for terms in conditions:
        for _, coeff in terms:
            if not coeff.is_zero:
                equations.append(
                    canonicalize(Equation(coeff, len(equations))))
    return LinearSystem(equations, universe)


def build_symmetry_system(degree: int,
                          include_nc: bool = False) -> LinearSystem:
    """Fully formulated and split system for a degree-n symmetry.

    Both commutator conditions are always included; ``include_nc`` prepends
    the split of the first-integral side condition together with its
    auxiliary unknowns.  Every slot's unknown is made in bulk, and the
    conditions are labelled by them.
    """
    _check_degree_guard(degree)
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    universe = ansatz.slot_unknowns()
    if include_nc:
        conditions = [formulate_nc(ansatz).keyed_terms(universe)]
    else:
        conditions, universe = [], universe[:ansatz.unknown_count]
    conditions += [formulate_symcon(system, ansatz, x).keyed_terms(universe)
                   for x in "uv"]
    return complete_split(conditions, universe)


@dataclass
class SystemStats:
    """One row of the size table for a degree-n symmetry computation.

    Counting convention: equations are counted after combining like words
    within one polynomial; terms count the unknowns occurring per equation.
    e1/t1 cover the split of D_tau(I) (the side condition without its
    auxiliary unknowns); e2/t2 cover both commutator conditions, duplicates
    across the two included.
    """

    n: int
    k: int
    e1: int
    t1: int
    e2: int
    t2: int
    p: int


def widest_entry_bits(degree: int, images: int = 2) -> int:
    """Bit length of the widest :class:`Incidence` entry of a degree-n
    formulation over an ansatz of ``images`` images.

    With both images, the side condition's: D_tau(I) reaches n + 5
    letters and I^+-k0 4 k0, over its slots and auxiliaries; with one,
    the first integrals': D_t adds at most two letters to a word.
    """
    slots = images * ansatz_term_count(degree)
    if images == 2:
        k0 = side_condition_k0(degree)
        slots += 2 * k0 + 1
        letters = max(degree + 5, 4 * k0)
    else:
        letters = degree + 2
    return 2 * letters + 1 + (2 * slots).bit_length()


def _check_degree_guard(degree: int, images: int = 2) -> None:
    limit = unknown_limit(FORMULATE_MAX_UNKNOWNS)
    # 3^degree > 2^degree > limit past its bit length: refused before
    # 3^degree, which may have millions of digits, is built
    if degree > limit.bit_length():
        raise TooLargeError(f"degree {degree} needs more unknowns than the "
                            f"guard of {limit}")
    k = images * ansatz_term_count(degree)
    if k > limit:
        raise TooLargeError(
            f"degree {degree} needs {k} unknowns, over the guard of {limit}")
    bits = widest_entry_bits(degree, images)
    if bits > WIDEST_ENTRY_BITS:
        raise TooLargeError(
            f"degree {degree} packs entries of {bits} bits, over the "
            f"{WIDEST_ENTRY_BITS} an incidence holds")


def system_stats(degree: int) -> SystemStats:
    """Formulate everything for one degree, count it, and solve for p.

    Each condition is formulated and split once.  The counts are read off
    the formulated conditions, one equation per word and one term per
    slot of its coefficient, as :func:`complete_split` gives them;
    D_tau(I) is the side condition without its auxiliary terms.  The
    system is solved over its slots, whose order is the unknowns' order,
    so no unknown is made.
    """
    _check_degree_guard(degree)
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    side = list(formulate_nc(ansatz).keyed_terms())
    commutators = [list(formulate_symcon(system, ansatz, x).keyed_terms())
                   for x in "uv"]
    c = ansatz.unknown_count
    terms_i = [sum(s < c for s in coeff.coeffs) for _, coeff in side]
    terms_uv = [len(coeff.coeffs) for terms in commutators
                for _, coeff in terms]
    state = lsss_solve(complete_split([side, *commutators],
                                      range(ansatz.slot_count)))
    return SystemStats(degree, ansatz.unknown_count,
                       len(terms_i) - terms_i.count(0), sum(terms_i),
                       len(terms_uv), sum(terms_uv), state.free_count)


def first_integral_basis(system: Derivation, degree: int) -> list[NCPoly]:
    """A basis of the first integrals of degree <= n, constants included.

    The ansatz is one fresh unknown per word key, numbered by slot; the
    Leibniz kernel :func:`derive_keys` sums D_t of each word, packed into
    one :class:`Incidence` by slot, which is split completely in key order
    and solved once over the slots, so no unknown is made.  Each free slot
    gives one integral, so the basis length is the dimension of the space;
    only the basis decodes its keys into words.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    _check_degree_guard(degree, 1)
    keys = enumerate_keys(degree)
    slots = range(len(keys))
    condition = Incidence.pack(zip(slots, derive_keys(system, keys)),
                               len(keys))
    state = lsss_solve(complete_split([condition.keyed_terms()], slots))
    return [NCPoly._from_acc({key_word(k): AffineForm.constant(vec[s])
                              for s, k in enumerate(keys) if s in vec})
            for vec in state.basis()]
