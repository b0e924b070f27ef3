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
throughout formulation.  The ansatz stores only its word keys; slot i of
the 2t ansatz slots is the unknown c_i, and slot 2t + j is the side
condition's auxiliary a_j.  The unknowns known to vanish are a
``bytearray`` mask over the slots, 1 per dead slot, and each condition
is formulated over the live slots and labels them by slot number.  A
commutator condition sums its coefficients per word key
(:class:`CommutatorCondition`); the side condition is a sorted incidence
of packed ints (:class:`NecessaryCondition`).  Either streams one list of
(word key, coefficient) pairs in increasing key order, which is deglex
order, and no harvested word is decoded.  A staged run holds a condition
as a :class:`SortedCondition`; every harvest is one pass in that order
that prunes, marks the slot of each 1-term word dead and keeps the
remainder for the next pass.  A commutator condition is held as its
pairs; the side condition stays an incidence through every pass, which
keeps the surviving ints, and is decoded only when it is split.
:func:`relabelled` turns the slots into their unknowns, dropping dead
ones, and :func:`complete_split` is the one path from such lists to a
numbered :class:`LinearSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, groupby
from typing import Collection, Iterable, Iterator, Mapping, Sequence

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
    keys, level = [1], [1]
    for _ in range(max_degree):
        level = [k << 2 | g for k in level for g in range(4)
                 if g != (k & 3) ^ 2 or k == 1]
        keys += level
    return keys


def ansatz_term_count(degree: int) -> int:
    """Closed form of the t(n) = 3 t(n-1) + 2 recursion."""
    return 2 * 3 ** degree - 1


#: ``mask.translate(FLIP)`` turns a dead mask into a live one.
FLIP = bytes.maketrans(b"\0\1", b"\1\0")


@dataclass
class SymmetryAnsatz:
    """Most general degree-n flow with one fresh unknown per term.

    Only word keys are stored, in deglex order.  Slot i is the coefficient
    of the word with key ``keys[i]`` in Q1 = u_tau and slot t + i its
    coefficient in Q2 = v_tau, where t = len(keys); the side condition's
    auxiliaries follow in slots 2t .. :attr:`slot_count` - 1.  The
    conditions read the keys and label by slot; the unknown of a slot is
    made only where one is needed (:meth:`slot_unknowns`,
    :meth:`live_unknowns`), and :meth:`derivation` decodes the live words
    into Q1 and Q2.
    """

    degree: int
    keys: tuple[int, ...]

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

    def live_unknowns(self, dead: bytes) -> dict[int, UnknownId]:
        """The unknown of each slot ``dead`` leaves live, by slot; no
        unknown is made for a dead slot."""
        c = self.unknown_count
        return {s: UnknownId(KIND_C, s) if s < c else UnknownId(KIND_A, s - c)
                for s in compress(range(len(dead)), dead.translate(FLIP))}

    def derivation(self, zeros: Collection[UnknownId] = ()) -> Derivation:
        """D_tau over the unknowns that are not in ``zeros``."""
        t = len(self.keys)
        unknowns = UnknownId.span(KIND_C, 2 * t)
        q1, q2 = (NCPoly._raw({
            key_word(k): AffineForm._raw(0, {uid: 1})
            for k, uid in zip(self.keys, unknowns[start:start + t])
            if uid not in zeros}) for start in (0, t))
        return Derivation(q1, q2, name="Dtau")


def build_ansatz(degree: int) -> SymmetryAnsatz:
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    return SymmetryAnsatz(degree, tuple(enumerate_keys(degree)))


def _live_mask(dead: bytes | None, start: int, stop: int) -> bytes:
    """1 per live slot of [start, stop), 0 per dead one; all live when
    there is no mask."""
    if dead is None:
        return b"\1" * (stop - start)
    return dead[start:stop].translate(FLIP)


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


def sandwich_keys(left: tuple, right: tuple,
                  keys: Iterable[int]) -> list[int]:
    """:func:`word_key` of reduce(left w right) per reduced word w's key.

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


class NecessaryCondition:
    """D_tau(I) = sum over k of aux[k0+k] I^k as a sorted sparse incidence.

    A letter of I = u v u^-1 v^-1 contributes +-L Q R, so the live slot
    of a word w in Q1 (Q2) occurs with +1 on reduce(L w R) around u (v)
    and -1 around u^-1 (v^-1), or not at all where the two coincide; aux[i]
    in slot 2t + i occurs with -1 on I^(i - k0), k0 from
    :func:`side_condition_k0`.  An occurrence is an int, the word's
    :func:`word_key` above the slot and sign: one sort orders the words
    deglex, none yet built.  Only the slots live in ``dead`` enter; the
    auxiliaries always do.

    The condition stays these ints until it is split: :meth:`harvest` walks
    them and keeps the live entries of the words that survive.  Iterating
    decodes what is left as (word key, coefficient over slots) pairs, and
    ``len`` is the number of words left.
    """

    def __init__(self, ansatz: SymmetryAnsatz, dead: bytes | None = None):
        self._ansatz = ansatz
        self._k0 = k0 = side_condition_k0(ansatz.degree)
        self._shift = shift = (2 * ansatz.slot_count).bit_length()
        keys, i_word = ansatz.keys, COMMUTATOR_UV
        t = len(keys)
        entries = [word_key(word_pow(i_word, i - k0)) << shift
                   | (2 * t + i) << 1 | 1 for i in range(2 * k0 + 1)]
        for g in (U, V):  # I holds g at position g, its inverse at g + 2
            # live words and slots are read through the mask where they are
            # used, so no list of them is held next to the entries
            first = g * t
            live = _live_mask(dead, first, first + t)
            plus = sandwich_keys(i_word[:g], i_word[g + 1:],
                                 compress(keys, live))
            minus = sandwich_keys(i_word[:g + 3], i_word[g + 2:],
                                  compress(keys, live))
            slots = range(first, first + t)
            entries += [p << shift | s << 1 for p, q, s in
                        zip(plus, minus, compress(slots, live)) if p != q]
            entries += [q << shift | s << 1 | 1 for p, q, s in
                        zip(plus, minus, compress(slots, live)) if p != q]
        entries.sort()
        self._entries = entries
        self._words: int | None = None

    def __len__(self) -> int:
        if self._words is None:
            shift = self._shift
            self._words = len({e >> shift for e in self._entries})
        return self._words

    def __iter__(self) -> Iterator[tuple[int, AffineForm]]:
        return self.keyed_terms()

    @property
    def aux(self) -> tuple[UnknownId, ...]:
        """The auxiliary unknowns a_0 .. a_2k0."""
        return UnknownId.span(KIND_A, 2 * self._k0 + 1)

    def keyed_terms(self, labels: Sequence | None = None
                    ) -> Iterator[tuple[int, AffineForm]]:
        """(word key, coefficient) per word, in deglex order, over slots
        or over ``labels``, the label of each slot."""
        shift = self._shift
        low = (1 << shift) - 1
        if labels is None:
            labels = range(self._ansatz.slot_count)
        for key, run in groupby(self._entries, lambda e: e >> shift):
            yield key, AffineForm._raw(0, {
                labels[(e & low) >> 1]: 1 - 2 * (e & 1) for e in run})

    def harvest(self, dead: bytearray) -> int:
        """One :func:`selective_split` pass over the ints, in key order.

        An entry whose slot is dead drops out as it is reached; a word
        left with one entry marks its slot dead, one left with more keeps
        them.  Every coefficient is +-1 on distinct slots, so a word
        vanishes only by pruning.  Returns the number of slots marked.
        """
        shift = self._shift
        low = (1 << shift) - 1
        kept, run, word, found, words = [], [], 0, 0, 0
        # a word is settled when the next begins; 0 is no word's key
        for e in chain(self._entries, (0,)):
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


class CommutatorCondition:
    """A condition summed by the Leibniz kernel, a commutator condition or
    D_t of the first-integral ansatz, as a map from word key to coefficient.

    ``terms`` holds only the words whose coefficient does not vanish, in no
    particular order; :meth:`keyed_terms` streams them in deglex order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, AffineForm]):
        self.terms = terms

    @classmethod
    def from_sums(cls, acc: dict[int, dict[int, Rational]]
                  ) -> "CommutatorCondition":
        """The condition of per-key sums of rationals per label, as
        :func:`derive_keys` leaves them; zero sums drop out, and each
        key's sums become its coefficient's map in place."""
        vanished = []
        for key, sums in acc.items():
            if 0 in sums.values():
                sums = {u: c for u, c in sums.items() if c}
                if not sums:
                    vanished.append(key)
            acc[key] = AffineForm._raw(0, sums)
        for key in vanished:
            del acc[key]
        return cls(acc)

    def keyed_terms(self) -> Iterator[tuple[int, AffineForm]]:
        """(word key, coefficient) per word, in deglex order."""
        terms = self.terms
        for key in sorted(terms):
            yield key, terms[key]


def formulate_symcon(system: Derivation, ansatz: SymmetryAnsatz, which: str,
                     dead: bytes | None = None,
                     labels: Sequence | None = None) -> CommutatorCondition:
    """The commutator condition D_tau(D_t x) - D_t(D_tau x) for x = u or v.

    Identically zero exactly when the ansatz flow commutes with the system
    D_t on that generator.  Only the slots live in ``dead`` enter the
    ansatz, and every word stays a key.  D_tau(P_x) takes one
    :func:`sandwich_keys` call per letter of each term of P_x = D_t x, at
    an inverse letter g^-1 by d(g^-1) = -g^-1 d(g) g^-1, the sandwich
    widened by one letter; -D_t(Q_x) is the Leibniz kernel
    :func:`derive_keys` on the live words' keys, labelled by their slots
    or by ``labels``, the label of each ansatz slot.  The sums are kept
    per word key and label; zero sums drop out.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    x, t = "uv".index(which), len(ansatz.keys)
    if labels is None:
        labels = range(2 * t)
    live = []  # per generator: the keys and labels of its live words
    for start in (0, t):
        mask = _live_mask(dead, start, start + t)
        live.append((list(compress(ansatz.keys, mask)),
                     list(compress(labels[start:start + t], mask))))
    images = (system.image_u, system.image_v)
    acc: dict[int, dict] = {}
    for word, coeff in images[x].terms.items():
        for i, g in enumerate(word):
            if g & 2:
                left, right, c = word[:i + 1], word[i:], -coeff.const
            else:
                left, right, c = word[:i], word[i + 1:], coeff.const
            keys, labelled = live[g & 1]
            for target, u in zip(sandwich_keys(left, right, keys), labelled):
                sums = acc.get(target)
                if sums is None:
                    acc[target] = sums = {}
                sums[u] = sums.get(u, 0) + c
    derive_keys(system, *live[x], acc, sign=-1)
    return CommutatorCondition.from_sums(acc)


class SortedCondition:
    """A formulated condition held for repeated harvesting.

    ``terms`` are (word key, coefficient) pairs in increasing key order, or
    a :class:`NecessaryCondition`, which stays an incidence of ints until
    it is split and decodes into such pairs when iterated; ``len(terms)``
    after a pass is the number of words left either way.  Each
    :func:`selective_split` pass replaces the pairs by the pruned
    remainder, in order: words that yielded a zero or pruned to zero drop
    out, and a nonzero constant stays, so the final split reports the
    contradiction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, AffineForm]]):
        self.terms = terms


def selective_split(p: SortedCondition, dead: bytearray) -> int:
    """Harvest zeros from words whose pruned coefficient is a single term.

    One pass in key order over coefficients labelled by slot; each is
    pruned against the ``dead`` mask as it grows, so finds take effect
    immediately.  The condition keeps the remainder for the next pass; a
    side condition keeps it as ints (:meth:`NecessaryCondition.harvest`).
    Returns the number of slots marked dead.
    """
    if isinstance(p.terms, NecessaryCondition):
        return p.terms.harvest(dead)
    found = 0
    kept = []
    is_dead = dead.__getitem__
    for term in p.terms:
        coeff = term[1]
        coeffs = coeff.coeffs
        if any(map(is_dead, coeffs)):
            coeffs = {s: r for s, r in coeffs.items() if not dead[s]}
            coeff = AffineForm._raw(coeff.const, coeffs)
            term = (term[0], coeff)
        if len(coeffs) == 1 and coeff.const == 0:
            (s,) = coeffs
            dead[s] = 1
            found += 1
        elif coeffs or coeff.const:
            kept.append(term)
    p.terms = kept
    return found


def relabelled(terms: Iterable[tuple[int, AffineForm]],
               ids: Mapping[int, UnknownId]
               ) -> Iterator[tuple[int, AffineForm]]:
    """(word key, coefficient) pairs over slots, each slot replaced by its
    unknown in ``ids``.

    A slot ``ids`` lacks is dead and drops out, and so does a word left
    with neither an unknown nor a constant.
    """
    get = ids.get
    for key, coeff in terms:
        coeffs = coeff.coeffs
        # every dead slot lands on the one key None
        labelled = dict(zip(map(get, coeffs), coeffs.values()))
        labelled.pop(None, None)
        if labelled or coeff.const:
            yield key, AffineForm._raw(coeff.const, labelled)


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
    conditions += [formulate_symcon(system, ansatz, x, labels=universe)
                   .keyed_terms() for x in "uv"]
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


def _check_degree_guard(degree: int, images: int = 2) -> None:
    k = images * ansatz_term_count(degree)
    limit = unknown_limit(FORMULATE_MAX_UNKNOWNS)
    if k > limit:
        raise TooLargeError(
            f"degree {degree} needs {k} unknowns, over the guard of {limit}")


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

    The ansatz is one fresh unknown per word key; the Leibniz kernel
    :func:`derive_keys` sums D_t(ansatz) per word key, which is split
    completely in key order and solved once.  Each free unknown gives one
    integral, so the basis length is the dimension of the space; only the
    basis decodes its keys into words.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    _check_degree_guard(degree, 1)
    keys = enumerate_keys(degree)
    unknowns = UnknownId.span(KIND_C, len(keys))
    acc: dict[int, dict[UnknownId, Rational]] = {}
    derive_keys(system, keys, unknowns, acc)
    condition = CommutatorCondition.from_sums(acc)
    state = lsss_solve(complete_split([condition.keyed_terms()], unknowns))
    return [NCPoly._from_acc({key_word(k): AffineForm.constant(vec[u])
                              for k, u in zip(keys, unknowns) if u in vec})
            for vec in state.basis()]
