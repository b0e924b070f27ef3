"""Reduced words over two invertible generators and their Laurent polynomials.

The alphabet is u, v and the inverses u^-1, v^-1.  Words are freely reduced
(no letter stands next to its inverse) and multiply by cancelling across the
junction.  Polynomials map words to coefficients that are affine in symbolic
unknowns; products and derivations keep every coefficient linear, so the
conditions built from them split into linear equations.

Words also pack into ints (:func:`word_key`), and a derivation with
unknown-free images (the system flow D_t) is applied on those keys by one
Leibniz kernel, :func:`derive_keys`.  It derives each word from its
parent by d(w g) = d(w) g + w d(g), as a dict from target key to plain
rational, holding only the dicts of the current word's prefixes, so no
table of sums over every word is built; keys in :func:`lex_order`
derive each prefix once.  Images of inverse letters are given by
d(g^-1) = -g^-1 d(g) g^-1.  The symmetry conditions and the
first-integral search pack its dicts into an incidence slot by slot;
:func:`apply_derivation` adapts it to polynomials.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import merge
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NonlinearProductError
from .linsys import AffineForm, Rational, format_affine

U, V, U_INV, V_INV = 0, 1, 2, 3

LETTER_NAMES = ("u", "v", "u^-1", "v^-1")


class Word(tuple):
    """A freely reduced word; the empty word is the identity.

    Words sort degree-lexicographically by :func:`word_key`, with the
    letter order u < v < u^-1 < v^-1; the inverse of letter g is g ^ 2.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()):
        seq = tuple(letters)
        for g in seq:
            if not 0 <= g <= 3:
                raise ValueError(f"invalid letter {g!r}")
        for a, b in zip(seq, seq[1:]):
            if b == (a ^ 2):
                raise ValueError(f"word {seq!r} is not reduced")
        return tuple.__new__(cls, seq)

    @property
    def degree(self) -> int:
        """Length counting inverses, e.g. degree(u v^-1) = 2."""
        return len(self)

    def inverse(self) -> "Word":
        return _raw_word(tuple((g ^ 2) for g in reversed(self)))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, tuple):
            return NotImplemented
        return word_mul(self, other)

    def __str__(self) -> str:
        if not self:
            return "1"
        return " ".join(LETTER_NAMES[g] for g in self)

    def __repr__(self) -> str:
        return f"Word({self})"


def _raw_word(seq: tuple) -> Word:
    # Trusted constructor: caller guarantees the sequence is reduced.
    return tuple.__new__(Word, seq)


EMPTY_WORD = _raw_word(())


def reduce_letters(letters: Iterable[int]) -> Word:
    """Freely reduce an arbitrary letter sequence."""
    stack: list[int] = []
    for g in letters:
        if stack and stack[-1] == (g ^ 2):
            stack.pop()
        else:
            stack.append(g)
    return _raw_word(tuple(stack))


def word_mul(a: tuple, b: tuple) -> Word:
    """Reduced concatenation of two reduced words.

    Cancellation can only happen across the junction, so one scan from the
    middle suffices.
    """
    la, lb = len(a), len(b)
    k = 0
    limit = la if la < lb else lb
    while k < limit and a[la - 1 - k] == (b[k] ^ 2):
        k += 1
    if k == 0:
        if not la:
            return b if isinstance(b, Word) else _raw_word(tuple(b))
        if not lb:
            return a if isinstance(a, Word) else _raw_word(tuple(a))
    return _raw_word(tuple(a[:la - k]) + tuple(b[k:]))


def word_key(w: tuple) -> int:
    """The int 4^len(w) + base-4 digits of w; integer order is deglex order."""
    key = 1
    for g in w:
        key = key << 2 | g
    return key


def key_word(key: int) -> Word:
    """Inverse of :func:`word_key` on reduced words."""
    shifts = range(key.bit_length() - 3, -1, -2)
    return _raw_word(tuple([key >> s & 3 for s in shifts]))


def word_pow(w: tuple, k: int) -> Word:
    if k < 0:
        base = Word(w).inverse()
        k = -k
    else:
        base = w
    out: tuple = ()
    for _ in range(k):
        out = word_mul(out, base)
    return out if isinstance(out, Word) else _raw_word(out)


def _as_affine(value) -> AffineForm:
    if isinstance(value, AffineForm):
        return value
    return AffineForm.constant(value)


def affine_product(a: AffineForm, b: AffineForm) -> AffineForm:
    """Product of two coefficients, at most one of which carries unknowns."""
    if a.coeffs:
        if b.coeffs:
            raise NonlinearProductError(
                "product would be quadratic in the unknowns")
        return a.scaled(b.const)
    return b.scaled(a.const)


class NCPoly:
    """Laurent polynomial: map from reduced words to affine coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Word, AffineForm | Rational] | None = None):
        clean: dict[Word, AffineForm] = {}
        for w, c in (terms or {}).items():
            aff = _as_affine(c)
            if not aff.is_zero:
                clean[w if isinstance(w, Word) else Word(w)] = aff
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "NCPoly":
        # Trusted constructor: caller guarantees no zero coefficients.
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def _from_acc(cls, acc: dict) -> "NCPoly":
        return cls._raw({w: c for w, c in acc.items() if not c.is_zero})

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls._from_acc({})

    @classmethod
    def from_word(cls, word: Word, coeff: AffineForm | Rational = 1) -> "NCPoly":
        aff = _as_affine(coeff)
        if aff.is_zero:
            return cls.zero()
        return cls._from_acc({word: aff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def has_unknowns(self) -> bool:
        return any(c.coeffs for c in self.terms.values())

    def scaled(self, r: Rational) -> "NCPoly":
        if r == 0:
            return NCPoly.zero()
        return NCPoly._from_acc({w: c.scaled(r) for w, c in self.terms.items()})

    def __add__(self, other: "NCPoly") -> "NCPoly":
        acc = dict(self.terms)
        for w, c in other.terms.items():
            cur = acc.get(w)
            acc[w] = c if cur is None else cur + c
        return NCPoly._from_acc(acc)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + other.scaled(-1)

    def __neg__(self) -> "NCPoly":
        return self.scaled(-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for w in sorted(self.terms, key=word_key):
            c = self.terms[w]
            if c.coeffs:
                negative = False
                coeff = f"({format_affine(c)})"
            else:
                negative = c.const < 0
                mag = -c.const if negative else c.const
                coeff = "" if mag == 1 and w else format_affine(
                    AffineForm.constant(mag))
            body = (coeff + " " + (str(w) if w else "")).strip()
            if not out:
                out.append(f"-{body}" if negative else body)
            else:
                out.append(f" - {body}" if negative else f" + {body}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"NCPoly({len(self.terms)} terms)"


def poly_mul(a: NCPoly, b: NCPoly) -> NCPoly:
    """Distribute word multiplication; the result stays linear in unknowns."""
    if a.has_unknowns and b.has_unknowns:
        raise NonlinearProductError(
            "both factors carry unknowns; product would not be linear")
    acc: dict[Word, AffineForm] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = word_mul(wa, wb)
            piece = affine_product(ca, cb)
            cur = acc.get(w)
            acc[w] = piece if cur is None else cur + piece
    return NCPoly._from_acc(acc)


class Derivation:
    """A derivation of the algebra, determined by its images of u and v.

    Images of the inverses are never stored: d(g^-1) = -g^-1 d(g) g^-1,
    forced by d(g g^-1) = 0, and the Leibniz kernel applies that identity
    to each word directly.
    """

    __slots__ = ("image_u", "image_v", "name")

    def __init__(self, image_u: NCPoly, image_v: NCPoly, name: str = ""):
        self.image_u = image_u
        self.image_v = image_v
        self.name = name

    @property
    def has_unknowns(self) -> bool:
        return self.image_u.has_unknowns or self.image_v.has_unknowns

    def __repr__(self) -> str:
        return f"Derivation({self.name or 'unnamed'})"


def derive_keys(d: Derivation, keys: Iterable[int],
                sign: Rational = 1) -> Iterator[dict]:
    """``sign * d(w)`` per word key w, in turn, as one dict from target
    key to nonzero coefficient; ``d`` is checked at once, and each word
    is derived as the returned iterator reaches it.

    Each word's dict comes from its parent's, w without its last letter
    g, by d(w g) = d(w) g + w d(g): the parent's targets are right
    multiplied by g in one comprehension, a map that merges no two of
    them, and w d(g) adds its few terms from a table indexed by the
    parent's last letters, as many as an image term can cancel.  Only
    the chain of the current word's prefixes is held, so keys in
    :func:`lex_order` derive every prefix once; any order is right.  The
    dicts are the kernel's own, read by the words after them, and must
    not be changed; a caller that adds to one copies it first.  An
    inverse letter's image is d(g^-1) = -g^-1 d(g) g^-1.  The images
    must be free of unknowns, keeping the sums linear.
    """
    if d.has_unknowns:
        raise NonlinearProductError(
            "derivation images carry unknowns; the result would not be linear")
    # sign * d(g) per letter g, as (word, coefficient) per image term
    images = []
    for g in range(4):
        image = (d.image_u, d.image_v)[g & 1].terms.items()
        if g & 2:
            images.append([(reduce_letters((g,) + mid + (g,)), -sign * c.const)
                           for mid, c in image])
        else:
            images.append([(mid, sign * c.const) for mid, c in image])
    width = max((len(mid) for terms in images for mid, _ in terms), default=0)
    return _leibniz(_Junctions(images), width, keys)


class _Junctions(dict):
    """w d(g) by the last letters of w, filled as they are first met.

    An entry is keyed ``tail << 2 | g``, the tail the key of w's last
    letters, as many as the longest image term, or of all of w when it
    is shorter: a list of (drop, shift, digits, coefficient) per term m
    of d(g), the key of reduce(w m) being ``w >> drop << shift | digits``
    with ``drop`` the bits of w that m cancels.
    """

    def __init__(self, images: list):
        super().__init__()
        self._images = images

    def __missing__(self, code: int) -> list:
        tail = key_word(code >> 2)
        out = []
        for mid, c in self._images[code & 3]:
            k = 0
            while k < min(len(mid), len(tail)) and tail[-1 - k] == mid[k] ^ 2:
                k += 1
            rest = 2 * (len(mid) - k)
            out.append((2 * k, rest, word_key(mid[k:]) - (1 << rest), c))
        self[code] = out
        return out


def _leibniz(junctions: _Junctions, width: int,
             keys: Iterable[int]) -> Iterator[dict]:
    # the walk of derive_keys, which has checked d and built the images
    top = 1 << 2 * width
    low = top - 1
    chain, derived = [1], [{}]  # the current prefixes and their d(w)
    for key in keys:
        depth = key.bit_length() >> 1
        j = min(len(chain) - 1, depth)
        while chain[j] != key >> 2 * (depth - j):
            j -= 1
        del chain[j + 1:], derived[j + 1:]
        parent, acc = chain[j], derived[j]
        for r in range(2 * (depth - j - 1), -1, -2):
            g = key >> r & 3
            inv = g ^ 2
            acc = {(t >> 2 if t & 3 == inv and t > 1 else t << 2 | g): c
                   for t, c in acc.items()}
            get = acc.get
            tail = parent if parent < top else parent & low | top
            for drop, shift, digits, c in junctions[tail << 2 | g]:
                t = parent >> drop << shift | digits
                total = get(t, 0) + c
                if total:
                    acc[t] = total
                else:
                    del acc[t]
            parent = parent << 2 | g
            chain.append(parent)
            derived.append(acc)
        yield acc


def lex_order(keys: Sequence[int]) -> Iterator[int]:
    """The indices of deglex-sorted word ``keys`` in lexicographic order,
    each word before its extensions, the order in which
    :func:`derive_keys` derives every prefix once.

    The keys of one length are in that order already; their runs are
    merged lazily, each key padded with u's to the longest's length and
    a tie going to the shorter word, whose index is the lower.  Keys out
    of deglex order still give each index once.
    """
    if not keys:
        return iter(())
    width = keys[-1].bit_length()
    levels = range(0, width, 2)
    bounds = [bisect_left(keys, 1 << b) for b in levels] + [len(keys)]

    def run(b: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
        shift = width - 1 - b
        return ((keys[i] << shift, i) for i in range(lo, hi))
    return (i for _, i in merge(*map(run, levels, bounds, bounds[1:])))


def apply_derivation(d: Derivation, p: NCPoly) -> NCPoly:
    """Leibniz rule over every letter of every word of ``p``.

    :func:`derive_keys` sums d(w) per word w of ``p``; each output word's
    coefficient is then the sum of r * (coefficient of w) over the words
    that reach it with r.  The derivation's images must be free of
    unknowns, keeping the result affine in ``p``'s.
    """
    acc: dict[int, AffineForm] = {}
    for coeff, sums in zip(p.terms.values(),
                           derive_keys(d, map(word_key, p.terms))):
        for key, r in sums.items():
            form = coeff.scaled(r)
            acc[key] = form if key not in acc else acc[key] + form
    return NCPoly._raw({key_word(k): form for k, form in acc.items()
                        if not form.is_zero})
