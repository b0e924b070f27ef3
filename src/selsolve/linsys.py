"""Exact rational affine forms, equations, and sparse linear systems.

Coefficients are arbitrary-precision rationals (plain ``int`` or
``fractions.Fraction``); no floating point is used anywhere.  An
``AffineForm`` is a constant plus a sparse map from unknown identifiers to
nonzero rational coefficients, and an ``Equation`` states that such a form
equals zero.

Whole numbers stay ints: :func:`exact_div` returns a ``Fraction`` only
for a quotient that is not whole, so a system with integer coefficients is
solved in int arithmetic as far as its quotients are exact.  Fraction
arithmetic can still give a whole ``Fraction``; every function here treats
it as the equal int, so no result depends on which of the two a value is.
"""

from __future__ import annotations

import math
import operator
import os
from array import array
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import SelSolveError, TooLargeError

#: An exact rational; a whole number is normally an ``int`` (see
#: :func:`exact_div`), and a whole ``Fraction`` is treated as its equal int.
Rational = int | Fraction

# Unknown kinds: ansatz coefficients plus the auxiliary constants brought in
# by the first-integral side condition.
KIND_C = 0
KIND_A = 1

_KIND_NAMES = ("c", "a")
_KIND_LETTERS = ("C", "A")
KIND_BY_LETTER = {"C": KIND_C, "A": KIND_A}
#: An unknown is the int (kind + 1) * _INDEX_LIMIT + index: ordered by
#: (kind, index), never falsy, never equal to a smaller int such as a column.
_INDEX_LIMIT = 1 << 40

GUARD_ENV_VAR = "SELECTIVE_SOLVE_MAX_UNKNOWNS"

#: Default guard for dense elimination in the nullspace oracle.
ORACLE_MAX_UNKNOWNS = 20_000

#: Default guard for full formulation of the symmetry application.
FORMULATE_MAX_UNKNOWNS = 30_000


def unknown_limit(default: int) -> int:
    """Desk-scale guard, overridable through SELECTIVE_SOLVE_MAX_UNKNOWNS.

    An empty or unset variable keeps the default; anything but a positive
    integer is an error rather than a silent fallback.
    """
    raw = os.environ.get(GUARD_ENV_VAR)
    if not raw:
        return default
    try:
        limit = int(raw)
    except ValueError:
        limit = None
    if limit is None or limit < 1:
        raise SelSolveError(
            f"{GUARD_ENV_VAR}={raw!r} is not a positive integer")
    return limit


def exact_div(a: Rational, b: Rational) -> Rational:
    """a / b without ever falling into floating point.

    Two ints give an int when b divides a and a ``Fraction`` otherwise; a
    ``Fraction`` operand gives a ``Fraction``, as Fraction division does.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, rem = divmod(a, b)
        return Fraction(a, b) if rem else q
    return a / b


class UnknownId(int):
    """Identifier of one unknown, an int coded from its kind and index."""

    __slots__ = ()

    def __new__(cls, kind: int, index: int) -> "UnknownId":
        if not (0 <= kind < len(_KIND_NAMES) and 0 <= index < _INDEX_LIMIT):
            raise ValueError(f"unknown kind {kind} index {index} out of range")
        return int.__new__(cls, (kind + 1) * _INDEX_LIMIT + index)

    def __getnewargs__(self) -> tuple[int, int]:
        return self.kind, self.index

    @property
    def kind(self) -> int:
        return self // _INDEX_LIMIT - 1

    @property
    def index(self) -> int:
        return self % _INDEX_LIMIT

    @property
    def name(self) -> str:
        kind, index = divmod(self, _INDEX_LIMIT)
        return f"{_KIND_NAMES[kind - 1]}{index}"

    @property
    def kind_letter(self) -> str:
        return _KIND_LETTERS[self.kind]

    @classmethod
    def span(cls, kind: int, count: int) -> tuple["UnknownId", ...]:
        """The unknowns of ``kind`` with indices 0..count-1, in id order.

        Equal to ``cls(kind, i)`` for each i, checked once for the whole
        range rather than per unknown.
        """
        if not (0 <= kind < len(_KIND_NAMES) and 0 <= count <= _INDEX_LIMIT):
            raise ValueError(f"unknown kind {kind} count {count} out of range")
        base = (kind + 1) * _INDEX_LIMIT
        return tuple(map(int.__new__, repeat(cls, count),
                         range(base, base + count)))

    @classmethod
    def _at(cls, kind: int, indices: Iterable[int]) -> Iterator["UnknownId"]:
        """``cls(kind, i)`` for each index i, in order, made as it is read
        and unchecked, as :meth:`span` makes them: trusted to be in range,
        as a slot's index is."""
        base = (kind + 1) * _INDEX_LIMIT
        return map(int.__new__, repeat(cls), map(operator.add, indices,
                                                  repeat(base)))

    @classmethod
    def from_name(cls, text: str) -> "UnknownId":
        """Inverse of :attr:`name`: a kind letter, then ASCII digits."""
        digits = text[1:]
        if not (text[:1] in _KIND_NAMES and digits.isascii()
                and digits.isdigit()):
            raise ValueError(f"bad unknown name {text!r}")
        return cls(_KIND_NAMES.index(text[0]), int(digits))

    def __repr__(self) -> str:
        return f"UnknownId({self.name})"


def format_rational(r: Rational) -> str:
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def format_affine(form: "AffineForm") -> str:
    """Canonical text form, e.g. ``-2*c5 + 1/3*c7 + 2``; ``0`` when empty."""
    parts: list[tuple[Rational, str | None]] = [
        (form.coeffs[uid], uid.name) for uid in sorted(form.coeffs)
    ]
    if form.const != 0:
        parts.append((form.const, None))
    if not parts:
        return "0"
    pieces = []
    for i, (r, name) in enumerate(parts):
        mag = -r if r < 0 else r
        if name is None:
            body = format_rational(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{format_rational(mag)}*{name}"
        if i == 0:
            pieces.append(f"-{body}" if r < 0 else body)
        else:
            pieces.append(f" - {body}" if r < 0 else f" + {body}")
    return "".join(pieces)


class AffineForm:
    """c0 + sum(r_i * x_i) with exact rational c0, r_i and unknown x_i."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: Rational = 0,
                 coeffs: Mapping[UnknownId, Rational] | None = None):
        self.const = const
        self.coeffs = {u: r for u, r in (coeffs or {}).items() if r != 0}

    @classmethod
    def _raw(cls, const: Rational, coeffs: dict) -> "AffineForm":
        # Trusted constructor: caller guarantees no zero coefficients.
        form = object.__new__(cls)
        form.const = const
        form.coeffs = coeffs
        return form

    @classmethod
    def zero(cls) -> "AffineForm":
        return cls._raw(0, {})

    @classmethod
    def constant(cls, value: Rational) -> "AffineForm":
        return cls._raw(value, {})

    @classmethod
    def unknown(cls, uid: UnknownId, coeff: Rational = 1) -> "AffineForm":
        if coeff == 0:
            return cls.zero()
        return cls._raw(0, {uid: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    @property
    def term_count(self) -> int:
        """Number of unknown-bearing terms; the constant does not count."""
        return len(self.coeffs)

    def scaled(self, r: Rational) -> "AffineForm":
        if r == 0:
            return AffineForm.zero()
        if r == 1:
            return self
        return AffineForm._raw(self.const * r,
                               {u: c * r for u, c in self.coeffs.items()})

    def __add__(self, other: "AffineForm") -> "AffineForm":
        coeffs = dict(self.coeffs)
        for u, r in other.coeffs.items():
            s = coeffs.get(u, 0) + r
            if s == 0:
                coeffs.pop(u, None)
            else:
                coeffs[u] = s
        return AffineForm._raw(self.const + other.const, coeffs)

    def __sub__(self, other: "AffineForm") -> "AffineForm":
        return self + other.scaled(-1)

    def __neg__(self) -> "AffineForm":
        return self.scaled(-1)

    def evaluate(self, values: Mapping[UnknownId, Rational]) -> Rational:
        total = self.const
        for u, r in self.coeffs.items():
            total += r * values[u]
        return total

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineForm)
                and self.const == other.const and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"AffineForm({format_affine(self)})"

    __str__ = format_affine


def substitute(form: AffineForm,
               solution: Mapping[UnknownId, AffineForm]) -> AffineForm:
    """Replace every solved unknown in ``form`` by its right-hand side.

    The map must be fully back-substituted: no right-hand side may mention
    any of the map's keys.
    """
    if not solution:
        return form
    hit = [u for u in form.coeffs if u in solution]
    if not hit:
        return form
    const = form.const
    acc: dict[UnknownId, Rational] = {}
    for u, r in form.coeffs.items():
        rep = solution.get(u)
        if rep is None:
            acc[u] = acc.get(u, 0) + r
        else:
            const += r * rep.const
            for u2, r2 in rep.coeffs.items():
                acc[u2] = acc.get(u2, 0) + r * r2
    return AffineForm._raw(const, {u: r for u, r in acc.items() if r != 0})


@dataclass
class Equation:
    """lhs = 0, tagged with an ordinal id within its system."""

    lhs: AffineForm
    id: int = 0


def canonical_row(const: Rational, cols: Sequence[int],
                  values: Sequence[Rational]
                  ) -> tuple[Rational, Sequence[int], Sequence[Rational]]:
    """The row const + sum(values[i] * x_cols[i]) = 0, its columns
    distinct, with integer content 1, its sign fixed by the lowest column
    (by the constant if it has none) and its columns ascending.  A row
    already so comes back as the very ``cols`` and ``values`` given.
    """
    if type(sum(values, const)) is not int:  # a Fraction among them
        lcm = math.lcm(const.denominator, *(r.denominator for r in values))
        const = const.numerator * (lcm // const.denominator)
        values = [r.numerator * (lcm // r.denominator) for r in values]
    g = math.gcd(const, *values) or 1  # 0 only for the empty row 0 = 0
    if any(map(operator.gt, cols, cols[1:])):
        cols, values = zip(*sorted(zip(cols, values)))
    if (values[0] if cols else const) < 0:
        g = -g
    elif g == 1:
        return const, cols, values
    return const // g, cols, [r // g for r in values]


class LinearSystem:
    """Ordered equations over a universe of unknowns, packed as rows.

    The universe is a sorted tuple, and column c stands for
    ``universe[c]``.  Row k has the id ``ids[k]``, the constant
    ``consts[k]`` and the entries ``cols[starts[k]:starts[k + 1]]``, whose
    exact nonzero coefficients sit at the same positions of ``values``
    (the row-pointer/column-index layout of Gustavson, ACM TOMS 4, 1978).
    A row becomes an :class:`Equation` only when :attr:`equations` is
    read.  ``LinearSystem(equations, universe)`` packs Equations in order;
    every unknown they mention must be in the universe.
    """

    __slots__ = ("universe", "ids", "consts", "starts", "cols", "values")

    def __init__(self, equations: Iterable[Equation] = (),
                 universe: Iterable = ()):
        self._empty(tuple(sorted(set(universe))))
        column = {u: c for c, u in enumerate(self.universe)}.__getitem__
        for eq in equations:
            coeffs = eq.lhs.coeffs
            self.append(eq.id, eq.lhs.const, map(column, coeffs),
                        coeffs.values())

    def _empty(self, universe: tuple) -> None:
        self.universe = universe
        self.ids: array = array("q")
        self.consts: list[Rational] = []
        self.starts: array = array("q", [0])
        self.cols: array = array("q")
        self.values: list[Rational] = []

    @classmethod
    def over(cls, universe: tuple) -> "LinearSystem":
        """An empty system over a universe that is a sorted tuple already,
        such as another system's."""
        system = object.__new__(cls)
        system._empty(universe)
        return system

    def append(self, row_id: int, const: Rational, cols: Iterable[int],
               values: Iterable[Rational]) -> None:
        """Add one row: its columns and their nonzero values, in order."""
        self.ids.append(row_id)
        self.consts.append(const)
        self.cols.extend(cols)
        self.values.extend(values)
        self.starts.append(len(self.cols))

    def equation(self, k: int) -> Equation:
        """Row k decoded, its terms over unknowns in stored order."""
        a, b = self.starts[k], self.starts[k + 1]
        coeffs = dict(zip(map(self.universe.__getitem__, self.cols[a:b]),
                          self.values[a:b]))
        return Equation(AffineForm._raw(self.consts[k], coeffs), self.ids[k])

    @property
    def equations(self) -> "EquationView":
        return EquationView(self)

    def row_lengths(self) -> Iterator[int]:
        """The number of entries of each row, in order."""
        return map(operator.sub, self.starts[1:], self.starts)

    def length_order(self) -> list[int]:
        """The row indices in stable ascending order of entry count."""
        lengths = list(self.row_lengths())
        return sorted(range(len(lengths)), key=lengths.__getitem__)

    def values_at(self, point: Sequence[Rational]) -> Iterator[Rational]:
        """Each row's value, in order, with column c set to ``point[c]``."""
        products = map(operator.mul, map(point.__getitem__, self.cols),
                       self.values)
        for const, length in zip(self.consts, self.row_lengths()):
            yield const + sum(islice(products, length))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def term_total(self) -> int:
        return len(self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearSystem)
                and self.universe == other.universe
                and self.equations == other.equations)

    def __repr__(self) -> str:
        return f"LinearSystem({list(self.equations)!r}, {self.universe!r})"


class EquationView(Sequence):
    """The rows of a :class:`LinearSystem`, each decoded as it is read."""

    __slots__ = ("_system",)

    def __init__(self, system: LinearSystem):
        self._system = system

    def __len__(self) -> int:
        return len(self._system)

    def __getitem__(self, k):
        rows = range(len(self._system))[k]
        if isinstance(k, slice):
            return [self._system.equation(i) for i in rows]
        return self._system.equation(rows)

    def __iter__(self) -> Iterator[Equation]:
        return map(self._system.equation, range(len(self._system)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (EquationView, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class NullspaceResult(NamedTuple):
    rank: int
    basis: list[dict[UnknownId, Rational]]


def check_oracle_guard(system: LinearSystem) -> None:
    """Refuse a system with more unknowns than the oracle guard allows."""
    limit = unknown_limit(ORACLE_MAX_UNKNOWNS)
    if len(system.universe) > limit:
        raise TooLargeError(
            f"{len(system.universe)} unknowns exceed the oracle guard of "
            f"{limit}")


def _divide_content(lead: int, row: dict[UnknownId, int]) -> int:
    """Divide ``lead`` and the integers of ``row`` by their gcd in place;
    returns the new ``lead``."""
    g = math.gcd(lead, *row.values())
    if g > 1:
        for c, v in row.items():
            row[c] = v // g
        lead //= g
    return lead


def dense_nullspace_oracle(system: LinearSystem) -> NullspaceResult:
    """Rank and an explicit nullspace basis by exact Gauss-Jordan elimination.

    Independent of the selective solver: no zero set, no 1-term
    shortcuts, just full elimination of the coefficient matrix (constants
    are ignored), one row at a time, shortest first (stable, by entry
    count); each reduced row pivots on its lowest unknown.  The order
    changes no result: every pivot row's tail holds only later, non-pivot
    columns, so elimination ends in the one reduced row echelon form of
    the matrix, whatever order the rows come in; rows taken shortest
    first make less fill-in.  The rows of one entry, which come first
    after the empty ones, are taken in one step: each makes its column a
    pivot with an empty tail and denominator 1, as elimination makes it
    one row at a time (no pivot row mentions a column before it is a
    pivot, and a repeat reduces to 0 = 0).  The arithmetic is
    integer-preserving (Bareiss, Math. Comp. 22, 1968): a row is scaled to
    integers by the lcm of its denominators, and a pivot row is held as
    integers over one positive denominator, divided by their content after
    every update.  An index from each unknown to the pivot rows that
    mention it lets a new pivot update only those rows.  The longer rows
    are read one at a time over columns, whose order is the unknowns'
    order; fractions and unknowns appear only in the returned basis.
    Guarded because elimination materializes fill-in.
    """
    check_oracle_guard(system)

    # Pivot p is denom[p] * x_p + sum(tails[p][c] * x_c) = 0, with integers
    # of content 1 and denom[p] > 0.  Tails never mention a pivot column,
    # so reducing a row is a single pass.
    tails: dict[int, dict[int, int]] = {}
    denom: dict[int, int] = {}
    # mentions[c] holds every pivot whose tail has a nonzero entry at c; it
    # may also hold pivots whose entry there has since cancelled.
    mentions: defaultdict[int, set[int]] = defaultdict(set)
    starts, cols, values = system.starts, system.cols, system.values
    # the rows of one entry in one step, each column a pivot x_p = 0
    lengths = list(system.row_lengths())
    singles = list(map(cols.__getitem__, compress(
        starts, map(operator.eq, lengths, repeat(1)))))
    tails.update(zip(singles, map(dict, repeat(()))))  # a new {} each
    denom.update(zip(singles, repeat(1)))
    # then the longer rows, shortest first
    for k in sorted(compress(range(len(lengths)),
                             map(operator.gt, lengths, repeat(1))),
                    key=lengths.__getitem__):
        a, b = starts[k], starts[k + 1]
        row = dict(zip(cols[a:b], values[a:b]))
        # One Fraction among the coefficients makes their sum a Fraction.
        if type(sum(row.values())) is not int:
            scale = math.lcm(*(r.denominator for r in row.values()))
            row = {c: r.numerator * (scale // r.denominator)
                   for c, r in row.items()}
        # Eliminate each pivot column: row := d * row - r * (d * x_p + tail).
        for p in [c for c in row if c in tails]:
            r = row.pop(p)
            tail = tails[p]
            if not tail:
                continue
            d = denom[p]
            if d > 1:
                for c, v in row.items():
                    row[c] = v * d
            for c, v in tail.items():
                s = row.get(c, 0) - r * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        if not row:
            continue
        p = min(row)
        d = row.pop(p)
        if d < 0:
            d = -d
            for c, v in row.items():
                row[c] = -v
        if d > 1:  # with d = 1 the content is 1 already
            d = _divide_content(d, row)
        for c in row:
            mentions[c].add(p)

        # Substitute x_p = -sum(row[c] * x_c) / d into each pivot row q
        # that mentions p: m * (denom[q] * x_q + tail_q) - t / g * (d * x_p
        # + row), with t the entry of tail_q at p, g = gcd(d, t), m = d / g.
        for q in mentions.pop(p, ()):
            tq = tails[q]
            t = tq.pop(p, 0)
            if not t:
                continue
            if d > 1:
                g = math.gcd(d, t)
                t //= g
                m = d // g
                if m > 1:
                    for c, v in tq.items():
                        tq[c] = v * m
                    denom[q] *= m
            for c, v in row.items():
                s = tq.get(c)
                if s is None:
                    tq[c] = -t * v
                    mentions[c].add(q)
                else:
                    s -= t * v
                    if s:
                        tq[c] = s
                    else:
                        del tq[c]
            if denom[q] > 1:
                denom[q] = _divide_content(denom[q], tq)
        tails[p] = row
        denom[p] = d

    basis = []
    universe = system.universe
    for f in range(len(universe)):
        if f in tails:
            continue
        vec: dict[UnknownId, Rational] = {universe[f]: 1}
        for p in sorted(mentions.get(f, ())):
            t = tails[p].get(f)
            if t:
                vec[universe[p]] = Fraction(-t, denom[p])
        basis.append(vec)
    return NullspaceResult(len(tails), basis)
