"""Exact rational affine forms, equations, and sparse linear systems.

Coefficients are arbitrary-precision rationals (plain ``int`` or
``fractions.Fraction``); no floating point is used anywhere.  An
``AffineForm`` is a constant plus a sparse map from unknown identifiers to
nonzero rational coefficients, and an ``Equation`` states that such a form
equals zero.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import SelSolveError, TooLargeError

Rational = int | Fraction

# Unknown kinds: ansatz coefficients plus the auxiliary constants brought in
# by the two first-integral side conditions.
KIND_C = 0
KIND_A = 1
KIND_B = 2

_KIND_NAMES = ("c", "a", "b")
_KIND_LETTERS = ("C", "A", "B")
KIND_BY_LETTER = {"C": KIND_C, "A": KIND_A, "B": KIND_B}

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
    """a / b without ever falling into floating point."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


class UnknownId(NamedTuple):
    """Identifier of one unknown; ordered by (kind, index)."""

    kind: int
    index: int

    @property
    def name(self) -> str:
        return f"{_KIND_NAMES[self.kind]}{self.index}"

    @property
    def kind_letter(self) -> str:
        return _KIND_LETTERS[self.kind]

    @classmethod
    def from_name(cls, text: str) -> "UnknownId":
        if not text or text[0] not in _KIND_NAMES:
            raise ValueError(f"bad unknown name {text!r}")
        return cls(_KIND_NAMES.index(text[0]), int(text[1:]))

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

    def key(self) -> tuple:
        """Byte-image identity of the form, used for explicit deduplication."""
        return (self.const, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other) -> bool:
        return (isinstance(other, AffineForm)
                and self.const == other.const and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.key())

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


def canonicalize(equation: Equation) -> Equation:
    """Integer content 1, sign fixed by the lowest unknown, terms sorted.

    A trivially true equation maps to the empty form; a pure nonzero
    constant normalizes to 1 = 0.
    """
    form = equation.lhs
    if form.is_zero:
        if not form.coeffs and isinstance(form.const, int):
            return equation
        return Equation(AffineForm.zero(), equation.id)
    lcm = form.const.denominator
    for r in form.coeffs.values():
        lcm = math.lcm(lcm, r.denominator)
    const = form.const.numerator * (lcm // form.const.denominator)
    ints = {u: r.numerator * (lcm // r.denominator)
            for u, r in form.coeffs.items()}
    g = abs(const)
    for value in ints.values():
        g = math.gcd(g, abs(value))
    if ints:
        lead = min(ints)
        if ints[lead] < 0:
            g = -g
    elif const < 0:
        g = -g
    const //= g
    coeffs = {u: ints[u] // g for u in sorted(ints)}
    return Equation(AffineForm._raw(const, coeffs), equation.id)


@dataclass
class LinearSystem:
    """Ordered equations over an explicit universe of unknowns."""

    equations: list[Equation]
    universe: frozenset[UnknownId]

    def __post_init__(self):
        self.universe = frozenset(self.universe)

    def __len__(self) -> int:
        return len(self.equations)

    @property
    def term_total(self) -> int:
        return sum(eq.lhs.term_count for eq in self.equations)

    def sorted_universe(self) -> list[UnknownId]:
        return sorted(self.universe)

    def deduplicated(self) -> "LinearSystem":
        """Drop equations with an identical canonical byte-image.

        Generation never calls this; redundant equations carry information
        for the solver's statistics, so removal is strictly on request.
        """
        seen = set()
        kept = []
        for eq in self.equations:
            k = canonicalize(eq).lhs.key()
            if k not in seen:
                seen.add(k)
                kept.append(eq)
        return LinearSystem(kept, self.universe)

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearSystem)
                and self.universe == other.universe
                and len(self.equations) == len(other.equations)
                and all(a.id == b.id and a.lhs == b.lhs
                        for a, b in zip(self.equations, other.equations)))


class NullspaceResult(NamedTuple):
    rank: int
    basis: list[dict[UnknownId, Rational]]


def dense_nullspace_oracle(system: LinearSystem) -> NullspaceResult:
    """Rank and an explicit nullspace basis by exact Gauss-Jordan elimination.

    Independent of the selective solver: no zero registry, no 1-term
    shortcuts, just full elimination of the coefficient matrix (constants
    are ignored).  Guarded because elimination materializes fill-in.
    """
    columns = system.sorted_universe()
    limit = unknown_limit(ORACLE_MAX_UNKNOWNS)
    if len(columns) > limit:
        raise TooLargeError(
            f"{len(columns)} unknowns exceed the oracle guard of {limit}")

    # pivot_rows[p] holds the tail t with x_p = -sum(t[c] * x_c); tails never
    # mention other pivot columns, so reducing a row is a single pass.
    pivot_rows: dict[UnknownId, dict[UnknownId, Rational]] = {}
    for eq in system.equations:
        row = dict(eq.lhs.coeffs)
        for p in [c for c in row if c in pivot_rows]:
            r = row.pop(p)
            for c, v in pivot_rows[p].items():
                s = row.get(c, 0) - r * v
                if s == 0:
                    row.pop(c, None)
                else:
                    row[c] = s
        if not row:
            continue
        p = min(row)
        r = row.pop(p)
        tail = {c: exact_div(v, r) for c, v in row.items()}
        for q, tq in pivot_rows.items():
            rq = tq.pop(p, 0)
            if rq == 0:
                continue
            for c, v in tail.items():
                s = tq.get(c, 0) - rq * v
                if s == 0:
                    tq.pop(c, None)
                else:
                    tq[c] = s
        pivot_rows[p] = tail

    basis = []
    for f in columns:
        if f in pivot_rows:
            continue
        vec: dict[UnknownId, Rational] = {f: 1}
        for p, tail in pivot_rows.items():
            r = tail.get(f, 0)
            if r != 0:
                vec[p] = -r
        basis.append(vec)
    return NullspaceResult(len(pivot_rows), basis)
