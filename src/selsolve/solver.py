"""Solver for selection systems: sparse linear systems whose solution sets
most unknowns to zero.

The entry point :func:`lsss_solve` chains three stages: harvest 1-term
equations to a fixpoint (:func:`find_zeros`), bucket-sort what is left by
size (:func:`length_sort`), then stream the remaining equations through an
incrementally back-substituted pivot map (:func:`stream_solve`).  The
unknowns known to vanish are a plain set that grows within one solve: a
zero never comes back with a nonzero value.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import Iterable, NamedTuple

from .errors import InconsistentSystemError
from .linsys import (AffineForm, Equation, LinearSystem, Rational, UnknownId,
                     canonicalize, exact_div, format_rational, substitute)


def prune_zeros(form: AffineForm, zeros: set[UnknownId]) -> AffineForm:
    """Drop every term whose unknown is known to be zero.

    Equivalent to substituting 0 for each zero; a single pass with no other
    rewriting.
    """
    if form.coeffs.keys().isdisjoint(zeros):
        return form
    coeffs = {u: r for u, r in form.coeffs.items() if u not in zeros}
    return AffineForm._raw(form.const, coeffs)


class FindZerosResult(NamedTuple):
    remaining: LinearSystem
    new_per_round: list[int]

    @property
    def rounds(self) -> int:
        """Number of productive rounds; the trailing 0 sweep is not one."""
        return sum(1 for n in self.new_per_round if n > 0)


def _contradiction(eq_id: int, const: Rational) -> InconsistentSystemError:
    return InconsistentSystemError(
        f"linear system is inconsistent: equation {eq_id} reduces to "
        f"{format_rational(const)} = 0")


def find_zeros(system: LinearSystem, zeros: set[UnknownId]) -> FindZerosResult:
    """Repeatedly harvest 1-term equations r*x = 0 until a fixpoint.

    Works on the packed rows against a mask over columns.  Each round
    prunes against the zeros as they stood at the round start and adds
    the whole batch at the round boundary, so the per-round counts are
    well defined; ``zeros`` grows in place.  Only the rows left are
    decoded, pruned and canonicalized, into the returned system; the
    new-zero count of every round comes with it (the final sweep reports
    0).
    """
    universe, consts, ids = system.universe, system.consts, system.ids
    starts, cols = system.starts, system.cols
    dead = bytearray(map(zeros.__contains__, universe))
    rows: Iterable[int] = range(len(system))
    new_per_round: list[int] = []
    while True:
        batch: set[int] = set()
        kept = array("q")
        pruning = any(dead)  # else every entry is live
        for k in rows:
            live = cols[starts[k]:starts[k + 1]]
            if pruning:
                live = list(filterfalse(dead.__getitem__, live))
            if len(live) > 1 or live and consts[k]:
                kept.append(k)
            elif live:
                batch.add(live[0])
            elif consts[k]:
                raise _contradiction(ids[k], consts[k])
        new_per_round.append(len(batch))
        if not batch:
            return FindZerosResult(_pruned(system, kept, dead), new_per_round)
        for c in batch:
            dead[c] = 1
        zeros.update(map(universe.__getitem__, batch))
        rows = kept


def _pruned(system: LinearSystem, rows: Iterable[int],
            dead: bytearray) -> LinearSystem:
    """The given rows without their dead columns, each canonicalized over
    columns, which order as their unknowns do."""
    out = LinearSystem.over(system.universe)
    starts, cols, values = system.starts, system.cols, system.values
    for k in rows:
        a, b = starts[k], starts[k + 1]
        form = AffineForm._raw(system.consts[k], {
            c: r for c, r in zip(cols[a:b], values[a:b]) if not dead[c]})
        eq = canonicalize(Equation(form, system.ids[k]))
        coeffs = eq.lhs.coeffs
        out.append(eq.id, eq.lhs.const, coeffs, coeffs.values())
    return out


def length_sort(system: LinearSystem) -> LinearSystem:
    """Stable reorder by ascending term count via bucket lists of rows.

    Linear in the number of rows; equations are never compared with each
    other.
    """
    buckets: list[list[int]] = []
    for k, count in enumerate(system.row_lengths()):
        while len(buckets) <= count:
            buckets.append([])
        buckets[count].append(k)
    return system.take(k for bucket in buckets for k in bucket)


@dataclass
class SolutionState:
    """Zero set, back-substituted pivot map, and free unknowns.

    The three domains are pairwise disjoint and union to the universe;
    every pivot right-hand side mentions free unknowns only.  ``identities``
    counts equations that reduced to 0 = 0 while streaming (diagnostics).
    """

    universe: frozenset[UnknownId]
    zeros: set[UnknownId]
    pivots: dict[UnknownId, AffineForm]
    free: set[UnknownId]
    identities: int = 0
    zero_rounds: list[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, universe: Iterable[UnknownId],
              zeros: set[UnknownId] | None = None) -> "SolutionState":
        uni = frozenset(universe)
        zeros = set() if zeros is None else zeros
        free = {u for u in uni if u not in zeros}
        return cls(uni, zeros, {}, free)

    @property
    def free_count(self) -> int:
        return len(self.free)

    def basis(self) -> list[dict[UnknownId, Rational]]:
        """Solution-space basis: one vector per free unknown, that unknown
        set to 1.  Zero components are left implicit."""
        out = []
        for f in sorted(self.free):
            vec: dict[UnknownId, Rational] = {f: 1}
            for p, rhs in self.pivots.items():
                r = rhs.coeffs.get(f, 0)
                if r != 0:
                    vec[p] = r
            out.append(vec)
        return out

    def contains_vector(self, vec: dict[UnknownId, Rational]) -> bool:
        """Is ``vec`` a direction of the solution set?

        It must vanish on the zeros and satisfy every pivot relation with
        its constant dropped, as a nullspace vector does.
        """
        for z in self.zeros:
            if vec.get(z, 0) != 0:
                return False
        for p, rhs in self.pivots.items():
            value = 0
            for u, r in rhs.coeffs.items():
                value += r * vec.get(u, 0)
            if vec.get(p, 0) != value:
                return False
        return True

    def full_assignment(self, free_values: dict[UnknownId, Rational]
                        ) -> dict[UnknownId, Rational]:
        """Evaluate the whole universe from values for the free unknowns."""
        values: dict[UnknownId, Rational] = {z: 0 for z in self.zeros}
        values.update(free_values)
        for p, rhs in self.pivots.items():
            values[p] = rhs.evaluate(free_values)
        return values


def stream_solve(equations: Iterable[Equation],
                 state: SolutionState) -> SolutionState:
    """Feed equations one at a time into the evolving solution state.

    Memory depends only on the state, never on how many equations stream
    through.  The state is updated in place and returned.
    """
    pivots = state.pivots
    # occurrences[u] = pivot left-hand sides whose rhs currently mentions u
    occurrences: dict[UnknownId, set[UnknownId]] = {}
    for p, rhs in pivots.items():
        for u in rhs.coeffs:
            occurrences.setdefault(u, set()).add(p)

    for eq in equations:
        form = prune_zeros(eq.lhs, state.zeros)
        form = substitute(form, pivots)
        if form.is_zero:
            state.identities += 1
            continue
        if not form.coeffs:
            raise _contradiction(eq.id, form.const)

        # Prefer a unit coefficient, else the smallest |num|*|den|; break
        # ties toward the lowest unknown.  Bounds coefficient growth and is
        # deterministic.
        x, r = min(form.coeffs.items(),
                   key=lambda kv: (abs(kv[1].numerator) * kv[1].denominator,
                                   kv[0]))
        rhs = AffineForm._raw(
            exact_div(-form.const, r) if form.const else 0,
            {u: exact_div(-c, r) for u, c in form.coeffs.items() if u != x})

        for p in occurrences.pop(x, ()):
            old = pivots[p]
            new = substitute(old, {x: rhs})
            pivots[p] = new
            for u in rhs.coeffs:
                if u in new.coeffs:
                    occurrences.setdefault(u, set()).add(p)
            for u in old.coeffs:
                if u != x and u not in new.coeffs:
                    occurrences[u].discard(p)

        state.free.discard(x)
        if rhs.is_zero:
            state.zeros.add(x)
        else:
            pivots[x] = rhs
            for u in rhs.coeffs:
                occurrences.setdefault(u, set()).add(x)
    return state


def lsss_solve(system: LinearSystem,
               zeros: set[UnknownId] | None = None) -> SolutionState:
    """Solve an arbitrary (under-, well-, or overdetermined) linear system.

    Zeros first, then size-sorted streaming.  Pre-seeded zeros are taken
    as known; the set grows in place.  (A staged pipeline hands over only
    its live system instead.)  For a homogeneous system the number of
    free unknowns is the nullity.
    """
    zeros = set() if zeros is None else zeros
    found = find_zeros(system, zeros)
    ordered = length_sort(found.remaining)
    state = SolutionState.fresh(system.universe, zeros)
    state.zero_rounds = found.new_per_round
    return stream_solve(ordered.equations, state)
