"""Solver for selection systems: sparse linear systems whose solution sets
most unknowns to zero.

The entry point :func:`lsss_solve` chains three stages: harvest 1-term
equations to a fixpoint (:func:`find_zeros`), bucket-sort what is left by
size (:func:`length_sort`), then stream the remaining equations through an
incrementally back-substituted pivot map (:func:`stream_solve`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import InconsistentSystemError
from .linsys import (AffineForm, Equation, LinearSystem, Rational, UnknownId,
                     canonicalize, exact_div, format_rational, substitute)


class ZeroRegistry:
    """Set of unknowns known to vanish; a per-solve context object.

    Grows monotonically within one solve; a registered unknown never
    reappears with a nonzero value.
    """

    __slots__ = ("_zeros",)

    def __init__(self, zeros: Iterable[UnknownId] = ()):
        self._zeros = set(zeros)

    def add(self, uid: UnknownId) -> bool:
        """Register one unknown; True if it was new."""
        if uid in self._zeros:
            return False
        self._zeros.add(uid)
        return True

    def update(self, uids: Iterable[UnknownId]) -> int:
        before = len(self._zeros)
        self._zeros.update(uids)
        return len(self._zeros) - before

    def __contains__(self, uid: UnknownId) -> bool:
        return uid in self._zeros

    def __len__(self) -> int:
        return len(self._zeros)

    def __iter__(self) -> Iterator[UnknownId]:
        return iter(self._zeros)

    def sorted(self) -> list[UnknownId]:
        return sorted(self._zeros)

    def __repr__(self) -> str:
        return f"ZeroRegistry({len(self._zeros)} zeros)"


def prune_zeros(form: AffineForm, registry: ZeroRegistry) -> AffineForm:
    """Drop every term whose unknown is registered as zero.

    Equivalent to substituting 0 for each registered unknown; a single pass
    with no other rewriting.
    """
    hit = [u for u in form.coeffs if u in registry]
    if not hit:
        return form
    coeffs = {u: r for u, r in form.coeffs.items() if u not in registry}
    return AffineForm._raw(form.const, coeffs)


class FindZerosResult(NamedTuple):
    remaining: LinearSystem
    new_per_round: list[int]

    @property
    def rounds(self) -> int:
        """Number of productive rounds; the trailing 0 sweep is not one."""
        return sum(1 for n in self.new_per_round if n > 0)


def _contradiction(eq: Equation, form: AffineForm) -> InconsistentSystemError:
    return InconsistentSystemError(
        f"linear system is inconsistent: equation {eq.id} reduces to "
        f"{format_rational(form.const)} = 0")


def find_zeros(system: LinearSystem, registry: ZeroRegistry) -> FindZerosResult:
    """Repeatedly harvest 1-term equations r*x = 0 until a fixpoint.

    Each round prunes against the registry as it stood at the round start
    and registers the whole batch at the round boundary, so the per-round
    counts are well defined.  Returns the pruned non-identity equations and
    the new-zero count of every round (the final sweep reports 0).
    """
    equations = list(system.equations)
    new_per_round: list[int] = []
    while True:
        batch: set[UnknownId] = set()
        kept: list[Equation] = []
        for eq in equations:
            form = prune_zeros(eq.lhs, registry)
            if form.is_zero:
                continue
            if not form.coeffs:
                raise _contradiction(eq, form)
            if form.term_count == 1 and form.const == 0:
                (uid,) = form.coeffs
                batch.add(uid)
            else:
                if form is eq.lhs:
                    kept.append(eq)
                else:
                    kept.append(Equation(form, eq.id))
        new_per_round.append(len(batch))
        if not batch:
            remaining = LinearSystem([canonicalize(eq) for eq in kept],
                                     system.universe)
            return FindZerosResult(remaining, new_per_round)
        registry.update(batch)
        equations = kept


def length_sort(system: LinearSystem) -> LinearSystem:
    """Stable reorder by ascending term count via bucket lists.

    Linear in the total number of terms; equations are never compared with
    each other.
    """
    buckets: list[list[Equation]] = []
    for eq in system.equations:
        count = eq.lhs.term_count
        while len(buckets) <= count:
            buckets.append([])
        buckets[count].append(eq)
    ordered = [eq for bucket in buckets for eq in bucket]
    return LinearSystem(ordered, system.universe)


@dataclass
class SolutionState:
    """Zero set, back-substituted pivot map, and free unknowns.

    The three domains are pairwise disjoint and union to the universe;
    every pivot right-hand side mentions free unknowns only.  ``identities``
    counts equations that reduced to 0 = 0 while streaming (diagnostics).
    """

    universe: frozenset[UnknownId]
    zeros: ZeroRegistry
    pivots: dict[UnknownId, AffineForm]
    free: set[UnknownId]
    identities: int = 0
    zero_rounds: list[int] = field(default_factory=list)

    @classmethod
    def fresh(cls, universe: Iterable[UnknownId],
              registry: ZeroRegistry | None = None) -> "SolutionState":
        uni = frozenset(universe)
        reg = registry if registry is not None else ZeroRegistry()
        free = {u for u in uni if u not in reg}
        return cls(uni, reg, {}, free)

    @property
    def free_count(self) -> int:
        return len(self.free)

    def check_invariants(self) -> None:
        zs = set(self.zeros)
        assert zs.isdisjoint(self.pivots) and zs.isdisjoint(self.free)
        assert not set(self.pivots) & self.free
        assert zs | set(self.pivots) | self.free == set(self.universe)
        for rhs in self.pivots.values():
            assert set(rhs.coeffs) <= self.free

    def reduce_form(self, form: AffineForm) -> AffineForm:
        """Apply zeros then pivots; the result mentions free unknowns only."""
        return substitute(prune_zeros(form, self.zeros), self.pivots)

    def satisfies(self, equation: Equation) -> bool:
        return self.reduce_form(equation.lhs).is_zero

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
        """Does a concrete assignment satisfy zeros and pivot relations?"""
        for z in self.zeros:
            if vec.get(z, 0) != 0:
                return False
        for p, rhs in self.pivots.items():
            value = rhs.const
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
            raise _contradiction(eq, form)

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
               registry: ZeroRegistry | None = None) -> SolutionState:
    """Solve an arbitrary (under-, well-, or overdetermined) linear system.

    Zeros first, then size-sorted streaming.  A pre-seeded registry lets a
    staged pipeline carry harvested zeros into the final solve.  For a
    homogeneous system the number of free unknowns is the nullity.
    """
    reg = registry if registry is not None else ZeroRegistry()
    found = find_zeros(system, reg)
    ordered = length_sort(found.remaining)
    state = SolutionState.fresh(system.universe, reg)
    state.zero_rounds = found.new_per_round
    return stream_solve(ordered.equations, state)
