"""Solver for selection systems: sparse linear systems whose solution sets
most unknowns to zero.

The entry point :func:`lsss_solve` chains three stages over the packed
rows of a :class:`LinearSystem`, all on its columns: harvest 1-term rows
to a fixpoint (:func:`find_zeros`), order what is left by size
(:func:`length_sort`), then stream it in that order, in place, through
an incrementally back-substituted pivot map over columns
(:func:`stream_solve`).  The zeros are a ``bytearray`` mask over the
columns, and a zero never comes back with a nonzero value.  The finished
state is labelled by the universe once (:meth:`SolutionState.relabel`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, filterfalse
from operator import eq, gt, not_
from typing import Iterable, NamedTuple, Sequence

from .errors import InconsistentSystemError
from .linsys import (AffineForm, LinearSystem, Rational, UnknownId,
                     canonical_row, exact_div, format_rational, substitute)


class FindZerosResult(NamedTuple):
    remaining: LinearSystem
    new_per_round: list[int]
    dead: bytearray  # one byte per column, 1 for each zero

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
    well defined; ``zeros`` grows in place.  A round that starts with no
    dead column (the first, unless ``zeros`` holds an unknown of the
    system) has nothing to prune, and tells its rows apart by their
    lengths alone (:func:`_first_round`); every later round slices each
    row it kept and drops its dead columns.  The rows left come back
    canonical (:func:`canonical_row`) without their dead columns, with
    the new-zero count of every round (the final sweep reports 0) and the
    mask; a row that lost no column and was canonical is copied as its
    slices, so no row is decoded.
    """
    universe, consts, ids = system.universe, system.consts, system.ids
    starts, cols = system.starts, system.cols
    dead = bytearray(map(zeros.__contains__, universe))
    rows: Iterable[int] = range(len(system))
    new_per_round: list[int] = []
    while True:
        if not any(dead):
            batch, kept = _first_round(system)
        else:
            batch, kept = set(), array("q")
            for k in rows:
                live = list(filterfalse(dead.__getitem__,
                                        cols[starts[k]:starts[k + 1]]))
                if len(live) > 1 or live and consts[k]:
                    kept.append(k)
                elif live:
                    batch.add(live[0])
                elif consts[k]:
                    raise _contradiction(ids[k], consts[k])
        new_per_round.append(len(batch))
        if not batch:
            return FindZerosResult(_pruned(system, kept, dead),
                                   new_per_round, dead)
        for c in batch:
            dead[c] = 1
        zeros.update(map(universe.__getitem__, batch))
        rows = kept


def _first_round(system: LinearSystem) -> tuple[set[int], array]:
    """A round with no column dead, by maps over the row lengths: the
    batch, the column of each row of one entry and no constant, and the
    rows kept, each longer or of one entry and a constant.  An empty row
    with a constant raises, the first in row order; one without drops
    out."""
    consts, lengths = system.consts, list(system.row_lengths())
    rows = range(len(lengths))
    if not all(lengths):  # some row has no entry
        for k in compress(rows, map(not_, lengths)):
            if consts[k]:
                raise _contradiction(system.ids[k], consts[k])
    # with bare True for a row without a constant, length == bare only
    # for one entry and bare (an empty row with a constant has raised),
    # and length > bare for every row kept; bare is mapped twice, not
    # held, so the round holds one list beside the system
    batch = set(map(system.cols.__getitem__, compress(
        system.starts, map(eq, lengths, map(not_, consts)))))
    return batch, array("q", compress(rows, map(gt, lengths,
                                                map(not_, consts))))


def _pruned(system: LinearSystem, rows: Iterable[int],
            dead: bytearray) -> LinearSystem:
    """The given rows without their dead columns, each canonical."""
    out = LinearSystem.over(system.universe)
    starts, cols, values = system.starts, system.cols, system.values
    for k in rows:
        a, b = starts[k], starts[k + 1]
        row, row_values = cols[a:b], values[a:b]
        if any(map(dead.__getitem__, row)):  # a kept row keeps 1 at least
            row, row_values = zip(*((c, r) for c, r in zip(row, row_values)
                                    if not dead[c]))
        out.append(system.ids[k],
                   *canonical_row(system.consts[k], row, row_values))
    return out


def length_sort(system: LinearSystem) -> list[int]:
    """The row indices in stable ascending order of term count; only the
    counts are compared and no row is copied."""
    return system.length_order()


@dataclass
class SolutionState:
    """Zero set, back-substituted pivot map, and free unknowns.

    The three domains are pairwise disjoint and union to the universe,
    which is joined from them when read; every pivot right-hand side
    mentions free unknowns only.  ``identities`` counts equations that
    reduced to 0 = 0 while streaming (diagnostics).
    """

    zeros: set[UnknownId]
    pivots: dict[UnknownId, AffineForm]
    free: set[UnknownId]
    identities: int = 0
    zero_rounds: list[int] = field(default_factory=list)

    @property
    def universe(self) -> frozenset[UnknownId]:
        return frozenset().union(self.zeros, self.pivots, self.free)

    @property
    def free_count(self) -> int:
        return len(self.free)

    def relabel(self, labels: Sequence, dead: bytearray) -> "SolutionState":
        """The state over all of ``labels``: every unknown u renamed
        ``labels[u]``, and ``labels[c]`` a zero for each c set in the mask
        ``dead``, which marks the labels outside the state."""
        name = labels.__getitem__
        pivots = {name(p): AffineForm._raw(rhs.const, dict(zip(
            map(name, rhs.coeffs), rhs.coeffs.values())))
            for p, rhs in self.pivots.items()}
        zeros = set(map(name, self.zeros))
        zeros.update(compress(labels, dead))
        return SolutionState(zeros, pivots, set(map(name, self.free)),
                             self.identities, self.zero_rounds)

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
        return not any(vec.get(z, 0) for z in self.zeros) and all(
            vec.get(p, 0) == sum(r * vec.get(u, 0)
                                 for u, r in rhs.coeffs.items())
            for p, rhs in self.pivots.items())

    def full_assignment(self, free_values: dict[UnknownId, Rational]
                        ) -> dict[UnknownId, Rational]:
        """Evaluate the whole universe from values for the free unknowns."""
        values: dict[UnknownId, Rational] = {z: 0 for z in self.zeros}
        values.update(free_values)
        for p, rhs in self.pivots.items():
            values[p] = rhs.evaluate(free_values)
        return values


@dataclass
class ColumnState:
    """What a stream has solved over the columns of one system.

    ``dead`` holds one byte per column, 1 once the column is known to
    vanish; ``pivots`` maps each pivot column to its right-hand side, an
    affine form over the free columns; ``identities`` counts the rows
    that reduced to 0 = 0.
    """

    dead: bytearray
    pivots: dict[int, AffineForm] = field(default_factory=dict)
    identities: int = 0

    def solution(self, universe: Sequence,
                 zero_rounds: list[int]) -> SolutionState:
        """The state over ``universe``, column c its unknown universe[c]."""
        free = set(compress(range(len(self.dead)), map(not_, self.dead)))
        free.difference_update(self.pivots)
        return SolutionState(set(), self.pivots, free, self.identities,
                             zero_rounds).relabel(universe, self.dead)


def stream_solve(equations: LinearSystem, state: ColumnState,
                 rows: Iterable[int]) -> ColumnState:
    """Feed the rows of a system into the column state in the order of
    the row indices ``rows``.

    Each row is pruned of the dead columns and has the pivots substituted.
    Unless that leaves 0 = 0, an identity, the row pivots on its column of
    least |num|*den, the lowest on a tie, which bounds coefficient growth
    and is deterministic; a right-hand side of 0 marks the column dead
    instead.  Memory depends only on the state, which is updated in place
    and returned.
    """
    dead, pivots = state.dead, state.pivots
    consts, starts = equations.consts, equations.starts
    cols, values = equations.cols, equations.values
    # occurrences[c] = pivot columns whose rhs currently mentions column c
    occurrences: dict[int, set[int]] = {}
    for p, rhs in pivots.items():
        for c in rhs.coeffs:
            occurrences.setdefault(c, set()).add(p)

    for k in rows:
        const, a, b = consts[k], starts[k], starts[k + 1]
        row = cols[a:b]
        coeffs = dict(zip(row, values[a:b]))
        if any(map(dead.__getitem__, row)):
            coeffs = {c: r for c, r in coeffs.items() if not dead[c]}
        form = substitute(AffineForm._raw(const, coeffs), pivots)
        if form.is_zero:
            state.identities += 1
            continue
        if not form.coeffs:
            raise _contradiction(equations.ids[k], form.const)

        x, r = min(form.coeffs.items(),
                   key=lambda kv: (abs(kv[1].numerator) * kv[1].denominator,
                                   kv[0]))
        rhs = AffineForm._raw(
            exact_div(-form.const, r) if form.const else 0,
            {c: exact_div(-v, r) for c, v in form.coeffs.items() if c != x})

        for p in occurrences.pop(x, ()):
            old = pivots[p]
            new = substitute(old, {x: rhs})
            pivots[p] = new
            for c in rhs.coeffs:
                if c in new.coeffs:
                    occurrences.setdefault(c, set()).add(p)
            for c in old.coeffs:
                if c != x and c not in new.coeffs:
                    occurrences[c].discard(p)

        if rhs.is_zero:
            dead[x] = 1
        else:
            pivots[x] = rhs
            for c in rhs.coeffs:
                occurrences.setdefault(c, set()).add(x)
    return state


def lsss_solve(system: LinearSystem) -> SolutionState:
    """Solve an arbitrary (under-, well-, or overdetermined) linear system.

    Zeros first, then size-sorted streaming, all over the system's
    columns; the finished state is labelled by its universe.  For a
    homogeneous system the number of free unknowns is the nullity.
    """
    found = find_zeros(system, set())
    state = stream_solve(found.remaining, ColumnState(found.dead),
                         length_sort(found.remaining))
    return state.solution(system.universe, found.new_per_round)
