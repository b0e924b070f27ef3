"""Linear systems as packed rows: the harvest, the view and the read's size.

The references here are the solver as it was on ``Equation`` lists over
unknowns.  ``reference_find_zeros`` prunes each form against the zero set
in every round and keeps the pruned form; ``reference_stream_solve``
streams Equations through a pivot map over unknowns; and
``reference_lsss_solve`` chains the two with a stable sort by size.  The
packed harvest must agree with its reference on the new zeros of every
round, the zero set, the rows left (ids, term order and value types) and
the text of an inconsistency; ``tests/test_solver.py`` holds the column
solver to ``reference_lsss_solve``.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from selsolve.errors import BoundsError, InconsistentSystemError
from selsolve.formats import read_system
from selsolve.linsys import (KIND_A, KIND_C, AffineForm, Equation,
                             LinearSystem, UnknownId, exact_div,
                             format_rational, substitute)
from selsolve.solver import SolutionState, find_zeros, lsss_solve

from test_oracle_reference import derandomized

X = [UnknownId(KIND_C, i) for i in range(6)]
#: An unknown that no system below mentions or holds in its universe.
OUTSIDE = UnknownId(KIND_A, 0)


def prune_zeros(form, zeros):
    """Drop every term whose unknown is known to be zero."""
    if form.coeffs.keys().isdisjoint(zeros):
        return form
    coeffs = {u: r for u, r in form.coeffs.items() if u not in zeros}
    return AffineForm._raw(form.const, coeffs)


def canonicalize(equation):
    """Integer content 1, sign fixed by the lowest unknown, terms sorted.

    A trivially true equation maps to the empty form; a pure nonzero
    constant normalizes to 1 = 0.  An equation already in this form is
    returned as it is.
    """
    form = equation.lhs
    if form.is_zero:
        if not form.coeffs and isinstance(form.const, int):
            return equation
        return Equation(AffineForm.zero(), equation.id)
    const, coeffs = form.const, form.coeffs
    if type(sum(coeffs.values(), const)) is int:  # no Fraction among them
        g = math.gcd(const, *coeffs.values())
        ints = coeffs
    else:
        lcm = const.denominator
        for r in coeffs.values():
            lcm = math.lcm(lcm, r.denominator)
        const = const.numerator * (lcm // const.denominator)
        ints = {u: r.numerator * (lcm // r.denominator)
                for u, r in coeffs.items()}
        g = math.gcd(const, *ints.values())
    order = sorted(ints)
    if (ints[order[0]] if order else const) < 0:
        g = -g
    elif g == 1 and ints is coeffs and order == list(coeffs):
        return equation
    return Equation(AffineForm._raw(const // g, {u: ints[u] // g
                                                  for u in order}),
                    equation.id)


def fresh_state(universe, zeros):
    """A state with nothing solved but ``zeros``, over ``universe``."""
    free = {u for u in universe if u not in zeros}
    return SolutionState(zeros, {}, free)


def reference_stream_solve(equations, state):
    """Feed Equations one at a time into a state over unknowns."""
    pivots = state.pivots
    # occurrences[u] = pivot left-hand sides whose rhs currently mentions u
    occurrences = {}
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
            raise InconsistentSystemError(
                f"linear system is inconsistent: equation {eq.id} "
                f"reduces to {format_rational(form.const)} = 0")
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


def reference_lsss_solve(system):
    """Harvest, a stable sort by term count, then the stream."""
    zeros = set()
    remaining, rounds = reference_find_zeros(system, zeros)
    state = fresh_state(system.universe, zeros)
    state.zero_rounds = rounds
    return reference_stream_solve(
        sorted(remaining, key=lambda eq: eq.lhs.term_count), state)


def reference_find_zeros(system, zeros):
    """The harvest on Equation lists: (rows left, new zeros per round)."""
    equations = list(system.equations)
    new_per_round = []
    while True:
        batch = set()
        kept = []
        for eq in equations:
            form = prune_zeros(eq.lhs, zeros)
            if form.is_zero:
                continue
            if not form.coeffs:
                raise InconsistentSystemError(
                    f"linear system is inconsistent: equation {eq.id} "
                    f"reduces to {format_rational(form.const)} = 0")
            if form.term_count == 1 and form.const == 0:
                (uid,) = form.coeffs
                batch.add(uid)
            else:
                kept.append(eq if form is eq.lhs else Equation(form, eq.id))
        new_per_round.append(len(batch))
        if not batch:
            return [canonicalize(eq) for eq in kept], new_per_round
        zeros.update(batch)
        equations = kept


def packed_find_zeros(system, zeros):
    result = find_zeros(system, zeros)
    return list(result.remaining.equations), result.new_per_round


def spelled(equations):
    """Rows exactly: ids, constants and terms in order, with value types."""
    return [(eq.id, repr(eq.lhs.const),
             [(uid, repr(value)) for uid, value in eq.lhs.coeffs.items()])
            for eq in equations]


def harvest_outcome(finder, system, seeded=()):
    """Rows left, rounds and zero set, or the inconsistency's text."""
    zeros = set(seeded)
    try:
        remaining, rounds = finder(system, zeros)
    except InconsistentSystemError as exc:
        return str(exc)
    return spelled(remaining), rounds, sorted(zeros)


def assert_harvests_agree(system, seeded=()):
    assert harvest_outcome(packed_find_zeros, system, seeded) \
        == harvest_outcome(reference_find_zeros, system, seeded)


def rows_system(rows, extra=()):
    """Rows given as (const, {index: value}) over X, ids 0.., the
    universe their unknowns and ``extra``."""
    equations = [Equation(AffineForm._raw(const, {X[i]: v
                                                  for i, v in terms.items()}),
                          k) for k, (const, terms) in enumerate(rows)]
    universe = {X[i] for _, terms in rows for i in terms} | set(extra)
    return LinearSystem(equations, universe)


values = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(2, 4)),
    st.integers(-3, 3).filter(bool).map(Fraction))  # whole Fractions
# a constant on one row in six and no term on one in ten, so that most
# systems cascade over rounds rather than stop at a contradiction
row_strategy = st.tuples(
    st.integers(0, 5).flatmap(lambda k: values if k == 0 else st.just(0)),
    st.integers(0, 9).flatmap(lambda k: st.just({}) if k == 0 else
                              st.dictionaries(st.integers(0, len(X) - 1),
                                              values, min_size=1,
                                              max_size=3)))


@derandomized
@given(rows=st.lists(row_strategy, max_size=10),
       extra=st.sets(st.sampled_from(X)),
       seeded=st.sets(st.sampled_from(X + [OUTSIDE]), max_size=2))
# x0 dies in round 1, x1 in round 2, and then x1 + 3 = 0 is 3 = 0 in round 3
@example(rows=[(0, {0: 1}), (0, {0: 2, 1: -1}), (3, {1: 1})], extra=set(),
         seeded=set())
# x0 + x1 = 0 prunes to 0 = 0 only in round 2
@example(rows=[(0, {0: 1}), (0, {1: Fraction(1, 2)}),
               (0, {0: 1, 1: Fraction(2)}), (0, {2: 2, 3: -3})],
         extra={X[5]}, seeded={OUTSIDE})
# 1 = 0 in round 1, and a seeded zero that makes another row 2 = 0
@example(rows=[(0, {2: 1, 3: 1}), (1, {}), (2, {4: 1})], extra=set(),
         seeded={X[4]})
# the first round, told by row lengths: two rows of one entry on x0
# harvest it once
@example(rows=[(0, {0: 1}), (0, {1: 1, 0: 2}), (0, {0: -3})], extra=set(),
         seeded=set())
# a row of one entry and a constant is kept, in every round
@example(rows=[(2, {1: 3}), (0, {0: 1}), (0, {0: 1, 2: 1})], extra=set(),
         seeded=set())
# two empty rows with constants after a row of one entry: the first raises
@example(rows=[(0, {0: 1}), (0, {1: 1, 2: 1}), (2, {}), (-1, {})],
         extra=set(), seeded=set())
# no row of one entry, as in the staged F step: round 1 finds nothing
@example(rows=[(0, {0: 1, 1: -1}), (1, {2: 2, 3: 1}), (0, {}),
               (0, {4: Fraction(1, 2), 5: 1})], extra=set(), seeded=set())
def test_packed_harvest_equals_reference(rows, extra, seeded):
    assert_harvests_agree(rows_system(rows, extra), seeded)


@pytest.mark.parametrize("rows, seeded, outcome", [
    ([(0, {0: 1}), (0, {0: 2, 1: -1}), (3, {1: 1})], (),
     "linear system is inconsistent: equation 2 reduces to 3 = 0"),
    ([(0, {0: 1}), (Fraction(-1, 2), {0: 3})], (),
     "linear system is inconsistent: equation 1 reduces to -1/2 = 0"),
    ([(0, {2: 1, 3: 1}), (1, {})], (),
     "linear system is inconsistent: equation 1 reduces to 1 = 0"),
    ([(0, {0: 1}), (0, {0: 1, 1: 1}), (0, {1: 1, 2: 1, 3: 1})], (X[3],),
     ([], [1, 1, 1, 0], [X[0], X[1], X[2], X[3]])),
    ([(0, {0: 1}), (0, {1: 1, 2: 1}), (2, {}), (-1, {})], (),
     "linear system is inconsistent: equation 2 reduces to 2 = 0"),
    ([(0, {0: 1, 1: -1}), (1, {2: 2, 3: 1}),
      (0, {4: Fraction(1, 2), 5: 1})], (),
     ([(0, "0", [(X[0], "1"), (X[1], "-1")]),
       (1, "1", [(X[2], "2"), (X[3], "1")]),
       (2, "0", [(X[4], "1"), (X[5], "2")])], [0], [])),
])
def test_rounds_and_contradictions_by_hand(rows, seeded, outcome):
    system = rows_system(rows)
    assert harvest_outcome(packed_find_zeros, system, seeded) == outcome
    assert harvest_outcome(reference_find_zeros, system, seeded) == outcome


def test_packed_harvest_updates_the_callers_zero_set():
    system = rows_system([(0, {0: 1}), (0, {0: 1, 1: 2, 2: 1})])
    zeros = {OUTSIDE, X[2]}
    result = find_zeros(system, zeros)
    assert zeros == {OUTSIDE, X[0], X[1], X[2]}
    assert result.new_per_round == [1, 1, 0] and len(result.remaining) == 0


@pytest.mark.parametrize("degree", range(3, 8))
def test_packed_harvest_equals_reference_on_symmetry_files(symmetry_files,
                                                           degree):
    system = read_system(symmetry_files[degree])
    assert_harvests_agree(system)
    if degree == 7:
        _, rounds, _ = harvest_outcome(packed_find_zeros, system)
        assert rounds == [6891, 1210, 370, 110, 28, 2, 0]


def test_equations_view_reads_like_a_list():
    forms = [AffineForm(0, {X[1]: 2, X[0]: -1}), AffineForm.constant(3),
             AffineForm(Fraction(1, 2), {X[4]: Fraction(2)})]
    equations = [Equation(form, 10 + k) for k, form in enumerate(forms)]
    view = LinearSystem(equations, X).equations
    assert len(view) == 3 and view == equations and list(view) == equations
    assert view[1] == equations[1] and view[-1] == equations[-1]
    assert view[1:] == equations[1:] and view[::-1] == equations[::-1]
    assert view != equations[:2] and view != equations[::-1]
    # terms decode in the order they were packed, values as they were
    assert spelled(view) == spelled(equations)
    with pytest.raises(IndexError):
        view[3]


def test_solve_on_the_degree_6_file_stays_small(symmetry_files):
    # the d6 file (17,769 rows, 49,889 entries): the read packs its rows
    # into flat arrays and the harvest decodes only the 388 rows it
    # leaves, so read and solve peak near 1.9 MB; a dict, an AffineForm
    # and an Equation per row peaked at 9.0 MB
    tracemalloc.start()
    try:
        state = lsss_solve(read_system(symmetry_files[6]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.free_count == 5
    assert peak <= 3.0e6


def test_a_row_past_what_an_id_holds_is_refused(tmp_path):
    # ids are signed 64-bit ints: row 2**63 is the last one a system holds
    path = tmp_path / "far.sys"
    path.write_text(f"{10 ** 20} 1\n{2 ** 63} 1 1\n0 0 0\n")
    assert [eq.id for eq in read_system(str(path)).equations] == [2 ** 63 - 1]
    path.write_text(f"{10 ** 20} 1\n{2 ** 63 + 1} 1 1\n0 0 0\n")
    with pytest.raises(BoundsError, match=r"^line 2: row 9223372036854775809 "
                       r"over the 9223372036854775808 rows a system holds$"):
        read_system(str(path))
