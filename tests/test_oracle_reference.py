"""The dense nullspace oracle against its quadratic Fraction reference.

``reference_nullspace`` is the oracle as it was before it moved to integer
rows with a column index: rows in system order, each reduced row pivoting
on its lowest unknown, with every entry a rational and each new pivot
eliminated from every earlier pivot row.  The two must return equal
``NullspaceResult``s, rank and basis alike, although the oracle takes
the rows shortest first: the reduced row echelon form does not depend on
the order of the rows, and neither does the oracle's result.  Hypothesis
examples are derandomized, so the suite is deterministic.
"""

from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve.linsys import (KIND_A, KIND_C, AffineForm, Equation,
                             LinearSystem, NullspaceResult, Rational,
                             UnknownId, dense_nullspace_oracle, exact_div)
from selsolve.symmetry import build_symmetry_system

derandomized = settings(derandomize=True, database=None, deadline=None,
                        max_examples=200)


def reference_nullspace(system: LinearSystem) -> NullspaceResult:
    """Gauss-Jordan elimination on Fraction rows, no index, no guard."""
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
        for tq in pivot_rows.values():
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
    for f in system.universe:
        if f in pivot_rows:
            continue
        vec: dict[UnknownId, Rational] = {f: 1}
        for p, tail in pivot_rows.items():
            r = tail.get(f, 0)
            if r != 0:
                vec[p] = -r
        basis.append(vec)
    return NullspaceResult(len(pivot_rows), basis)


unknowns = st.builds(UnknownId, st.sampled_from((KIND_C, KIND_A)),
                     st.integers(0, 7))
rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
#: Sparse rows with constants; zero coefficients are dropped, so a row may
#: come out empty.
forms = st.builds(AffineForm, rationals,
                  st.dictionaries(unknowns, rationals, max_size=4))


@st.composite
def systems(draw) -> LinearSystem:
    rows = draw(st.lists(forms, max_size=14))
    if rows:
        # duplicate and rescaled rows, shuffled in among the others
        for i, scale in draw(st.lists(
                st.tuples(st.integers(0, len(rows) - 1),
                          st.sampled_from((1, -1, 2, Fraction(-1, 3)))),
                max_size=4)):
            rows.append(rows[i].scaled(scale))
        rows = draw(st.permutations(rows))
    universe = set(draw(st.sets(unknowns, max_size=3)))
    for form in rows:
        universe.update(form.coeffs)
    return LinearSystem([Equation(f, i) for i, f in enumerate(rows)],
                        universe)


@derandomized
@given(systems())
def test_oracle_equals_reference_on_sparse_rational_rows(system):
    assert dense_nullspace_oracle(system) == reference_nullspace(system)


def reordered(system: LinearSystem, order) -> LinearSystem:
    """The system of the rows ``order`` names, in that order."""
    return LinearSystem(map(system.equation, order), system.universe)


@derandomized
@given(st.data())
def test_oracle_ignores_the_order_of_the_rows(data):
    system = data.draw(systems())
    order = data.draw(st.permutations(range(len(system))))
    assert dense_nullspace_oracle(reordered(system, order)) \
        == dense_nullspace_oracle(system)


def test_oracle_ignores_the_order_of_the_plain_degree_5_rows():
    # without the side condition's rows in front, system order let
    # fill-in grow: about 5 s here, and minutes at degree 6
    system = build_symmetry_system(5, include_nc=False)
    result = dense_nullspace_oracle(system)
    assert len(result.basis) == 4
    assert len(system.universe) - result.rank == 4
    rows = list(range(len(system)))
    for order in (rows[::-1], rows[1::2] + rows[::2]):
        assert dense_nullspace_oracle(reordered(system, order)) == result
    for vec in result.basis:
        point = [vec.get(u, 0) for u in system.universe]
        assert not any(map(sub, system.values_at(point), system.consts))


@pytest.mark.parametrize("degree", [3, 4, 5, 6])
def test_oracle_equals_reference_on_symmetry_systems(degree):
    system = build_symmetry_system(degree, include_nc=True)
    assert dense_nullspace_oracle(system) == reference_nullspace(system)
