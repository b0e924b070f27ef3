from dataclasses import fields
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from selsolve.errors import InconsistentSystemError
from selsolve.formats import (read_solution, read_system, render_solution,
                              write_solution)
from selsolve.linsys import (KIND_C, AffineForm, Equation, LinearSystem,
                             UnknownId)
from selsolve.pipeline import default_strategy, run_strategy
from selsolve.solver import (ColumnState, SolutionState, find_zeros,
                             length_sort, lsss_solve, stream_solve)
from selsolve.symmetry import build_symmetry_system

from test_oracle_reference import derandomized, reordered, systems
from test_packed_rows import (fresh_state, reference_lsss_solve,
                              reference_stream_solve)
from test_properties import check_invariants, satisfies

X = [UnknownId(KIND_C, i) for i in range(8)]


def form(const=0, **named):
    coeffs = {X[int(k[1:])]: v for k, v in named.items()}
    return AffineForm(const, coeffs)


def system(*forms):
    return LinearSystem([Equation(f, i) for i, f in enumerate(forms)],
                        {u for f in forms for u in f.coeffs})


def streamed(universe, *forms):
    """``stream_solve`` on the forms as rows over ``universe``, from a
    fresh column state, labelled by the unknowns."""
    sys_ = LinearSystem([Equation(f, i) for i, f in enumerate(forms)],
                        universe)
    state = stream_solve(sys_, ColumnState(bytearray(len(sys_.universe))),
                         range(len(sys_)))
    return state.solution(sys_.universe, [])


def test_prune_zeros():
    # over x1, x2, x3 the dead column 1 is x2: it drops out of every row
    sys_ = system(form(0, x1=1, x2=2, x3=1), form(0, x2=1))
    state = stream_solve(sys_, ColumnState(bytearray([0, 1, 0])),
                         range(len(sys_)))
    assert state.pivots == {0: AffineForm(0, {2: -1})}
    assert state.identities == 1 and state.dead == bytearray([0, 1, 0])


def test_find_zeros_cascade():
    sys_ = system(form(0, x1=1),
                  form(0, x1=1, x2=2),
                  form(0, x2=3, x3=1, x4=-1))
    zeros = set()
    result = find_zeros(sys_, zeros)
    assert zeros == {X[1], X[2]}
    assert result.rounds == 2
    assert result.new_per_round == [1, 1, 0]
    assert len(result.remaining.equations) == 1
    assert result.remaining.equations[0].lhs == form(0, x3=1, x4=-1)


def test_find_zeros_no_one_term():
    sys_ = system(form(0, x1=1, x2=-1))
    zeros = set()
    result = find_zeros(sys_, zeros)
    assert len(zeros) == 0
    assert result.rounds == 0
    assert result.remaining.equations[0].lhs == form(0, x1=1, x2=-1)


def test_find_zeros_inconsistent():
    sys_ = system(form(1, x1=1))
    with pytest.raises(InconsistentSystemError,
                       match=r"equation 0 reduces to 1 = 0"):
        find_zeros(sys_, {X[1]})


def test_find_zeros_ignores_affine_one_term():
    # r*x + c with c != 0 is not a vanishing witness
    sys_ = system(form(1, x1=1))
    zeros = set()
    result = find_zeros(sys_, zeros)
    assert len(zeros) == 0 and len(result.remaining.equations) == 1


def test_length_sort_orders_and_is_stable():
    e3 = form(0, x1=1, x2=1, x3=1)
    e1 = form(0, x4=1)
    e2a = form(0, x1=1, x5=1)
    e2b = form(0, x2=1, x6=1)
    sys_ = system(e3, e2a, e1, e2b)
    order = length_sort(sys_)
    assert order == [2, 1, 3, 0]
    assert [sys_.equation(k).lhs for k in order] == [e1, e2a, e2b, e3]
    assert length_sort(system()) == []


def test_stream_solve_single_equation():
    state = streamed({X[3], X[4]}, form(0, x3=1, x4=-1))
    assert state.pivots == {X[3]: form(0, x4=1)}
    assert state.free == {X[4]}


def test_stream_solve_chains_and_identity():
    state = streamed({X[1], X[2], X[3]}, form(0, x1=1, x2=-1),
                     form(0, x2=1, x3=-1), form(0, x1=1, x2=1, x3=-2))
    assert state.pivots == {X[1]: form(0, x3=1), X[2]: form(0, x3=1)}
    assert state.free == {X[3]}
    assert state.identities == 1
    check_invariants(state)


def test_stream_solve_inconsistent():
    with pytest.raises(InconsistentSystemError,
                       match=r"equation 1 reduces to -1 = 0"):
        streamed({X[1]}, form(-1, x1=1), form(-2, x1=1))


def test_stream_solve_affine_solution():
    state = streamed({X[1], X[2]}, form(-1, x1=1, x2=1))
    assert state.pivots[X[1]] == form(1, x2=-1)


def test_stream_solve_registers_zero_rhs():
    state = streamed({X[1]}, form(0, x1=3))
    assert X[1] in state.zeros and not state.pivots


def test_pivot_choice_prefers_units():
    # 2*x1 + x2 = 0 must pivot on x2
    state = streamed({X[1], X[2]}, form(0, x1=2, x2=1))
    assert set(state.pivots) == {X[2]}
    assert state.pivots[X[2]] == form(0, x1=-2)


def test_pivot_tie_break_lowest_unknown():
    state = streamed({X[1], X[2]}, form(0, x1=1, x2=1))
    assert set(state.pivots) == {X[1]}


def test_lsss_solve_combines_stages():
    sys_ = system(form(0, x1=1),
                  form(0, x1=2, x2=1, x3=1),
                  form(0, x3=1, x4=-1))
    state = lsss_solve(sys_)
    assert X[1] in state.zeros
    for eq in sys_.equations:
        assert satisfies(state, eq)
    assert state.free_count == 1
    check_invariants(state)


def test_solution_basis_and_vectors():
    sys_ = system(form(0, x1=1, x2=-2), form(0, x3=1))
    state = lsss_solve(sys_)
    basis = state.basis()
    assert len(basis) == 1
    vec = basis[0]
    assert state.contains_vector(vec)
    assert vec.get(X[3], 0) == 0
    assert Fraction(vec[X[1]], vec[X[2]]) == 2


def test_contains_vector_drops_constants():
    # x1 + x2 + 1 = 0: the direction x2 - x1 lies in the solution set even
    # though as an assignment it does not satisfy the equation.
    state = lsss_solve(system(form(1, x1=1, x2=1)))
    assert state.contains_vector({X[1]: -1, X[2]: 1})
    assert not state.contains_vector({X[1]: 1, X[2]: 1})


def fraction_div(a, b):
    """The quotient as a Fraction whenever both operands are ints."""
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


def solve_outcome(system, solve=lsss_solve):
    """The solution file text, identity count and zero rounds of
    ``solve``, or the message of the inconsistency it finds."""
    try:
        state = solve(system)
    except InconsistentSystemError as exc:
        return str(exc)
    return render_solution(state), state.identities, state.zero_rounds


def assert_solves_as_reference(system):
    assert solve_outcome(system) \
        == solve_outcome(system, reference_lsss_solve)


@derandomized
@given(systems())
def test_column_solver_solves_as_reference(system):
    assert_solves_as_reference(system)


@pytest.mark.parametrize("degree", range(3, 8))
def test_column_solver_solves_symmetry_systems_as_reference(degree):
    # the systems `gen --nc` writes
    assert_solves_as_reference(build_symmetry_system(degree, include_nc=True))


@st.composite
def repeated_rows(draw):
    """A system and an order of its row indices that repeats rows and
    shuffles them."""
    system = draw(systems())
    if not len(system):
        return system, []
    order = draw(st.lists(st.integers(0, len(system) - 1), max_size=24))
    return system, draw(st.permutations(list(range(len(system))) + order))


def state_outcome(stream):
    """The solution text and identity count a stream leaves, or the
    message of the inconsistency it finds."""
    try:
        state = stream()
    except InconsistentSystemError as exc:
        return str(exc)
    return render_solution(state), state.identities


@derandomized
@given(repeated_rows())
def test_repeated_rows_stream_as_reference(case):
    # a repeat reduces to the identity; the raw rows stream by index,
    # and the reordered copy is solved whole
    system, order = case
    universe = system.universe
    assert state_outcome(lambda: stream_solve(
        system, ColumnState(bytearray(len(universe))), order).solution(
            universe, [])) == state_outcome(lambda: reference_stream_solve(
                [system.equation(k) for k in order],
                fresh_state(universe, set())))
    assert_solves_as_reference(reordered(system, order))


def test_pivot_is_taken_on_the_canonical_row(tmp_path):
    # 1/3*c0 + 1/2*c1 = 0 is 2*c0 + 3*c1 = 0 once canonical: c0 pivots
    path = tmp_path / "hand.sys"
    path.write_text("1 2\n1 1 1/3\n1 2 1/2\n0 0 0\n")
    system = read_system(str(path))
    text, _, _ = solve_outcome(system)
    assert text.split("\n")[2] == "c0 = -3/2*c1"
    assert_solves_as_reference(system)


def assert_solve_as_with_fraction_quotients(system):
    fast = solve_outcome(system)
    with mock.patch("selsolve.solver.exact_div", fraction_div):
        assert solve_outcome(system) == fast


@derandomized
@given(systems())
def test_int_quotients_solve_as_fraction_quotients(system):
    # zeros, pivots and free unknowns through the written solution, whose
    # text does not tell an int from a whole Fraction
    assert_solve_as_with_fraction_quotients(system)


@pytest.mark.parametrize("degree", [6, 7])
def test_int_quotients_solve_symmetry_systems_as_fractions(degree):
    assert_solve_as_with_fraction_quotients(
        build_symmetry_system(degree, include_nc=True))


def test_universe_is_the_union_of_the_three_domains(tmp_path):
    # the universe is not stored: every state, solved, read back or
    # assembled by a staged run, reads it as zeros, pivots and free joined
    assert "universe" not in {f.name for f in fields(SolutionState)}
    split = build_symmetry_system(4, include_nc=True)
    solved = lsss_solve(split)
    path = str(tmp_path / "n4.sol")
    write_solution(solved, path)
    staged, _ = run_strategy(4, default_strategy(4))
    for state in (solved, read_solution(path), staged):
        assert isinstance(state.universe, frozenset)
        assert state.universe == \
            set(state.zeros) | set(state.pivots) | state.free
        assert state.universe == set(split.universe)
