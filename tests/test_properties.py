"""Randomized algebraic property suites, runnable standalone:
``pytest tests/test_properties.py``.  Trial counts are fixed and every
generator is seeded, so the suites are deterministic.
"""

import random
from fractions import Fraction

from selsolve.linsys import (KIND_C, AffineForm, Equation, LinearSystem,
                             UnknownId, substitute)
from selsolve.ncalgebra import (NCPoly, Word, apply_derivation, poly_mul,
                                word_mul)
from selsolve.solver import (ColumnState, length_sort, lsss_solve,
                             stream_solve)
from selsolve.symmetry import kontsevich_system

from test_packed_rows import prune_zeros


# --- oracle: what a solved state must satisfy --------------------------------


def check_invariants(state):
    """Zeros, pivots and free unknowns partition the universe, and every
    pivot right-hand side mentions free unknowns only."""
    zs = set(state.zeros)
    assert zs.isdisjoint(state.pivots) and zs.isdisjoint(state.free)
    assert not set(state.pivots) & state.free
    assert zs | set(state.pivots) | state.free == set(state.universe)
    for rhs in state.pivots.values():
        assert set(rhs.coeffs) <= state.free


def reduce_form(state, form):
    """Apply zeros then pivots; the result mentions free unknowns only."""
    return substitute(prune_zeros(form, state.zeros), state.pivots)


def satisfies(state, equation):
    return reduce_form(state, equation.lhs).is_zero


def random_word(rng, max_len=8):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        options = [g for g in range(4)
                   if not letters or g != letters[-1] ^ 2]
        letters.append(rng.choice(options))
    return Word(letters)


def random_poly(rng, max_terms=4, max_len=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_word(rng, max_len)] = Fraction(
            rng.randint(-5, 5), rng.randint(1, 4))
    return NCPoly(terms)


def random_form(rng, unknowns, max_terms=5):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.choice(unknowns)] = Fraction(
            rng.randint(-6, 6), rng.randint(1, 3))
    const = Fraction(rng.randint(-4, 4), rng.randint(1, 3)) \
        if rng.random() < 0.3 else 0
    return AffineForm(const, coeffs)


def test_word_reduction_normal_form():
    # reduction is a normal form: multiplication is associative
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (random_word(rng) for _ in range(3))
        assert word_mul(word_mul(a, b), c) == word_mul(a, word_mul(b, c))


def test_word_degree_bound_tightness():
    rng = random.Random(102)
    for _ in range(500):
        a, b = random_word(rng), random_word(rng)
        prod = word_mul(a, b)
        assert len(prod) <= len(a) + len(b)
        cancels = bool(a) and bool(b) and b[0] == a[-1] ^ 2
        assert (len(prod) == len(a) + len(b)) == (not cancels)


def test_leibniz_rule():
    rng = random.Random(103)
    dt = kontsevich_system()
    for _ in range(500):
        a, b = random_poly(rng), random_poly(rng)
        lhs = apply_derivation(dt, poly_mul(a, b))
        rhs = poly_mul(apply_derivation(dt, a), b) \
            + poly_mul(a, apply_derivation(dt, b))
        assert lhs == rhs


def test_prune_equals_substitute_zero():
    rng = random.Random(104)
    unknowns = [UnknownId(KIND_C, i) for i in range(12)]
    for _ in range(500):
        form = random_form(rng, unknowns)
        zeros = {u for u in unknowns if rng.random() < 0.4}
        via_subst = substitute(
            form, {u: AffineForm.zero() for u in zeros})
        assert prune_zeros(form, zeros) == via_subst


def test_length_sort_is_stable_permutation():
    rng = random.Random(105)
    unknowns = [UnknownId(KIND_C, i) for i in range(10)]
    for _ in range(200):
        equations = [Equation(random_form(rng, unknowns), i)
                     for i in range(rng.randint(0, 30))]
        system = LinearSystem(equations, unknowns)
        order = length_sort(system)
        assert sorted(order) == list(range(len(equations)))
        out = [system.equation(k) for k in order]
        counts = [eq.lhs.term_count for eq in out]
        assert counts == sorted(counts)
        for size in set(counts):
            ids = [eq.id for eq in out if eq.lhs.term_count == size]
            original = [eq.id for eq in equations
                        if eq.lhs.term_count == size]
            assert ids == original


def random_system(rng, max_unknowns=50):
    n = rng.randint(2, max_unknowns)
    unknowns = [UnknownId(KIND_C, i) for i in range(n)]
    equations = []
    for i in range(rng.randint(1, 2 * n)):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            coeffs[rng.choice(unknowns)] = rng.randint(-3, 3)
        form = AffineForm(0, coeffs)
        if not form.is_zero:
            equations.append(Equation(form, i))
    return LinearSystem(equations, unknowns)


def test_stream_solve_chunking_invariance():
    rng = random.Random(106)
    for _ in range(100):
        system = random_system(rng)
        columns = len(system.universe)
        one = stream_solve(system, ColumnState(bytearray(columns)),
                           range(len(system)))

        chunked = ColumnState(bytearray(columns))
        position = 0
        while position < len(system):
            step = rng.randint(1, max(1, len(system) // 3))
            stream_solve(system, chunked,
                         range(position, min(position + step, len(system))))
            position += step
        assert one == chunked


def test_solver_solutions_satisfy_input():
    rng = random.Random(107)
    for _ in range(100):
        system = random_system(rng, max_unknowns=25)
        state = lsss_solve(system)
        check_invariants(state)
        for eq in system.equations:
            assert satisfies(state, eq)


def test_solver_complete_against_oracle():
    from selsolve.linsys import dense_nullspace_oracle

    rng = random.Random(108)
    for _ in range(60):
        system = random_system(rng, max_unknowns=20)
        state = lsss_solve(system)
        rank, basis = dense_nullspace_oracle(system)
        assert state.free_count == len(system.universe) - rank
        for vec in basis:
            assert state.contains_vector(vec)
            for zero in state.zeros:
                assert vec.get(zero, 0) == 0


if __name__ == "__main__":
    import sys

    import pytest

    sys.exit(pytest.main([__file__, "-v"]))
