import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve.errors import SelSolveError, TooLargeError
from selsolve.linsys import (GUARD_ENV_VAR, KIND_A, KIND_C, AffineForm,
                             Equation, LinearSystem, UnknownId, canonical_row,
                             dense_nullspace_oracle, exact_div, format_affine,
                             substitute, unknown_limit)

X1 = UnknownId(KIND_C, 1)
X2 = UnknownId(KIND_C, 2)
X3 = UnknownId(KIND_C, 3)
X4 = UnknownId(KIND_C, 4)


def form(const=0, **named):
    coeffs = {UnknownId(KIND_C, int(k[1:])): v for k, v in named.items()}
    return AffineForm(const, coeffs)


def test_unknown_id_ordering_and_names():
    assert UnknownId(KIND_C, 5) < UnknownId(KIND_A, 0)
    assert UnknownId(KIND_C, 5).name == "c5"
    assert UnknownId.from_name("a3") == UnknownId(KIND_A, 3)
    with pytest.raises(ValueError):
        UnknownId.from_name("q1")


def test_unknown_id_span_equals_the_per_index_constructor():
    for kind in (KIND_C, KIND_A):
        span = UnknownId.span(kind, 12)
        assert span == tuple(UnknownId(kind, i) for i in range(12))
        assert all(type(uid) is UnknownId for uid in span)
    assert UnknownId.span(KIND_A, 0) == ()


@pytest.mark.parametrize("kind, count", [(2, 1), (-1, 1), (KIND_C, -1),
                                         (KIND_C, (1 << 40) + 1)])
def test_unknown_id_span_refuses_a_bad_kind_or_count(kind, count):
    with pytest.raises(ValueError, match="out of range"):
        UnknownId.span(kind, count)


@pytest.mark.parametrize("a, b, quotient", [
    (6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0), (7, 1, 7),
    (7, 2, Fraction(7, 2)), (6, -4, Fraction(-3, 2)), (-1, 3, Fraction(-1, 3)),
    (Fraction(4, 2), 2, Fraction(1)), (4, Fraction(2), Fraction(2)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(2)),
])
def test_exact_div_keeps_exact_int_quotients_ints(a, b, quotient):
    # two ints give an int when the quotient is whole; a Fraction operand
    # gives a Fraction, whole or not
    out = exact_div(a, b)
    assert out == quotient and type(out) is type(quotient)


def test_exact_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_affine_basicas():
    f = form(0, x1=Fraction(1, 2), x2=2)
    assert f.term_count == 2
    assert not f.is_zero
    assert (f + (-f)).is_zero
    assert f.scaled(0).is_zero
    g = f + form(1, x1=Fraction(-1, 2))
    assert g == form(1, x2=2)


def canonicalize(equation):
    """``canonical_row`` on an equation whose unknowns are its columns,
    decoded back into an equation."""
    coeffs = equation.lhs.coeffs
    const, cols, values = canonical_row(equation.lhs.const, list(coeffs),
                                        list(coeffs.values()))
    return Equation(AffineForm._raw(const, dict(zip(cols, values))),
                    equation.id)


def test_canonicalize_clears_denominators():
    eq = Equation(form(0, x1=Fraction(1, 2), x2=Fraction(-3, 2)), 7)
    out = canonicalize(eq)
    assert out.lhs == form(0, x1=1, x2=-3)
    assert out.id == 7


def test_canonicalize_sign_and_content():
    assert canonicalize(Equation(form(0, x3=-2))).lhs == form(0, x3=1)
    assert canonicalize(Equation(form(0))).lhs.is_zero
    assert canonicalize(Equation(form(-5))).lhs == form(1)


def test_canonicalize_idempotent():
    eq = Equation(form(Fraction(2, 3), x1=Fraction(-4, 3), x4=2))
    once = canonicalize(eq)
    assert canonicalize(once).lhs == once.lhs


def reference_canonicalize(equation):
    """canonicalize as it was before its int path: an lcm over every
    denominator, then a gcd per value."""
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


small_ints = st.integers(-40, 40)


@st.composite
def equations(draw):
    """Forms with int, Fraction or mixed values, whole Fractions among
    them, terms in any order, any lead sign, or no terms at all."""
    values = st.one_of(small_ints, st.integers(-10 ** 30, 10 ** 30),
                       st.builds(Fraction, small_ints, st.integers(1, 12)))
    coeffs = draw(st.dictionaries(st.integers(0, 9), values, max_size=6))
    order = draw(st.permutations(sorted(coeffs)))
    form = AffineForm(draw(values), {UnknownId(KIND_C, i): coeffs[i]
                                     for i in order})
    return Equation(form, draw(st.integers(0, 99)))


def exact_items(form):
    """A form's (unknown, value, type) list in its own order, and its
    constant with its type: equal only when printed alike."""
    return ([(u, r, type(r)) for u, r in form.coeffs.items()],
            (form.const, type(form.const)))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(equations())
def test_canonicalize_matches_reference(eq):
    got, want = canonicalize(eq), reference_canonicalize(eq)
    assert got.id == want.id == eq.id
    assert exact_items(got.lhs) == exact_items(want.lhs)


def test_canonicalize_returns_a_canonical_equation_itself():
    cols, values = [1, 3], [2, -3]
    const, got_cols, got_values = canonical_row(0, cols, values)
    assert const == 0 and got_cols is cols and got_values is values
    for other in ([3, 1], [-3, 2]), ([1, 3], [4, -6]), ([1, 3], [-2, 3]), \
            ([1, 3], [Fraction(2), -3]):
        const, got_cols, got_values = canonical_row(0, *other)
        assert got_values is not other[1]
        assert (const, list(got_cols), [(v, type(v)) for v in got_values]) \
            == (0, cols, [(2, int), (-3, int)])


def test_substitute():
    assert substitute(form(0, x1=1, x2=1), {X1: form(0, x2=-1)}).is_zero
    assert substitute(form(0, x1=2, x3=1),
                      {X1: form(0, x2=1)}) == form(0, x2=2, x3=1)
    f = form(0, x1=1)
    assert substitute(f, {}) is f


def test_substitute_idempotent_when_back_substituted():
    sol = {X1: form(0, x2=2), X3: form(1, x4=-1)}
    f = form(0, x1=1, x3=1, x4=1)
    once = substitute(f, sol)
    assert substitute(once, sol) == once


def test_format_affine():
    assert format_affine(form(0)) == "0"
    assert format_affine(form(2, x1=-2, x3=Fraction(1, 3))) \
        == "-2*c1 + 1/3*c3 + 2"
    assert format_affine(form(0, x1=1)) == "c1"


def test_oracle_full_rank():
    sys_ = LinearSystem(
        [Equation(form(0, x1=1), 0), Equation(form(0, x1=1, x2=1), 1)],
        {X1, X2})
    rank, basis = dense_nullspace_oracle(sys_)
    assert rank == 2 and basis == []


def test_oracle_nullspace_vector():
    sys_ = LinearSystem([Equation(form(0, x1=1, x2=-1), 0)], {X1, X2})
    rank, basis = dense_nullspace_oracle(sys_)
    assert rank == 1
    assert basis == [{X2: 1, X1: 1}]


def test_oracle_rank_nullity_and_satisfaction():
    equations = [
        Equation(form(0, x1=2, x2=1, x3=-1), 0),
        Equation(form(0, x2=1, x4=1), 1),
        Equation(form(0, x1=2, x3=-1, x4=-1), 2),  # dependent
    ]
    sys_ = LinearSystem(equations, {X1, X2, X3, X4})
    rank, basis = dense_nullspace_oracle(sys_)
    assert rank + len(basis) == 4
    for vec in basis:
        for eq in equations:
            total = sum(r * vec.get(u, 0) for u, r in eq.lhs.coeffs.items())
            assert total == 0


def test_oracle_guard(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "1")
    sys_ = LinearSystem([Equation(form(0, x1=1, x2=1), 0)], {X1, X2})
    with pytest.raises(TooLargeError):
        dense_nullspace_oracle(sys_)


def test_guard_override_and_default(monkeypatch):
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    assert unknown_limit(30) == 30
    monkeypatch.setenv(GUARD_ENV_VAR, "")
    assert unknown_limit(30) == 30
    monkeypatch.setenv(GUARD_ENV_VAR, "100000")
    assert unknown_limit(30) == 100000


@pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5"])
def test_guard_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv(GUARD_ENV_VAR, raw)
    with pytest.raises(SelSolveError) as info:
        unknown_limit(30)
    assert GUARD_ENV_VAR in str(info.value)
    assert repr(raw) in str(info.value)

