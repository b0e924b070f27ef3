from fractions import Fraction

import pytest

from selsolve.errors import BoundsError, ParseError
from selsolve.formats import (parse_affine, read_solution, read_system,
                              render_solution, render_system, write_solution,
                              write_system)
from selsolve.linsys import (KIND_C, AffineForm, Equation, LinearSystem,
                             UnknownId, format_affine)
from selsolve.solver import lsss_solve
from selsolve.symmetry import build_symmetry_system

X1 = UnknownId(KIND_C, 0)
X2 = UnknownId(KIND_C, 1)


def small_system():
    eq = Equation(AffineForm(0, {X1: 1, X2: -3}), 0)
    return LinearSystem([eq], {X1, X2})


def test_render_system_layout():
    assert render_system(small_system()) == "1 2\n1 1 1\n1 2 -3\n0 0 0\n"


def test_system_roundtrip(tmp_path):
    path = str(tmp_path / "small.sys")
    write_system(small_system(), path)
    assert read_system(path) == small_system()


def test_symmetry_system_roundtrip(tmp_path):
    system = build_symmetry_system(3, include_nc=True)
    path = str(tmp_path / "n3.sys")
    write_system(system, path)
    again = read_system(path)
    assert again == system


def test_write_is_deterministic(tmp_path):
    system = build_symmetry_system(3)
    a, b = str(tmp_path / "a.sys"), str(tmp_path / "b.sys")
    write_system(system, a)
    write_system(system, b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_affine_constant_column_roundtrip(tmp_path):
    eq = Equation(AffineForm(Fraction(1, 2), {X1: 1}), 0)
    system = LinearSystem([eq], {X1})
    path = str(tmp_path / "affine.sys")
    write_system(system, path)
    assert read_system(path) == system


def test_read_errors(tmp_path):
    def attempt(text, exc):
        path = str(tmp_path / "bad.sys")
        with open(path, "w") as handle:
            handle.write(text)
        with pytest.raises(exc):
            read_system(path)

    attempt("1 1\n1 1 1\n", ParseError)              # no terminator
    attempt("1 1\n2 1 1\n0 0 0\n", BoundsError)      # row out of range
    attempt("1 1\n1 2 1\n0 0 0\n", BoundsError)      # column out of range
    attempt("1 1\n1 1 1\n1 1 2\n0 0 0\n", ParseError)  # duplicate entry
    attempt("1 1\n1 1 x\n0 0 0\n", ParseError)       # bad rational
    attempt("", ParseError)                          # empty file
    attempt("1 1\n0 0 0\nrest\n", ParseError)        # content after end


@pytest.mark.parametrize("line, message", [
    ("3 C 2 c2", r"sidecar names column 3, outside the header's 1\.\.2"),
    ("2 C 2 c2", "line 3: column 2 named twice"),
    ("3 C 0 c0", "line 3: c0 names two columns"),
])
def test_sidecar_that_changes_the_universe_is_rejected(tmp_path, line,
                                                       message):
    path = str(tmp_path / "small.sys")
    write_system(small_system(), path)
    with open(path + ".names", "a") as handle:
        handle.write(line + "\n")
    with pytest.raises(ParseError, match=message):
        read_system(path)


def test_parse_affine_roundtrip():
    forms = [
        AffineForm.zero(),
        AffineForm(2),
        AffineForm(0, {X1: 1}),
        AffineForm(Fraction(-1, 2), {X1: Fraction(2, 3), X2: -4}),
    ]
    for form in forms:
        assert parse_affine(format_affine(form)) == form


def test_solution_roundtrip(tmp_path):
    system = build_symmetry_system(3, include_nc=True)
    state = lsss_solve(system)
    path = str(tmp_path / "n3.sol")
    write_solution(state, path)
    again = read_solution(path)
    assert set(again.zeros) == set(state.zeros)
    assert again.pivots == state.pivots
    assert again.free == state.free
    assert again.universe == state.universe


def test_solution_render_sections():
    system = small_system()
    state = lsss_solve(system)
    text = render_solution(state)
    assert text.splitlines()[0] == "ZEROS"
    assert "PIVOTS" in text and "FREE" in text


def test_solution_parse_errors(tmp_path):
    path = str(tmp_path / "bad.sol")
    with open(path, "w") as handle:
        handle.write("ZEROS\nc0\nFREE\nc0\n")
    with pytest.raises(ParseError):
        read_solution(path)
