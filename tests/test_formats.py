import os
import stat
import sys
import tracemalloc
from fractions import Fraction

import pytest

from selsolve.cli import main
from selsolve.errors import BoundsError, ParseError, TooLargeError
from selsolve.formats import (parse_affine, read_solution, read_system,
                              render_solution, render_system, write_solution,
                              write_system)
from selsolve.linsys import (GUARD_ENV_VAR, KIND_C, AffineForm, Equation,
                             LinearSystem, UnknownId, format_affine)
from selsolve.solver import lsss_solve
from selsolve.symmetry import build_symmetry_system

X1 = UnknownId(KIND_C, 0)
X2 = UnknownId(KIND_C, 1)


def small_system():
    eq = Equation(AffineForm(0, {X1: 1, X2: -3}), 0)
    return LinearSystem([eq], {X1, X2})


def test_render_system_layout():
    assert render_system(small_system()) == "1 2\n1 1 1\n1 2 -3\n0 0 0\n"


@pytest.mark.parametrize("piece", [1, 2, 3, 4, 4096])
def test_render_system_orders_each_row_in_any_piece(monkeypatch, piece):
    # rows rendered in pieces of any size: a row with a constant, a row
    # given out of column order and an empty row take the row-by-row
    # path, and the constant comes first, then the entries by column
    import selsolve.formats as formats
    monkeypatch.setattr(formats, "_PIECE", piece)
    x3 = UnknownId(KIND_C, 2)
    system = LinearSystem([
        Equation(AffineForm(0, {X1: 1, X2: 2}), 0),
        Equation(AffineForm(0, {X2: 3, X1: -1}), 1),
        Equation(AffineForm(Fraction(1, 2), {x3: 1}), 2),
        Equation(AffineForm.zero(), 3),
        Equation(AffineForm(0, {X1: 1, x3: -1}), 4)], {X1, X2, x3})
    assert render_system(system) == (
        "5 3\n1 1 1\n1 2 2\n2 1 -1\n2 2 3\n3 0 1/2\n3 3 1\n"
        "5 1 1\n5 3 -1\n0 0 0\n")


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


@pytest.mark.parametrize("text, message", [
    # a second pivot line for c0 replaced the first, and verify checked it
    ("PIVOTS\nc0 = c2\nc0 = -c2\nFREE\nc2\n",
     "line 3: c0 listed twice under PIVOTS"),
    ("ZEROS\nc1\nc0\nc1\n", "line 4: c1 listed twice under ZEROS"),
    ("ZEROS\nc0\nFREE\nc2\nc2\n", "line 5: c2 listed twice under FREE"),
], ids=["pivots", "zeros", "free"])
def test_unknown_listed_twice_in_one_section_is_refused(tmp_path, text,
                                                         message):
    path = tmp_path / "twice.sol"
    path.write_text(text)
    with pytest.raises(ParseError) as caught:
        read_solution(str(path))
    assert str(caught.value) == message


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["022", "077"])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        write_system(small_system(), str(tmp_path / "s.sys"))
        write_solution(lsss_solve(small_system()), str(tmp_path / "s.sol"))
    finally:
        os.umask(previous)
    for name in ("s.sys", "s.sys.names", "s.sol"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_declared_rows_without_entries_cost_nothing(tmp_path, capsys):
    # a 16-byte file declaring a million rows: no equation is built for a
    # row without entries, so the header alone allocates nothing per row
    path = tmp_path / "big.sys"
    path.write_text("1000000 1\n0 0 0\n")
    tracemalloc.start()
    try:
        assert main(["rank", str(path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "rank=0 nullity=1\n"
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("sidecar", [False, True], ids=["plain", "names"])
def test_declared_columns_over_the_guard_are_refused(tmp_path, capsys,
                                                     monkeypatch, sidecar):
    # an 18-byte file declaring a million columns, each one a free unknown
    # if read: refused at its header, before the sidecar is opened
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    path = tmp_path / "wide.sys"
    path.write_text("1 1000000\n0 0 0\n")
    if sidecar:
        (tmp_path / "wide.sys.names").write_bytes(b"\xff not a sidecar\n")
    tracemalloc.start()
    try:
        assert main(["solve", str(path)]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err == ("error: header declares 1000000 "
                                       "unknowns, over the guard of 30000\n")
    assert not (tmp_path / "wide.sys.sol").exists()
    assert peak < 4 * 2 ** 20


def test_column_guard_is_raised_by_the_environment(tmp_path, monkeypatch):
    path = str(tmp_path / "s.sys")
    write_system(small_system(), path)
    monkeypatch.setenv(GUARD_ENV_VAR, "1")
    with pytest.raises(TooLargeError, match="declares 2 unknowns, over the "
                                            "guard of 1$"):
        read_system(path)
    monkeypatch.setenv(GUARD_ENV_VAR, "2")
    assert read_system(path) == small_system()
    # the sidecar is bounded by the header: its first column past it stops
    # the read at that line
    with open(path + ".names", "a") as handle:
        handle.write("3 C 2 c2\n" + "4 C 3 c3\n" * 100)
    with pytest.raises(ParseError, match="^line 3: sidecar names column 3"):
        read_system(path)


def test_empty_middle_row_keeps_row_based_ids(tmp_path, capsys):
    path = tmp_path / "mid.sys"
    path.write_text("3 3\n1 1 1\n1 2 -1\n3 2 1\n3 3 2\n0 0 0\n")
    assert [eq.id for eq in read_system(str(path)).equations] == [0, 2]
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] \
        == "zeros=0 pivots=2 free=1 identities=0"
    assert (tmp_path / "mid.sys.sol").read_text() \
        == "ZEROS\nPIVOTS\nc0 = -2*c2\nc1 = -2*c2\nFREE\nc2\n"


@pytest.mark.parametrize("name, text", [
    ("n.sol", "ZEROS\nb3\nPIVOTS\nFREE\n"),
    ("s.sys.names", "1 C 0 c0\n2 B 1 b1\n"),
], ids=["solution", "sidecar"])
def test_there_is_no_unknown_kind_b(tmp_path, name, text):
    # only ansatz coefficients (c) and side-condition constants (a) exist
    write_system(small_system(), str(tmp_path / "s.sys"))
    (tmp_path / name).write_text(text)
    reader = read_solution if name.endswith(".sol") else read_system
    with pytest.raises(ParseError, match="line 2"):
        reader(str(tmp_path / name.removesuffix(".names")))


@pytest.mark.parametrize("text, error, message", [
    ("10 1\n1_0 1 1\n0 0 0\n", ParseError, "line 2: bad indices"),
    ("1 1\n1 1 1_000\n0 0 0\n", ParseError, "line 2: bad rational '1_000'"),
    ("2 1\n١ 1 1\n0 0 0\n", ParseError, "line 2: bad indices"),
    ("1 2\n1 １ 1\n0 0 0\n", ParseError, "line 2: bad indices"),
    ("1 1\n1 1 １\n0 0 0\n", ParseError,
     "line 2: bad rational '１'"),
    ("1 1\n1 1 1/٢\n0 0 0\n", ParseError,
     "line 2: bad rational '1/٢'"),
    ("1 1\n1 1 1\n0 0 x\n", BoundsError, "line 3: row 0 outside 1..1"),
    ("1_0 1\n0 0 0\n", ParseError, "line 1: bad header"),
], ids=["underscore-index", "underscore-value", "arabic-indic-index",
        "fullwidth-index", "fullwidth-value", "arabic-indic-denominator",
        "terminator-third-field", "underscore-header"])
def test_tokens_follow_the_format_grammar(tmp_path, text, error, message):
    # indices and values are ASCII digits with an optional sign, and only
    # the exact line 0 0 0 ends the entries; int() alone accepted all these
    path = tmp_path / "g.sys"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as info:
        read_system(str(path))
    assert type(info.value) is error
    assert str(info.value) == message


def later_piece_file(path, n: int, column: str) -> str:
    """Write a file over n >= 2 columns whose 1,000 rows on columns 1 and
    2 fill its first piece, and whose last row's column token is
    ``column``, a name the reader meets first in its second piece."""
    import selsolve.formats as formats
    rows = "".join(f"{i} 1 1\n{i} 2 -1\n" for i in range(1, 1001))
    assert len(rows) > formats._READ
    path.write_text(f"1001 {n}\n{rows}1001 {column} 5\n0 0 0\n",
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("column, n, error, message", [
    ("x", 8, ParseError, "line 2002: bad indices"),
    ("9", 8, BoundsError, "line 2002: column 9 outside 0..8"),
    ("٣", 8, ParseError, "line 2002: bad indices"),
    ("+3", 2, BoundsError, "line 2002: column 3 outside 0..2"),
    ("-1", 8, BoundsError, "line 2002: column -1 outside 0..8"),
], ids=["non-digit", "n-plus-one", "arabic-indic-digit", "signed-past-n",
        "negative"])
def test_a_column_first_seen_in_a_later_piece_is_refused(
        tmp_path, column, n, error, message):
    # the names a piece meets first are parsed together; one bad name
    # refuses the piece, and the line reader names it
    import selsolve.formats as formats
    path = later_piece_file(tmp_path / "late.sys", n, column)
    for reader in read_system, formats._entry_error:
        with pytest.raises(error) as info:
            reader(path)
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize("column, plain", [("007", "7"), ("+3", "3")])
def test_a_column_first_seen_in_a_later_piece_reads_as_its_number(
        tmp_path, column, plain):
    read = read_system(later_piece_file(tmp_path / "late.sys", 8, column))
    assert read == read_system(later_piece_file(tmp_path / "plain.sys", 8,
                                                plain))
    assert read.equation(1000).lhs.coeffs == {UnknownId(KIND_C,
                                                        int(plain) - 1): 5}


@pytest.mark.parametrize("line", ["9" * 5000 + " 1 1",
                                  "1 " + "9" * 5000 + " 1"],
                         ids=["row", "column"])
def test_index_past_the_digit_limit_is_a_parse_error(tmp_path, line):
    # outside the CLI Python's int/str digit limit holds: an all-digit
    # index past it is a bad index, not a ValueError
    get_digits = getattr(sys, "get_int_max_str_digits", None)
    if get_digits is None or not 0 < get_digits() < 5000:
        pytest.skip("this Python has no int/str digit limit below 5,000")
    path = tmp_path / "long.sys"
    path.write_text(f"1 1\n{line}\n0 0 0\n")
    with pytest.raises(ParseError) as info:
        read_system(str(path))
    assert type(info.value) is ParseError
    assert str(info.value) == "line 2: bad indices"


def ten_column_sidecar(lineno, line):
    """The sidecar naming columns 1..10 c0..c9, with one line replaced."""
    lines = [f"{j} C {j - 1} c{j - 1}" for j in range(1, 11)]
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, text, message", [
    ("s.sys.names", ten_column_sidecar(10, "1_0 C 9 c9"),
     "line 10: bad column or index"),
    ("s.sys.names", ten_column_sidecar(2, "2 C ١ c1"),
     "line 2: bad column or index"),
    ("n.sol", "ZEROS\nc1_0\nPIVOTS\nFREE\n",
     "line 2: bad unknown name 'c1_0'"),
    ("n.sol", "ZEROS\nPIVOTS\nc٣ = 2*c0\nFREE\nc0\n",
     "line 3: bad unknown name 'c٣'"),
    ("s.sys.names", ten_column_sidecar(1, "1 C 0 c7"),
     "line 1: name 'c7' does not match its kind and index (c0)"),
    ("s.sys.names", ten_column_sidecar(4, "4 A 3 c3"),
     "line 4: name 'c3' does not match its kind and index (a3)"),
], ids=["sidecar-underscore-column", "sidecar-arabic-indic-index",
        "solution-underscore-zero", "solution-arabic-indic-pivot",
        "sidecar-name-not-its-index", "sidecar-name-not-its-kind"])
def test_names_follow_the_format_grammar(tmp_path, name, text, message):
    # sidecar columns and indices and the digits of an unknown's name are
    # ASCII digits too; int() read these as column 10, c1, c10 and c3.  A
    # sidecar name must be the one its kind and index columns spell.
    (tmp_path / "s.sys").write_text("1 10\n1 10 1\n0 0 0\n")
    (tmp_path / name).write_text(text, encoding="utf-8")
    reader = read_solution if name.endswith(".sol") else read_system
    with pytest.raises(ParseError) as info:
        reader(str(tmp_path / name.removesuffix(".names")))
    assert str(info.value) == message


def test_signs_and_leading_zeros_alias_one_index(tmp_path):
    path = tmp_path / "alias.sys"
    path.write_text("2 2\n+1 01 -3/+6\n01 +0 4\n2 2 0\n1 002 0/7\n0 0 0\n")
    system = read_system(str(path))
    assert [(eq.id, eq.lhs.const, eq.lhs.coeffs) for eq in system.equations] \
        == [(0, 4, {X1: Fraction(-1, 2)}), (1, 0, {})]
    path.write_text("1 2\n1 1 1\n01 +1 2\n0 0 0\n")
    with pytest.raises(ParseError,
                       match=r"^line 3: duplicate entry \(1, 1\)$"):
        read_system(str(path))


def test_integral_tokens_read_as_ints(tmp_path):
    # a whole number is an int however it is spelled; the text written
    # back is the same as for the Fraction it used to be read as
    path = tmp_path / "whole.sys"
    path.write_text("1 3\n1 0 6/3\n1 1 -4/1\n1 2 1/2\n1 3 -8/-4\n0 0 0\n")
    (eq,) = read_system(str(path)).equations
    values = [eq.lhs.const, *eq.lhs.coeffs.values()]
    assert values == [2, -4, Fraction(1, 2), 2]
    assert [type(v) for v in values] == [int, int, Fraction, int]
    assert render_system(read_system(str(path))) \
        == "1 3\n1 0 2\n1 1 -4\n1 2 1/2\n1 3 2\n0 0 0\n"

    path = tmp_path / "whole.sol"
    path.write_text("ZEROS\nPIVOTS\nc0 = -4/2*c1 + 1/2*c2 + 9/3\nFREE\n"
                    "c1\nc2\n")
    rhs = read_solution(str(path)).pivots[X1]
    assert [type(v) for v in (rhs.const, *rhs.coeffs.values())] \
        == [int, int, Fraction]
    assert render_solution(read_solution(str(path))) \
        == "ZEROS\nPIVOTS\nc0 = -2*c1 + 1/2*c2 + 3\nFREE\nc1\nc2\n"
