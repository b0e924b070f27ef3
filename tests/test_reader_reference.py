"""The system reader against its line-by-line reference.

``reference_read_system`` is ``formats.read_system`` as it was before it
became one streaming pass that parses each distinct token once: every
line is parsed in full with ``int()``, rows are grouped with
``setdefault`` and the sidecar is read after the entries.  The two must
return the same system, equation by equation and term by term in the same
order and with the same value types (a whole number is an int, ``4/2``
included), or raise the same exception type with the same message.  The
token spellings the reader's grammar now refuses (underscores, non-ASCII
digits, a terminator whose third field is not ``0``) are left out;
``tests/test_formats.py`` pins them.  Examples are derandomized, so the
suite is deterministic.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve.errors import BoundsError, ParseError, TooLargeError
from selsolve.formats import (_read_lines, names_path_for, read_names,
                              read_system, write_system)
from selsolve.linsys import (FORMULATE_MAX_UNKNOWNS, AffineForm, Equation,
                             LinearSystem, Rational, UnknownId,
                             unknown_limit)
from selsolve.symmetry import build_symmetry_system

derandomized = settings(derandomize=True, database=None, deadline=None,
                        max_examples=400)


def _reference_rational(token: str, line: int | None) -> Rational:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            value = Fraction(int(num), int(den))
            return value.numerator if value.denominator == 1 else value
        return int(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}", line) from exc


def reference_read_system(path: str) -> LinearSystem:
    """Every line parsed in full; the sidecar read after the entries."""
    header: tuple[int, int] | None = None
    rows: dict[int, dict[int, Rational]] = {}
    terminated = False
    for lineno, line in _read_lines(path):
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header 'm n'", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError as exc:
                raise ParseError("bad header", lineno) from exc
            if header[0] < 0 or header[1] < 0:
                raise ParseError("negative header counts", lineno)
            limit = unknown_limit(FORMULATE_MAX_UNKNOWNS)
            if header[1] > limit:
                raise TooLargeError(f"header declares {header[1]} unknowns, "
                                    f"over the guard of {limit}")
            continue
        if terminated:
            raise ParseError("content after terminator", lineno)
        if len(parts) != 3:
            raise ParseError("expected 'i j value'", lineno)
        if parts[0] == "0" and parts[1] == "0":
            terminated = True
            continue
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError("bad indices", lineno) from exc
        if not 1 <= i <= header[0]:
            raise BoundsError(f"row {i} outside 1..{header[0]}", lineno)
        if not 0 <= j <= header[1]:
            raise BoundsError(f"column {j} outside 0..{header[1]}", lineno)
        row = rows.setdefault(i, {})
        if j in row:
            raise ParseError(f"duplicate entry ({i}, {j})", lineno)
        row[j] = _reference_rational(parts[2], lineno)
    if header is None:
        raise ParseError("empty file", 1)
    if not terminated:
        raise ParseError("missing '0 0 0' terminator", lineno)

    n = header[1]
    names_path = names_path_for(path)
    if os.path.exists(names_path):
        column = read_names(names_path, n)
        missing = [j for j in range(1, n + 1) if j not in column]
        if missing:
            raise ParseError(f"sidecar misses column {missing[0]}")
    else:
        column = {j: UnknownId(0, j - 1) for j in range(1, n + 1)}
    equations = []
    for i in sorted(rows):
        row = rows.pop(i)
        const = row.pop(0, 0)
        equations.append(Equation(AffineForm(
            const, {column[j]: value for j, value in row.items()}), i - 1))
    return LinearSystem(equations, frozenset(column.values()))


def outcome(reader, path: str):
    """The system read, spelled out exactly, or the exception raised."""
    try:
        system = reader(path)
    except (ParseError, TooLargeError) as exc:
        return type(exc), str(exc)
    return (sorted(system.universe),
            [(eq.id, repr(eq.lhs.const),
              [(uid, repr(value)) for uid, value in eq.lhs.coeffs.items()])
             for eq in system.equations])


def _often(common: st.SearchStrategy, rare: st.SearchStrategy,
           odds: int = 20) -> st.SearchStrategy:
    """``common``, and about one time in ``odds`` ``rare``."""
    # the middle value: hypothesis draws the ends of a range more often
    return st.integers(1, odds).flatmap(
        lambda k: rare if k == odds // 2 else common)


@st.composite
def system_files(draw) -> str:
    """System text with interleaved rows, aliasing and malformed lines.

    Entries go to distinct cells, now and then one cell twice, in shuffled
    order; indices are spelled several ways (``01`` and ``+1`` alias
    ``1``), and a few indices, values and lines are bad.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = _often(st.integers(1, m), st.sampled_from([0, -1, m + 1]))
    columns = _often(st.integers(0, n), st.sampled_from([-1, n + 1]))
    cells = draw(st.lists(st.tuples(rows, columns), unique=True,
                          min_size=1, max_size=16))
    cells += draw(_often(st.just([]), st.lists(st.sampled_from(cells),
                                               min_size=1, max_size=2),
                         odds=4))
    values = _often(
        st.one_of(
            st.sampled_from(["1", "-1", "2", "0", "-0", "0/5", "+2", "1/2",
                             "-3/4", "4/2", "2/-6"]),
            st.builds(Fraction, st.integers(-5, 5),
                      st.integers(1, 4)).map(str)),
        st.sampled_from(["1/0", "2/", "x", "1.5", "--1"]))
    spelled = st.sampled_from(["{}"] * 4 + ["0{}", "+{}"])
    odd = st.sampled_from(["", "   ", "\t", "1", "1 1", "1 1 1 1", "x 1 1",
                           "1 y 1", "0 0 0", "1/2 1 1"])
    body = []
    for i, j in draw(st.permutations(cells)):
        body.append(" ".join([draw(spelled).format(i),
                              draw(spelled).format(j), draw(values)]))
        # "0 0 v" with v other than "0" is a grammar case, pinned apart
        if body[-1].split()[:2] == ["0", "0"]:
            body[-1] = "0 0 0"
        body.extend(draw(_often(st.just([]), odd.map(lambda x: [x]))))
    terminator = draw(_often(st.just(["0 0 0"]), st.sampled_from(
        [["0 0 0", ""], [], ["0 0 0", "1 1 1"]]), odds=8))
    header = draw(_often(st.just(f"{m} {n}"), st.sampled_from(
        [f"{m}", f"{m} -1", "x 1", ""])))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join([header, *body, *terminator]) + ending


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@derandomized
@given(text=system_files())
def test_reader_equals_reference_on_generated_files(workdir, text):
    path = workdir / "in.sys"
    path.write_bytes(text.encode())
    assert outcome(read_system, str(path)) == outcome(
        reference_read_system, str(path))


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_reader_equals_reference_on_symmetry_files(tmp_path, degree):
    path = str(tmp_path / f"d{degree}.sys")
    write_system(build_symmetry_system(degree, include_nc=True), path)
    assert outcome(read_system, path) == outcome(reference_read_system,
                                                 path)
    os.unlink(names_path_for(path))
    assert outcome(read_system, path) == outcome(reference_read_system,
                                                 path)
