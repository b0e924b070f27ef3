"""The system reader against its line-by-line reference.

``reference_read_system`` is ``formats.read_system`` as it was before it
became one streaming pass that parses each distinct token once: every
line is parsed in full with ``int()``, and rows are grouped with
``setdefault``.  The sidecar is read line by line
(``reference_read_names``) right after the header, where the reader
reads it too.  The two must return the same system, equation by equation
and term by term in the same order and with the same value types (a
whole number is an int, ``4/2`` included), or raise the same exception
type with the same message.  The reader takes each piece of a file
whole, and reads a file it refuses again line by line only to name the
error, so each check runs again with the pieces cut down to a few
characters (``in_pieces``), where piece boundaries fall inside rows; a
valid file must never reach the line readers.  The token spellings the
reader's grammar now refuses (underscores, non-ASCII digits, a
terminator whose third field is not ``0``) are left out;
``tests/test_formats.py`` pins them.  Examples are derandomized, so the
suite is deterministic.
"""

import os
import shutil
from fractions import Fraction
from typing import Iterator
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selsolve import formats
from selsolve.errors import BoundsError, ParseError, TooLargeError
from selsolve.formats import names_path_for, read_system
from selsolve.linsys import (FORMULATE_MAX_UNKNOWNS, KIND_BY_LETTER,
                             AffineForm, Equation, LinearSystem, Rational,
                             UnknownId, unknown_limit)

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


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Numbered non-blank lines, stripped; non-UTF-8 bytes are a ParseError."""
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                if line := raw.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text") from exc


#: Characters read at a time for the checks in small pieces: less than a
#: line, about a line, and a few lines.
PIECE_SIZES = [1, 2, 3, 7, 64]


def in_pieces(size: int):
    """Patch the reader to read ``size`` characters at a time."""
    return mock.patch.object(formats, "_READ", size)


def reference_read_names(path: str, columns: int) -> dict[int, UnknownId]:
    """The sidecar's lines one at a time, each parsed and checked."""
    mapping: dict[int, UnknownId] = {}
    seen: set[UnknownId] = set()
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 4 or parts[1] not in KIND_BY_LETTER:
            raise ParseError("expected 'j kind index name'", lineno)
        try:
            j, index = int(parts[0]), int(parts[2])
        except ValueError as exc:
            raise ParseError("bad column or index", lineno) from exc
        try:
            uid = UnknownId(KIND_BY_LETTER[parts[1]], index)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        if parts[3] != uid.name:
            raise ParseError(f"name {parts[3]!r} does not match its kind "
                             f"and index ({uid.name})", lineno)
        if j in mapping:
            raise ParseError(f"column {j} named twice", lineno)
        if uid in seen:
            raise ParseError(f"{uid.name} names two columns", lineno)
        if not 1 <= j <= columns:
            raise ParseError(f"sidecar names column {j}, outside the "
                             f"header's 1..{columns}", lineno)
        mapping[j] = uid
        seen.add(uid)
    return mapping


def reference_columns(path: str, n: int) -> dict[int, UnknownId]:
    """File column -> unknown, as the sidecar names them if there is one."""
    names_path = names_path_for(path)
    if not os.path.exists(names_path):
        return {j: UnknownId(0, j - 1) for j in range(1, n + 1)}
    column = reference_read_names(names_path, n)
    missing = [j for j in range(1, n + 1) if j not in column]
    if missing:
        raise ParseError(f"sidecar misses column {missing[0]}")
    return column


def reference_read_system(path: str) -> LinearSystem:
    """Every line parsed in full; the sidecar read after the header."""
    header: tuple[int, int] | None = None
    rows: dict[int, dict[int, Rational]] = {}
    terminated = False
    for lineno, line in read_lines(path):
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
            column = reference_columns(path, header[1])
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
def sidecars(draw, n: int) -> list[str]:
    """Sidecar lines for columns 1..n: each column names a distinct
    unknown, in column order, spelled plainly; now and then the lines are
    shuffled, a line is dropped, doubled or spelled another way, or a
    name does not match its kind and index."""
    unknowns = draw(st.lists(st.tuples(st.sampled_from("CA"),
                                       st.integers(0, 12)),
                             min_size=n, max_size=n, unique=True))
    lines = [f"{j} {kind} {index} {kind.lower()}{index}"
             for j, (kind, index) in enumerate(unknowns, start=1)]
    if draw(_often(st.just(False), st.just(True), odds=6)):
        lines = draw(st.permutations(lines))
    k = draw(st.integers(0, n - 1))
    change = draw(_often(st.just(None), st.sampled_from(
        ["drop", "double", "zero-spelled", "tab", "bad name", "blank",
         "nine columns"]), odds=4))
    j, kind, index, name = lines[k].split()
    if change == "drop":
        del lines[k]
    elif change == "double":
        lines.insert(k, lines[k])
    elif change == "zero-spelled":
        lines[k] = f"0{j} {kind} 0{index} {name}"
    elif change == "tab":
        lines[k] = f"{j}\t{kind} {index} {name}"
    elif change == "bad name":
        lines[k] = f"{j} {kind} {index} x{index}"
    elif change == "blank":
        lines.insert(k, "")
    elif change == "nine columns":
        lines.append(f"{n + 1} C 99 c99")
    return lines


@st.composite
def system_files(draw) -> tuple[str, str | None]:
    """System text with interleaved rows, aliasing and malformed lines,
    and the text of its sidecar, or None for no sidecar.

    Entries go to distinct cells, now and then one cell twice, in shuffled
    order, in row and column order, or in that order with one entry moved
    to the end; indices are spelled several ways (``01`` and ``+1`` alias
    ``1``, ``00`` is row or column 0), a few indices, values and lines are
    bad, a few lines are cut by other whitespace than one space, and lines
    end in ``\n``, ``\r\n`` or a lone ``\r``.
    """
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows = _often(st.integers(1, m), st.sampled_from([0, -1, m + 1]))
    columns = _often(st.integers(0, n), st.sampled_from([-1, n + 1]))
    cells = draw(st.lists(st.tuples(rows, columns), unique=True,
                          min_size=1, max_size=16))
    cells += draw(_often(st.just([]), st.lists(st.sampled_from(cells),
                                               min_size=1, max_size=2),
                         odds=4))
    order = draw(st.sampled_from(["shuffled", "sorted", "one moved"]))
    if order == "shuffled":
        cells = draw(st.permutations(cells))
    else:
        cells.sort()
        if order == "one moved":
            cells.append(cells.pop(draw(st.integers(0, len(cells) - 1))))
    values = _often(
        st.one_of(
            st.sampled_from(["1", "-1", "2", "0", "-0", "0/5", "+2", "1/2",
                             "-3/4", "4/2", "2/-6"]),
            st.builds(Fraction, st.integers(-5, 5),
                      st.integers(1, 4)).map(str)),
        st.sampled_from(["1/0", "2/", "x", "1.5", "--1"]))
    spelled = st.sampled_from(["{}"] * 4 + ["0{}", "+{}"])
    gap = _often(st.just(" "), st.sampled_from(
        ["\t", "  ", "\x1c", "\xa0", "\x0b"]))
    odd = st.sampled_from(["", "   ", "\t", "1", "1 1", "1 1 1 1", "x 1 1",
                           "1 y 1", "0 0 0", "1/2 1 1", "00 1 1"])
    body = []
    for i, j in cells:
        body.append(draw(gap).join([draw(spelled).format(i),
                                    draw(spelled).format(j), draw(values)]))
        # "0 0 v" with v other than "0" is a grammar case, pinned apart
        if body[-1].split()[:2] == ["0", "0"]:
            body[-1] = "0 0 0"
        body.extend(draw(_often(st.just([]), odd.map(lambda x: [x]))))
    terminator = draw(_often(st.just(["0 0 0"]), st.sampled_from(
        [["0 0 0", ""], [], ["0 0 0", "1 1 1"]]), odds=8))
    header = draw(_often(st.just(f"{m} {n}"), st.sampled_from(
        [f"{m}", f"{m} -1", "x 1", ""])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    names = draw(st.one_of(st.none(), sidecars(n)))
    return (ending.join([header, *body, *terminator]) + ending,
            None if names is None else ending.join([*names, ""]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


def write_files(workdir, files: tuple[str, str | None]) -> str:
    """Write a system and its sidecar, if it has one; the system's path."""
    text, names = files
    path = workdir / "in.sys"
    path.write_bytes(text.encode())
    names_path = workdir / "in.sys.names"
    if names is None:
        names_path.unlink(missing_ok=True)
    else:
        names_path.write_bytes(names.encode())
    return str(path)


@derandomized
@given(files=system_files())
def test_reader_equals_reference_on_generated_files(workdir, files):
    path = write_files(workdir, files)
    assert outcome(read_system, path) == outcome(reference_read_system, path)


@pytest.mark.parametrize("size", PIECE_SIZES)
@settings(derandomized, max_examples=150)
@given(files=system_files())
def test_reader_equals_reference_in_small_pieces(workdir, size, files):
    path = write_files(workdir, files)
    expected = outcome(reference_read_system, path)
    with in_pieces(size):
        assert outcome(read_system, path) == expected


@pytest.fixture(scope="module")
def bare_symmetry_files(symmetry_files, tmp_path_factory):
    """The symmetry files without their sidecars."""
    directory = tmp_path_factory.mktemp("bare")
    return {degree: shutil.copy(path, directory)
            for degree, path in symmetry_files.items()}


@pytest.fixture(scope="module")
def expected(symmetry_files, bare_symmetry_files):
    """Path -> what the reference reads there, for every symmetry file."""
    return {path: outcome(reference_read_system, path)
            for files in (symmetry_files, bare_symmetry_files)
            for path in files.values()}


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_reader_equals_reference_on_symmetry_files(
        symmetry_files, bare_symmetry_files, expected, degree):
    for path in symmetry_files[degree], bare_symmetry_files[degree]:
        assert outcome(read_system, path) == expected[path]


def reader_pieces(path: str) -> tuple[list[str], list[str] | None]:
    """The pieces ``read_system`` takes of a file whose first line is its
    header: the body's, read on from that line, and the sidecar's, or
    None without one.  ``_READ`` reaches the reader only through these."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        body = list(formats._pieces(handle))
    names = names_path_for(path)
    if not os.path.exists(names):
        return body, None
    with open(names, encoding="utf-8") as handle:
        return body, list(formats._pieces(handle))


@pytest.fixture(scope="module")
def pieces_read():
    """Path -> the piece lists it was read in, each read checked."""
    return {}


@pytest.mark.parametrize("size", PIECE_SIZES)
@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_symmetry_files_read_alike_in_small_pieces(
        symmetry_files, bare_symmetry_files, expected, pieces_read, degree,
        size):
    # sizes 2, 3 and 7 cut these files into the one-line pieces of size
    # 1: a size whose pieces were already read, and the outcome checked,
    # reuses that outcome
    for path in symmetry_files[degree], bare_symmetry_files[degree]:
        with in_pieces(size):
            pieces = reader_pieces(path)
            if pieces not in pieces_read.setdefault(path, []):
                assert outcome(read_system, path) == expected[path]
                pieces_read[path].append(pieces)


def assert_reads_alike(path, text: str | bytes) -> None:
    """The reader and the reference agree on ``text``, read in the
    reader's own pieces and in pieces of each small size."""
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    expected = outcome(reference_read_system, str(path))
    assert outcome(read_system, str(path)) == expected
    for size in PIECE_SIZES:
        with in_pieces(size):
            assert outcome(read_system, str(path)) == expected, size


@pytest.mark.parametrize("text", [
    "2 3\n1 1 1\n1 2 1\n0 0 0\n1 3 1\n",
    "2 3\n1 1 1\n0 0 0\n\n   \n2 1 1\n",
    "2 3\n1 1 1\n0 0 0\n0 0 0\n",
], ids=["next-line", "after-blank-lines", "second-terminator"])
def test_content_after_the_terminator_in_its_piece(tmp_path, text):
    assert_reads_alike(tmp_path / "t.sys", text)


@pytest.mark.parametrize("gap", ["\x1c", "\xa0", "\t", "\x0b", "\x0c"])
def test_other_whitespace_between_tokens(tmp_path, gap):
    assert_reads_alike(tmp_path / "w.sys",
                       f"3 3\n1 1 1\n1 2 1\n2{gap}1 1\n2 3{gap}2\n3 1 1\n"
                       f"0 0 0\n")


def test_lines_of_two_and_four_tokens_are_not_two_of_three(tmp_path):
    # six tokens on two lines split as three a line, but the lines are
    # "1 2" and "1 2 3 4"
    assert_reads_alike(tmp_path / "s.sys", "2 4\n1 2\n1 2 3 4\n0 0 0\n")
    assert_reads_alike(tmp_path / "s.sys", "2 4\n1 1 1\n1 2\n1 2 3 4\n"
                                           "0 0 0\n")


@pytest.mark.parametrize("text", [
    "2 3\n00 1 1\n0 0 0\n",
    "2 3\n00 1 1\n1 2 1\n0 0 0\n",
    "2 3\n1 1 1\n00 2 1\n0 0 0\n",
    "2 3\n0 1 1\n0 0 0\n",
], ids=["first", "before-a-row", "after-a-row", "single-zero"])
def test_row_zero_is_refused_however_spelled(tmp_path, text):
    assert_reads_alike(tmp_path / "z.sys", text)


@pytest.mark.parametrize("text", [
    "2 3\n1 2 1\n1 1 1\n0 0 0\n",
    "2 3\n1 1 1\n1 1 2\n0 0 0\n",
    "2 3\n1 1 1\n01 1 2\n0 0 0\n",
    "2 3\n1 1 1\n1 2 1\n2 1 1\n1 3 1\n2 1 1\n0 0 0\n",
    "2 3\n1 3 1\n1 1 1\n1 2 1\n1 3 1\n0 0 0\n",
], ids=["descending", "repeat", "repeat-spelled-apart", "row-back",
        "repeat-far"])
def test_columns_out_of_order_and_repeated(tmp_path, text):
    assert_reads_alike(tmp_path / "o.sys", text)


@pytest.mark.parametrize("text", [
    # the row opens in plain pieces and a later piece, taken line by
    # line, repeats one of its columns; and the other way round
    "2 4\n1 1 1\n1 2 1\n1 3 1\n1 2\t1\n0 0 0\n",
    "2 4\n1 3 0\n1 3 1\n0 0 0\n",
    "2 4\n1 0 5\n1 1 1\n1 0 1\n0 0 0\n",
    "2 4\n1 4 0\n1 1 1\n1 2 1\n0 0 0\n",
    "2 4\n1 1 1\n1 2 1\n\n1 3 1\n1 4 1\n2 1 1\n0 0 0\n",
], ids=["plain-then-line", "zero-then-plain", "constant-then-plain",
        "zero-above-plain", "row-across-a-blank-line"])
def test_a_row_handed_between_plain_and_line_pieces(tmp_path, text):
    assert_reads_alike(tmp_path / "h.sys", text)


def test_invalid_utf8_after_plain_pieces(tmp_path):
    # far past the decoder's first chunk, so plain pieces are read first
    body = "".join(f"{i} {j} 1\n" for i in range(1, 1201)
                   for j in (1, 2, 3))
    text = f"1200 3\n{body}".encode()
    for tail in (b"\xff\n0 0 0\n", b"1201 1 \xc3\n", b"\xe2\x82"):
        assert_reads_alike(tmp_path / "u.sys", text + tail)


def plainly():
    """Fail the test when a file reaches a line reader: those only name
    the error of a file the plain path refused."""
    def refused(path, *args):
        pytest.fail(f"{path} reached a line reader")
    return mock.patch.multiple(formats, _entry_error=refused,
                               _sidecar_error=refused,
                               _solution_error=refused)


@pytest.mark.parametrize("size", [None, *PIECE_SIZES])
@settings(derandomized, max_examples=100)
@given(files=system_files())
def test_a_valid_file_never_reaches_the_line_reader(workdir, size, files):
    path = write_files(workdir, files)
    expected = outcome(reference_read_system, path)
    if isinstance(expected[0], type):  # an exception: the file is wrong
        return
    with plainly(), in_pieces(size or formats._READ):
        assert outcome(read_system, path) == expected


@pytest.fixture(scope="module")
def respelled(symmetry_files, bare_symmetry_files, tmp_path_factory):
    """Path -> its copies with CRLF line ends, with a tab for each space
    and with two spaces for each, the sidecar copied alike, for every
    symmetry file."""
    copies: dict[str, list[str]] = {}
    for files in symmetry_files, bare_symmetry_files:
        for path in files.values():
            copies[path] = []
            for old, new in (b"\n", b"\r\n"), (b" ", b"\t"), (b" ", b"  "):
                directory = tmp_path_factory.mktemp("respelled")
                for name in path, names_path_for(path):
                    if os.path.exists(name):
                        with open(name, "rb") as handle:
                            data = handle.read().replace(old, new)
                        (directory / os.path.basename(name)).write_bytes(data)
                copies[path].append(str(directory / os.path.basename(path)))
    return copies


def packed(system: LinearSystem) -> tuple:
    """A system's universe and packed rows, to compare two reads."""
    return (system.universe, system.ids, system.consts, system.starts,
            system.cols, system.values)


@pytest.mark.parametrize("degree", [3, 4, 5, 6, 7])
def test_symmetry_files_never_reach_the_line_reader(
        symmetry_files, bare_symmetry_files, respelled, degree):
    # each read of the file itself is checked against the reference above
    with plainly():
        for path in symmetry_files[degree], bare_symmetry_files[degree]:
            read = packed(read_system(path))
            for copy in respelled[path]:
                assert packed(read_system(copy)) == read, copy


@st.composite
def pieces_of_lines(draw) -> tuple[str, int]:
    """A piece as the reader cuts it, lines that each end in a newline or
    one line without, and the width its lines are checked against: most
    lines hold that many tokens cut by one character of whitespace."""
    width = draw(st.sampled_from([3, 4]))
    gap = st.sampled_from([" "] * 4 + ["\t", "\x0b", "\x1c", "\xa0", "  "])
    edge = st.sampled_from([""] * 3 + [" ", "\t"])
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        count = draw(st.sampled_from([width] * 2 + list(range(width + 2))))
        tokens = draw(st.lists(st.sampled_from(["1", "-2", "0", "x"]),
                               min_size=count, max_size=count))
        line = "".join(token + draw(gap) for token in tokens)[:-1]
        lines.append(draw(edge) + line + draw(edge))
    if draw(st.sampled_from([True, True, False])):
        return "".join(line + "\n" for line in lines), width
    return lines[0], width


@derandomized
@given(case=pieces_of_lines())
# two short lines as many tokens as one line; a last line short of the
# width with as much whitespace as tokens
@example(case=("1 2\n3\n", 3))
@example(case=("0 0 ", 3))
def test_fields_are_the_tokens_of_lines_of_one_width(case):
    # the layout check that spares most pieces the split into lines
    # takes no piece the split would refuse, and refuses none it takes
    piece, width = case
    counts = {len(line.split()) for line in piece.split("\n")}
    assert formats._fields(piece, width) \
        == (piece.split() if counts <= {0, width} else None)
