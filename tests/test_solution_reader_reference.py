"""The solution reader against its line-by-line reference.

``reference_read_solution`` is ``formats.read_solution`` as it was before
it read the file in pieces: every line stripped and parsed in turn, each
name with ``UnknownId.from_name``.  The two must give the same state,
section by section and pivot by pivot in the same order, or raise the
same exception type with the same message and line.  The reader takes
each run of lines between header lines whole, and reads a file it
refuses again line by line only to name the error, so each check runs
again with the pieces cut down to a few characters (``in_pieces``),
where piece boundaries fall between and inside names and header lines;
a valid file must never reach the line reader.  Examples are
derandomized, so the suite is deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve.errors import ParseError
from selsolve.formats import (_READ, _SHOWN_MESSAGE, _cut, parse_affine,
                              read_solution)
from selsolve.linsys import AffineForm, UnknownId
from selsolve.solver import SolutionState

from test_oracle_reference import derandomized
from test_reader_reference import (PIECE_SIZES, _often, in_pieces,
                                   plainly, read_lines)


def reference_read_solution(path: str) -> SolutionState:
    """Every line parsed in turn; an unknown listed twice is refused."""
    zeros: set[UnknownId] = set()
    pivots: dict[UnknownId, AffineForm] = {}
    free: set[UnknownId] = set()
    section = None
    for lineno, line in read_lines(path):
        if line in ("ZEROS", "PIVOTS", "FREE"):
            section = line
            continue
        if section is None:
            raise ParseError("content before first section", lineno)
        try:
            if section == "PIVOTS":
                name, _, expr = line.partition("=")
                if not _:
                    raise ValueError("pivot line needs '='")
                uid = UnknownId.from_name(name.strip())
                listed = uid in pivots
                pivots[uid] = parse_affine(expr)
            else:
                uid = UnknownId.from_name(line)
                domain = zeros if section == "ZEROS" else free
                listed = uid in domain
                domain.add(uid)
            if listed:
                raise ValueError(f"{uid.name} listed twice under {section}")
        except (ValueError, ParseError) as exc:
            raise ParseError(_cut(str(exc), _SHOWN_MESSAGE),
                             lineno) from exc
    domains = [zeros, set(pivots), free]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = domains[i] & domains[j]
            if overlap:
                raise ParseError(f"{sorted(overlap)[0].name} in two sections")
    for uid, rhs in pivots.items():
        if not set(rhs.coeffs) <= free:
            raise ParseError(f"pivot {uid.name} mentions non-free unknowns")
    return SolutionState(zeros, pivots, free)


def outcome(reader, path: str):
    """The state read, spelled out exactly, or the error raised."""
    try:
        state = reader(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return ([repr(u) for u in sorted(state.zeros)],
            [(repr(u), repr(rhs.const),
              [(repr(x), repr(r)) for x, r in rhs.coeffs.items()])
             for u, rhs in state.pivots.items()],
            [repr(u) for u in sorted(state.free)])


def assert_reads_alike(path, data: str | bytes) -> None:
    """The reader and the reference agree on ``data``, read in the
    reader's own pieces and in pieces of each small size."""
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    expected = outcome(reference_read_solution, str(path))
    assert outcome(read_solution, str(path)) == expected
    for size in PIECE_SIZES:
        with in_pieces(size):
            assert outcome(read_solution, str(path)) == expected, size


#: Unknowns of both kinds, with small indices so that draws collide.
unknowns = st.builds(UnknownId, st.integers(0, 1), st.integers(0, 24))


@st.composite
def spelled(draw, uid: UnknownId) -> str:
    """A name line for ``uid``: its name, now and then with a leading
    zero or blanks around it, and rarely a bad name."""
    name = draw(_often(st.just(uid.name), st.sampled_from(
        [f"{uid.name[0]}0{uid.index}", f" {uid.name}", f"{uid.name}  ",
         f"\t{uid.name}"]), odds=6))
    return draw(_often(st.just(name), st.sampled_from(
        ["x1", "c", "C3", "c1a", "c-1", "c+1", "c 1", "c١", "ZERO",
         "c1099511627776", "1c", "cc1", "c1c2", "a1c"]), odds=40))


@st.composite
def pivot_line(draw, uid: UnknownId, free: list[UnknownId]) -> str:
    """``uid = expr`` over some of ``free``, now and then over another
    unknown or malformed."""
    terms = [f"{draw(st.sampled_from(['', '2*', '-1/3*', '- ']))}{f.name}"
             for f in draw(st.lists(st.sampled_from(free), max_size=3,
                                    unique=True))] if free else []
    expr = " + ".join(terms + [draw(st.sampled_from(["", "1", "-5/2"]))])
    line = f"{uid.name} = {expr.strip(' +') or '0'}"
    return draw(_often(st.just(line), st.sampled_from(
        [f"{uid.name} == 1", f"{uid.name}", f"{uid.name} = c1 * c2",
         f"{uid.name} = 1/0", f"{uid.name} = {draw(unknowns).name}"]),
        odds=20))


@st.composite
def solution_files(draw) -> str:
    """Solution text: names of both kinds interleaved in each section,
    now and then listed twice, in two sections, or spelled another way;
    blank lines between lines; a section given twice or out of order;
    lines ending in ``\\n``, ``\\r\\n`` or a lone ``\\r``."""
    drawn = draw(st.lists(unknowns, unique=True, max_size=40))
    cut = sorted(draw(st.lists(st.integers(0, len(drawn)), min_size=2,
                               max_size=2)))
    zeros, pivots, free = drawn[:cut[0]], drawn[cut[0]:cut[1]], \
        drawn[cut[1]:]
    for names in zeros, free:
        names.extend(draw(_often(st.just([]), st.lists(
            st.sampled_from(drawn), max_size=2), odds=5)) if drawn else [])
        if draw(st.booleans()):
            names.sort()
    sections = [("ZEROS", [draw(spelled(u)) for u in zeros]),
                ("PIVOTS", [draw(pivot_line(u, free)) for u in pivots]),
                ("FREE", [draw(spelled(u)) for u in free])]
    if draw(_often(st.just(False), st.just(True), odds=6)):
        header, lines = sections[draw(st.sampled_from([0, 2]))]
        half = draw(st.integers(0, len(lines)))
        sections.append((header, lines[half:]))
        del lines[half:]
    if draw(_often(st.just(False), st.just(True), odds=10)):
        sections = draw(st.permutations(sections))
    lines = draw(_often(st.just([]), st.just(["c1"]), odds=30))
    for header, body in sections:
        lines.append(header)
        lines.extend(body)
    for _ in range(draw(_often(st.just(0), st.integers(1, 3), odds=5))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "  ", "\t"])))
    ending = draw(_often(st.just("\n"), st.sampled_from(["\r\n", "\r"]),
                         odds=4))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("solutions")


@derandomized
@given(text=solution_files())
def test_reader_equals_reference_on_generated_files(workdir, text):
    path = workdir / "in.sol"
    path.write_bytes(text.encode())
    assert outcome(read_solution, str(path)) \
        == outcome(reference_read_solution, str(path))


@pytest.mark.parametrize("size", PIECE_SIZES)
@settings(derandomized, max_examples=100)
@given(text=solution_files())
def test_reader_equals_reference_in_small_pieces(workdir, size, text):
    path = workdir / "in.sol"
    path.write_bytes(text.encode())
    expected = outcome(reference_read_solution, str(path))
    with in_pieces(size):
        assert outcome(read_solution, str(path)) == expected


@pytest.mark.parametrize("degree", range(3, 9))
def test_staged_solutions_read_alike(staged_solution_files, degree):
    path = staged_solution_files[degree]
    expected = outcome(reference_read_solution, path)
    assert isinstance(expected[0], list)
    assert outcome(read_solution, path) == expected
    for size in 7, 64:
        with in_pieces(size):
            assert outcome(read_solution, path) == expected, size


def names(start: int, stop: int) -> str:
    return "".join(f"c{i}\n" for i in range(start, stop))


def first_piece(head: str, last: str) -> str:
    """``head``, names from c1000 on and the line ``last``, exactly the
    reader's first read of a file that starts so."""
    count, pad = divmod(_READ - len(head) - len(last) - 1, 6)
    lines = [f"c{i}" for i in range(1000, 1000 + count)]
    lines[-1] = f"c{'0' * pad}{999 + count}"
    piece = head + "".join(f"{line}\n" for line in lines) + f"{last}\n"
    assert len(piece) == _READ
    return piece


@pytest.mark.parametrize("first, second", [("c1", "c01"), ("c01", "c1")])
@pytest.mark.parametrize("head", ["ZEROS\n", "ZEROS\nPIVOTS\nFREE\n"],
                         ids=["zeros", "free"])
def test_a_name_listed_again_across_a_piece_boundary(tmp_path, head, first,
                                                     second):
    # the first piece ends with one spelling, and the next, a plain piece
    # the reader would take whole, starts with the other
    path = tmp_path / "twice.sol"
    assert_reads_alike(path, first_piece(head, first) + f"{second}\n"
                       + names(5000, 5010))
    with pytest.raises(ParseError, match="c1 listed twice"):
        read_solution(str(path))


def test_a_repeat_in_a_plain_piece_is_named_on_a_second_read(tmp_path):
    # the second piece is plain and taken whole before its repeat of
    # c1500 shows; the file is read again line by line, which names the
    # line before the third piece, with its byte that is not UTF-8, is read
    path = tmp_path / "again.sol"
    body = first_piece("ZEROS\n", "c2") + names(5000, 5010) + "c1500\n"
    data = (body + names(6000, 9000)).encode() + b"\xff\n"
    assert len(body) < 2 * _READ < len(data)
    assert_reads_alike(path, data)
    with pytest.raises(ParseError, match="c1500 listed twice") as error:
        read_solution(str(path))
    assert error.value.line == body.count("\n")


@pytest.mark.parametrize("lines", [
    "7c", "cc1", "c1c2", "a1", "c", "c\n1", "c1 c2", "c1\tc2", "c1\n\nc2",
    "c\xa01", "C1", "c1\x1cc2", "c01\nc1", "c0001099511627776"])
@pytest.mark.parametrize("head", ["ZEROS\n", "ZEROS\nPIVOTS\nFREE\n"],
                         ids=["zeros", "free"])
def test_lines_a_plain_piece_may_not_take(tmp_path, head, lines):
    # each is fine or refused as the line reader has it, among names a
    # plain piece takes, in the reader's second piece and in small ones
    path = tmp_path / "odd.sol"
    assert_reads_alike(path, first_piece(head, "c2") + names(5000, 5005)
                       + f"{lines}\n" + names(6000, 6005))


@pytest.mark.parametrize("text, message", [
    ("ZEROS\nc1\nc2x\nFREE\nc3\n", "bad unknown name 'c2x'"),
    ("ZEROS\nc1\nc2\nFREE\nc3\nc2\n", "c2 in two sections"),
    ("c1\nZEROS\nc2\n", "content before first section"),
    ("ZEROS\nc1\nPIVOTS\nc2 = c1\nFREE\nc3\n", "non-free unknowns"),
    ("ZEROS\nc1\nc1099511627776\n", "out of range"),
    ("ZEROS\nc1\nc" + "9" * 5000 + "\n", "integer string conversion"),
    ("ZEROS\nc1\nc2\nZEROS\nc3\nc2\n", "c2 listed twice under ZEROS"),
], ids=["bad-name", "two-sections", "before-first", "pivot-not-free",
        "index-range", "digit-limit", "section-twice"])
def test_errors_read_alike(tmp_path, text, message):
    path = tmp_path / "bad.sol"
    assert_reads_alike(path, text)
    with pytest.raises(ParseError, match=message):
        read_solution(str(path))


def test_invalid_utf8_past_the_first_piece(tmp_path):
    path = tmp_path / "u.sol"
    body = f"ZEROS\n{names(1000, 5000)}".encode()
    assert len(body) > _READ
    for tail in (b"\xff\n", b"c1\xc3\n", b"\xe2\x82"):
        assert_reads_alike(path, body + tail)
        with pytest.raises(ParseError, match="not UTF-8 text"):
            read_solution(str(path))


@pytest.mark.parametrize("text", [
    "  ZEROS\nc1\nPIVOTS  \nc2 = c3\nFREE\t\nc3\n",
    "\tZEROS\t\nc1\n \tFREE \nc3\n",
    "ZEROS\nc1\nFREE\t",
    "ZEROS\r\n  c1\r\n\x0bFREE\x1c\r\nc3\r\n",
    "\xa0ZEROS\nc1\nFREE\u2003\nc3\n",
    "ZEROS\nc1\n  FREE\nc3\n  FREE\n",
    "c1\n  ZEROS\nc2\n",
    "ZEROS\nc1\n FREE x\nc3\n",
    "ZEROS\nc1\nFR EE\nc3\n",
    "ZEROS\nc1\n\tPIVOTS\nc1 = 0\n",
], ids=["spaces", "tabs", "tab-at-end", "crlf", "unicode-blanks",
        "header-twice", "before-first", "header-and-more", "split-header",
        "in-two-sections"])
def test_header_lines_with_blanks_around_them(tmp_path, text):
    # a header is any line whose text stripped is its name, as the line
    # reader has it; a valid file is read without the line reader
    path = tmp_path / "headers.sol"
    assert_reads_alike(path, text)
    if isinstance(outcome(reference_read_solution, str(path))[0], list):
        with plainly():
            for size in None, *PIECE_SIZES:
                with in_pieces(size or _READ):
                    read_solution(str(path))


@pytest.fixture(scope="module")
def padded_solution(staged_solution_files, tmp_path_factory):
    """The staged n = 7 file with a blank before and after every line,
    the headers' included."""
    path = tmp_path_factory.mktemp("padded") / "p7pad.sol"
    with open(staged_solution_files[7]) as handle:
        path.write_text("".join(f" {line.rstrip(chr(10))} \n"
                                for line in handle))
    return str(path)


@pytest.mark.parametrize("size", [None, *PIECE_SIZES])
def test_a_valid_solution_file_never_reaches_the_line_reader(
        workdir, staged_solution_files, padded_solution, size):
    # the drawn files at each piece size; the staged files and the padded
    # copy, each read against the reference above, in the reader's pieces
    @settings(derandomized, max_examples=100)
    @given(text=solution_files())
    def drawn(text):
        path = workdir / "in.sol"
        path.write_bytes(text.encode())
        expected = outcome(reference_read_solution, str(path))
        if isinstance(expected[0], list):  # a valid file
            with in_pieces(size or _READ):
                assert outcome(read_solution, str(path)) == expected

    with plainly():
        drawn()
        if size is None:
            for degree in range(3, 9):
                read_solution(staged_solution_files[degree])
            assert outcome(read_solution, padded_solution) \
                == outcome(read_solution, staged_solution_files[7])


@pytest.mark.parametrize("text", [
    "ZEROS\nc1\nc2\na0\na5\nFREE\nc3\n",
    "ZEROS\na0\na1\nFREE\nc3\n",
    "ZEROS\nc007\na00\nFREE\nc3\n",
    "ZEROS\na0\nc1\nFREE\nc3\n",
    "ZEROS\nc1\na0\nc2\nFREE\nc3\n",
    "ZEROS\nc1\nc2\na0\nc1\n",
    "ZEROS\nc1\nac2\n",
    "ZEROS\nc1\nca2\n",
    "ZEROS\nc1\n2c\n",
    "ZEROS\n2c\nc1\n",
    "ZEROS\nc1\nc\n",
    "ZEROS\nc1\nc 2\n",
    "ZEROS\nc1\nc_2\n",
    "ZEROS\nc1\nc+2\n",
    "ZEROS\nc1\n\nc2\n",
    "ZEROS\nc1\nx2\n",
    "ZEROS\nc1\nC2\n",
    "ZEROS\n c1 \n\ta2\n",
    "ZEROS\nc1\u2003\na2\n",
    "ZEROS\nc1\nc\u00b2\n",
], ids=["c-then-a", "a-only", "leading-zeros", "a-then-c", "interleaved",
        "repeat-past-the-a", "two-letters", "letters-swapped",
        "letter-last", "letter-last-first", "no-digit", "blank-inside", "underscore", "sign",
        "blank-line", "other-letter", "capital", "padded",
        "unicode-space", "unicode-digit"])
def test_name_runs_near_the_written_layout(tmp_path, text):
    # a run's names are told apart into prefix letters and digits on its
    # bytes, whatever the order of the kinds; each of these runs is read
    # as the line reader reads it
    assert_reads_alike(tmp_path / "written.sol", text)
