"""Hypothesis properties of the file readers and of unknown identifiers.

Every reader accepts arbitrary text or bytes by returning a result or
raising a ``ParseError``, never another exception; rendering what was
read gives back the same bytes; the system reader does so also when it
reads a few characters at a time.  Examples are derandomized, so the
suite is deterministic.  Structured inputs use small numbers, because a
system header declares how many columns the reader allocates.
"""

import copy
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selsolve import formats
from selsolve.errors import ParseError
from selsolve.formats import (parse_affine, read_solution, read_system,
                              render_names, render_solution, render_system,
                              write_solution, write_system)
from selsolve.linsys import (KIND_A, KIND_C, AffineForm, Equation,
                             LinearSystem, UnknownId, format_affine)
from selsolve.solver import SolutionState

fuzz = settings(derandomize=True, database=None, deadline=None,
                max_examples=100)

INDEX_LIMIT = 1 << 40

kinds = st.sampled_from((KIND_C, KIND_A))
unknowns = st.builds(UnknownId, kinds, st.integers(0, 40))
rationals = st.builds(Fraction, st.integers(-30, 30).filter(bool),
                      st.integers(1, 12))
tokens = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["0", "1/2", "-3/4", "1/0", "2/", "x", "c1", "b-1",
                     "ZEROS", "PIVOTS", "FREE", "=", "*", "+", "-"]),
    st.text(max_size=3))
#: Line-structured text close enough to both formats to reach past their
#: first checks.
structured = st.lists(st.lists(tokens, max_size=4).map(" ".join),
                      max_size=8).map("\n".join)
any_text = st.one_of(st.text(), structured)
#: Arbitrary bytes, and valid text cut by bytes that cannot be UTF-8.
any_bytes = st.one_of(
    st.binary(),
    st.tuples(structured, st.binary(min_size=1).map(
        lambda b: bytes(0x80 | x for x in b))).map(
        lambda pair: pair[0].encode() + pair[1]))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def read_or_parse_error(reader, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        reader(str(path))
    except ParseError:
        pass


@fuzz
@given(data=st.one_of(any_text.map(str.encode), any_bytes))
def test_read_system_succeeds_or_raises_parse_error(workdir, data):
    read_or_parse_error(read_system, workdir / "in.sys", data)


@fuzz
@given(data=st.one_of(any_text.map(str.encode), any_bytes))
def test_read_system_in_small_pieces_succeeds_or_raises_parse_error(
        workdir, data):
    with mock.patch.object(formats, "_READ", 3):
        read_or_parse_error(read_system, workdir / "in.sys", data)


@fuzz
@given(data=st.one_of(any_text.map(str.encode), any_bytes))
def test_read_solution_succeeds_or_raises_parse_error(workdir, data):
    read_or_parse_error(read_solution, workdir / "in.sol", data)


@fuzz
@given(text=st.one_of(any_text, st.lists(tokens).map("".join)))
def test_parse_affine_succeeds_or_raises_parse_error(text):
    try:
        parse_affine(text)
    except ParseError:
        pass


forms = st.builds(AffineForm, st.one_of(st.just(0), rationals),
                  st.dictionaries(unknowns, rationals, max_size=5))


@fuzz
@given(form=forms)
def test_affine_text_round_trips(form):
    text = format_affine(form)
    assert parse_affine(text) == form
    assert format_affine(parse_affine(text)) == text


@st.composite
def systems(draw):
    universe = draw(st.sets(unknowns, max_size=8))
    columns = sorted(universe)
    coeffs = st.dictionaries(st.sampled_from(columns), rationals,
                             max_size=4) if columns else st.just({})
    rows = draw(st.lists(st.builds(AffineForm, st.one_of(
        st.just(0), rationals), coeffs), max_size=6))
    return LinearSystem([Equation(lhs, i) for i, lhs in enumerate(rows)],
                        universe)


@fuzz
@given(system=systems())
def test_system_files_round_trip(workdir, system):
    path = str(workdir / "rt.sys")
    write_system(system, path)
    again = read_system(path)
    # a row without entries makes no equation; the others keep their ids
    assert again == LinearSystem(
        [eq for eq in system.equations if not eq.lhs.is_zero],
        system.universe)
    assert render_names(again) == render_names(system)
    if len(again) == len(system):
        assert render_system(again) == render_system(system)


@st.composite
def solutions(draw):
    zeros, pivots, free = (set(), set(), set())
    for uid in draw(st.sets(unknowns, max_size=10)):
        draw(st.sampled_from((zeros, pivots, free))).add(uid)
    rhs = st.builds(AffineForm, st.one_of(st.just(0), rationals),
                    st.dictionaries(st.sampled_from(sorted(free)), rationals,
                                    max_size=3) if free else st.just({}))
    return SolutionState(zeros, {p: draw(rhs) for p in sorted(pivots)}, free)


@fuzz
@given(state=solutions())
def test_solution_files_round_trip(workdir, state):
    path = str(workdir / "rt.sol")
    write_solution(state, path)
    text = render_solution(state)
    with open(path) as handle:
        assert handle.read() == text
    assert render_solution(read_solution(path)) == text


@fuzz
@given(a=st.tuples(kinds, st.integers(0, INDEX_LIMIT - 1)),
       b=st.tuples(kinds, st.integers(0, INDEX_LIMIT - 1)),
       small=st.integers(-INDEX_LIMIT, INDEX_LIMIT - 1))
def test_unknown_ids_order_name_and_copy(a, b, small):
    x, y = UnknownId(*a), UnknownId(*b)
    assert (x.kind, x.index) == a
    assert (x < y) == (a < b) and (x == y) == (a == b)
    assert x and x != small
    assert UnknownId.from_name(x.name) == x
    assert x.name[0] == x.kind_letter.lower()
    for twin in (copy.copy(x), copy.deepcopy(x),
                 pickle.loads(pickle.dumps(x))):
        assert type(twin) is UnknownId and twin == x
        assert (twin.kind, twin.index) == a


@pytest.mark.parametrize("kind, index", [
    (KIND_C, -1), (KIND_A, INDEX_LIMIT), (2, 0), (3, 0), (-1, 5)])
def test_unknown_id_out_of_range(kind, index):
    with pytest.raises(ValueError):
        UnknownId(kind, index)


@pytest.mark.parametrize("name", ["c-1", f"a{INDEX_LIMIT}"])
def test_out_of_range_unknown_in_solution_file(tmp_path, name):
    path = tmp_path / "bad.sol"
    path.write_text(f"ZEROS\nc0\n{name}\nPIVOTS\nFREE\n")
    with pytest.raises(ParseError, match="line 3"):
        read_solution(str(path))
