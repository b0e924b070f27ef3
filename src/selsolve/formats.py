"""Deterministic text formats for systems and solutions.

System file (sparse triple format): a header line ``m n`` with the
equation and unknown counts, then one line ``i j num[/den]`` per nonzero
entry with 1-indexed row i and column j, closed by the terminator line
``0 0 0``.  Column 0 carries the constant term of an affine equation, so a
purely homogeneous system uses columns 1..n only.  An optional sidecar
(``<path>.names``) maps columns to unknowns with lines ``j kind index
name``.

Solution file: three sections headed ``ZEROS``, ``PIVOTS`` and ``FREE``;
zeros and free unknowns one name per line, pivots as ``name = expr`` with
the affine expression in the canonical text form of
:func:`selsolve.linsys.format_affine`.  Everything is ordered by unknown
id, and all writes are atomic (temp file plus rename).
"""

from __future__ import annotations

import os
import re
import secrets
from typing import Iterator

from .errors import BoundsError, ParseError, TooLargeError
from .linsys import (FORMULATE_MAX_UNKNOWNS, KIND_BY_LETTER, KIND_C,
                     AffineForm, Equation, LinearSystem, Rational, UnknownId,
                     exact_div, format_affine, format_rational, unknown_limit)
from .solver import SolutionState


def atomic_write(path: str, text: str) -> None:
    """Write through a temp file and a rename; an OSError names ``path``.

    The temp file is created as a new file, so the umask sets its mode.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{secrets.token_hex(8)}.part")
    try:
        with open(tmp, "x") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: The grammar of an integer token: ASCII digits with an optional sign.
_INTEGER = re.compile(r"[+-]?[0-9]+")
#: A rational token: an integer, or integer/integer.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[+-]?[0-9]+)?")
#: Characters of a token an error line shows before cutting it short.
_SHOWN = 40
#: Characters of a passed-on exception message an error line shows.
_SHOWN_MESSAGE = 120


def _cut(text: str, limit: int = _SHOWN) -> str:
    """``text`` for an error line, cut to a short prefix when longer."""
    return text if len(text) <= limit else text[:limit] + "..."


def _parse_integer(token: str) -> int | None:
    """The integer a token spells, or None when it is not one.

    Plain ASCII digits, the common case, skip the grammar's regex.
    """
    if not (token.isascii() and token.isdigit()) \
            and _INTEGER.fullmatch(token) is None:
        return None
    try:
        return int(token)
    except ValueError:  # over Python's int/str digit limit
        return None


def _parse_rational(token: str, line: int | None) -> Rational:
    """The rational a token spells; an int when it is a whole number, so
    ``6/3`` reads as 2, as :func:`selsolve.linsys.exact_div` gives it."""
    if _RATIONAL.fullmatch(token) is not None:
        num, _, den = token.partition("/")
        try:
            return exact_div(int(num), int(den)) if den else int(num)
        except (ValueError, ZeroDivisionError):  # digit limit; zero den
            pass
    raise ParseError(f"bad rational {_cut(token)!r}", line)


def _read_lines(path: str) -> Iterator[tuple[int, str]]:
    """Numbered non-blank lines, stripped; non-UTF-8 bytes are a ParseError."""
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                if line := raw.strip():
                    yield lineno, line
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text") from exc


def names_path_for(path: str) -> str:
    return path + ".names"


def render_system(system: LinearSystem) -> str:
    columns = system.sorted_universe()
    index = {uid: j + 1 for j, uid in enumerate(columns)}
    lines = [f"{len(system.equations)} {len(columns)}"]
    for row, eq in enumerate(system.equations, start=1):
        if eq.lhs.const != 0:
            lines.append(f"{row} 0 {format_rational(eq.lhs.const)}")
        for uid in sorted(eq.lhs.coeffs):
            lines.append(
                f"{row} {index[uid]} {format_rational(eq.lhs.coeffs[uid])}")
    lines.append("0 0 0")
    return "\n".join(lines) + "\n"


def render_names(system: LinearSystem) -> str:
    lines = []
    for j, uid in enumerate(system.sorted_universe(), start=1):
        lines.append(f"{j} {uid.kind_letter} {uid.index} {uid.name}")
    return "\n".join(lines) + "\n" if lines else ""


def write_system(system: LinearSystem, path: str) -> None:
    """Write a system plus its name sidecar; byte-identical per input."""
    atomic_write(path, render_system(system))
    atomic_write(names_path_for(path), render_names(system))


def read_names(path: str, columns: int) -> dict[int, UnknownId]:
    """Column -> unknown for columns 1..``columns``; each column and each
    unknown appears once, so reading stops within that many lines.  A
    line's name must be the one its kind and index spell."""
    mapping: dict[int, UnknownId] = {}
    seen: set[UnknownId] = set()
    for lineno, line in _read_lines(path):
        parts = line.split()
        if len(parts) != 4 or parts[1] not in KIND_BY_LETTER:
            raise ParseError("expected 'j kind index name'", lineno)
        j, index = _parse_integer(parts[0]), _parse_integer(parts[2])
        if j is None or index is None:
            raise ParseError("bad column or index", lineno)
        try:
            uid = UnknownId(KIND_BY_LETTER[parts[1]], index)
        except ValueError as exc:
            raise ParseError(_cut(str(exc), _SHOWN_MESSAGE), lineno) from exc
        if parts[3] != uid.name:
            raise ParseError(f"name {_cut(parts[3])!r} does not match its "
                             f"kind and index ({uid.name})", lineno)
        if j in mapping:
            raise ParseError(f"column {j} named twice", lineno)
        if uid in seen:
            raise ParseError(f"{uid.name} names two columns", lineno)
        if not 1 <= j <= columns:
            raise ParseError(f"sidecar names column {_cut(str(j))}, outside "
                             f"the header's 1..{columns}", lineno)
        mapping[j] = uid
        seen.add(uid)
    return mapping


def read_system(path: str) -> LinearSystem:
    """Read a sparse triple file and its name sidecar, if there is one.

    The file is read in one pass over its lines.  The header comes first;
    a header declaring more columns than the unknown guard allows is
    refused before anything is built.  The sidecar is read right after
    the header and may name only its columns.  Each distinct column and
    value token is parsed and checked once, and the row of the last row
    token is kept, so rows given in order cost one check each; a token
    that spells the same number another way, such as ``01`` for ``1``,
    names the same row or column.  Every entry is checked against
    duplicates.  Entries are grouped by row, and only rows with entries
    become equations, so the header's row count costs nothing; row i is
    equation i - 1.  Every declared column is an unknown, free unless an
    entry says otherwise.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            return _read_triples(path, enumerate(handle, start=1))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text") from exc


def _read_triples(path: str, lines: Iterator[tuple[int, str]]) -> LinearSystem:
    for lineno, raw in lines:
        parts = raw.split()
        if parts:
            break
    else:
        raise ParseError("empty file", 1)
    if len(parts) != 2:
        raise ParseError("expected header 'm n'", lineno)
    m, n = map(_parse_integer, parts)
    if m is None or n is None:
        raise ParseError("bad header", lineno)
    if m < 0 or n < 0:
        raise ParseError("negative header counts", lineno)
    limit = unknown_limit(FORMULATE_MAX_UNKNOWNS)
    if n > limit:
        raise TooLargeError(f"header declares {_cut(str(n))} unknowns, "
                            f"over the guard of {limit}")
    names_path = names_path_for(path)
    if os.path.exists(names_path):
        column = read_names(names_path, n)
        missing = [j for j in range(1, n + 1) if j not in column]
        if missing:
            raise ParseError(f"sidecar misses column {missing[0]}")
    else:
        column = dict(enumerate(UnknownId.span(KIND_C, n), start=1))

    # Row dicts are keyed by unknown, and by 0 for the constant, which no
    # unknown equals.  A zero value token is never cached, so every row
    # that holds one is marked and filtered at the end.
    rows: dict[int, dict[int, Rational]] = {}
    keys: dict[str, int] = {}
    values: dict[str, Rational] = {}
    zeroed: set[int] = set()
    row_token = None
    last = lineno
    for lineno, raw in lines:
        try:
            i_token, j_token, value_token = raw.split()
        except ValueError:
            if raw.split():
                raise ParseError("expected 'i j value'", lineno) from None
            continue
        last = lineno
        if i_token != row_token:
            if i_token == "0" and j_token == "0" and value_token == "0":
                break
            i = _parse_integer(i_token)
            if i is None or (j_token not in keys
                             and _parse_integer(j_token) is None):
                raise ParseError("bad indices", lineno)
            if not 1 <= i <= m:
                raise BoundsError(f"row {_cut(str(i))} outside "
                                  f"1..{_cut(str(m))}", lineno)
            row = rows.get(i)
            if row is None:
                row = rows[i] = {}
            row_token = i_token
        key = keys.get(j_token)
        if key is None:
            j = _parse_integer(j_token)
            if j is None:
                raise ParseError("bad indices", lineno)
            if not 0 <= j <= n:
                raise BoundsError(f"column {_cut(str(j))} outside 0..{n}",
                                  lineno)
            key = keys[j_token] = column[j] if j else 0
        if key in row:
            raise ParseError(f"duplicate entry ({i}, {int(j_token)})", lineno)
        value = values.get(value_token)
        if value is None:
            value = _parse_rational(value_token, lineno)
            if value:
                values[value_token] = value
            else:
                zeroed.add(i)
        row[key] = value
    else:
        raise ParseError("missing '0 0 0' terminator", last)
    for lineno, raw in lines:
        if raw.split():
            raise ParseError("content after terminator", lineno)

    equations = []
    for i in sorted(rows):
        row = rows.pop(i)
        const = row.pop(0, 0)
        if i in zeroed:
            row = {key: value for key, value in row.items() if value != 0}
        equations.append(Equation(AffineForm._raw(const, row), i - 1))
    return LinearSystem(equations, frozenset(column.values()))


_CHUNK = re.compile(r"[+-]?[^+-]+")


def parse_affine(text: str) -> AffineForm:
    """Inverse of :func:`selsolve.linsys.format_affine`."""
    squeezed = text.replace(" ", "")
    if squeezed in ("", "0"):
        return AffineForm.zero()
    const: Rational = 0
    coeffs: dict[UnknownId, Rational] = {}
    for chunk in _CHUNK.findall(squeezed):
        sign = 1
        if chunk[0] in "+-":
            sign = -1 if chunk[0] == "-" else 1
            chunk = chunk[1:]
        if "*" in chunk:
            rat, name = chunk.split("*", 1)
        elif chunk[0].isdigit():
            rat, name = chunk, None
        else:
            rat, name = "1", chunk
        value = sign * _parse_rational(rat, None)
        if name is None:
            const += value
        else:
            try:
                uid = UnknownId.from_name(name)
            except ValueError as exc:
                raise ParseError(f"bad unknown {_cut(name)!r}") from exc
            coeffs[uid] = coeffs.get(uid, 0) + value
    return AffineForm(const, coeffs)


def render_solution(state: SolutionState) -> str:
    lines = ["ZEROS"]
    lines.extend(uid.name for uid in sorted(state.zeros))
    lines.append("PIVOTS")
    for uid in sorted(state.pivots):
        lines.append(f"{uid.name} = {format_affine(state.pivots[uid])}")
    lines.append("FREE")
    lines.extend(uid.name for uid in sorted(state.free))
    return "\n".join(lines) + "\n"


def write_solution(state: SolutionState, path: str) -> None:
    atomic_write(path, render_solution(state))


def read_solution(path: str) -> SolutionState:
    """Parse a solution file back into an equivalent state."""
    zeros: list[UnknownId] = []
    pivots: dict[UnknownId, AffineForm] = {}
    free: set[UnknownId] = set()
    section = None
    for lineno, line in _read_lines(path):
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
                pivots[UnknownId.from_name(name.strip())] = parse_affine(expr)
            elif section == "ZEROS":
                zeros.append(UnknownId.from_name(line))
            else:
                free.add(UnknownId.from_name(line))
        except (ValueError, ParseError) as exc:
            # parse_affine knows no line number; this line is the culprit
            raise ParseError(_cut(str(exc), _SHOWN_MESSAGE),
                             lineno) from exc
    domains = [set(zeros), set(pivots), free]
    for i in range(3):
        for j in range(i + 1, 3):
            overlap = domains[i] & domains[j]
            if overlap:
                raise ParseError(f"{sorted(overlap)[0].name} in two sections")
    for uid, rhs in pivots.items():
        if not set(rhs.coeffs) <= free:
            raise ParseError(f"pivot {uid.name} mentions non-free unknowns")
    universe = frozenset(zeros) | frozenset(pivots) | frozenset(free)
    return SolutionState(universe, set(zeros), pivots, free)
