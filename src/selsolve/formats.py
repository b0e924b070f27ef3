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
:func:`selsolve.linsys.format_affine`.  Each unknown appears once, in id
order, and all writes are atomic (temp file plus rename).
"""

from __future__ import annotations

import errno
import os
import re
import secrets
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import chain, compress, groupby, islice, repeat
from operator import (add, and_, attrgetter, ge, gt, is_, itemgetter, ne, not_,
                      sub)
from typing import Iterable, Iterator, NoReturn, Sequence

from .errors import BoundsError, ParseError, TooLargeError
from .linsys import (FORMULATE_MAX_UNKNOWNS, KIND_BY_LETTER, KIND_C,
                     AffineForm, LinearSystem, Rational, UnknownId, exact_div,
                     format_affine, format_rational, unknown_limit)
from .solver import SolutionState


def atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or its pieces, through a temp file and a
    rename; an OSError names ``path``."""
    atomic_write_files([(path, text)])


def atomic_write_files(files: Sequence[tuple[str, str | Iterable[str]]]
                       ) -> None:
    """Write each (path, text) through its own temp file, then rename
    them in order.  Every temp file is written, and no path is found to
    be a directory, before the first rename, so a failure there leaves
    every path as it was; an OSError names the path it concerns.

    The temp files are created as new files, so the umask sets their
    modes.
    """
    temps: list[str] = []
    try:
        for path, text in files:
            temps.append(os.path.join(os.path.dirname(os.path.abspath(path)),
                                      f".tmp-{secrets.token_hex(8)}.part"))
            with open(temps[-1], "x") as handle:
                handle.writelines([text] if isinstance(text, str) else text)
        for path, _ in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR))
        for (path, _), tmp in zip(files, temps):
            os.replace(tmp, path)
    except OSError as exc:  # named by the path it concerns
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for tmp in temps:
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


def names_path_for(path: str) -> str:
    return path + ".names"


#: Rows, or names, rendered into one piece of a file at a time.
_PIECE = 1 << 12


class _ValueTokens(dict):
    """Value to its text and a newline, each made on first use."""

    def __missing__(self, value: Rational) -> str:
        token = self[value] = f"{format_rational(value)}\n"
        return token


def system_text(system: LinearSystem) -> Iterator[str]:
    """The system file in pieces of up to :data:`_PIECE` rows each: the
    rows in order, each row's constant first and its entries by column.

    The token of each column (with the spaces around it) and of each
    value is made once.  A piece whose rows have no constant and whose
    entries ascend within each row, as every row the symmetry systems
    split into does, is joined from those tokens by maps over the packed
    rows; any other piece is rendered row by row.
    """
    n, rows = len(system.universe), len(system)
    yield f"{rows} {n}\n"
    labels = [f" {j} " for j in range(1, n + 1)]
    tokens = _ValueTokens()
    consts, starts, cols, values = (system.consts, system.starts,
                                    system.cols, system.values)
    for first in range(0, rows, _PIECE):
        last = min(first + _PIECE, rows)
        a, b = starts[first], starts[last]
        piece, bounds = cols[a:b], set(starts[first + 1:last])
        # entries ascend within each row when every descent starts a row
        if any(consts[first:last]) or not all(map(bounds.__contains__, (
                compress(range(a + 1, b), map(ge, piece, piece[1:]))))):
            yield "".join(_row_lines(system, first, last, labels, tokens))
            continue
        numbers = chain.from_iterable(map(repeat, map(str, range(
            first + 1, last + 1)), map(sub, starts[first + 1:last + 1],
                                       starts[first:last])))
        yield "".join(chain.from_iterable(zip(
            numbers, map(labels.__getitem__, piece),
            map(tokens.__getitem__, values[a:b]))))
    yield "0 0 0\n"


def _row_lines(system: LinearSystem, first: int, last: int,
               labels: list[str], tokens: _ValueTokens) -> Iterator[str]:
    """The lines of rows first..last - 1, one row at a time."""
    starts = system.starts
    for k in range(first, last):
        row, a, b = k + 1, starts[k], starts[k + 1]
        if system.consts[k] != 0:
            yield f"{row} 0 {tokens[system.consts[k]]}"
        for c, value in sorted(zip(system.cols[a:b], system.values[a:b])):
            yield f"{row}{labels[c]}{tokens[value]}"


def render_system(system: LinearSystem) -> str:
    """The system file as one string (:func:`system_text`)."""
    return "".join(system_text(system))


def render_names(system: LinearSystem) -> str:
    lines = []
    for j, uid in enumerate(system.universe, start=1):
        lines.append(f"{j} {uid.kind_letter} {uid.index} {uid.name}")
    return "\n".join(lines) + "\n" if lines else ""


def write_system(system: LinearSystem, path: str) -> None:
    """Write a system plus its name sidecar; byte-identical per input.

    The system is streamed piece by piece (:func:`system_text`); neither
    file replaces its path unless both were written in full.
    """
    atomic_write_files([(path, system_text(system)),
                        (names_path_for(path), render_names(system))])


#: Characters of a file read at a time; each piece is cut after its last
#: newline and the rest goes on with the next read.
_READ = 1 << 14
#: Every ASCII character but the whitespace that ``str.split`` cuts at:
#: deleting them from an ASCII piece leaves its layout.
_INK = bytes(b for b in range(128) if not chr(b).isspace())
#: The name prefix of each kind letter's unknowns (``C`` -> ``c``).
_PREFIX = {letter: UnknownId(kind, 0).name[:-1]
           for letter, kind in KIND_BY_LETTER.items()}


def _pieces(handle) -> Iterator[str]:
    """The rest of a text file in pieces of whole lines, about
    :data:`_READ` characters each; only the last may lack its newline.
    Bytes that are not UTF-8 are a ParseError naming the file, raised as
    the piece holding them is read."""
    rest = ""
    try:
        while chunk := handle.read(_READ):
            cut = chunk.rfind("\n") + 1
            if cut:
                yield rest + chunk[:cut]
                rest = chunk[cut:]
            else:
                rest += chunk
    except UnicodeDecodeError as exc:
        raise ParseError(f"{handle.name}: not UTF-8 text") from exc
    if rest:
        yield rest


def _lines_of(piece: str) -> list[str]:
    """The lines of a piece, as iterating the file would give them."""
    lines = piece.split("\n")
    if not lines[-1]:  # after the last newline, or an empty piece
        lines.pop()
    return lines


def _lines(handle, lineno: int = 0) -> Iterator[tuple[int, str]]:
    """The rest of a text file's lines (:func:`_pieces`), numbered on
    from ``lineno``."""
    for piece in _pieces(handle):
        for lineno, line in enumerate(_lines_of(piece), lineno + 1):
            yield lineno, line


def _fields(piece: str, width: int) -> list[str] | None:
    """The tokens of a piece whose lines each hold ``width`` tokens or
    none, or None when a line holds any other number.

    An ASCII piece whose whitespace is one character between tokens and
    a newline after every ``width`` of them, as in written files, is told
    by that whitespace alone; any other piece is split into lines.
    """
    tokens = piece.split()
    if piece.isascii():
        layout = piece.encode("ascii").translate(None, _INK)
        lines = len(tokens) // width
        if len(layout) == len(tokens) == lines * width and \
                layout.count(b"\n") == lines and \
                layout[width - 1::width] == b"\n" * lines:
            return tokens
    if set(map(len, map(str.split, piece.split("\n")))) <= {0, width}:
        return tokens
    return None


def _integers(tokens: list[str]) -> list[int] | None:
    """The integers the tokens spell (:func:`_parse_integer`), or None
    when one spells none."""
    digits = "".join(tokens)
    if digits.isascii() and digits.isdigit():  # the common case
        try:
            return list(map(int, tokens))
        except ValueError:  # over Python's int/str digit limit
            return None
    numbers = list(map(_parse_integer, tokens))
    return None if None in numbers else numbers


def _missing(tokens: list[str], found: list) -> set[str]:
    """The tokens a cache lookup found nothing for."""
    return set(compress(tokens, map(is_, found, repeat(None))))


def read_names(path: str, columns: int) -> dict[int, UnknownId]:
    """Column -> unknown from a sidecar whose lines ``j kind index name``
    name columns in 1..``columns``, each column and each unknown once; a
    line's name must be the one its kind and index spell.

    The file is read in pieces (:func:`_pieces`), each taken whole
    (:func:`_plain_names`).  When a piece is refused, or the file is not
    UTF-8, :func:`_sidecar_error` reads it again from the top and raises
    the error of its first wrong line.  A piece naming more columns than
    are left is refused before it is taken, so reading stops within about
    ``columns`` lines.
    """
    mapping: dict[int, UnknownId] = {}
    seen: set[UnknownId] = set()
    with open(path, encoding="utf-8") as handle:
        try:
            if all(_plain_names(piece, columns, mapping, seen)
                   for piece in _pieces(handle)):
                return mapping
        except ParseError:  # not UTF-8
            pass
    _sidecar_error(path, columns)


def _plain_names(piece: str, columns: int, mapping: dict[int, UnknownId],
                 seen: set[UnknownId]) -> bool:
    """Take a sidecar piece's lines into ``mapping`` and their unknowns
    into ``seen``; False when a line is wrong.

    The lines may come in any order, with blank lines and any whitespace
    between tokens; the unknowns are made per run of one kind, and the
    columns and unknowns are each probed once, by one ``update`` and a
    check of the size.
    """
    tokens = _fields(piece, 4)
    if not tokens:
        return tokens is not None
    lines = len(tokens) // 4
    letters, names = tokens[1::4], tokens[3::4]
    if len(mapping) + lines > columns or not _PREFIX.keys() >= set(letters):
        return False
    js, numbers = _integers(tokens[0::4]), _integers(tokens[2::4])
    if js is None or numbers is None or min(js) < 1 or max(js) > columns \
            or min(numbers) < 0:
        return False
    try:
        UnknownId(KIND_C, max(numbers))  # every index is in range
    except ValueError:
        return False
    if names != list(map(add, map(_PREFIX.__getitem__, letters),
                         map(str, numbers))):
        return False
    unknowns = list(chain.from_iterable(
        UnknownId._at(KIND_BY_LETTER[letter], map(itemgetter(1), run))
        for letter, run in groupby(zip(letters, numbers), itemgetter(0))))
    count, named = len(mapping), len(seen)
    mapping.update(zip(js, unknowns))
    seen.update(unknowns)
    return len(mapping) == count + lines and len(seen) == named + lines


def _sidecar_error(path: str, columns: int) -> NoReturn:
    """Read a sidecar :func:`read_names` refused line by line from the
    top and raise the error of the first wrong line."""
    named: set[int] = set()
    seen: set[UnknownId] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in _lines(handle):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4 or parts[1] not in KIND_BY_LETTER:
                raise ParseError("expected 'j kind index name'", lineno)
            j, index = _parse_integer(parts[0]), _parse_integer(parts[2])
            if j is None or index is None:
                raise ParseError("bad column or index", lineno)
            try:
                uid = UnknownId(KIND_BY_LETTER[parts[1]], index)
            except ValueError as exc:
                raise ParseError(_cut(str(exc), _SHOWN_MESSAGE),
                                 lineno) from exc
            if parts[3] != uid.name:
                raise ParseError(f"name {_cut(parts[3])!r} does not match "
                                 f"its kind and index ({uid.name})", lineno)
            if j in named:
                raise ParseError(f"column {j} named twice", lineno)
            if uid in seen:
                raise ParseError(f"{uid.name} names two columns", lineno)
            if not 1 <= j <= columns:
                raise ParseError(f"sidecar names column {_cut(str(j))}, "
                                 f"outside the header's 1..{columns}", lineno)
            named.add(j)
            seen.add(uid)
    raise AssertionError(f"{path}: no line of the sidecar is wrong")


def read_system(path: str) -> LinearSystem:
    """Read a sparse triple file and its name sidecar, if there is one.

    The header comes first; a header declaring more columns than the
    unknown guard allows is refused before anything is built.  The
    sidecar is read right after the header (:func:`read_names`) and may
    name only its columns.  The body is read in pieces of whole lines
    (:func:`_pieces`), each taken whole into the packed rows of the
    result (:meth:`_Entries.plain`); lines end in ``\\n``, ``\\r\\n`` or a
    lone ``\\r``, each a ``\\n`` once read as text.  Entries keep their
    file order within a row, row i has id i - 1, and zero values drop
    out; a row given in several runs of lines is joined in that order.
    Only rows with entries become rows of the system, so the header's row
    count costs nothing.  Every declared column is an unknown, free unless
    an entry says otherwise.

    A file that fails a check, lacks its terminator or is not UTF-8 is
    read again from the top line by line (:func:`_entry_error`), which
    raises the error of its first wrong line, with that line's number.
    """
    with open(path, encoding="utf-8") as handle:
        _, m, n = _header(handle)
        entries = _Entries(*_empty_system(path, n), m, n)
        try:
            system = entries.read(_pieces(handle))
        except ParseError:  # not UTF-8
            system = None
    if system is None:
        _entry_error(path)
    return system


def _header(handle) -> tuple[int, int, int]:
    """The line number of a system file's header, its first line that is
    not blank, and the counts ``m n`` it declares, checked."""
    try:
        for lineno, raw in enumerate(iter(handle.readline, ""), start=1):
            parts = raw.split()
            if parts:
                break
        else:
            raise ParseError("empty file", 1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{handle.name}: not UTF-8 text") from exc
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
    return lineno, m, n


class _Entries:
    """The entries of a system file, taken piece by piece straight into
    the arrays of a system, checked by whole pieces.

    Key -1 is the constant, any other key a column.  The arrays hold an
    entry per run of lines on one row; while the rows come in increasing
    order each entry is a whole row, and ``seen`` holds the keys of the
    last one, which the next piece may go on with.  A nonzero constant
    goes into its entry's slot, and a zero value drops out once its key
    is checked.  Once a row comes back or out of order, :func:`_joined`
    joins the entries of each row at the end and checks each row for a
    key given twice, the keys of its zeros included (the row assembly
    from unordered triples of Gustavson, ACM TOMS 4, 1978).
    """

    def __init__(self, system: LinearSystem, column: Sequence[int], m: int,
                 n: int):
        self.system, self.column, self.n = system, column, n
        self.top = min(m, _ROW_LIMIT)
        self.keys: dict[str, int] = {}
        self.cache: dict[str, Rational] = {}
        self.seen: set[int] = set()
        self.i = 0  # the last row read; none yet
        self.back = False  # a row came back or out of order
        self.zero_token = False  # a value token spelling zero was read
        self.zeros: list[tuple[int, int]] = []  # (entry, key) of each zero
        self.done = False  # the terminator was read

    def read(self, pieces: Iterable[str]) -> LinearSystem | None:
        """The system of the file's pieces, or None when one of them or
        the whole fails a check."""
        if not all(map(self.plain, pieces)) or not self.done:
            return None
        system = self.system
        if system.ids:
            system.starts.append(len(system.cols))
        return _joined(system, self.zeros) if self.back else system

    def plain(self, piece: str) -> bool:
        """Take a piece into the arrays whole; False when it fails a
        check.

        Its lines are ``i j value`` or blank, with any whitespace between
        tokens (:func:`_fields`); rows are in 1..min(m, 2**63), columns in
        0..n, values rational, and no entry holds a key twice.  The
        terminator ``0 0 0`` is the last line that is not blank, and only
        blank pieces come after it.
        """
        tokens = _fields(piece, 3)
        if tokens is None or self.done:
            return tokens == []  # only blank lines after the terminator
        self.done = tokens[-3:] == ["0", "0", "0"]
        if self.done:
            del tokens[-3:]
        return not tokens or self._take(tokens)

    def _take(self, tokens: list[str]) -> bool:
        """Take the entry tokens of a piece, the terminator cut off;
        False when a check fails."""
        rows, names, texts = tokens[0::3], tokens[1::3], tokens[2::3]
        # the first line of each run of one row token, and its row
        runs = [0, *compress(range(1, len(rows)), map(ne, rows[1:], rows))]
        numbers = _integers(list(map(rows.__getitem__, runs)))
        if numbers is None or min(numbers) < 1 or max(numbers) > self.top:
            return False
        before = [self.i, *numbers[:-1]]
        self.back = self.back or any(map(gt, before, numbers))
        opens = list(map(ne, before, numbers))  # a run that opens an entry
        firsts = list(compress(runs, opens))

        keys, cache = self.keys, self.cache
        found = list(map(keys.get, names))
        missing = _missing(names, found)
        for name in missing:
            j = _parse_integer(name)
            if j is None or not 0 <= j <= self.n:
                return False
            keys[name] = self.column[j]
        if missing:
            found = list(map(keys.__getitem__, names))
        values = list(map(cache.get, texts))
        missing = _missing(texts, values)
        for text in missing:
            try:
                value = cache[text] = _parse_rational(text, None)
            except ParseError:
                return False
            self.zero_token = self.zero_token or not value
        if missing:
            values = list(map(cache.__getitem__, texts))

        # no entry holds a key twice: the open one by the size of its set
        # of keys, the others by their keys ascending or the size of theirs
        end = len(found)
        if not opens[0]:
            count, part = len(self.seen), firsts[0] if firsts else end
            self.seen.update(found[:part])
            if len(self.seen) != count + part:
                return False
        bounds = set(firsts)
        if not all(map(bounds.__contains__, compress(
                range(1, end), map(ge, found, found[1:])))) and \
                any(len(set(found[a:b])) != b - a
                    for a, b in zip(firsts, [*firsts[1:], end])):
            return False
        if firsts:
            self.seen = set(found[firsts[-1]:])

        system, base = self.system, len(self.system.cols)
        entry = len(system.ids) - 1  # the open entry, before the fresh ones
        fresh = list(compress(numbers, opens))
        system.ids.extend(map(sub, fresh, repeat(1)))
        system.consts.extend(repeat(0, len(fresh)))
        if min(found) < 0 or (self.zero_token and not all(values)):
            # out of the arrays by one compress: a nonzero constant into its
            # entry's slot, and the key of a zero into ``zeros``
            keep = list(map(and_, map(ge, found, repeat(0)),
                            map(bool, values)))
            at = list(compress(range(end), map(not_, keep)))
            for p in at:
                k = entry + bisect_right(firsts, p)
                if values[p]:
                    system.consts[k] = values[p]
                else:
                    self.zeros.append((k, found[p]))
            found = list(compress(found, keep))
            values = list(compress(values, keep))
            firsts = [f - bisect_left(at, f) for f in firsts]
        system.starts.extend(islice(map(add, firsts, repeat(base)),
                                    0 if entry >= 0 else 1, None))
        system.cols.fromlist(found)
        system.values.extend(values)
        self.i = numbers[-1]
        return True


def _entry_error(path: str) -> NoReturn:
    """Read a system file :func:`read_system` refused line by line from
    the top and raise the error of the first wrong line, or the missing
    terminator's.  Only each row's columns are kept, for the duplicate
    check."""
    cells: dict[int, set[int]] = {}
    done = False
    with open(path, encoding="utf-8") as handle:
        last, m, n = _header(handle)
        top = min(m, _ROW_LIMIT)
        for lineno, raw in _lines(handle, last):
            parts = raw.split()
            if not parts:
                continue
            if done:
                raise ParseError("content after terminator", lineno)
            if len(parts) != 3:
                raise ParseError("expected 'i j value'", lineno)
            last = lineno
            if parts == ["0", "0", "0"]:
                done = True
                continue
            i, j = _parse_integer(parts[0]), _parse_integer(parts[1])
            if i is None or j is None:
                raise ParseError("bad indices", lineno)
            if not 1 <= i <= top:
                raise BoundsError(
                    f"row {_cut(str(i))} outside 1..{_cut(str(m))}"
                    if i < 1 or i > m else
                    f"row {_cut(str(i))} over the {_ROW_LIMIT} rows a "
                    f"system holds", lineno)
            if not 0 <= j <= n:
                raise BoundsError(f"column {_cut(str(j))} outside 0..{n}",
                                  lineno)
            row = cells.setdefault(i, set())
            if j in row:
                raise ParseError(f"duplicate entry ({i}, {j})", lineno)
            row.add(j)
            _parse_rational(parts[2], lineno)
    if not done:
        raise ParseError("missing '0 0 0' terminator", last)
    raise AssertionError(f"{path}: no line of the system file is wrong")


def _empty_system(path: str, n: int) -> tuple[LinearSystem, Sequence[int]]:
    """The system with no rows over the file's unknowns, as the sidecar
    names them if there is one, and the key of each file column: -1 for
    column 0, the constant, and the system's column for any other."""
    names_path = names_path_for(path)
    if not os.path.exists(names_path):
        return LinearSystem.over(UnknownId.span(KIND_C, n)), range(-1, n)
    named = read_names(names_path, n)
    missing = [j for j in range(1, n + 1) if j not in named]
    if missing:
        raise ParseError(f"sidecar misses column {missing[0]}")
    system = LinearSystem.over(tuple(sorted(named.values())))
    position = {uid: c for c, uid in enumerate(system.universe)}
    return system, [-1] + [position[named[j]] for j in range(1, n + 1)]


#: Rows a system holds: an equation id is a signed 64-bit int.
_ROW_LIMIT = 1 << 63


def _joined(pieces: LinearSystem, zeros: list[tuple[int, int]]
            ) -> LinearSystem | None:
    """Rows in id order, each joined from its entries in arrival order;
    None when a row holds a key twice, its constant and the keys of its
    zero values, (entry, key) in ``zeros``, counted."""
    dropped: dict[int, list[int]] = {}
    for p, key in zeros:
        dropped.setdefault(p, []).append(key)
    system = LinearSystem.over(pieces.universe)
    starts, cols, values = pieces.starts, pieces.cols, pieces.values
    order = sorted(range(len(pieces.ids)), key=pieces.ids.__getitem__)
    for row_id, group in groupby(order, key=pieces.ids.__getitem__):
        group = list(group)
        keys = list(chain.from_iterable(cols[starts[p]:starts[p + 1]]
                                        for p in group))
        row = list(chain.from_iterable(values[starts[p]:starts[p + 1]]
                                       for p in group))
        consts = list(filter(None, map(pieces.consts.__getitem__, group)))
        marks = keys + [-1] * len(consts)
        marks += [key for p in group for key in dropped.get(p, ())]
        if len(set(marks)) != len(marks):
            return None
        system.append(row_id, sum(consts), keys, row)
    return system


_CHUNK = re.compile(r"[+-]?[^+-]+")


@lru_cache(maxsize=1024)
def _term(term: str) -> tuple[UnknownId | None, Rational]:
    """The unknown of a term of an affine text, its sign included
    (``-2*c5``, ``+1/3``), None for the constant, and its signed value.
    Pivot lines repeat few distinct terms, so each is parsed once."""
    sign = -1 if term[0] == "-" else 1
    chunk = term[1:] if term[0] in "+-" else term
    if "*" in chunk:
        rat, name = chunk.split("*", 1)
    elif chunk[0].isdigit():
        rat, name = chunk, None
    else:
        rat, name = "1", chunk
    value = sign * _parse_rational(rat, None)
    if name is None:
        return None, value
    try:
        return UnknownId.from_name(name), value
    except ValueError as exc:
        raise ParseError(f"bad unknown {_cut(name)!r}") from exc


def parse_affine(text: str) -> AffineForm:
    """Inverse of :func:`selsolve.linsys.format_affine`."""
    squeezed = text.replace(" ", "")
    if squeezed in ("", "0"):
        return AffineForm.zero()
    const: Rational = 0
    coeffs: dict[UnknownId, Rational] = {}
    for uid, value in map(_term, _CHUNK.findall(squeezed)):
        if uid is None:
            const += value
        else:
            coeffs[uid] = coeffs.get(uid, 0) + value
    return AffineForm(const, coeffs)


def solution_text(zeros: Iterable[UnknownId],
                  pivots: Iterable[tuple[UnknownId, AffineForm]],
                  free: Iterable[UnknownId]) -> Iterator[str]:
    """The solution file in pieces, section by section, each section's
    unknowns in the order given, which must be id order; names are
    joined :data:`_PIECE` lines at a time."""
    yield "ZEROS\n"
    yield from _name_lines(zeros)
    yield "PIVOTS\n"
    for uid, rhs in pivots:
        yield f"{uid.name} = {format_affine(rhs)}\n"
    yield "FREE\n"
    yield from _name_lines(free)


def _name_lines(unknowns: Iterable[UnknownId]) -> Iterator[str]:
    names = map(attrgetter("name"), unknowns)
    while piece := list(islice(names, _PIECE)):
        piece.append("")
        yield "\n".join(piece)


def _sorted_sections(state: SolutionState) -> tuple:
    return (sorted(state.zeros), sorted(state.pivots.items()),
            sorted(state.free))


def render_solution(state: SolutionState) -> str:
    return "".join(solution_text(*_sorted_sections(state)))


def write_solution(state: SolutionState, path: str) -> None:
    atomic_write(path, solution_text(*_sorted_sections(state)))


def read_solution(path: str) -> SolutionState:
    """Parse a solution file back into an equivalent state; an unknown
    listed twice, in one section or in two, is refused.

    The file is read in pieces of whole lines (:func:`_pieces`), each
    cut into runs of lines at its header lines (:func:`_runs`), and each
    run is taken whole into the section its header opens
    (:func:`_plain_run`).  When a run is refused, or the file is not
    UTF-8, :func:`_solution_error` reads it again from the top line by
    line and raises the error of its first wrong line.  The checks
    across sections run once, on the state built.
    """
    zeros: set[UnknownId] = set()
    pivots: dict[UnknownId, AffineForm] = {}
    free: set[UnknownId] = set()
    sections = {"ZEROS": zeros, "PIVOTS": pivots, "FREE": free}
    with open(path, encoding="utf-8") as handle:
        try:
            taken = all(_plain_run(run, sections.get(header))
                        for header, run in _runs(_pieces(handle)))
        except ParseError:  # not UTF-8
            taken = False
    if not taken:
        _solution_error(path)
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


#: The section headers of a solution file.
_HEADERS = ("ZEROS", "PIVOTS", "FREE")
#: A section header line: its text stripped is a header.
_HEADER = re.compile(rf"^[^\S\n]*({'|'.join(_HEADERS)})[^\S\n]*(?:\n|\Z)",
                     re.MULTILINE)


def _runs(pieces: Iterable[str]) -> Iterator[tuple[str | None, str]]:
    """The runs of lines between header lines, each with the header
    above it, None above the first."""
    header = None
    for piece in pieces:
        # a piece of names holds no header word, and is not scanned
        parts = _HEADER.split(piece) if any(map(piece.__contains__,
                                                 _HEADERS)) else [piece]
        for run, below in zip(parts[::2], [*parts[1::2], None]):
            yield header, run
            header = below or header


#: A run of names of one kind, as their prefix letters.
_KIND_RUN = re.compile(rb"c+|a+")


def _plain_run(run: str, section: set[UnknownId] | dict[UnknownId, AffineForm]
               | None) -> bool:
    """Take a run of lines into its section whole; False when a line is
    wrong.  ZEROS and FREE runs hold a name a line in any layout
    :func:`_fields` takes, each a kind's prefix and ASCII digits, made
    per run of one kind; PIVOTS lines are read by :func:`_pivot`.  Only
    blank lines come before the first header, and a section must grow by
    as many unknowns as the run lists, so none is listed twice."""
    if isinstance(section, dict):
        count = len(section)
        lines = list(filter(None, map(str.strip, _lines_of(run))))
        try:
            section.update(map(_pivot, lines))
        except (ValueError, ParseError):
            return False
        return len(section) == count + len(lines)
    names = _fields(run, 1)
    if not names:
        return names is not None
    text = " ".join(names)
    if section is None or not text.isascii():
        return False
    # the names' bytes lose their digits and spaces to give the prefixes,
    # one letter a name when that many names start with c or a, and lose
    # their letters to give the digits, split once; a name of no digits
    # leaves fewer numbers than names, and the section grows by fewer
    data = text.encode("ascii")
    prefixes = data.translate(None, b"0123456789 ")
    starts = data.count(b" c") + data.count(b" a") + (data[:1] in b"ca")
    if not len(prefixes) == starts == len(names):
        return False
    digits = data.translate(None, b"ca").split()
    count = len(section)
    try:  # int() and the range check raise ValueError
        numbers = list(map(int, digits))
        UnknownId(KIND_C, max(numbers))  # every index is in range
    except ValueError:
        return False
    for kind in _KIND_RUN.finditer(prefixes):
        section.update(UnknownId._at(
            UnknownId.from_name(f"{kind[0][:1].decode()}0").kind,
            numbers[kind.start():kind.end()]))
    return len(section) == count + len(names)


def _pivot(line: str) -> tuple[UnknownId, AffineForm]:
    """The unknown and the expression of a pivot line ``name = expr``."""
    name, equals, expr = line.partition("=")
    if not equals:
        raise ValueError("pivot line needs '='")
    return UnknownId.from_name(name.strip()), parse_affine(expr)


def _solution_error(path: str) -> NoReturn:
    """Read a solution file :func:`read_solution` refused line by line
    from the top and raise the error of the first wrong line, or that
    the file is not UTF-8.  Only the unknowns of each section are kept,
    for the check of an unknown listed twice."""
    listed: dict[str, set[UnknownId]] = {header: set() for header in _HEADERS}
    section = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in _lines(handle):
            line = raw.strip()
            if not line:
                continue
            if line in listed:
                section = line
                continue
            if section is None:
                raise ParseError("content before first section", lineno)
            try:
                uid = _pivot(line)[0] if section == "PIVOTS" else \
                    UnknownId.from_name(line)
                if uid in listed[section]:
                    raise ValueError(f"{uid.name} listed twice under "
                                     f"{section}")
                listed[section].add(uid)
            except (ValueError, ParseError) as exc:
                # parse_affine knows no line number; this line is the culprit
                raise ParseError(_cut(str(exc), _SHOWN_MESSAGE),
                                 lineno) from exc
    raise AssertionError(f"{path}: no line of the solution file is wrong")
