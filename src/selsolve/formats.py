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
import tempfile
from fractions import Fraction

from .errors import BoundsError, ParseError
from .linsys import (KIND_BY_LETTER, AffineForm, Equation, LinearSystem,
                     Rational, UnknownId, format_affine, format_rational)
from .solver import SolutionState, ZeroRegistry


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_rational(token: str, line: int) -> Rational:
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return int(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {token!r}", line) from exc


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


def write_system(system: LinearSystem, path: str,
                 with_names: bool = True) -> None:
    """Write a system plus its name sidecar; byte-identical per input."""
    atomic_write(path, render_system(system))
    if with_names:
        atomic_write(names_path_for(path), render_names(system))


def read_names(path: str) -> dict[int, UnknownId]:
    """Column -> unknown; each column and each unknown appears once."""
    mapping: dict[int, UnknownId] = {}
    seen: set[UnknownId] = set()
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4 or parts[1] not in KIND_BY_LETTER:
                raise ParseError("expected 'j kind index name'", lineno)
            try:
                j = int(parts[0])
                uid = UnknownId(KIND_BY_LETTER[parts[1]], int(parts[2]))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
            if j in mapping:
                raise ParseError(f"column {j} named twice", lineno)
            if uid in seen:
                raise ParseError(f"{uid.name} names two columns", lineno)
            mapping[j] = uid
            seen.add(uid)
    return mapping


def read_system(path: str, names_path: str | None = None) -> LinearSystem:
    """Read a sparse triple file; the sidecar is picked up automatically."""
    if names_path is None:
        candidate = names_path_for(path)
        names_path = candidate if os.path.exists(candidate) else None
    names = read_names(names_path) if names_path else None

    with open(path) as handle:
        raw_lines = handle.readlines()
    header: tuple[int, int] | None = None
    entries: dict[tuple[int, int], Rational] = {}
    terminated = False
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line:
            continue
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
        if (i, j) in entries:
            raise ParseError(f"duplicate entry ({i}, {j})", lineno)
        entries[(i, j)] = _parse_rational(parts[2], lineno)
    if header is None:
        raise ParseError("empty file", 1)
    if not terminated:
        raise ParseError("missing '0 0 0' terminator", len(raw_lines))

    m, n = header
    if names is not None:
        missing = [j for j in range(1, n + 1) if j not in names]
        if missing:
            raise ParseError(f"sidecar misses column {missing[0]}")
        extra = sorted(j for j in names if not 1 <= j <= n)
        if extra:
            raise ParseError(f"sidecar names column {extra[0]}, outside "
                             f"the header's 1..{n}")
        column = names
    else:
        column = {j: UnknownId(0, j - 1) for j in range(1, n + 1)}
    rows: list[dict[UnknownId, Rational]] = [{} for _ in range(m)]
    consts: list[Rational] = [0] * m
    for (i, j), value in entries.items():
        if j == 0:
            consts[i - 1] = value
        else:
            rows[i - 1][column[j]] = value
    equations = [
        Equation(AffineForm(consts[i], rows[i]), i) for i in range(m)
    ]
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
        value = sign * _parse_rational(rat, 0)
        if name is None:
            const += value
        else:
            try:
                uid = UnknownId.from_name(name)
            except ValueError as exc:
                raise ParseError(f"bad unknown {name!r}") from exc
            coeffs[uid] = coeffs.get(uid, 0) + value
    return AffineForm(const, coeffs)


def render_solution(state: SolutionState) -> str:
    lines = ["ZEROS"]
    lines.extend(uid.name for uid in state.zeros.sorted())
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
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line in ("ZEROS", "PIVOTS", "FREE"):
                section = line
                continue
            if section is None:
                raise ParseError("content before first section", lineno)
            try:
                if section == "PIVOTS":
                    name, _, expr = line.partition("=")
                    if not _:
                        raise ParseError("pivot line needs '='", lineno)
                    pivots[UnknownId.from_name(name.strip())] = \
                        parse_affine(expr)
                elif section == "ZEROS":
                    zeros.append(UnknownId.from_name(line))
                else:
                    free.add(UnknownId.from_name(line))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
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
    return SolutionState(universe, ZeroRegistry(zeros), pivots, free)
