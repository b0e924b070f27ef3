"""Staged formulate/extract/prune pipelines and independent verification.

A strategy is a sequence over three step kinds:

  N  prune the first-integral side condition and harvest 1-term zeros
  S  prune the u-commutator condition and harvest 1-term zeros
  F  formulate whatever is still unknown, split completely, solve

N and S formulate their condition once, over the live unknowns; every
later N or S step harvests what is left of it in one deglex pass.

The text grammar is ``steps ::= step+ ; step ::= ('N'|'S') | '(' steps ')'
INT | 'F'``, whitespace ignored, case-insensitive, e.g. ``(N)3(SNN)4(SN)4F``.
Exactly one F must appear, at the end.  The default strategy is adaptive:
it repeats a selective step while its yield stays above a threshold
fraction of the still-unconstrained unknowns, then moves on.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import ParseError, SingularSampleError
from .linsys import (Equation, LinearSystem, Rational, UnknownId,
                     exact_div)
from .ncalgebra import NCPoly, Word
from .solver import SolutionState, ZeroRegistry, lsss_solve
from .symmetry import (COMMUTATOR_UV, DEFAULT_K0, ODESystem, SortedCondition,
                       SymmetryAnsatz, _check_degree_guard, build_ansatz,
                       complete_split, formulate_nc, formulate_symcon,
                       kontsevich_system, prune_ncpoly, selective_split)

DEFAULT_VERIFY_SEED = 1729
_INVERTIBLE_RETRIES = 100


@dataclass(frozen=True)
class Strategy:
    """A fixed step sequence with exactly one terminal F."""

    steps: tuple[str, ...]

    def __post_init__(self):
        if self.steps.count("F") != 1 or self.steps[-1] != "F":
            raise ParseError("strategy needs exactly one F, at the end")

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        return cls(tuple(_parse_steps(text)))

    def __str__(self) -> str:
        return format_steps(self.steps)


@dataclass(frozen=True)
class AdaptiveStrategy:
    """Run selective steps while they stay productive, then finish.

    A step kind keeps repeating while its last yield exceeded
    ``threshold`` times the count of not-yet-zero unknowns; the first
    attempt is optimistic.  threshold 1 degenerates to plain F, threshold 0
    runs every selective loop to its fixpoint.
    """

    threshold: Fraction = Fraction(1, 100)

    def __str__(self) -> str:
        return f"adaptive({self.threshold})"


def default_strategy(degree: int,
                     threshold: Fraction | str = Fraction(1, 100)
                     ) -> AdaptiveStrategy:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return AdaptiveStrategy(Fraction(threshold))


def _parse_steps(text: str) -> list[str]:
    tokens = text.upper().replace(" ", "").replace("\t", "")
    steps, pos = _parse_seq(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"unexpected {tokens[pos]!r} at position {pos}")
    if not steps:
        raise ParseError("empty strategy")
    return steps


def _parse_seq(tokens: str, pos: int) -> tuple[list[str], int]:
    steps: list[str] = []
    while pos < len(tokens):
        ch = tokens[pos]
        if ch in "NSF":
            steps.append(ch)
            pos += 1
        elif ch == "(":
            inner, pos = _parse_seq(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError("unbalanced parenthesis in strategy")
            pos += 1
            start = pos
            while pos < len(tokens) and tokens[pos].isdigit():
                pos += 1
            if start == pos:
                raise ParseError("group needs a repeat count")
            steps.extend(inner * int(tokens[start:pos]))
        else:
            break
    return steps, pos


def format_steps(steps: Sequence[str]) -> str:
    """Compact text with run-length groups, re-parseable by ``parse``."""
    out = []
    i = 0
    while i < len(steps):
        j = i
        while j < len(steps) and steps[j] == steps[i]:
            j += 1
        run = j - i
        if run > 2:
            out.append(f"({steps[i]}){run}")
        else:
            out.append(steps[i] * run)
        i = j
    return "".join(out)


@dataclass
class StepReport:
    label: str
    seconds: float
    new_zeros: int
    equations: int


@dataclass
class RunReport:
    """Per-step trace of one pipeline run plus the final solution summary."""

    steps: list[StepReport] = field(default_factory=list)
    strategy_text: str = ""
    zero_count: int = 0
    pivot_count: int = 0
    free_count: int = 0

    @property
    def peak_equations(self) -> int:
        return max((s.equations for s in self.steps), default=0)

    @property
    def final_equations(self) -> int:
        return self.steps[-1].equations if self.steps else 0

    @property
    def selective_zero_total(self) -> int:
        return sum(s.new_zeros for s in self.steps if s.label != "F")

    def lines(self) -> list[str]:
        out = []
        for i, s in enumerate(self.steps, start=1):
            out.append(f"step {i}: {s.label}  new_zeros={s.new_zeros}"
                       f"  equations={s.equations}  time={s.seconds:.3f}s")
        out.append(f"strategy: {self.strategy_text}")
        out.append(f"final: zeros={self.zero_count} pivots={self.pivot_count}"
                   f" free={self.free_count}")
        return out


class _PipelineRun:
    """Shared registry plus cached formulated conditions for one degree.

    N and S formulate their condition on first use, over the live unknowns,
    and keep it as a :class:`SortedCondition` whose remainder each later
    step harvests in one pass.
    """

    def __init__(self, degree: int, k0: int):
        _check_degree_guard(degree)
        self.system = kontsevich_system()
        self.ansatz = build_ansatz(degree)
        self.k0 = k0
        self.registry = ZeroRegistry()
        self._nc: SortedCondition | None = None
        self._nc_aux: tuple[UnknownId, ...] | None = None
        self._symcon_u: SortedCondition | None = None
        self.report = RunReport()
        self.state: SolutionState | None = None

    def _live_count(self) -> int:
        return self.ansatz.unknown_count - len(self.registry)

    def _record(self, label: str, started: float, new: int, eqs: int) -> None:
        self.report.steps.append(
            StepReport(label, time.perf_counter() - started, new, eqs))

    def step_n(self) -> int:
        started = time.perf_counter()
        if self._nc is None:
            nc = formulate_nc(self.system, self.ansatz, COMMUTATOR_UV,
                              self.k0, registry=self.registry)
            self._nc, self._nc_aux = SortedCondition(nc.residual), nc.aux
        new = selective_split(self._nc, self.registry)
        self._record("N", started, new, 0)
        return new

    def step_s(self) -> int:
        started = time.perf_counter()
        if self._symcon_u is None:
            self._symcon_u = SortedCondition(formulate_symcon(
                self.system, self.ansatz, "u", registry=self.registry))
        new = selective_split(self._symcon_u, self.registry)
        self._record("S", started, new, 0)
        return new

    def step_f(self) -> SolutionState:
        started = time.perf_counter()
        if self._nc is not None:
            nc_residual = prune_ncpoly(self._nc.poly(), self.registry)
            nc_aux = self._nc_aux
        else:
            nc = formulate_nc(self.system, self.ansatz, COMMUTATOR_UV,
                              self.k0, registry=self.registry)
            nc_residual, nc_aux = nc.residual, nc.aux
        if self._symcon_u is not None:
            sym_u = prune_ncpoly(self._symcon_u.poly(), self.registry)
        else:
            sym_u = formulate_symcon(self.system, self.ansatz, "u",
                                     registry=self.registry)
        sym_v = formulate_symcon(self.system, self.ansatz, "v",
                                 registry=self.registry)
        universe = frozenset(self.ansatz.unknowns) | frozenset(nc_aux)
        equations: list[Equation] = []
        for part in (complete_split(nc_residual), complete_split(sym_u),
                     complete_split(sym_v)):
            for eq in part.equations:
                equations.append(Equation(eq.lhs, len(equations)))
        zeros_before = len(self.registry)
        self.state = lsss_solve(LinearSystem(equations, universe),
                                registry=self.registry)
        self._record("F", started, len(self.registry) - zeros_before,
                     len(equations))
        report = self.report
        report.strategy_text = format_steps([s.label for s in report.steps])
        report.zero_count = len(self.state.zeros)
        report.pivot_count = len(self.state.pivots)
        report.free_count = self.state.free_count
        return self.state


def run_strategy(degree: int, strategy: Strategy | AdaptiveStrategy | str,
                 k0: int = DEFAULT_K0) -> tuple[SolutionState, RunReport]:
    """Execute a strategy for one degree; returns the state and its trace."""
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    run = _PipelineRun(degree, k0)
    if isinstance(strategy, AdaptiveStrategy):
        _run_adaptive(run, strategy.threshold)
    else:
        for step in strategy.steps:
            if step == "N":
                run.step_n()
            elif step == "S":
                run.step_s()
            else:
                run.step_f()
    assert run.state is not None
    return run.state, run.report


def _productive(new: int | None, live: int, threshold: Fraction) -> bool:
    # Optimistic before the first attempt of a phase.
    if new is None:
        return threshold < 1
    if live <= 0:
        return False
    return Fraction(new, live) > threshold


def _run_adaptive(run: _PipelineRun, threshold: Fraction) -> None:
    new: int | None = None
    while _productive(new, run._live_count(), threshold):
        new = run.step_n()
    new_s: int | None = None
    while _productive(new_s, run._live_count(), threshold):
        new_s = run.step_s()
        if not _productive(new_s, run._live_count(), threshold):
            break
        inner: int | None = None
        while _productive(inner, run._live_count(), threshold):
            inner = run.step_n()
    run.step_f()


# --- independent verification with random rational matrices ---------------

Matrix = list[list[Rational]]


def _mat_identity(dim: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]


def _mat_zero(dim: int) -> Matrix:
    return [[0] * dim for _ in range(dim)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    dim = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]


def _mat_add_scaled(a: Matrix, b: Matrix, r: Rational) -> Matrix:
    dim = len(a)
    return [[a[i][j] + r * b[i][j] for j in range(dim)] for i in range(dim)]


def _mat_scale(m: Matrix, r: Rational) -> Matrix:
    return [[r * x for x in row] for row in m]


def _mat_is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m for x in row)


def _mat_inverse(m: Matrix) -> Matrix | None:
    """Exact Gauss-Jordan inverse; None when singular."""
    dim = len(m)
    work = [list(row) + ident for row, ident in zip(m, _mat_identity(dim))]
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = exact_div(1, work[col][col])
        work[col] = [x * inv for x in work[col]]
        for r in range(dim):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[dim:] for row in work]


def _random_invertible(rng: random.Random, dim: int) -> tuple[Matrix, Matrix]:
    for _ in range(_INVERTIBLE_RETRIES):
        m = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        inv = _mat_inverse(m)
        if inv is not None:
            return m, inv
    raise SingularSampleError(
        f"no invertible sample in {_INVERTIBLE_RETRIES} draws")


def _eval_word(word: Word, mats: Sequence[Matrix], dim: int) -> Matrix:
    out = _mat_identity(dim)
    for g in word:
        out = _mat_mul(out, mats[g])
    return out


def _eval_terms(terms: list[tuple[Word, Rational]],
                mats: Sequence[Matrix], dim: int) -> Matrix:
    out = _mat_zero(dim)
    for word, coeff in terms:
        out = _mat_add_scaled(out, _eval_word(word, mats, dim), coeff)
    return out


def _derive_terms(terms: list[tuple[Word, Rational]],
                  letter_images: Sequence[Matrix],
                  mats: Sequence[Matrix], dim: int) -> Matrix:
    """Leibniz rule evaluated in matrix arithmetic, word by word.

    Nothing is combined symbolically, so this really is an independent
    check of the algebraic identity.
    """
    out = _mat_zero(dim)
    for word, coeff in terms:
        for i, g in enumerate(word):
            piece = _eval_word(Word(word[:i]), mats, dim)
            piece = _mat_mul(piece, letter_images[g])
            piece = _mat_mul(piece, _eval_word(Word(word[i + 1:]), mats, dim))
            out = _mat_add_scaled(out, piece, coeff)
    return out


def _numeric_terms(poly: NCPoly, values) -> list[tuple[Word, Rational]]:
    out = []
    for w, aff in poly.terms.items():
        value = aff.evaluate(values)
        if value != 0:
            out.append((w, value))
    return out


def verify_by_matrices(system: ODESystem, ansatz: SymmetryAnsatz,
                       state: SolutionState, dim: int, trials: int,
                       seed: int = DEFAULT_VERIFY_SEED) -> bool:
    """Check a solved symmetry on random invertible rational matrices.

    Draws matrices for u and v and random rationals for the free
    parameters, then evaluates both orders of the mixed second derivatives
    through matrix arithmetic alone.  Passes only if every commutator
    evaluates to the exact zero matrix in every trial.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    rng = random.Random(seed)
    dtau = ansatz.dtau
    for _ in range(trials):
        umat, uinv = _random_invertible(rng, dim)
        vmat, vinv = _random_invertible(rng, dim)
        mats = (umat, vmat, uinv, vinv)
        free_values = {
            f: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            for f in sorted(state.free)
        }
        values = state.full_assignment(free_values)
        q1 = _numeric_terms(dtau.image_u, values)
        q2 = _numeric_terms(dtau.image_v, values)
        p1 = _numeric_terms(system.dt.image_u, values)
        p2 = _numeric_terms(system.dt.image_v, values)

        def images(img_u: Matrix, img_v: Matrix) -> list[Matrix]:
            neg_u = _mat_scale(_mat_mul(_mat_mul(uinv, img_u), uinv), -1)
            neg_v = _mat_scale(_mat_mul(_mat_mul(vinv, img_v), vinv), -1)
            return [img_u, img_v, neg_u, neg_v]

        tau_images = images(_eval_terms(q1, mats, dim),
                            _eval_terms(q2, mats, dim))
        t_images = images(_eval_terms(p1, mats, dim),
                          _eval_terms(p2, mats, dim))
        for px, qx in ((p1, q1), (p2, q2)):
            lhs = _derive_terms(px, tau_images, mats, dim)
            rhs = _derive_terms(qx, t_images, mats, dim)
            if not _mat_is_zero(_mat_add_scaled(lhs, rhs, -1)):
                return False
    return True
