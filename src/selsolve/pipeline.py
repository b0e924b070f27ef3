"""Staged formulate/extract/prune pipelines and independent verification.

A strategy is a sequence over three step kinds:

  N  prune the first-integral side condition and harvest 1-term zeros
  S  prune the u-commutator condition and harvest 1-term zeros
  F  formulate whatever is still unknown, split completely, solve

A run numbers its unknowns by slot: slot i < 2t is the ansatz unknown
c_i and slot 2t + j the side condition's auxiliary a_j.  The unknowns
known to vanish are a ``bytearray`` mask over the slots, and every
condition is labelled by slot.  N and S formulate their condition once,
over the live slots, as a sorted incidence of packed ints: N the side
condition, S the u-commutator condition, its sums made per source word.
Each stays ints until F; every later N or S step harvests what is left
of it in one int walk and marks the slots it finds dead.  F decodes what
is left of both conditions and the v-commutator condition, formulated
over the live slots, over the live slots themselves, through the one
:func:`complete_split`, and solves that live system over slots, as
:func:`system_stats` does.  An :class:`UnknownId` is made only when the
full :class:`SolutionState`, every zero included, is assembled from the
mask and F's solution (:func:`run_strategy`, ``pipeline --out``); the
``pipeline`` command otherwise reads the report alone, and makes none.

The default strategy runs to a fixpoint: N repeats until a step harvests
nothing; then, while an S step harvests something, N repeats again until
it harvests nothing; then F.  An explicit strategy is step text with the
grammar ``steps ::= step+ ; step ::= ('N'|'S') | '(' steps ')' INT | 'F'``,
whitespace ignored, case-insensitive, INT in ASCII digits, e.g.
``(N)3(SNN)4(SN)4F``.  Exactly one F must appear, at the end.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Sequence

from .errors import ParseError, SelSolveError, SingularSampleError
from .linsys import (FORMULATE_MAX_UNKNOWNS, KIND_A, KIND_C, AffineForm,
                     Rational, UnknownId, unknown_limit)
from .ncalgebra import U_INV, V_INV, Derivation, Word
from .solver import SolutionState, lsss_solve
from .symmetry import (FLIP, Incidence, NecessaryCondition, SymmetryAnsatz,
                       _check_degree_guard, ansatz_term_count, build_ansatz,
                       complete_split, formulate_symcon, kontsevich_system,
                       selective_split)

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

    def execute(self, run: _PipelineRun) -> None:
        """Run the steps on ``run``, in order."""
        steps = {"N": run.step_n, "S": run.step_s, "F": run.step_f}
        for step in self.steps:
            steps[step]()


class FixpointStrategy:
    """The default: harvest N and S to a fixpoint, then F.

    Each productive step registers at least one more zero out of finitely
    many unknowns, so the loops end.
    """

    def execute(self, run: _PipelineRun) -> None:
        """Run N and S to the fixpoint on ``run``, then F."""
        while run.step_n():
            pass
        while run.step_s():
            while run.step_n():
                pass
        run.step_f()


def default_strategy(degree: int) -> FixpointStrategy:
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return FixpointStrategy()


#: Most steps a strategy may expand to; the default run at degree 9 takes 26.
MAX_STRATEGY_STEPS = 100_000


def _parse_steps(text: str) -> list[str]:
    # only the step letters are case-folded: str.upper() makes 'ß' 'SS'
    tokens = "".join(text.split()).translate(str.maketrans("nsf", "NSF"))
    try:
        items, size, pos = _parse_seq(tokens, 0)
    except RecursionError:
        raise ParseError("strategy nests its groups too deeply") from None
    if pos != len(tokens):
        raise ParseError(f"unexpected {tokens[pos]!r} at position {pos}")
    if not size:
        raise ParseError("empty strategy")
    if size > MAX_STRATEGY_STEPS:
        raise ParseError(f"strategy expands to {size} steps, over the "
                         f"limit of {MAX_STRATEGY_STEPS}")
    return _expand(items)


def _parse_seq(tokens: str, pos: int) -> tuple[list, int, int]:
    """Parse steps up to the first token that is not one.

    Returns the items, a step letter or an (items, repeat count) group
    each, the number of steps they expand to, counted without expanding
    them, and the position after them.
    """
    items: list = []
    size = 0
    while pos < len(tokens):
        ch = tokens[pos]
        if ch in "NSF":
            items.append(ch)
            size += 1
            pos += 1
        elif ch == "(":
            inner, inner_size, pos = _parse_seq(tokens, pos + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError("unbalanced parenthesis in strategy")
            pos += 1
            start = pos
            # ASCII digits only: '²'.isdigit() holds where int() refuses it
            while pos < len(tokens) and "0" <= tokens[pos] <= "9":
                pos += 1
            if start == pos:
                raise ParseError("group needs a repeat count")
            digits = tokens[start:pos].lstrip("0") or "0"
            if len(digits) > len(str(MAX_STRATEGY_STEPS)):
                raise ParseError(
                    f"repeat count of {len(digits)} digits is over the "
                    f"limit of {MAX_STRATEGY_STEPS} steps")
            count = int(digits)
            items.append((inner, count))
            size += inner_size * count
        else:
            break
    return items, size, pos


def _expand(items: list) -> list[str]:
    steps: list[str] = []
    for item in items:
        if isinstance(item, str):
            steps.append(item)
        else:
            inner, count = item
            steps.extend(_expand(inner) * count)
    return steps


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
    """F counts its equations; N and S their words left and live unknowns."""

    label: str
    seconds: float
    new_zeros: int
    equations: int
    terms: int = 0
    live: int = 0


@dataclass
class RunReport:
    """Per-step trace of one pipeline run plus the final solution summary."""

    steps: list[StepReport] = field(default_factory=list)
    strategy_text: str = ""
    zero_count: int = 0
    pivot_count: int = 0
    free_count: int = 0

    @property
    def final_equations(self) -> int:
        return self.steps[-1].equations if self.steps else 0

    @property
    def selective_zero_total(self) -> int:
        return sum(s.new_zeros for s in self.steps if s.label != "F")

    def lines(self) -> list[str]:
        out = []
        for i, s in enumerate(self.steps, start=1):
            size = (f"equations={s.equations}" if s.label == "F"
                    else f"terms={s.terms}  live={s.live}")
            out.append(f"step {i}: {s.label}  new_zeros={s.new_zeros}"
                       f"  {size}  time={s.seconds:.3f}s")
        out.append(f"strategy: {self.strategy_text}")
        out.append(f"final: zeros={self.zero_count} pivots={self.pivot_count}"
                   f" free={self.free_count}")
        return out


class _PipelineRun:
    """One degree's slot mask plus its cached formulated conditions.

    ``dead`` holds one byte per slot of the ansatz and the side
    condition's auxiliaries, 1 once the slot's unknown is known to vanish;
    ``zero_count`` counts those bytes.  The conditions of N and S are
    formulated on first use, over the live slots, and each is kept as its
    :class:`Incidence`, whose remainder every later step harvests in one
    pass.  F solves the live system over the live slots; :meth:`solution`
    assembles the whole solution from the mask, over unknowns.
    """

    def __init__(self, degree: int):
        _check_degree_guard(degree)
        self.system = kontsevich_system()
        self.ansatz = build_ansatz(degree)
        self.dead = bytearray(self.ansatz.slot_count)
        self.zero_count = 0
        self._aux_count = 0  # the auxiliaries are live once N is formulated
        self._conditions: dict[str, Incidence] = {}
        self.report = RunReport()
        self._solved: SolutionState | None = None

    def _condition(self, label: str) -> Incidence:
        if label not in self._conditions:
            if label == "N":
                condition = NecessaryCondition(self.ansatz, self.dead)
                self._aux_count = len(self.dead) - self.ansatz.unknown_count
            else:
                condition = formulate_symcon(self.system, self.ansatz, "u",
                                             self.dead)
            self._conditions[label] = condition
        return self._conditions[label]

    def _record(self, label: str, started: float, new: int, *sizes) -> None:
        self.report.steps.append(
            StepReport(label, time.perf_counter() - started, new, *sizes))

    def _harvest(self, label: str) -> int:
        started = time.perf_counter()
        condition = self._condition(label)
        new = selective_split(condition, self.dead)
        self.zero_count += new
        live = self.ansatz.unknown_count + self._aux_count - self.zero_count
        self._record(label, started, new, 0, len(condition), live)
        return new

    def step_n(self) -> int:
        return self._harvest("N")

    def step_s(self) -> int:
        return self._harvest("S")

    def step_f(self) -> None:
        """Split what is left of N and S, and S_v formulated now, over the
        live slots, and solve that live system over them."""
        started = time.perf_counter()
        conditions = [self._condition(label) for label in "NS"]
        conditions.append(formulate_symcon(self.system, self.ansatz, "v",
                                           self.dead))
        live = list(compress(range(len(self.dead)), self.dead.translate(FLIP)))
        labels: list[int | None] = [None] * len(self.dead)  # dead drop out
        for s in live:
            labels[s] = s
        system = complete_split([c.keyed_terms(labels) for c in conditions],
                                live)
        self._solved = solved = lsss_solve(system)
        self._record("F", started, len(solved.zeros), len(system))
        report = self.report
        report.strategy_text = format_steps([s.label for s in report.steps])
        report.zero_count = self.zero_count + len(solved.zeros)
        report.pivot_count = len(solved.pivots)
        report.free_count = solved.free_count

    def solution(self) -> SolutionState:
        """The whole solution after F over unknowns, each made here once:
        every slot's unknown in the universe, the dead ones among the zeros
        next to those F found."""
        solved, unknowns = self._solved, self.ansatz.slot_unknowns()
        zeros = set(compress(unknowns, self.dead))
        zeros.update(unknowns[s] for s in solved.zeros)
        pivots = {unknowns[p]: AffineForm._raw(rhs.const, {
            unknowns[s]: r for s, r in rhs.coeffs.items()})
            for p, rhs in solved.pivots.items()}
        return SolutionState(frozenset(unknowns), zeros, pivots,
                             {unknowns[s] for s in solved.free},
                             solved.identities, solved.zero_rounds)


def run_pipeline(degree: int, strategy: Strategy | FixpointStrategy | str
                 ) -> _PipelineRun:
    """Execute a strategy for one degree; returns the finished run, whose
    report reads without assembling the solution."""
    if isinstance(strategy, str):
        strategy = Strategy.parse(strategy)
    run = _PipelineRun(degree)
    strategy.execute(run)
    return run


def run_strategy(degree: int, strategy: Strategy | FixpointStrategy | str
                 ) -> tuple[SolutionState, RunReport]:
    """Execute a strategy for one degree; returns the state and its trace."""
    run = run_pipeline(degree, strategy)
    return run.solution(), run.report


# --- independent verification with random integer matrices -----------------

#: An exact matrix value: integer numerator rows over a positive denominator.
IntMatrix = tuple[tuple[int, ...], ...]
Scaled = tuple[IntMatrix, int]


def _mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _mat_scale(m: IntMatrix, k: int) -> IntMatrix:
    return tuple(tuple(k * x for x in row) for row in m)


def _random_invertible(rng: random.Random, dim: int
                       ) -> tuple[Scaled, Scaled]:
    """A matrix with entries in -3..3, redrawn while singular, and adj/det
    by fraction-free Gauss-Jordan: divisions are exact (Bareiss)."""
    for _ in range(_INVERTIBLE_RETRIES):
        m = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        a = [row + [int(i == j) for j in range(dim)]
             for i, row in enumerate(m)]
        prev = 1
        for k in range(dim):
            pivot = next((r for r in range(k, dim) if a[r][k]), None)
            if pivot is None:
                break
            a[k], a[pivot] = a[pivot], a[k]
            a = [row if i == k else [(a[k][k] * x - row[k] * y) // prev
                                     for x, y in zip(row, a[k])]
                 for i, row in enumerate(a)]
            prev = a[k][k]
        else:
            sign = 1 if prev > 0 else -1
            return ((_mat_scale(m, 1), 1),
                    (_mat_scale([row[dim:] for row in a], sign), sign * prev))
    raise SingularSampleError(
        f"no invertible sample in {_INVERTIBLE_RETRIES} draws")


class _TrialMatrices:
    """Word values under one trial's values of u, v, u^-1, v^-1: a word is
    its prefix times its last letter, one product per word, memoized."""

    def __init__(self, letters: Sequence[Scaled]):
        self.letters, self.dim = letters, len(letters[0][0])
        one = tuple(tuple(int(i == j) for j in range(self.dim))
                    for i in range(self.dim))
        self._values: dict[tuple, Scaled] = {(): (one, 1)}

    def value(self, w: tuple) -> Scaled:
        hit = self._values.get(w)
        if hit is None:
            (m, d), (g, e) = self.value(w[:-1]), self.letters[w[-1]]
            hit = self._values[w] = (_mat_mul(m, g), d * e)
        return hit

    def evaluate(self, terms: list[tuple[Word, Rational]]) -> Scaled:
        """sum c * value(w) over (w, c) pairs, over one common denominator."""
        values = [(c, self.value(w)) for w, c in terms]
        den = math.lcm(*(c.denominator * d for c, (_, d) in values))
        scaled = [(c.numerator * (den // (c.denominator * d)), m)
                  for c, (m, d) in values]
        return tuple(tuple(sum(k * m[i][j] for k, m in scaled)
                           for j in range(self.dim))
                     for i in range(self.dim)), den


class _LeibnizMatrices(_TrialMatrices):
    """D(w) for the derivation taking u, v to ``image_u``, ``image_v``.

    D(g^-1) = -g^-1 D(g) g^-1 and D(w g) = D(w) g + w D(g), memoized by
    word.  D(w) has w's denominator times one scale, so the recursion runs
    on integer numerators alone.
    """

    def __init__(self, trial: _TrialMatrices, image_u: list, image_v: list):
        self.trial, self.letters, self.dim = trial, trial.letters, trial.dim
        (inv_u, du), (inv_v, dv) = self.letters[U_INV], self.letters[V_INV]
        (t_u, eu), (t_v, ev) = trial.evaluate(image_u), trial.evaluate(image_v)
        s = math.lcm(du * eu, dv * ev)
        self.images = (
            _mat_scale(t_u, s // eu), _mat_scale(t_v, s // ev),
            _mat_scale(_mat_mul(_mat_mul(inv_u, t_u), inv_u), -s // du // eu),
            _mat_scale(_mat_mul(_mat_mul(inv_v, t_v), inv_v), -s // dv // ev))
        self._values = {(): (_mat_scale(inv_u, 0), s)}

    def value(self, w: tuple) -> Scaled:
        hit = self._values.get(w)
        if hit is None:
            (dm, dd), (m, _) = self.value(w[:-1]), self.trial.value(w[:-1])
            letter, e = self.letters[w[-1]]
            # D(w) g + w D(g) as one product: [D(w) | w] [g ; D(g)]
            hit = self._values[w] = (_mat_mul(
                tuple(x + y for x, y in zip(dm, m)),
                letter + self.images[w[-1]]), dd * e)
        return hit


def check_solution_degree(state: SolutionState, degree: int) -> None:
    """Refuse a solution whose ansatz unknowns are not c0 .. c(k-1), k the
    degree's unknown count; nothing of the degree's size is built."""
    first, after = UnknownId(KIND_C, 0), UnknownId(KIND_A, 0)  # id order
    solved = [u for u in state.universe if first <= u < after]
    # k > 2^(degree + 1) exceeds a count of at most degree bits; past the
    # guard's bit length too, k, maybe of millions of digits, is not built
    huge = (degree >= len(solved).bit_length() and degree
            > unknown_limit(FORMULATE_MAX_UNKNOWNS).bit_length())
    k = 0 if huge else 2 * ansatz_term_count(degree)
    if huge or len(solved) != k or solved and max(solved).index >= k:
        raise SelSolveError(f"solution has {len(solved)} ansatz unknowns, "
                            f"the degree {degree} ansatz has "
                            f"{'more' if huge else k}")


def verify_by_matrices(system: Derivation, ansatz: SymmetryAnsatz,
                       state: SolutionState, dim: int, trials: int,
                       seed: int = DEFAULT_VERIFY_SEED) -> bool:
    """Check a solved symmetry on random invertible integer matrices.

    Each trial draws matrices for u and v and rationals for the free
    parameters; D_tau(P) and D_t(Q), the two orders of the mixed second
    derivatives, must agree exactly.  Nothing is combined symbolically:
    a word is its prefix times a letter matrix, and a derivative applies
    the Leibniz rule letter by letter, independent of the algebra's
    products and of the solver.  Each value is an integer matrix over one
    integer denominator (inverses adj/det, coefficients num/den); the
    numerator of the difference must vanish.  Caches live for one trial
    and the seed fixes the draws.  A solution of another degree is an error.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    check_solution_degree(state, ansatz.degree)
    rng = random.Random(seed)
    dtau = ansatz.derivation(state.zeros)  # a zero unknown adds no term
    for _ in range(trials):
        u, v = _random_invertible(rng, dim), _random_invertible(rng, dim)
        trial = _TrialMatrices((u[0], v[0], u[1], v[1]))
        values = state.full_assignment({
            f: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            for f in sorted(state.free)})
        q1, q2, p1, p2 = ([(w, c) for w, aff in image.terms.items()
                           if (c := aff.evaluate(values))]
                          for image in (dtau.image_u, dtau.image_v,
                                        system.image_u, system.image_v))
        d_tau, d_t = _LeibnizMatrices(trial, q1, q2), _LeibnizMatrices(
            trial, p1, p2)
        for px, qx in ((p1, q1), (p2, q2)):
            (lhs, a), (rhs, b) = d_tau.evaluate(px), d_t.evaluate(qx)
            if _mat_scale(lhs, b) != _mat_scale(rhs, a):
                return False
    return True
