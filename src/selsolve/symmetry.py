"""Symmetry computation for the non-abelian Laurent ODE
u_t = uv - uv^-1 - v^-1,  v_t = -vu + vu^-1 + u^-1.

A degree-n flow ansatz u_tau = Q1, v_tau = Q2 carries one fresh unknown per
reduced word of degree <= n.  Requiring the flow to commute with the system
([D_t, D_tau] u = [D_t, D_tau] v = 0), plus the cheaper first-order side
condition D_tau(I) = sum(a_k I^k) for the known first integral
I = u v u^-1 v^-1, yields large sparse linear selection systems for those
unknowns.  This module formulates the conditions, splits them into
equations, and harvests vanishing unknowns straight from a condition
without materializing its system (selective splitting).

The ansatz is live: it stores only its words and unknowns, and builds Q1
and Q2 from the unknowns not yet registered as zero each time a condition
is formulated.  Each condition is built in one accumulator pass.  A staged
run keeps a formulated condition as a :class:`SortedCondition`, sorted into
deglex order once; every later harvest is one pass in that order that
prunes, registers 1-term words and keeps the remainder for the next pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import NotFirstIntegralError, TooLargeError
from .linsys import (FORMULATE_MAX_UNKNOWNS, KIND_A, KIND_B, KIND_C,
                     AffineForm, Equation, LinearSystem, UnknownId,
                     canonicalize, unknown_limit)
from .ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, Accumulator,
                        Derivation, NCPoly, Word, apply_derivation, word_pow)
from .solver import SolutionState, ZeroRegistry, lsss_solve, prune_zeros

#: Group commutator u v u^-1 v^-1 and its inverse: the generating first
#: integrals of the default system.
COMMUTATOR_UV = Word((U, V, U_INV, V_INV))
COMMUTATOR_VU = Word((V, U, V_INV, U_INV))

DEFAULT_K0 = 3

#: Reference rows (k, e1, t1, e2, t2, p) of :func:`system_stats` for
#: degrees 3..8.
EXPECTED_STATS = {
    3: (106, 142, 192, 448, 1034, 1),
    4: (322, 430, 616, 1412, 3706, 2),
    5: (970, 1294, 1904, 4448, 12914, 4),
    6: (2914, 3886, 5784, 13878, 44098, 5),
    7: (8746, 11662, 17440, 43052, 148346, 7),
    8: (26242, 34990, 52424, 132954, 493162, 8),
}


def side_condition_k0(degree: int) -> int:
    """Smallest k0 for which I^-k0 .. I^k0 cover D_tau(I) at this degree.

    D_tau(I) reaches word degree n + 5 and I^k has degree 4|k|, so the span
    needs k0 >= (n + 5) // 4; never below :data:`DEFAULT_K0`.
    """
    return max(DEFAULT_K0, (degree + 5) // 4)


@dataclass
class ODESystem:
    """The system flow D_t, with unknown-free Laurent polynomial images."""

    dt: Derivation

    def __post_init__(self):
        if self.dt.has_unknowns:
            raise ValueError("system images must be unknown-free")


def kontsevich_system() -> ODESystem:
    p1 = NCPoly({Word((U, V)): 1, Word((U, V_INV)): -1, Word((V_INV,)): -1})
    p2 = NCPoly({Word((V, U)): -1, Word((V, U_INV)): 1, Word((U_INV,)): 1})
    return ODESystem(Derivation(p1, p2, name="Dt"))


def enumerate_words(max_degree: int) -> list[Word]:
    """All reduced words of degree <= max_degree, in deglex order.

    Counts satisfy t(n) = 3 t(n-1) + 2 with t(0) = 1: every shorter word
    extends by the three letters that do not cancel, and the empty word by
    all four.
    """
    words = [EMPTY_WORD]
    level: list[Word] = [EMPTY_WORD]
    for _ in range(max_degree):
        nxt = []
        for w in level:
            last = w[-1] if w else None
            for g in (U, V, U_INV, V_INV):
                if last is None or g != (last ^ 2):
                    nxt.append(Word(w + (g,)))
        words.extend(nxt)
        level = nxt
    return words


def ansatz_term_count(degree: int) -> int:
    """Closed form of the t(n) = 3 t(n-1) + 2 recursion."""
    return 2 * 3 ** degree - 1


@dataclass
class SymmetryAnsatz:
    """Most general degree-n flow with one fresh unknown per term.

    Only words and unknowns are stored: ``unknowns[i]`` is the coefficient
    of ``words[i]`` in Q1 = u_tau and ``unknowns[t + i]`` its coefficient
    in Q2 = v_tau, where t = len(words).  :meth:`derivation` builds Q1 and
    Q2 at the point of use from the unknowns a registry has not zeroed, so
    no full image is built only to be pruned.  ``fixed`` gives the images
    outright instead, for a probe flow.
    """

    degree: int
    fixed: Derivation | None
    words: tuple[Word, ...]
    unknowns: tuple[UnknownId, ...]

    @property
    def unknown_count(self) -> int:
        return len(self.unknowns)

    @property
    def dtau(self) -> Derivation:
        """D_tau with every unknown live."""
        return self.derivation()

    def derivation(self, registry: ZeroRegistry | None = None) -> Derivation:
        """D_tau over the unknowns that are not in ``registry``."""
        if self.fixed is not None:
            if not registry:
                return self.fixed
            return Derivation(prune_ncpoly(self.fixed.image_u, registry),
                              prune_ncpoly(self.fixed.image_v, registry),
                              name=self.fixed.name)
        zeros = registry if registry is not None else ()
        t = len(self.words)
        q1, q2 = (NCPoly._raw({
            w: AffineForm._raw(0, {uid: 1})
            for w, uid in zip(self.words, self.unknowns[start:start + t])
            if uid not in zeros}) for start in (0, t))
        return Derivation(q1, q2, name="Dtau")


def build_ansatz(degree: int) -> SymmetryAnsatz:
    if degree < 1:
        raise ValueError("ansatz degree must be >= 1")
    words = enumerate_words(degree)
    unknowns = tuple(UnknownId(KIND_C, i) for i in range(2 * len(words)))
    return SymmetryAnsatz(degree, None, tuple(words), unknowns)


def prune_ncpoly(p: NCPoly, registry: ZeroRegistry) -> NCPoly:
    """Prune every coefficient; words whose coefficient vanishes drop out."""
    if not len(registry):
        return p
    acc = {}
    for w, c in p.terms.items():
        pruned = prune_zeros(c, registry)
        if not pruned.is_zero:
            acc[w] = pruned
    return NCPoly._from_acc(acc)


def formulate_symcon(system: ODESystem, ansatz: SymmetryAnsatz, which: str,
                     registry: ZeroRegistry | None = None) -> NCPoly:
    """The commutator condition D_tau(D_t x) - D_t(D_tau x) for x = u or v.

    Identically zero exactly when the ansatz flow commutes with the system
    on that generator.  With a registry only the live unknowns enter the
    ansatz.  Both terms are added into one accumulator.
    """
    if which not in ("u", "v"):
        raise ValueError("which must be 'u' or 'v'")
    dtau = ansatz.derivation(registry)
    if which == "u":
        dtx, qx = system.dt.image_u, dtau.image_u
    else:
        dtx, qx = system.dt.image_v, dtau.image_v
    acc = Accumulator()
    acc.add_derivation(dtau, dtx)
    acc.add_derivation(system.dt, qx, sign=-1)
    return acc.poly()


@dataclass
class NecessaryCondition:
    """Residual of D_tau(target) = sum over k of aux[k0+k] * I^k."""

    target: NCPoly
    k0: int
    aux: tuple[UnknownId, ...]
    residual: NCPoly


def formulate_nc(system: ODESystem, ansatz: SymmetryAnsatz,
                 target: NCPoly | Word, k0: int | None = None,
                 registry: ZeroRegistry | None = None) -> NecessaryCondition:
    """First-order side condition for a first integral target.

    The target must satisfy D_t(target) = 0 (checked).  Fresh auxiliary
    unknowns a (for the commutator integral) or b (for its inverse) absorb
    the span of integral powers; aux[i] multiplies I^(i - k0), and k0
    defaults to :func:`side_condition_k0` of the ansatz degree.  With a
    registry only the live unknowns enter the ansatz.
    """
    if k0 is None:
        k0 = side_condition_k0(ansatz.degree)
    if isinstance(target, Word):
        target = NCPoly.from_word(target)
    if not apply_derivation(system.dt, target).is_zero:
        raise NotFirstIntegralError(
            "target is not annihilated by the system flow")
    kind = KIND_B if COMMUTATOR_VU in target.terms else KIND_A
    aux = tuple(UnknownId(kind, i) for i in range(2 * k0 + 1))
    acc = Accumulator()
    acc.add_derivation(ansatz.derivation(registry), target)
    for i, uid in enumerate(aux):
        acc.add(word_pow(COMMUTATOR_UV, i - k0), uid, -1)
    return NecessaryCondition(target, k0, aux, acc.poly())


def complete_split(p: NCPoly, universe=None, start_id: int = 0) -> LinearSystem:
    """One equation per distinct word with a nonzero coefficient.

    Words are taken in deglex order; equations arising from distinct words
    are never deduplicated even when their content coincides.
    """
    if universe is None:
        universe = p.unknowns()
    equations = [
        canonicalize(Equation(p.terms[w], start_id + i))
        for i, w in enumerate(p.sorted_words())
    ]
    return LinearSystem(equations, frozenset(universe))


class SortedCondition:
    """A formulated condition held for repeated harvesting.

    ``terms`` lists (word, coefficient) pairs in deglex order, sorted once
    here.  Each :func:`selective_split` pass replaces it by the pruned
    remainder, in the same order: words that registered a zero or pruned
    to zero drop out, and a nonzero constant stays, so the final split
    still reports the contradiction.
    """

    __slots__ = ("terms",)

    def __init__(self, p: NCPoly):
        self.terms = [(w, p.terms[w]) for w in p.sorted_words()]

    def poly(self) -> NCPoly:
        return NCPoly._from_acc(dict(self.terms))


def selective_split(p: NCPoly | SortedCondition, registry: ZeroRegistry) -> int:
    """Harvest zeros from words whose pruned coefficient is a single term.

    One pass in deglex order; each coefficient is pruned against the
    registry as it grows, so finds take effect immediately.  A polynomial
    is not rewritten; a :class:`SortedCondition` keeps the remainder for
    the next pass.  Returns the number of newly registered unknowns.
    """
    condition = p if isinstance(p, SortedCondition) else SortedCondition(p)
    # A plain set kept in step with the registry: one C-level disjointness
    # test per coefficient instead of a method call per unknown.
    zeros = set(registry)
    found = 0
    kept = []
    for term in condition.terms:
        coeff = term[1]
        coeffs = coeff.coeffs
        if not coeffs.keys().isdisjoint(zeros):
            coeffs = {u: r for u, r in coeffs.items() if u not in zeros}
            coeff = AffineForm._raw(coeff.const, coeffs)
            term = (term[0], coeff)
        if len(coeffs) == 1 and coeff.const == 0:
            (uid,) = coeffs
            registry.add(uid)
            zeros.add(uid)
            found += 1
        elif coeffs or coeff.const:
            kept.append(term)
    condition.terms = kept
    return found


def split_system(conditions: Iterable[NCPoly],
                 universe: Iterable[UnknownId]) -> LinearSystem:
    """Split each condition completely, in order, into one system.

    Equation ids run 0.. across the conditions.
    """
    universe = frozenset(universe)
    equations: list[Equation] = []
    for p in conditions:
        equations += complete_split(p, universe, len(equations)).equations
    return LinearSystem(equations, universe)


def build_symmetry_system(degree: int,
                          include_nc: bool = False) -> LinearSystem:
    """Fully formulated and split system for a degree-n symmetry.

    Both commutator conditions are always included; ``include_nc`` prepends
    the split of the first-integral side condition together with its
    auxiliary unknowns.
    """
    _check_degree_guard(degree)
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    conditions, universe = [], ansatz.unknowns
    if include_nc:
        nc = formulate_nc(system, ansatz, COMMUTATOR_UV)
        conditions.append(nc.residual)
        universe += nc.aux
    conditions += [formulate_symcon(system, ansatz, x) for x in "uv"]
    return split_system(conditions, universe)


@dataclass
class SystemStats:
    """One row of the size table for a degree-n symmetry computation.

    Counting convention: equations are counted after combining like words
    within one polynomial; terms count the unknowns occurring per equation.
    e1/t1 cover the split of D_tau(I) (the side condition without its
    auxiliary unknowns); e2/t2 cover both commutator conditions, duplicates
    across the two included.
    """

    n: int
    k: int
    e1: int
    t1: int
    e2: int
    t2: int
    p: int


def _check_degree_guard(degree: int) -> None:
    k = 2 * ansatz_term_count(degree)
    limit = unknown_limit(FORMULATE_MAX_UNKNOWNS)
    if k > limit:
        raise TooLargeError(
            f"degree {degree} needs {k} unknowns, over the guard of {limit}")


def system_stats(degree: int) -> SystemStats:
    """Formulate everything for one degree, count it, and solve for p.

    Each condition is formulated and split once.  The counts are read off
    the formulated conditions, one equation per word and one term per
    unknown of its coefficient, as :func:`complete_split` would give them;
    D_tau(I) is the side condition's residual without its auxiliary terms.
    """
    _check_degree_guard(degree)
    system = kontsevich_system()
    ansatz = build_ansatz(degree)
    nc = formulate_nc(system, ansatz, COMMUTATOR_UV)
    sym_u = formulate_symcon(system, ansatz, "u")
    sym_v = formulate_symcon(system, ansatz, "v")
    terms_i = [len(c.coeffs.keys() - nc.aux)
               for c in nc.residual.terms.values()]
    terms_uv = [len(c.coeffs)
                for p in (sym_u, sym_v) for c in p.terms.values()]
    state = lsss_solve(split_system((nc.residual, sym_u, sym_v),
                                    ansatz.unknowns + nc.aux))
    return SystemStats(degree, ansatz.unknown_count,
                       len(terms_i) - terms_i.count(0), sum(terms_i),
                       len(terms_uv), sum(terms_uv), state.free_count)


def find_first_integrals(system: ODESystem, degree: int) -> SolutionState:
    """Dimension of the space of first integrals of degree <= n.

    Builds a one-polynomial ansatz with a fresh unknown per word, splits
    D_t(ansatz) completely and solves; the free count is the dimension
    (constants included).
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    words = enumerate_words(degree)
    unknowns = [UnknownId(KIND_C, i) for i in range(len(words))]
    ansatz = NCPoly._from_acc(
        {w: AffineForm.unknown(u) for w, u in zip(words, unknowns)})
    condition = apply_derivation(system.dt, ansatz)
    return lsss_solve(complete_split(condition, universe=unknowns))


def first_integral_basis(system: ODESystem, degree: int) -> list[NCPoly]:
    """Concrete integrals spanning the solution space of the search above."""
    words = enumerate_words(degree)
    unknowns = [UnknownId(KIND_C, i) for i in range(len(words))]
    state = find_first_integrals(system, degree)
    out = []
    for vec in state.basis():
        poly = NCPoly._from_acc(
            {w: AffineForm.constant(vec[u])
             for w, u in zip(words, unknowns) if vec.get(u, 0) != 0})
        out.append(poly)
    return out
