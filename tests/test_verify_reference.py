"""The matrix verification against the straightforward reference.

The reference is the evaluator the check used before: Fraction matrices,
every word rebuilt from the identity, every Leibniz position rebuilt from
its prefix and suffix (O(L^2) products per word), inverses by exact
Gauss-Jordan.  The memoized integer-numerator evaluator must give exactly
the same values, consume the same random draws and reach the same verdicts.
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from selsolve.errors import SingularSampleError
from selsolve.formats import read_solution
from selsolve.linsys import KIND_A, KIND_C, AffineForm, UnknownId, exact_div
from selsolve.ncalgebra import Derivation, NCPoly, Word, key_word
from selsolve.pipeline import (_INVERTIBLE_RETRIES, DEFAULT_VERIFY_SEED,
                               _integer_point, _LeibnizMatrices,
                               _random_invertible, _TrialMatrices,
                               default_strategy, run_strategy,
                               verify_by_matrices)
from selsolve.pipeline import _mat_mul as product
from selsolve.symmetry import build_ansatz, kontsevich_system

from test_properties import random_poly, random_word

# --- reference: the Fraction evaluator, O(L^2) products per word -----------


def _mat_identity(dim):
    return [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]


def _mat_zero(dim):
    return [[0] * dim for _ in range(dim)]


def _mat_mul(a, b):
    dim = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)]


def _mat_add_scaled(a, b, r):
    dim = len(a)
    return [[a[i][j] + r * b[i][j] for j in range(dim)] for i in range(dim)]


def _mat_scale(m, r):
    return [[r * x for x in row] for row in m]


def _mat_is_zero(m):
    return all(x == 0 for row in m for x in row)


def _mat_inverse(m):
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


def _reference_invertible(rng, dim):
    for _ in range(_INVERTIBLE_RETRIES):
        m = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        inv = _mat_inverse(m)
        if inv is not None:
            return m, inv
    raise SingularSampleError(
        f"no invertible sample in {_INVERTIBLE_RETRIES} draws")


def _eval_word(word, mats, dim):
    out = _mat_identity(dim)
    for g in word:
        out = _mat_mul(out, mats[g])
    return out


def _eval_terms(terms, mats, dim):
    out = _mat_zero(dim)
    for word, coeff in terms:
        out = _mat_add_scaled(out, _eval_word(word, mats, dim), coeff)
    return out


def _derive_terms(terms, letter_images, mats, dim):
    """Leibniz rule evaluated in matrix arithmetic, word by word."""
    out = _mat_zero(dim)
    for word, coeff in terms:
        for i, g in enumerate(word):
            piece = _eval_word(Word(word[:i]), mats, dim)
            piece = _mat_mul(piece, letter_images[g])
            piece = _mat_mul(piece, _eval_word(Word(word[i + 1:]), mats, dim))
            out = _mat_add_scaled(out, piece, coeff)
    return out


def _numeric_terms(poly, values):
    out = []
    for w, aff in poly.terms.items():
        value = aff.evaluate(values)
        if value != 0:
            out.append((w, value))
    return out


def _letter_images(img_u, img_v, uinv, vinv):
    neg_u = _mat_scale(_mat_mul(_mat_mul(uinv, img_u), uinv), -1)
    neg_v = _mat_scale(_mat_mul(_mat_mul(vinv, img_v), vinv), -1)
    return [img_u, img_v, neg_u, neg_v]


def reference_verify(system, ansatz, state, dim, trials,
                     seed=DEFAULT_VERIFY_SEED):
    rng = random.Random(seed)
    dtau = ansatz.derivation()
    for _ in range(trials):
        umat, uinv = _reference_invertible(rng, dim)
        vmat, vinv = _reference_invertible(rng, dim)
        mats = (umat, vmat, uinv, vinv)
        free_values = {
            f: Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            for f in sorted(state.free)
        }
        values = state.full_assignment(free_values)
        q1 = _numeric_terms(dtau.image_u, values)
        q2 = _numeric_terms(dtau.image_v, values)
        p1 = _numeric_terms(system.image_u, values)
        p2 = _numeric_terms(system.image_v, values)
        tau_images = _letter_images(_eval_terms(q1, mats, dim),
                                    _eval_terms(q2, mats, dim), uinv, vinv)
        t_images = _letter_images(_eval_terms(p1, mats, dim),
                                  _eval_terms(p2, mats, dim), uinv, vinv)
        for px, qx in ((p1, q1), (p2, q2)):
            lhs = _derive_terms(px, tau_images, mats, dim)
            rhs = _derive_terms(qx, t_images, mats, dim)
            if not _mat_is_zero(_mat_add_scaled(lhs, rhs, -1)):
                return False
    return True


# --- comparisons ------------------------------------------------------------


def as_fractions(scaled):
    numerator, den = scaled
    return [[Fraction(x, den) for x in row] for row in numerator]


def numeric(poly):
    """(word, coefficient) pairs; whole coefficients become ints."""
    return [(w, int(c.const) if c.const.denominator == 1 else c.const)
            for w, c in poly.terms.items()]


def random_trial(rng, dim):
    """A trial evaluator and the reference letter matrices, same draws."""
    u, v = _random_invertible(rng, dim), _random_invertible(rng, dim)
    letters = (u[0], v[0], u[1], v[1])
    return _TrialMatrices(letters), [as_fractions(x) for x in letters]


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_draws_and_inverses_match_reference(dim):
    for seed in range(60):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(4):
            (m, one), inverse = _random_invertible(rng, dim)
            ref_m, ref_inv = _reference_invertible(ref, dim)
            assert one == 1 and as_fractions((m, 1)) == ref_m
            assert inverse[1] > 0 and as_fractions(inverse) == ref_inv
        assert rng.getstate() == ref.getstate()


def test_singular_draws_are_redrawn_like_the_reference():
    # dim 2 with entries in -3..3: some first draws are singular
    redrawn = 0
    for seed in range(200):
        probe = random.Random(seed)
        first = [[probe.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if _mat_inverse(first) is not None:
            continue
        redrawn += 1
        rng, ref = random.Random(seed), random.Random(seed)
        (m, _), inverse = _random_invertible(rng, 2)
        ref_m, ref_inv = _reference_invertible(ref, 2)
        assert as_fractions((m, 1)) == ref_m != first
        assert as_fractions(inverse) == ref_inv
        assert rng.getstate() == ref.getstate()
    assert redrawn > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_word_values_match_reference(dim):
    rng = random.Random(dim)
    for _ in range(4):
        trial, mats = random_trial(rng, dim)
        for _ in range(40):
            w = random_word(rng, 9)
            assert as_fractions(trial.value(w)) == _eval_word(w, mats, dim)
        p = numeric(random_poly(rng, max_terms=8, max_len=7))
        assert as_fractions(trial.evaluate(p)) == _eval_terms(p, mats, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_leibniz_values_match_reference(dim):
    rng = random.Random(10 + dim)
    for _ in range(4):
        trial, mats = random_trial(rng, dim)
        images = [numeric(random_poly(rng, max_terms=5, max_len=4))
                  for _ in "uv"]
        derivation = _LeibnizMatrices(trial, *images)
        ref_images = _letter_images(_eval_terms(images[0], mats, dim),
                                    _eval_terms(images[1], mats, dim),
                                    mats[2], mats[3])
        for _ in range(10):
            w = random_word(rng, 7)
            assert as_fractions(derivation.value(w)) == _derive_terms(
                [(w, 1)], ref_images, mats, dim)
            p = numeric(random_poly(rng, max_terms=6, max_len=6))
            assert as_fractions(derivation.evaluate(p)) == _derive_terms(
                p, ref_images, mats, dim)


@pytest.fixture(scope="module")
def solutions():
    return {n: run_strategy(n, default_strategy(n))[0] for n in (3, 4, 5)}


def perturbed(state):
    """The solution with one ansatz pivot shifted by 1."""
    pivot = min(u for u in state.pivots if u.kind == KIND_C)
    pivots = dict(state.pivots)
    pivots[pivot] = pivots[pivot] + AffineForm.constant(1)
    return dataclasses.replace(state, pivots=pivots)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_verdicts_match_reference(solutions, n):
    system, ansatz = kontsevich_system(), build_ansatz(n)
    for state, expected in ((solutions[n], True),
                            (perturbed(solutions[n]), False)):
        for seed in range(1, 6):
            got = verify_by_matrices(system, ansatz, state, 3, 2, seed=seed)
            assert got == expected
            assert reference_verify(system, ansatz, state, 3, 2, seed) == got


def halved(state, ansatz):
    """The solution with its first free unknown f replaced by g/2, g a new
    free unknown outside the ansatz: f becomes the pivot f = 1/2*g and
    every coefficient on f halves, so the pivots carry halves."""
    f, g = min(state.free), UnknownId(KIND_A, ansatz.slot_count)
    assert any(f in rhs.coeffs for rhs in state.pivots.values())
    pivots = {p: AffineForm(rhs.const, {
        (g if u == f else u): exact_div(r, 2) if u == f else r
        for u, r in rhs.coeffs.items()}) for p, rhs in state.pivots.items()}
    pivots[f] = AffineForm.unknown(g, Fraction(1, 2))
    return dataclasses.replace(state, pivots=pivots,
                               free=state.free - {f} | {g})


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_verdicts_with_halves_in_the_pivots_match_reference(solutions, n,
                                                             dim):
    # the point of a trial is integers however the pivots are written: a
    # reparametrized solution passes and a shifted one fails, as the
    # reference has it at the point drawn
    system, ansatz = kontsevich_system(), build_ansatz(n)
    state = halved(solutions[n], ansatz)
    for state, expected in ((state, True), (perturbed(state), False)):
        for seed in range(1, 6):
            got = verify_by_matrices(system, ansatz, state, dim, 2,
                                     seed=seed)
            assert got == expected
            assert reference_verify(system, ansatz, state, dim, 2,
                                    seed) == got


@pytest.mark.parametrize("n", [3, 4, 5])
def test_trial_point_is_the_drawn_point_times_the_lcm(solutions, n):
    # the reference's draws, every value den times its value there, a
    # shifted pivot's constant included; ints unless a pivot has a half
    state = solutions[n]
    halves = halved(state, build_ansatz(n))
    for state, whole in ((state, True), (perturbed(state), True),
                         (halves, False), (perturbed(halves), False)):
        free = sorted(state.free)
        for seed in range(1, 6):
            rng, ref = random.Random(seed), random.Random(seed)
            got = _integer_point(rng, free, state.pivots)
            drawn = [(ref.randint(-12, 12), ref.randint(1, 6)) for _ in free]
            assert rng.getstate() == ref.getstate()
            den = math.lcm(*(d for _, d in drawn))
            point = state.full_assignment(
                {f: Fraction(num, d) for f, (num, d) in zip(free, drawn)})
            assert got == {u: den * point[u]
                           for u in (*free, *state.pivots)}
            assert not whole or all(type(value) is int
                                    for value in got.values())


def reference_product(a, b):
    """The matrix product entry by entry, for any shapes that fit."""
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


@pytest.mark.parametrize("rows, inner, cols",
                         [(2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 6, 3)])
def test_matrix_product_matches_reference(rows, inner, cols):
    # square products, and [D(w) | w] [g ; D(g)] of the Leibniz step
    rng = random.Random(100 * rows + inner)
    for bits in (3, 64, 300):
        for _ in range(20):
            a, b = ([[rng.randint(-2 ** bits, 2 ** bits) for _ in range(m)]
                     for _ in range(k)] for k, m in ((rows, inner),
                                                     (inner, cols)))
            assert list(map(list, product(a, b))) == reference_product(a, b)


# --- D_tau from the live slots ----------------------------------------------


def reference_derivation(ansatz, zeros):
    """D_tau as it was built from the zeros: every slot walked, each one
    outside ``zeros`` kept."""
    t = len(ansatz.keys)
    unknowns = ansatz.slot_unknowns()
    q1, q2 = (NCPoly._raw({
        key_word(k): AffineForm._raw(0, {uid: 1})
        for k, uid in zip(ansatz.keys, unknowns[start:start + t])
        if uid not in zeros}) for start in (0, t))
    return Derivation(q1, q2, name="Dtau")


def spelled_out(d):
    """The images of a derivation, term by term in order."""
    return [[(w, repr(c)) for w, c in image.terms.items()]
            for image in (d.image_u, d.image_v)]


@pytest.mark.parametrize("n", range(3, 9))
def test_live_derivation_equals_the_zeros_based_one(staged_solution_files,
                                                    n):
    # the staged zeros hold every auxiliary; from the pivots and free
    # unknowns, from their ansatz unknowns alone, and from those with
    # every auxiliary slot added, D_tau is the one built from the zeros
    state = read_solution(staged_solution_files[n])
    ansatz = build_ansatz(n)
    expected = spelled_out(reference_derivation(ansatz, state.zeros))
    live = [*state.pivots, *state.free]
    auxiliaries = UnknownId.span(KIND_A, ansatz.slot_count
                                 - ansatz.unknown_count)
    assert state.zeros >= set(auxiliaries)
    for unknowns in (live, [u for u in live if u.kind == KIND_C],
                     [*live, *auxiliaries]):
        assert spelled_out(ansatz.derivation(unknowns)) == expected
    assert spelled_out(ansatz.derivation()) \
        == spelled_out(reference_derivation(ansatz, ()))
