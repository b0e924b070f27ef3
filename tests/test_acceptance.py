"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier degrees are
shared through module-scoped fixtures so the suite stays fast.
"""

import dataclasses
import hashlib
import time

import pytest

from selsolve.cli import main
from selsolve.formats import write_solution
from selsolve.linsys import GUARD_ENV_VAR, dense_nullspace_oracle
from selsolve.ncalgebra import NCPoly, apply_derivation, word_key
from selsolve.pipeline import default_strategy, run_strategy, verify_by_matrices
from selsolve.solver import lsss_solve
from selsolve.symmetry import (COMMUTATOR_UV, COMMUTATOR_VU, EXPECTED_STATS,
                               build_ansatz, build_symmetry_system,
                               first_integral_basis, kontsevich_system,
                               system_stats)

DEGREES = range(3, 9)

#: Step trace of the default strategy per degree: step labels, new zeros
#: per step (F included), and the final zeros, pivots and free counts and
#: the number of equations F split.
STEP_TRACES = {
    3: ("NNNSNNSNSF", [86, 7, 0, 11, 1, 0, 1, 0, 0, 1], (107, 5, 1, 23)),
    4: ("NNNNSNNSF", [232, 43, 6, 0, 19, 3, 0, 0, 2], (305, 22, 2, 104)),
    5: ("NNNNSNNSNNSF", [669, 152, 22, 0, 64, 20, 0, 12, 2, 0, 0, 4],
        (945, 28, 4, 134)),
    6: ("NNNNNSNNSNNSNSF",
        [1983, 482, 70, 8, 0, 192, 53, 0, 35, 6, 0, 2, 0, 0, 4],
        (2835, 81, 5, 388)),
    7: ("NNNNNSNNNSNNSNNSNSF",
        [5924, 1473, 216, 30, 0, 578, 171, 1, 0, 134, 41, 0, 35, 6, 0, 2,
         0, 0, 4], (8615, 131, 7, 656)),
    8: ("NNNNNNSNNNSNNNSNNSNSF",
        [17750, 4439, 658, 96, 8, 0, 1702, 555, 32, 0, 456, 125, 3, 0, 88,
         18, 0, 5, 0, 0, 2], (25937, 304, 8, 1486)),
    9: ("NNNNNNSNNNNSNNNSNNNSNNSNSF",
        [53227, 13336, 1984, 294, 32, 0, 5027, 1792, 182, 5, 0, 1267, 399,
         23, 0, 354, 117, 1, 0, 94, 18, 0, 5, 0, 0, 4],
        (78161, 564, 12, 2948)),
}

#: The same for explicit strategies that formulate N after an S harvest,
#: so the side condition starts from a nonempty zero set.
STRATEGY_TRACES = {
    ("SNF", 4): ("SNF", [181, 94, 30], (305, 22, 2, 250)),
    ("SNF", 5): ("SNF", [543, 275, 127], (945, 28, 4, 816)),
    ("SNF", 6): ("SNF", [1621, 817, 397], (2835, 81, 5, 2606)),
    ("SNF", 7): ("SNF", [4850, 2486, 1279], (8615, 131, 7, 8019)),
    ("S(N)3SF", 4): ("SNNNSF", [181, 94, 17, 1, 8, 4], (305, 22, 2, 120)),
    ("S(N)3SF", 5): ("SNNNSF", [543, 275, 63, 8, 36, 20], (945, 28, 4, 244)),
    ("S(N)3SF", 6): ("SNNNSF", [1621, 817, 218, 32, 110, 37],
                     (2835, 81, 5, 620)),
    ("S(N)3SF", 7): ("SNNNSF", [4850, 2486, 700, 114, 272, 193],
                     (8615, 131, 7, 1813)),
}


#: sha256 of the ``gen --nc --degree n`` output and of the default strategy's
#: solution file per degree; the files are byte-identical per input.
SYSTEM_SHA256 = {
    4: "faa0f793c055a6e2ea73d58428d996036697853574d95ca521aadb8ff00e7dfc",
    5: "b962c45be35ca889bc4d5036573d0c8dd59c9bdc5e95a0d5f6c9662031b52955",
}
SOLUTION_SHA256 = {
    4: "def21d3a399197872f085c0e1b207e9a8930af1883239640b2d9cfb395a9ee41",
    5: "acc1ccf8d6a04df824b48e731d69d27cb797c6bc2d6a36b61e1738492e4aa6d6",
    6: "c1ab55b9fce2be411d3d6caaf2947c151349a52f7203e7a452fd536944eaaf0e",
    9: "3b99ad058b54c510fb6634aede6bb6a1b4aba140279aba9bd957367c3122fca7",
}


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def pipeline_results():
    out = {}
    for n in DEGREES:
        started = time.perf_counter()
        state, run_report = run_strategy(n, default_strategy(n))
        out[n] = (state, run_report, time.perf_counter() - started)
    return out


@pytest.fixture(scope="module")
def stats_results():
    return {n: system_stats(n) for n in DEGREES}


def test_criterion_1_ansatz_unknown_counts():
    for n in DEGREES:
        started = time.perf_counter()
        ansatz = build_ansatz(n)
        elapsed = time.perf_counter() - started
        assert ansatz.unknown_count == EXPECTED_STATS[n][0]
        assert elapsed < 1.0
    report(1, "ansatz unknown counts 106..26242 exact, each under 1 s")


def test_criterion_2_free_parameters_full_pipeline(pipeline_results):
    system = kontsevich_system()
    for n in DEGREES:
        state, _, elapsed = pipeline_results[n]
        assert state.free_count == EXPECTED_STATS[n][5], f"degree {n}"
        if n == 8:
            assert elapsed < 600.0
        # the trivial symmetry (the system's own flow) lies in the span
        ansatz = build_ansatz(n)
        half = ansatz.unknown_count // 2
        vec = {}
        for image, offset in ((system.image_u, 0),
                              (system.image_v, half)):
            for word, coeff in image.terms.items():
                index = ansatz.keys.index(word_key(word))
                vec[ansatz.unknowns[offset + index]] = coeff.const
        assert state.contains_vector(vec)
    times = ", ".join(f"n={n}: {pipeline_results[n][2]:.1f}s"
                      for n in DEGREES)
    report(2, f"free parameters 1,2,4,5,7,8 exact ({times})")


def test_criterion_3_equation_and_term_counts(stats_results):
    for n in DEGREES:
        s = stats_results[n]
        assert (s.k, s.e1, s.t1, s.e2, s.t2, s.p) == EXPECTED_STATS[n], \
            f"degree {n}"
    report(3, "e1/t1 and e2/t2 columns exact for n=3..8 under the "
              "documented convention, p match included")


#: sha256 of the ``integrals --degree n`` text; n = 4..7 print the same.
INTEGRALS_SHA256 = {
    4: "2eab20c5d8a51d3f9e976df4e3ea152e33e8b48d28fad4b94a5f970614442580",
    8: "54630bd79e92f6e55f90e6b30d9ada80cf60b539385830e7fb44374544a666ad",
}


def test_criterion_4_first_integrals():
    system = kontsevich_system()
    assert apply_derivation(system, NCPoly.from_word(COMMUTATOR_UV)).is_zero
    assert apply_derivation(system, NCPoly.from_word(COMMUTATOR_VU)).is_zero
    dims = {}
    for degree, expected in ((3, 1), (4, 3), (8, 5)):
        basis = first_integral_basis(system, degree)
        dims[degree] = len(basis)
        assert dims[degree] == expected
        if degree in INTEGRALS_SHA256:
            # the text `selsolve integrals` prints for this basis
            text = f"free={len(basis)}\n" + "".join(
                f"basis {i}: {poly}\n" for i, poly in enumerate(basis, 1))
            assert hashlib.sha256(text.encode()).hexdigest() \
                == INTEGRALS_SHA256[degree], degree
    report(4, f"integral annihilation exact; dimensions {dims}; "
              f"basis text pinned at n={sorted(INTEGRALS_SHA256)}")


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    for n in range(3, 8):
        system = build_symmetry_system(n, include_nc=True)
        state = lsss_solve(system)
        rank, basis = dense_nullspace_oracle(system)
        assert state.free_count == len(system.universe) - rank
        for vec in basis:
            assert state.contains_vector(vec)
            for zero in state.zeros:
                assert vec.get(zero, 0) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, f"solver/oracle nullity and bases agree for n=3..7 "
              f"in {elapsed:.1f}s")


def test_criterion_6_strategy_invariance():
    for n in range(3, 7):
        reference, _ = run_strategy(n, "F")
        reference_basis = reference.basis()
        for strategy in ("NF", "NNF", "NSF", default_strategy(n)):
            state, _ = run_strategy(n, strategy)
            assert state.free_count == reference.free_count
            for vec in reference_basis:
                assert state.contains_vector(vec)
            for vec in state.basis():
                assert reference.contains_vector(vec)
    report(6, "strategies F, NF, NNF, NSF, fixpoint give one solution "
              "space for n=3..6")


def test_criterion_7_matrix_verification(pipeline_results):
    system = kontsevich_system()
    for n in DEGREES:
        ansatz = build_ansatz(n)
        state = pipeline_results[n][0]
        assert verify_by_matrices(system, ansatz, state, dim=3, trials=5)
    # a deliberately corrupted solution must fail
    ansatz = build_ansatz(3)
    corrupted, _ = run_strategy(3, "F")
    pivot = next(iter(corrupted.pivots))
    from selsolve.linsys import KIND_C, AffineForm
    corrupted.pivots[pivot] = corrupted.pivots[pivot] + AffineForm.constant(1)
    assert not verify_by_matrices(system, ansatz, corrupted, dim=3, trials=5)
    # and so must a perturbed degree-7 solution, without touching the fixture
    state = pipeline_results[7][0]
    pivot = min(u for u in state.pivots if u.kind == KIND_C)
    pivots = dict(state.pivots)
    pivots[pivot] = pivots[pivot] + AffineForm.constant(1)
    assert not verify_by_matrices(system, build_ansatz(7),
                                  dataclasses.replace(state, pivots=pivots),
                                  dim=3, trials=5)
    report(7, "matrix check passes n=3..8 (dim 3, 5 seeded trials) and "
              "rejects perturbed solutions of degrees 3 and 7")


def test_criterion_8_property_suites():
    import test_properties as props

    props.test_word_reduction_normal_form()
    props.test_word_degree_bound_tightness()
    props.test_leibniz_rule()
    props.test_prune_equals_substitute_zero()
    props.test_length_sort_is_stable_permutation()
    props.test_stream_solve_chunking_invariance()
    report(8, "property suites green (also standalone via "
              "pytest tests/test_properties.py)")


def test_criterion_9_peak_size_reduction(pipeline_results):
    # Wall-clock tables, degrees >= 9, and the degree-16 result stay out of
    # desk scale; the memory claim is asserted as an equation-count bound.
    for n in (6, 7, 8):
        _, run_report, _ = pipeline_results[n]
        e1, e2 = EXPECTED_STATS[n][1], EXPECTED_STATS[n][3]
        assert run_report.final_equations < e1 + e2
    report(9, "staged runs materialize strictly fewer equations than "
              "full formulation for n=6..8")


def test_staged_solve_stays_in_ints(pipeline_results):
    # every quotient of the staged F solve is whole, so its pivots are
    # ints, never Fractions (the fast path of exact_div)
    for n in DEGREES:
        pivots = pipeline_results[n][0].pivots.values()
        values = [v for rhs in pivots
                  for v in (rhs.const, *rhs.coeffs.values())]
        assert {type(v) for v in values} == {int}, n
    assert len(values) == 664  # at n = 8, the last degree
    report("ints", "every pivot coefficient of the staged solve is an int "
                   "for n=3..8")


def assert_trace(run_report, trace):
    labels, yields, final = trace
    assert "".join(s.label for s in run_report.steps) == labels
    assert [s.new_zeros for s in run_report.steps] == yields
    assert (run_report.zero_count, run_report.pivot_count,
            run_report.free_count, run_report.final_equations) == final


def test_default_strategy_step_traces(pipeline_results):
    for n in DEGREES:
        assert_trace(pipeline_results[n][1], STEP_TRACES[n])
    assert pipeline_results[8][1].strategy_text == "(N)6S(N)3S(N)3SNNSNSF"
    report("trace", "default strategy step labels, per-step yields and "
                    "final counts pinned for n=3..8")


def test_degree_9_step_trace_and_solution(monkeypatch, tmp_path):
    # the staged benchmark's larger degree, whose first N step harvests
    # 53,227 zeros; it needs the guard raised
    monkeypatch.setenv(GUARD_ENV_VAR, "100000")
    state, run_report = run_strategy(9, default_strategy(9))
    assert_trace(run_report, STEP_TRACES[9])
    path = tmp_path / "n9.sol"
    write_solution(state, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SOLUTION_SHA256[9]
    report("trace 9", "default strategy trace and solution file pinned")


def test_strategies_with_n_after_s_are_pinned():
    for (strategy, n), trace in STRATEGY_TRACES.items():
        _, run_report = run_strategy(n, strategy)
        assert_trace(run_report, trace)
    report("strategies", "SNF and S(N)3SF traces pinned for n=4..7")


def test_file_bytes_are_pinned(pipeline_results, tmp_path, capsys):
    for n, expected in SYSTEM_SHA256.items():
        assert main(["gen", "--nc", "--degree", str(n)]) == 0
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == expected, n
    for n in DEGREES:
        if n not in SOLUTION_SHA256:
            continue
        path = tmp_path / f"n{n}.sol"
        write_solution(pipeline_results[n][0], str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == SOLUTION_SHA256[n], n
    report("bytes", "gen --nc output n=4,5 and default solution files "
                    "n=4..6 byte-identical to the pinned sha256")
