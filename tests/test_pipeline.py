import re
import tracemalloc

import pytest

from selsolve import cli, pipeline, symmetry
from selsolve.errors import ParseError
from selsolve.linsys import AffineForm, UnknownId
from selsolve.ncalgebra import word_key
from selsolve.pipeline import (MAX_STRATEGY_STEPS, Strategy, _PipelineRun,
                               default_strategy, format_steps, run_pipeline,
                               run_strategy, verify_by_matrices)
from selsolve.solver import lsss_solve
from selsolve.symmetry import (Incidence, build_ansatz,
                               build_symmetry_system, kontsevich_system)


def test_strategy_parse_basic():
    assert Strategy.parse("NNF").steps == ("N", "N", "F")
    assert Strategy.parse("n s f").steps == ("N", "S", "F")
    assert Strategy.parse("(N)3(SNN)2F").steps == tuple("NNNSNNSNNF")
    assert Strategy.parse("(N)3(SNN)4(SN)4F").steps == tuple(
        "NNN" + "SNN" * 4 + "SN" * 4 + "F")


def test_strategy_parse_errors():
    with pytest.raises(ParseError):
        Strategy.parse("NX F")
    with pytest.raises(ParseError):
        Strategy.parse("(NF")
    with pytest.raises(ParseError):
        Strategy.parse("(N)F")
    with pytest.raises(ParseError):
        Strategy.parse("FN")
    with pytest.raises(ParseError):
        Strategy.parse("NFF")
    with pytest.raises(ParseError):
        Strategy.parse("")


@pytest.mark.parametrize("text, message", [
    # '²' and '٣' are str.isdigit, 'ß' upper-cases to 'SS' and 'ſ' to 'S'
    ("(N)²F", "group needs a repeat count"),
    ("(N)٣F", "group needs a repeat count"),
    ("ßF", "unexpected 'ß' at position 0"),
    ("ſF", "unexpected 'ſ' at position 0"),
    ("n f\u00e9", "unexpected 'é' at position 2")])
def test_strategy_text_is_ascii(text, message):
    with pytest.raises(ParseError) as caught:
        Strategy.parse(text)
    assert str(caught.value) == message


def test_strategy_ignores_whitespace_as_split_does():
    for text in ("N\nF", "N\r\n\tF", " n\x0bf\x0c", "N\u3000F"):
        assert Strategy.parse(text).steps == ("N", "F")
    assert Strategy.parse("(N)\n3 F").steps == ("N", "N", "N", "F")


def test_strategy_expansion_is_bounded():
    # counted before anything is expanded: the limit itself is fine, one
    # step more is not, however the count is reached
    assert len(Strategy.parse("(N)99999F").steps) == MAX_STRATEGY_STEPS
    assert Strategy.parse("(N)0003()5F").steps == ("N", "N", "N", "F")
    for text in ("(N)100000F", "((N)1000)100F", "((((N)99)99)99)99F"):
        with pytest.raises(ParseError, match="steps, over the limit"):
            Strategy.parse(text)


def test_strategy_format_roundtrip():
    for text in ("F", "NF", "NNF", "(N)4SNNSF", "(N)3(SNN)4(SN)4F"):
        strat = Strategy.parse(text)
        again = Strategy.parse(str(strat))
        assert again.steps == strat.steps
    assert format_steps(tuple("NNNNF")) == "(N)4F"


def test_adaptive_threshold_zero_runs_to_fixpoint():
    _, report = run_strategy(3, default_strategy(3))
    labels = "".join(s.label for s in report.steps)
    assert labels[-1] == "F"
    # every run of N steps ends in an unproductive round, and so does S
    for i, step in enumerate(report.steps[:-1]):
        if step.label == "N" and labels[i + 1] != "N":
            assert step.new_zeros == 0
    assert labels[-2] == "S" and report.steps[-2].new_zeros == 0


def test_strategies_agree_on_small_degrees():
    for n in (3, 4):
        reference, _ = run_strategy(n, "F")
        basis_ref = reference.basis()
        for strat in ("NF", "NNF", "NSF", "SNF", default_strategy(n)):
            state, report = run_strategy(n, strat)
            assert state.free_count == reference.free_count
            assert state.universe == reference.universe
            for vec in basis_ref:
                assert state.contains_vector(vec)
            for vec in state.basis():
                assert reference.contains_vector(vec)
            # selective rounds plus the final solve account for every zero
            assert report.selective_zero_total + report.steps[-1].new_zeros \
                == len(state.zeros)


def test_run_report_shape():
    _, report = run_strategy(3, "NF")
    assert [s.label for s in report.steps] == ["N", "F"]
    assert report.steps[0].new_zeros > 0
    assert report.final_equations > 0
    assert report.free_count == 1
    assert report.strategy_text == "NF"
    assert any("final:" in line for line in report.lines())


def test_harvest_steps_report_terms_and_live_unknowns():
    # N and S report the words left in their condition and the unknowns
    # (ansatz plus 7 aux at n = 3) not yet zero; only F reports equations
    _, report = run_strategy(3, default_strategy(3))
    assert [(s.label, s.terms, s.live) for s in report.steps[:-1]] == [
        ("N", 28, 27), ("N", 10, 20), ("N", 10, 20), ("S", 16, 9),
        ("N", 2, 8), ("N", 2, 8), ("S", 10, 7), ("N", 2, 7), ("S", 10, 7)]
    lines = report.lines()
    assert lines[0].startswith("step 1: N  new_zeros=86  terms=28  live=27 ")
    assert lines[9].startswith("step 10: F  new_zeros=1  equations=23 ")
    assert not any("equations=" in line for line in lines[:9])


def test_staged_run_materializes_fewer_equations():
    _, full = run_strategy(4, "F")
    _, staged = run_strategy(4, default_strategy(4))
    assert staged.final_equations < full.final_equations


@pytest.mark.parametrize("strategy", ["fixpoint", "F", "S(N)3SF"])
def test_side_condition_is_decoded_only_at_f(monkeypatch, strategy):
    # N and S passes walk their incidences' ints; the one decode of each
    # condition into (word key, coefficient) pairs, N, S_u and S_v, and
    # so every AffineForm of them, comes with F
    in_f, decoded = [], []
    step_f, keyed_terms = _PipelineRun.step_f, Incidence.keyed_terms
    monkeypatch.setattr(_PipelineRun, "step_f",
                        lambda run: in_f.append(1) or step_f(run))
    monkeypatch.setattr(Incidence, "keyed_terms",
                        lambda c, *labels: decoded.append(
                            (type(c).__name__, bool(in_f)))
                        or keyed_terms(c, *labels))
    if strategy == "fixpoint":
        strategy = default_strategy(6)
    _, report = run_strategy(6, strategy)
    assert decoded == [("NecessaryCondition", True), ("Incidence", True),
                       ("Incidence", True)]
    assert report.free_count == 5


def test_first_n_step_memory_at_degree_8():
    # the first N step, formulation and first harvest: N's entries reach
    # its key-ordered array('Q') buckets in chunks and are sorted one
    # bucket at a time, so the step peaks near 1.5 MB and holds 1.0 MB;
    # every entry as a Python int in one sorted list peaked at 3.4 MB
    run = _PipelineRun(8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run.step_n() == 17750
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.0e6
    assert held - before <= 1.2e6


def test_first_s_step_memory_at_degree_8():
    # the first S step, formulation and first harvest, after the N
    # fixpoint: S_u's per-word sums are packed slot by slot, so the step
    # peaks near 1.7 MB and holds 0.75 MB; sums for every word at once,
    # each turned into an AffineForm, peaked at 3.6 MB and held 1.8 MB
    run = _PipelineRun(8)
    while run.step_n():
        pass
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run.step_s() == 1702
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 2.2e6
    assert held - before <= 1.0e6


def untimed(lines):
    return [re.sub(r"  time=\S+", "", line) for line in lines]


@pytest.mark.parametrize("degree", range(3, 7))
def test_report_only_run_matches_run_strategy(degree):
    # The pipeline command reads the report of a run that never assembles
    # its solution.  F and SF formulate N only at F, over a nonempty mask
    # for SF, which is where the auxiliary slots enter.  Each assembled
    # solution is the all-at-once one, and F's is the solve of the system
    # gen writes.
    full, _ = run_strategy(degree, "F")
    written = lsss_solve(build_symmetry_system(degree, include_nc=True))
    assert (full.universe, full.zeros, full.pivots, full.free) \
        == (written.universe, written.zeros, written.pivots, written.free)
    for text in (None, "F", "SF", "NF", "SNF"):
        strategy = text or default_strategy(degree)
        run = run_pipeline(degree, strategy)
        state, report = run_strategy(degree, strategy)
        assert untimed(run.report.lines()) == untimed(report.lines())
        solution = run.solution()
        for got in (solution, state):
            assert got.universe == full.universe
            assert got.zeros == full.zeros
            assert got.free_count == full.free_count
            assert got.basis() == full.basis()


def test_report_only_pipeline_makes_unknowns_for_live_slots_only(
        monkeypatch, capsys):
    # Every unknown the staged path makes is counted, in bulk or one at a
    # time; a report-only run makes none, F solving over its live slots.
    made = []

    class Counted(UnknownId):
        __slots__ = ()

        def __new__(cls, kind, index):
            made.append(1)
            return super().__new__(cls, kind, index)

        @classmethod
        def span(cls, kind, count):
            made.append(count)
            return super().span(kind, count)

    for module in (symmetry, pipeline):
        monkeypatch.setattr(module, "UnknownId", Counted)
    universes = []
    solve = pipeline.lsss_solve
    monkeypatch.setattr(pipeline, "lsss_solve",
                        lambda system: universes.append(system.universe)
                        or solve(system))
    assert cli.main(["pipeline", "--degree", "8"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "final: zeros=25937 pivots=304 free=8"
    (universe,) = universes
    assert all(type(u) is int for u in universe)
    assert sum(made) == 0
    # the live slots at F: every slot but those dead before F
    f_zeros = int(re.search(r": F  new_zeros=(\d+)", out).group(1))
    dead = 25937 - f_zeros
    assert len(universe) == build_ansatz(8).slot_count - dead
    assert 0 < len(universe) < 1000


def test_repeated_harvest_yields_decrease_to_zero():
    # desk-scale shape of the repeated-extraction trace: each rescan of the
    # side condition finds strictly fewer zeros until none remain
    for n in (3, 4, 5, 6):
        _, report = run_strategy(n, default_strategy(n))
        yields = []
        for step in report.steps:
            if step.label != "N":
                break
            yields.append(step.new_zeros)
        assert yields[-1] == 0
        assert all(a > b for a, b in zip(yields, yields[1:]))


def test_verify_trivial_symmetry():
    # assignment that encodes Q = P: exactly the system's own coefficients
    sysm = kontsevich_system()
    ans = build_ansatz(2)
    state, _ = run_strategy(2, "F")
    vec = {}
    half = ans.unknown_count // 2
    unknowns = ans.slot_unknowns()
    for image, offset in ((sysm.image_u, 0), (sysm.image_v, half)):
        for word, coeff in image.terms.items():
            vec[unknowns[offset + ans.keys.index(word_key(word))]] \
                = coeff.const
    assert state.contains_vector(vec)


def test_verify_by_matrices_pass_and_fail():
    sysm = kontsevich_system()
    ans = build_ansatz(3)
    state, _ = run_strategy(3, "F")
    assert verify_by_matrices(sysm, ans, state, dim=2, trials=3)

    corrupted, _ = run_strategy(3, "F")
    pivot = next(iter(corrupted.pivots))
    corrupted.pivots[pivot] = corrupted.pivots[pivot] + AffineForm.constant(1)
    assert not verify_by_matrices(sysm, ans, corrupted, dim=2, trials=3)


def test_verify_seed_is_reproducible():
    sysm = kontsevich_system()
    ans = build_ansatz(3)
    state, _ = run_strategy(3, "F")
    a = verify_by_matrices(sysm, ans, state, dim=2, trials=2, seed=7)
    b = verify_by_matrices(sysm, ans, state, dim=2, trials=2, seed=7)
    assert a == b
