import pytest

from selsolve.errors import ParseError
from selsolve.linsys import AffineForm
from selsolve.pipeline import (Strategy, default_strategy, format_steps,
                               run_strategy, verify_by_matrices)
from selsolve.symmetry import build_ansatz, kontsevich_system


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
    assert report.peak_equations == report.final_equations
    assert report.free_count == 1
    assert report.strategy_text == "NF"
    assert any("final:" in line for line in report.lines())


def test_staged_run_materializes_fewer_equations():
    _, full = run_strategy(4, "F")
    _, staged = run_strategy(4, default_strategy(4))
    assert staged.final_equations < full.final_equations


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
    for image, offset in ((sysm.dt.image_u, 0), (sysm.dt.image_v, half)):
        for word, coeff in image.terms.items():
            vec[ans.unknowns[offset + ans.words.index(word)]] = coeff.const
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
