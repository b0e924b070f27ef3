import pytest

from selsolve.cli import main
from selsolve.formats import write_solution
from selsolve.linsys import GUARD_ENV_VAR
from selsolve.pipeline import default_strategy, run_strategy
from selsolve.symmetry import build_ansatz


def test_stats_row_matches(capsys):
    assert main(["stats", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "k=106 e1=142 t1=192 e2=448 t2=1034 p=1 [MATCH]"


def test_integrals_degree_4(capsys):
    assert main(["integrals", "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "free=3" in out
    assert "u v u^-1 v^-1" in out


def test_gen_solve_rank_verify_chain(tmp_path, capsys):
    sys_path = str(tmp_path / "n3.sys")
    assert main(["gen", "--degree", "3", "--nc", "--out", sys_path]) == 0
    assert main(["solve", sys_path, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "free=1" in out
    assert "agreement=ok" in out

    assert main(["rank", sys_path]) == 0
    assert "nullity=1" in capsys.readouterr().out

    sol_path = sys_path + ".sol"
    assert main(["verify", "--degree", "3", "--solution", sol_path,
                 "--dim", "2", "--trials", "2"]) == 0
    assert "verify: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("solved", [3, 5])
def test_verify_rejects_a_solution_of_another_degree(tmp_path, capsys,
                                                     solved):
    state, _ = run_strategy(solved, default_strategy(solved))
    path = str(tmp_path / f"n{solved}.sol")
    write_solution(state, path)
    assert main(["verify", "--degree", "4", "--solution", path,
                 "--dim", "2", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    count = build_ansatz(solved).unknown_count
    assert captured.err == (f"error: solution has {count} ansatz unknowns, "
                            "the degree 4 ansatz has 322\n")
    assert "verify:" not in captured.out


def test_gen_stdout(capsys):
    assert main(["gen", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("448 106\n")
    assert out.rstrip().endswith("0 0 0")


def test_solve_inconsistent_file(tmp_path, capsys):
    path = str(tmp_path / "bad.sys")
    with open(path, "w") as handle:
        handle.write("1 1\n1 0 1\n0 0 0\n")
    assert main(["solve", path]) != 0
    assert "inconsistent" in capsys.readouterr().err


def test_parse_error_exit(tmp_path, capsys):
    path = str(tmp_path / "bad.sys")
    with open(path, "w") as handle:
        handle.write("1 1\n1 1 1\n")
    assert main(["solve", path]) != 0
    assert "error" in capsys.readouterr().err


def test_pipeline_report(capsys):
    assert main(["pipeline", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert "strategy:" in out and "final:" in out and "free=1" in out


def test_pipeline_explicit_strategy(capsys):
    assert main(["pipeline", "--degree", "3", "--strategy", "NNF"]) == 0
    out = capsys.readouterr().out
    assert "step 3: F" in out


def test_bad_strategy_exits_nonzero(capsys):
    assert main(["pipeline", "--degree", "3", "--strategy", "NX"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--degree", "0"], "--degree must be at least 1, got 0"),
    (["stats", "--degree", "0"], "--degree must be at least 1, got 0"),
    (["pipeline", "--degree", "0"], "--degree must be at least 1, got 0"),
    (["integrals", "--degree", "-2"], "--degree must be at least 1, got -2"),
    (["verify", "--degree", "3", "--solution", "x.sol", "--dim", "1"],
     "--dim must be at least 2, got 1"),
    (["verify", "--degree", "3", "--solution", "x.sol", "--trials", "0"],
     "--trials must be at least 1, got 0"),
])
def test_out_of_range_options_exit_with_one_line(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "PASS" not in captured.out


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_bad_guard_exits_with_diagnostic(monkeypatch, capsys, raw):
    monkeypatch.setenv(GUARD_ENV_VAR, raw)
    assert main(["stats", "--degree", "3"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {GUARD_ENV_VAR}={raw!r} is not a positive "
                   "integer\n")
