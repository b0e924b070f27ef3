import contextlib
import errno
import gc
import hashlib
import io
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import selsolve.cli
import selsolve.symmetry
from selsolve.cli import main
from selsolve.formats import read_solution, render_solution, write_solution
from selsolve.linsys import GUARD_ENV_VAR, ORACLE_MAX_UNKNOWNS, UnknownId
from selsolve.pipeline import default_strategy, run_strategy
from selsolve.symmetry import (WIDEST_ENTRY_BITS, _check_degree_guard,
                               build_ansatz, widest_entry_bits)


def test_stats_row_matches(capsys):
    assert main(["stats", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "k=106 e1=142 t1=192 e2=448 t2=1034 p=1 [MATCH]"


def test_integrals_degree_4(capsys):
    assert main(["integrals", "--degree", "4"]) == 0
    out = capsys.readouterr().out
    assert "free=3" in out
    assert "u v u^-1 v^-1" in out


def test_integrals_solves_once(monkeypatch, capsys):
    solves = []
    solve = selsolve.symmetry.lsss_solve
    monkeypatch.setattr(selsolve.symmetry, "lsss_solve",
                        lambda system: solves.append(system) or solve(system))
    assert main(["integrals", "--degree", "4"]) == 0
    assert len(solves) == 1
    assert capsys.readouterr().out == (
        "free=3\nbasis 1: 1\nbasis 2: u v u^-1 v^-1\n"
        "basis 3: v u v^-1 u^-1\n")


def test_integrals_honours_the_guard(monkeypatch, capsys):
    # 2 * 3^4 - 1 words, one unknown each; degree 8 (13,121) runs under
    # the default guard in the acceptance suite
    monkeypatch.setenv(GUARD_ENV_VAR, "10")
    assert main(["integrals", "--degree", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: degree 4 needs 161 unknowns, over the "
                            "guard of 10\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv, bits", [
    (["pipeline", "--degree", "16"], 72), (["gen", "--degree", "16"], 72),
    (["stats", "--degree", "16"], 72), (["integrals", "--degree", "18"], 72)])
def test_entry_width_guard_exits_before_any_ansatz(argv, bits, monkeypatch,
                                                   capsys):
    # with the unknown guard out of the way, the first degree whose
    # packed entries an incidence cannot hold is refused by its width,
    # before anything is built
    monkeypatch.setenv(GUARD_ENV_VAR, str(10 ** 9))
    started = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: degree {argv[-1]} packs entries of {bits} bits, over the "
        f"{WIDEST_ENTRY_BITS} an incidence holds\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["pipeline", "gen", "stats",
                                     "integrals", "verify"])
def test_huge_degree_exits_with_one_short_line(command, tmp_path,
                                               monkeypatch, capsys):
    # 3^10000000 has 4.8 million digits: it is neither built nor printed
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    argv = [command, "--degree", "10000000"]
    message = "degree 10000000 needs more unknowns than the guard of 30000"
    if command == "verify":
        path = str(tmp_path / "n3.sol")
        write_solution(run_strategy(3, default_strategy(3))[0], path)
        argv += ["--solution", path]
        message = ("solution has 106 ansatz unknowns, the degree 10000000 "
                   "ansatz has more")
    started = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - started < 0.5
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert len(captured.err) < 200
    assert captured.out == ""


def test_entry_width_guard_passes_the_degrees_below(monkeypatch):
    # degree 14 packs 65-bit entries and 15 68-bit ones, the widest an
    # incidence holds with their bits above 64 in the bucket; first
    # integrals reach that width at degree 17
    monkeypatch.setenv(GUARD_ENV_VAR, str(10 ** 9))
    assert [widest_entry_bits(n) for n in (13, 14, 15)] == [61, 65, 68]
    assert widest_entry_bits(17, 1) == 68
    for degree in (13, 14, 15):
        _check_degree_guard(degree)
    _check_degree_guard(17, 1)


NO_NUMPY = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from selsolve.cli import main
for argv in (["pipeline", "--degree", "3"], ["gen", "--nc", "--degree", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy" in sys.modules)
"""


def test_commands_never_import_numpy():
    # importing numpy alone costs about 0.2 s and 14 MB, more than the
    # whole set-up of a staged run
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", NO_NUMPY, str(src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


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


def test_verify_refuses_another_degree_before_building_its_ansatz(
        tmp_path, capsys):
    # the degree-12 ansatz alone is 2,125,762 unknowns; the solution's 322
    # are counted against that number and nothing of its size is built
    state, _ = run_strategy(4, default_strategy(4))
    path = str(tmp_path / "n4.sol")
    write_solution(state, path)
    tracemalloc.start()
    try:
        assert main(["verify", "--degree", "12", "--solution", path]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert captured.err == ("error: solution has 322 ansatz unknowns, the "
                            "degree 12 ansatz has 2125762\n")
    assert captured.out == ""
    assert peak < 4 * 2 ** 20


def test_verify_refuses_ansatz_unknowns_off_the_degree(tmp_path, capsys):
    # as many c unknowns as the degree-3 ansatz, but c1..c106, not c0..c105
    path = tmp_path / "shifted.sol"
    path.write_text("ZEROS\nPIVOTS\nFREE\n"
                    + "".join(f"c{i}\n" for i in range(1, 107)))
    assert main(["verify", "--degree", "3", "--solution", str(path)]) == 1
    assert capsys.readouterr().err == ("error: solution has 106 ansatz "
                                       "unknowns, the degree 3 ansatz has "
                                       "106\n")


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


def test_oracle_agrees_on_an_affine_system_with_a_free_unknown(tmp_path,
                                                              capsys):
    # 1 + c0 + c1 = 0: the oracle's basis vector (c0, c1) = (-1, 1) meets
    # the relation c0 = -c1 - 1 only with its constant dropped
    path = tmp_path / "affine.sys"
    path.write_text("1 2\n1 0 1\n1 1 1\n1 2 1\n0 0 0\n")
    assert main(["solve", str(path), "--oracle"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "zeros=0 pivots=1 free=1 identities=0",
        f"wrote {path}.sol",
        "oracle: nullity=1 agreement=ok",
    ]
    assert "c0 = -c1 - 1" in (tmp_path / "affine.sys.sol").read_text()


def test_oracle_refuses_a_system_over_its_guard_before_solving(
        tmp_path, capsys):
    # the reader's guard is the larger one, so the file is read; the guard
    # variable would lower both
    wide = ORACLE_MAX_UNKNOWNS + 1
    path = tmp_path / "wide.sys"
    path.write_text(f"1 {wide}\n1 1 1\n1 {wide} 1\n0 0 0\n")
    assert main(["solve", str(path), "--oracle"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {wide} unknowns exceed the oracle "
                            f"guard of {ORACLE_MAX_UNKNOWNS}\n")
    assert captured.out == ""
    assert not (tmp_path / "wide.sys.sol").exists()


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


#: sha256 of the solution file ``solve`` writes for ``gen --nc --degree 7``
#: (the pin of ``perfbench/worker.py`` and the CI package job).
SOLUTION_7_SHA256 = \
    "7b65518a1adec3d8ab8722db44eb3f22a0e2f00ed65a317d0d8d22ae8ae9c731"


def test_pipeline_out_writes_the_solve_solution(tmp_path, capsys):
    # the staged run's assembled solution, byte for byte the file solve
    # writes after formulating everything
    path = tmp_path / "p7.sol"
    assert main(["pipeline", "--degree", "7", "--out", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["final: zeros=8615 pivots=131 free=7",
                          f"wrote {path}"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SOLUTION_7_SHA256
    missing = tmp_path / "no-such-dir" / "p3.sol"
    assert main(["pipeline", "--degree", "3", "--out", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {missing}: ")


def test_pipeline_out_passes_verify_at_degree_9(tmp_path, monkeypatch,
                                                capsys):
    # beyond the reference table: the written solution passes the matrix
    # check from the command line
    monkeypatch.setenv(GUARD_ENV_VAR, "100000")
    path = tmp_path / "p9.sol"
    assert main(["pipeline", "--degree", "9", "--out", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-2] \
        == "final: zeros=78161 pivots=564 free=12"
    assert main(["verify", "--degree", "9", "--solution", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "verify: PASS"


def test_bad_strategy_exits_nonzero(capsys):
    assert main(["pipeline", "--degree", "3", "--strategy", "NX"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("strategy, message", [
    # 15 characters that would expand to 10,000,001 steps
    ("((N)1000)10000F",
     "strategy expands to 10000001 steps, over the limit of 100000"),
    ("(N)" + "9" * 5000 + "F",
     "repeat count of 5000 digits is over the limit of 100000 steps"),
    ("(" * 3000 + "N" + ")1" * 3000 + "F",
     "strategy nests its groups too deeply"),
])
def test_oversized_strategy_exits_with_one_line(strategy, message, capsys):
    assert main(["pipeline", "--degree", "3", "--strategy", strategy]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("strategy, message", [
    ("(N)²F", "group needs a repeat count"),
    ("(N)٣F", "group needs a repeat count"),
    ("ßF", "unexpected 'ß' at position 0"),
    ("ſF", "unexpected 'ſ' at position 0")])
def test_non_ascii_strategy_exits_with_one_line(strategy, message, capsys):
    assert main(["pipeline", "--degree", "3", "--strategy", strategy]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_strategy_with_a_newline_runs(capsys):
    assert main(["pipeline", "--degree", "3", "--strategy", "N\nF"]) == 0
    assert "strategy: NF" in capsys.readouterr().out.splitlines()


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


@pytest.mark.parametrize("argv, culprit, reason", [
    (["solve", "{d}"], "{d}", "Is a directory"),
    (["rank", "{d}/missing.sys"], "{d}/missing.sys",
     "No such file or directory"),
    (["verify", "--degree", "3", "--solution", "{d}/missing.sol"],
     "{d}/missing.sol", "No such file or directory"),
    (["gen", "--degree", "3", "--out", "{d}/nodir/x.sys"], "{d}/nodir/x.sys",
     "No such file or directory"),
    (["gen", "--degree", "3", "--out", "{d}"], "{d}", "Is a directory"),
], ids=["solve", "rank", "verify", "gen", "gen-onto-directory"])
def test_file_errors_exit_with_one_line(tmp_path, capsys, argv, culprit,
                                        reason):
    work = tmp_path / "work"
    work.mkdir()
    argv = [arg.format(d=work) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    # the path the user gave, never the temp file of an atomic write
    assert captured.err == f"error: {culprit.format(d=work)}: {reason}\n"
    assert captured.out == ""
    assert list(tmp_path.rglob("*")) == [work]


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_bad_guard_exits_with_diagnostic(monkeypatch, capsys, raw):
    monkeypatch.setenv(GUARD_ENV_VAR, raw)
    assert main(["stats", "--degree", "3"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {GUARD_ENV_VAR}={raw!r} is not a positive "
                   "integer\n")


#: An executable's first bytes, then every byte that cannot start UTF-8.
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00" + bytes(range(0x80, 0x100))


@pytest.mark.parametrize("argv, culprit", [
    (["solve", "{d}/bin.sys"], "{d}/bin.sys"),
    (["rank", "{d}/bin.sys"], "{d}/bin.sys"),
    (["verify", "--degree", "3", "--solution", "{d}/bin.sys"],
     "{d}/bin.sys"),
    (["solve", "{d}/ok.sys"], "{d}/ok.sys.names"),
], ids=["solve", "rank", "verify", "names-sidecar"])
def test_non_utf8_input_exits_with_one_line(tmp_path, capsys, argv,
                                            culprit):
    (tmp_path / "bin.sys").write_bytes(NOT_UTF8)
    (tmp_path / "ok.sys").write_text("1 1\n1 1 1\n0 0 0\n")
    (tmp_path / "ok.sys.names").write_bytes(NOT_UTF8)
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {culprit.format(d=tmp_path)}: "
                            "not UTF-8 text\n")
    assert captured.out == ""


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("argv, code", [
    (["integrals", "--degree", "2"], 0),
    (["pipeline", "--degree", "0"], 1),
], ids=["success", "error"])
def test_main_pauses_the_collector_and_restores_it(monkeypatch, capsys,
                                                   enabled, argv, code):
    seen = []
    command = selsolve.cli._cmd_integrals
    monkeypatch.setattr(selsolve.cli, "_cmd_integrals",
                        lambda args: seen.append(gc.isenabled())
                        or command(args))
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == ([False] if code == 0 else [])


class _ClosedPipe(io.TextIOBase):
    """Standard output whose reader has gone, as under ``| head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_error_without_a_file_names_no_path(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["integrals", "--degree", "2"]) == 1
    assert capsys.readouterr().err == "error: Broken pipe\n"


@pytest.mark.parametrize("pivot, message", [
    ("c1 = 1/0*c2", "bad rational '1/0'"),
    ("c1 = 2*q2", "bad unknown 'q2'"),
], ids=["rational", "unknown"])
def test_bad_pivot_expression_names_its_line(tmp_path, capsys, pivot,
                                             message):
    path = tmp_path / "bad.sol"
    path.write_text(f"ZEROS\nc0\nPIVOTS\n{pivot}\nFREE\nc2\n")
    assert main(["verify", "--degree", "3", "--solution", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: line 4: {message}\n"
    assert captured.out == ""


@contextlib.contextmanager
def no_digit_limit():
    """Lift Python's int/str digit limit, where it has one, for a block."""
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        yield
        return
    digits = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        yield
    finally:
        set_digits(digits)


LONG = int("7" + "3" * 2999)
WIDE = 10 ** 4400 - 1


@pytest.mark.parametrize("text, pivots", [
    # c0 = N*c1 and c1 = N*c2 with a 3,000-digit N: c0 has 6,000 digits
    (f"2 3\n1 1 1\n1 2 {-LONG}\n2 2 1\n2 3 {-LONG}\n0 0 0\n",
     {0: {2: LONG * LONG}, 1: {2: LONG}}),
    # one 4,400-digit coefficient, over the digit limit already as read
    ("1 2\n1 1 " + "9" * 4400 + "\n1 2 -1\n0 0 0\n",
     {1: {0: WIDE}}),
], ids=["6000-digit-pivot", "4400-digit-entry"])
def test_integers_of_any_length_solve_and_round_trip(tmp_path, capsys, text,
                                                     pivots):
    path = tmp_path / "long.sys"
    with no_digit_limit():
        path.write_text(text)
    assert main(["solve", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[0].startswith(f"zeros=0 pivots="
                                                   f"{len(pivots)} free=1 ")
    with no_digit_limit():
        sol = (tmp_path / "long.sys.sol").read_text()
        state = read_solution(str(tmp_path / "long.sys.sol"))
        assert render_solution(state) == sol
    assert {p.index: {u.index: r for u, r in form.coeffs.items()}
            for p, form in state.pivots.items()} == pivots


@pytest.mark.parametrize("argv, name, text", [
    (["solve", "{p}"], "v.sys", "1 1\n1 1 " + "1" * 4999 + "x\n0 0 0\n"),
    (["solve", "{p}"], "r.sys", "1 1\n" + "9" * 5000 + " 1 1\n0 0 0\n"),
    (["solve", "{p}"], "c.sys", "1 1\n1 " + "9" * 5000 + " 1\n0 0 0\n"),
    (["solve", "{p}"], "h.sys", "1 " + "9" * 5000 + "\n0 0 0\n"),
    (["solve", "{p}"], "s.sys.names", "1 C " + "x" * 5000 + " c0\n"),
    (["verify", "--degree", "3", "--solution", "{p}"], "r.sol",
     "ZEROS\nPIVOTS\nc1 = " + "1" * 4999 + "x*c2\nFREE\nc2\n"),
    (["verify", "--degree", "3", "--solution", "{p}"], "u.sol",
     "ZEROS\nPIVOTS\nc1 = 2*q" + "9" * 5000 + "\nFREE\nc2\n"),
], ids=["value", "row", "column", "header", "sidecar", "rational", "unknown"])
def test_long_bad_tokens_give_a_short_error_line(tmp_path, capsys, argv,
                                                 name, text):
    (tmp_path / "s.sys").write_text("1 1\n1 1 1\n0 0 0\n")
    (tmp_path / name).write_text(text)
    path = tmp_path / name.removesuffix(".names")
    assert main([arg.format(p=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err) < 200, captured.err
    assert captured.out == ""


def test_main_lifts_the_digit_limit_and_restores_it(monkeypatch, capsys):
    get_digits = getattr(sys, "get_int_max_str_digits", None)
    if get_digits is None:
        pytest.skip("this Python has no int/str digit limit")
    seen = []
    command = selsolve.cli._cmd_integrals
    monkeypatch.setattr(selsolve.cli, "_cmd_integrals",
                        lambda args: seen.append(get_digits())
                        or command(args))
    before = get_digits()
    assert main(["integrals", "--degree", "2"]) == 0
    assert main(["pipeline", "--degree", "0"]) == 1
    assert seen == [0]
    assert get_digits() == before
