"""One benchmark process: set up a workload's inputs, or run its jobs once.

    python3 perfbench/worker.py setup --workload W --dir D [--smoke] [--trace 1]
    python3 perfbench/worker.py jobs --workload W --dir D --seed N [--smoke] [--trace 1]

``run.py`` starts a fresh one of these for every set-up and every pass, so
``ru_maxrss`` belongs to that set-up or pass alone.  Jobs go through the
command's own entry point, ``selsolve.cli.main``, in-process.  Each job's
printed output is checked; a job that raises, exits nonzero or prints a
wrong result counts as failed and the pass goes on.  The last line of
standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Free parameters per degree: the reference table for n = 3..8, plus the
#: value measured for n = 9.  No independent certificate backs n = 9 yet,
#: so that entry is uncertified and only pins today's behaviour.
FREE = {3: 1, 4: 2, 5: 4, 6: 5, 7: 7, 8: 8, 9: 12}
UNCERTIFIED = frozenset({9})

#: sha256 of ``gen --nc --degree n`` output.  System and solution files
#: are byte-identical for a given input, whichever path produced them.
SYSTEM_SHA256 = {
    4: "faa0f793c055a6e2ea73d58428d996036697853574d95ca521aadb8ff00e7dfc",
    5: "b962c45be35ca889bc4d5036573d0c8dd59c9bdc5e95a0d5f6c9662031b52955",
    6: "ecae5cf9a62fb541cc4d1e6ef6c5bc92dadaa7eb9bb72985166c22d6e0e12dc8",
    7: "880d77298fbffaa9e50e00a8e9464ef8013f8ac48625acf1326311ae96cd3631",
}
#: sha256 of the solution file for degree n, from ``solve`` on the system
#: above or from the staged pipeline.
SOLUTION_SHA256 = {
    4: "def21d3a399197872f085c0e1b207e9a8930af1883239640b2d9cfb395a9ee41",
    5: "acc1ccf8d6a04df824b48e731d69d27cb797c6bc2d6a36b61e1738492e4aa6d6",
    6: "c1ab55b9fce2be411d3d6caaf2947c151349a52f7203e7a452fd536944eaaf0e",
    7: "7b65518a1adec3d8ab8722db44eb3f22a0e2f00ed65a317d0d8d22ae8ae9c731",
}

#: Degrees per workload, full and smoke.  staged: pipeline degrees.
#: solve-files: (plain solve, solve with oracle).  verify: (degree,).
DEGREES = {
    "staged": {False: (8, 9), True: (4, 5)},
    "solve-files": {False: (7, 6), True: (5, 4)},
    "verify": {False: (7,), True: (4,)},
}
VERIFY_DIM = 3

#: Size of the reference work timed around every pass; about 0.2 s on a
#: 2-core x86 box with Python 3.11.
REFERENCE_STEPS, REFERENCE_SEED = 40_000, 7
VERIFY_TRIALS = {False: 5, True: 2}

WORKLOADS = tuple(DEGREES)


class Job(NamedTuple):
    argv: list[str]
    #: Maps the job's stdout to an error message, or None when correct.
    check: Callable[[str], str | None]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _expect_sha(path: Path, expected: str) -> str | None:
    if not path.exists():
        return f"{path.name} missing"
    got = sha256(path)
    return None if got == expected else f"{path.name} sha256 {got}"


def _expect_free(out: str, degree: int, pattern: str) -> str | None:
    match = re.search(pattern, out, re.MULTILINE)
    if match is None:
        return f"no result line matching {pattern!r}"
    free = int(match.group(1))
    if free != FREE[degree]:
        tag = " (uncertified)" if degree in UNCERTIFIED else ""
        return f"free={free}, expected {FREE[degree]}{tag}"
    return None


def _pipeline_check(degree: int):
    def check(out: str) -> str | None:
        # A guard that silently fell back to its default would refuse the
        # degree; the F step line proves the whole pipeline ran.
        if not re.search(r"^step \d+: F ", out, re.MULTILINE):
            return "no F step in output"
        return _expect_free(out, degree,
                            r"^final: zeros=\d+ pivots=\d+ free=(\d+)$")
    return check


def _solve_check(degree: int, solution: Path, oracle: bool):
    def check(out: str) -> str | None:
        problem = _expect_free(out, degree, r"^zeros=\d+ pivots=\d+ "
                               r"free=(\d+) identities=\d+$")
        if problem is None and oracle:
            want = f"oracle: nullity={FREE[degree]} agreement=ok"
            if want not in out:
                problem = f"missing {want!r}"
        return problem or _expect_sha(solution, SOLUTION_SHA256[degree])
    return check


def _verify_check(seed: int, trials: int):
    def check(out: str) -> str | None:
        header = f"seed={seed} dim={VERIFY_DIM} trials={trials}"
        if header not in out.splitlines():
            return f"missing {header!r}"
        return None if "verify: PASS" in out.splitlines() else "no PASS"
    return check


def jobs_for(workload: str, directory: Path, seed: int,
             smoke: bool) -> list[Job]:
    degrees = DEGREES[workload][smoke]
    if workload == "staged":
        return [Job(["pipeline", "--degree", str(d)], _pipeline_check(d))
                for d in degrees]
    if workload == "solve-files":
        plain, checked = degrees
        return [
            Job(["solve", str(directory / f"d{plain}.sys")],
                _solve_check(plain, directory / f"d{plain}.sys.sol", False)),
            Job(["solve", "--oracle", str(directory / f"d{checked}.sys")],
                _solve_check(checked, directory / f"d{checked}.sys.sol",
                             True)),
        ]
    (degree,) = degrees
    trials = VERIFY_TRIALS[smoke]
    return [Job(["verify", "--degree", str(degree),
                 "--solution", str(directory / f"v{degree}.sol"),
                 "--dim", str(VERIFY_DIM), "--trials", str(trials),
                 "--seed", str(seed)],
                _verify_check(seed, trials))]


class Outcome:
    """Attempted and failed operations of one process, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.errors.append(f"{label}: {problem}")
            print(f"perfbench: FAILED {label}: {problem}", file=sys.stderr)


def call_cli(cli, argv: list[str]) -> tuple[str, str | None]:
    """Run one command; returns its stdout and a failure reason or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        return out.getvalue(), f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception:  # a traceback escaping main is a failed job
        return out.getvalue(), traceback.format_exc(limit=-3).strip()
    if code != 0:
        return out.getvalue(), f"exit {code}: {err.getvalue().strip()}"
    return out.getvalue(), None


def set_up(cli, workload: str, directory: Path, smoke: bool) -> list[tuple]:
    """Make the workload's input files.

    Returns ``(label, problem, path, sha256)`` per operation, so the files
    are checked after the set-up time is taken.
    """
    directory.mkdir(parents=True, exist_ok=True)
    checks = []
    degrees = DEGREES[workload][smoke]
    if workload == "solve-files":
        for degree in degrees:
            path = directory / f"d{degree}.sys"
            _, problem = call_cli(cli, ["gen", "--nc", "--degree",
                                        str(degree), "--out", str(path)])
            checks.append((f"gen {degree}", problem, path,
                           SYSTEM_SHA256[degree]))
    elif workload == "verify":
        from selsolve.formats import write_solution
        from selsolve.pipeline import default_strategy, run_strategy
        (degree,) = degrees
        path = directory / f"v{degree}.sol"
        problem = None
        try:
            state, _ = run_strategy(degree, default_strategy(degree))
            write_solution(state, str(path))
            if state.free_count != FREE[degree]:
                problem = f"free={state.free_count}"
        except Exception:  # set-up must report, not crash, on a bad program
            problem = traceback.format_exc(limit=-3).strip()
        checks.append((f"run_strategy {degree}", problem, path,
                       SOLUTION_SHA256[degree]))
    return checks


def run_setup(cli, args, outcome: Outcome, started: float) -> dict:
    checks = set_up(cli, args.workload, args.dir, args.smoke)
    setup_s = time.perf_counter() - started
    for label, problem, path, expected in checks:
        outcome.record(label, problem or _expect_sha(path, expected))
    return {"setup_s": setup_s}


def reference_work() -> tuple[float, float]:
    """Fixed pure-Python work: wall and CPU seconds it took just now.

    Dict updates with tuple keys and Fraction sums, the operations the
    jobs spend their time in, on a small working set.  It never touches
    ``selsolve``, so a change to the program cannot change its cost; the
    machine's current speed can, which is what it is there to measure.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    rng = random.Random(REFERENCE_SEED)
    acc: dict = {}
    total = Fraction(0)
    for i in range(REFERENCE_STEPS):
        key = (rng.randrange(4000), i % 31)
        acc[key] = acc.get(key, 0) + Fraction(rng.randint(-9, 9),
                                              rng.randint(1, 9))
        total += acc[key]
    return time.perf_counter() - wall, time.process_time() - cpu


def run_jobs(cli, args, outcome: Outcome) -> dict:
    """One pass over the jobs, with the reference timed around each job.

    ``wall_rel`` and ``cpu_rel`` sum each job's time divided by the mean of
    the reference timings just before and just after it.
    """
    refs = [reference_work()]
    wall = cpu = wall_rel = cpu_rel = 0.0
    for job in jobs_for(args.workload, args.dir, args.seed, args.smoke):
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        out, problem = call_cli(cli, job.argv)
        job_wall = time.perf_counter() - wall_start
        job_cpu = time.process_time() - cpu_start
        refs.append(reference_work())
        (ref_wall, ref_cpu), (next_wall, next_cpu) = refs[-2:]
        wall += job_wall
        cpu += job_cpu
        wall_rel += 2 * job_wall / (ref_wall + next_wall)
        cpu_rel += 2 * job_cpu / (ref_cpu + next_cpu)
        outcome.record(" ".join(job.argv[:3]), problem or job.check(out))
    return {"wall_s": wall, "cpu_s": cpu, "wall_rel": wall_rel,
            "cpu_rel": cpu_rel,
            "ref_wall_s": statistics.mean(r[0] for r in refs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "jobs"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import selsolve.cli as cli
    import_s = time.perf_counter() - started
    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"perfbench: selsolve imported from {source}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    outcome = Outcome()
    if args.mode == "setup":
        result = run_setup(cli, args, outcome, started)
    else:
        result = run_jobs(cli, args, outcome)
    result.update(
        attempted=outcome.attempted,
        failed=len(outcome.errors),
        errors=outcome.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result.update(
            layers=tracer.layer_metrics(),
            layer_self_s=tracer.layer_self_times(),
            import_s=import_s,
            top_level_s=tracer.top_level_seconds(),
            counting_s=tracer.counting_s,
            missing=tracer.missing,
            spans=tracer.spans,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
