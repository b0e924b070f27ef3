"""Benchmark of the ``selsolve`` command, end to end and layer by layer.

    python3 perfbench/run.py --workload staged --seed 1 --seconds 40 --trace 0

Workloads (each chosen so that a layer likely to be optimised does most of
the work in one workload and little in another):

* ``staged``: ``pipeline --degree 8`` then ``--degree 9``, the paper's
  path.  Formulation in ``symmetry``/``ncalgebra`` dominates; the solver
  only runs the final F step.  Degree 9 sets the peak memory and needs the
  unknown guard raised, which happens in the worker's environment only.
* ``solve-files``: set-up runs ``gen --nc`` for degrees 7 and 6 (the
  full-formulation path, counted in ``setup_s``); the timed jobs are
  ``solve`` on the degree-7 file and ``solve --oracle`` on the degree-6
  file.  Time splits between reading files, the solver on a raw system
  30x larger than staged's F step, and the dense oracle.
* ``verify``: set-up runs the staged pipeline at degree 7 and writes its
  solution; the timed job is ``verify`` with exact matrix arithmetic,
  seeded by ``--seed``.

Load model: a closed loop with one client.  Every set-up and every pass
over the workload's jobs runs in a fresh single-threaded worker process,
one at a time, so ``ru_maxrss`` belongs to that pass alone.  Passes repeat
until ``--seconds`` is spent, with set-ups spread between them; every
metric is the median over set-ups or passes.

Job time is reported relative to the machine's current speed:
``wall_rel`` and ``cpu_rel`` divide each job's wall and CPU time by those
of a fixed pure-Python reference (``worker.reference_work``) timed in the
same process just before and just after that job, summed over the pass.
On a shared 2-core box the same work takes up to 35% longer for minutes at
a time; over 150 s of alternating a ``verify`` job with the reference, the
job's raw time spread by 0.33 of its median (quartile distance) and the
ratio by 0.08.  The raw seconds of each pass are in the provenance line.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` untraced and traced passes alternate and it holds the
per-layer metrics: self times of spans around each layer's public
functions, counts read from their arguments and results, and the tracing
overhead.  The line before it holds the spans of the last traced pass;
the one before that, provenance.  ``--smoke`` runs degrees <= 5 in a few
seconds to check the harness.  Temporary files live in a directory inside
the checkout that is removed before exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")

#: Unknown guard set in the workers' environment: degree 9 needs 78,730
#: unknowns, over the default of 30,000.
GUARD = 100_000

MIN_SETUPS, MAX_SETUPS, SETUP_SHARE = 3, 25, 0.15
MIN_PASSES = 3
#: Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0

END_TO_END = {
    "wall_rel": "ratio",
    "cpu_rel": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "ncalgebra.apply_derivation_s": "s",
    "ncalgebra.apply_derivation_calls": "count",
    "ncalgebra.apply_derivation_terms_out": "count",
    "symmetry.build_ansatz_s": "s",
    "symmetry.formulate_nc_s": "s",
    "symmetry.formulate_nc_terms": "count",
    "symmetry.formulate_symcon_s": "s",
    "symmetry.formulate_symcon_terms": "count",
    "symmetry.prune_ncpoly_s": "s",
    "symmetry.prune_ncpoly_calls": "count",
    "symmetry.selective_split_s": "s",
    "symmetry.selective_split_words": "count",
    "symmetry.selective_split_zeros": "count",
    "symmetry.selective_split_yield": "ratio",
    "symmetry.complete_split_s": "s",
    "symmetry.complete_split_equations": "count",
    "symmetry.complete_split_terms": "count",
    "solver.lsss_solve_s": "s",
    "solver.find_zeros_s": "s",
    "solver.find_zeros_rounds": "count",
    "solver.find_zeros_zeros": "count",
    "solver.find_zeros_eqs_in": "count",
    "solver.find_zeros_eqs_out": "count",
    "solver.length_sort_s": "s",
    "solver.stream_solve_s": "s",
    "solver.stream_equations": "count",
    "solver.stream_identities": "count",
    "solver.stream_useful_ratio": "ratio",
    "solver.pivots": "count",
    "solver.max_pivot_terms": "count",
    "solver.max_coeff_bits": "bits",
    "linsys.dense_nullspace_oracle_s": "s",
    "linsys.oracle_rank": "count",
    "formats.read_system_s": "s",
    "formats.read_system_bytes": "bytes",
    "formats.write_solution_s": "s",
    "formats.read_solution_s": "s",
    "formats.bytes_written": "bytes",
    "pipeline.run_strategy_s": "s",
    "pipeline.steps_n": "count",
    "pipeline.steps_s": "count",
    "pipeline.step_n_s": "s",
    "pipeline.step_s_s": "s",
    "pipeline.step_f_s": "s",
    "pipeline.selective_zeros": "count",
    "pipeline.final_equations": "count",
    "pipeline.verify_by_matrices_s": "s",
    "pipeline.verify_trials": "count",
    "pipeline.verify_s_per_trial": "s/trial",
    "pipeline.verify_live_terms": "count",
    "cli.main_s": "s",
    "cli.nonzero_exits": "count",
    # Self time per layer during one traced set-up.  gen's
    # build_symmetry_system and write_system run only here.
    "setup.import_s": "s",
    "setup.ncalgebra_s": "s",
    "setup.symmetry_s": "s",
    "setup.solver_s": "s",
    "setup.formats_s": "s",
    "setup.pipeline_s": "s",
    "setup.cli_s": "s",
    # Tracing cost: medians of traced and untraced passes of the same run.
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_s": "s",
    "trace.counting_s": "s",
    "trace.spans": "count",
}


class HarnessError(Exception):
    """A worker could not report; no result can be given."""


def provenance(args) -> dict:
    src = ROOT / "src"
    files = sorted(src.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "guard": GUARD,
    }


def _commit() -> str | None:
    # The ceiling keeps git from reporting an enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Starts workers one at a time and keeps what they report."""

    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, SELECTIVE_SOLVE_MAX_UNKNOWNS=str(GUARD))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, mode: str, directory: Path, trace: bool) -> dict:
        args = self.args
        cmd = [sys.executable, str(WORKER), mode, "--workload", args.workload,
               "--dir", str(directory), "--seed", str(args.seed),
               "--trace", str(int(trace))]
        if args.smoke:
            cmd.append("--smoke")
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, 170.0 - self.elapsed()))
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{mode} worker timed out") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise HarnessError(f"{mode} worker exited {done.returncode}")
        report = json.loads(lines[-1])
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        return report

    def setup(self, index: int) -> dict:
        begun = self.elapsed()
        report = self.worker("setup", self.tmp / f"setup-{index}",
                             bool(self.args.trace))
        report["took"] = self.elapsed() - begun
        return report

    def run(self, min_setups: int, max_setups: int,
            min_passes: int) -> tuple[list[dict], list[dict]]:
        """Set-ups and passes, interleaved until ``--seconds`` is spent.

        The first set-up makes the inputs every pass uses.  Later set-ups
        are spread between passes, keeping their share of the elapsed time
        near SETUP_SHARE, so their median covers the whole run and not only
        its first seconds.  In trace mode untraced and traced passes
        alternate, starting untraced, so both see the same conditions.
        """
        setups, passes = [self.setup(0)], []
        while True:
            while len(setups) < max_setups and (
                    sum(s["took"] for s in setups)
                    < SETUP_SHARE * self.elapsed()):
                setups.append(self.setup(len(setups)))
            trace = bool(self.args.trace) and len(passes) % 2 == 1
            begun = self.elapsed()
            passes.append(self.worker("jobs", self.tmp / "setup-0", trace))
            passes[-1]["traced"] = trace
            pending = max(0, min_setups - len(setups)) * statistics.mean(
                s["took"] for s in setups)
            end = self.elapsed() + (self.elapsed() - begun) + pending
            if len(passes) >= min_passes and (
                    end > self.args.seconds or end > HARD_LIMIT_S):
                break
        while len(setups) < min_setups:
            setups.append(self.setup(len(setups)))
        return setups, passes


def end_to_end(setups: list[dict], passes: list[dict],
               runner: Runner) -> dict:
    def median(key, reports):
        return statistics.median(r[key] for r in reports)
    return {
        "wall_rel": median("wall_rel", passes),
        "cpu_rel": median("cpu_rel", passes),
        "peak_rss_mb": median("peak_rss_mb", passes),
        "setup_s": median("setup_s", setups),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }


def per_layer(setup: dict, passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = {"setup.import_s": setup["import_s"]}
    for name in PER_LAYER:
        if name.startswith("trace.") or name in values:
            continue
        if name.startswith("setup."):
            layer = name.removeprefix("setup.").removesuffix("_s")
            values[name] = setup["layer_self_s"].get(layer, 0.0)
        else:
            values[name] = statistics.median(
                p["layers"].get(name, 0) for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    values.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.top_level_s": statistics.median(
            p["top_level_s"] for p in traced),
        "trace.counting_s": statistics.median(
            p["counting_s"] for p in traced),
        "trace.spans": len(traced[-1]["spans"]),
    })
    return values


def measure(args, tmp: Path) -> tuple[dict, dict, dict | None]:
    runner = Runner(args, tmp)
    if args.trace:
        setups, passes = runner.run(1, 1, 2 if args.smoke else 4)
        values, units = per_layer(setups[0], passes), PER_LAYER
        last = [p for p in passes if p["traced"]][-1]
        spans = {"setup": setups[0]["spans"], "pass": last["spans"]}
    else:
        setups, passes = runner.run(MIN_SETUPS, MAX_SETUPS,
                                    1 if args.smoke else MIN_PASSES)
        values, units = end_to_end(setups, passes, runner), END_TO_END
        spans = None
    missing = sorted({m for r in setups + passes for m in r.get("missing", ())})
    if missing:
        print(f"perfbench: not traced (absent): {', '.join(missing)}",
              file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    info = {"setups": len(setups), "passes": len(passes),
            "setup_s": [round(r["setup_s"], 4) for r in setups],
            "pass_wall_s": [round(r["wall_s"], 4) for r in passes],
            "pass_ref_wall_s": [round(r["ref_wall_s"], 4) for r in passes],
            "errors": [e for r in setups + passes for e in r["errors"]]}
    return result, info, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="degrees <= 5, a few seconds per run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "selsolve" / "cli.py").is_file():
        print(f"perfbench: no selsolve source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, info, spans = measure(args, tmp)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"provenance": {**provenance(args), **info}}))
    if spans is not None:
        print(json.dumps({"spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
