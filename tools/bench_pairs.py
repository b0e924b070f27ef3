"""Run the benchmark in alternating pairs: a parent revision against the
working tree.

    python tools/bench_pairs.py --parent REV [--workload W ...]
        [--pairs N] [--seed K] [--save FILE]
    python tools/bench_pairs.py --summarize FILE

Each pair runs the command of ``BENCHMARK.json`` (``perfbench/run.py``)
for its ``run_seconds`` once in a copy of the parent and once in the
working tree, with the same seed on both sides; the side that runs first
alternates from pair to pair.  The parent is the committed files of REV,
exported with ``git archive`` into a temporary directory (under
``$TMPDIR``) that is removed at the end; the run refuses a REV whose
tracked files equal the working tree's, which would compare the code with
itself.  Pair i takes the seed K + i.

For each end-to-end metric of ``BENCHMARK.json``, with its direction and
bound, the summary prints each side's median and quartiles, the change of
the medians relative to the parent's, whether that stays within the
metric's bound, how many pairs the change won, and whether a gain would
hold: a win in at least 9 pairs in 10, and medians further apart, in the
better direction, than the parent's quartile distance.  ``--save`` writes
each run's result line as one JSON line to a new file, so that its pairs
come from one run of this tool; ``--summarize`` reads such a file back and
runs nothing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_benchmark(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def sides_in_order(pair: int) -> tuple[str, str]:
    """The parent runs first in even pairs, the change in odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def export(root: Path, rev: str, dest: Path) -> None:
    """The committed files of ``rev`` in the repository at ``root``, written
    under ``dest``."""
    archive = subprocess.run(["git", "-C", str(root), "archive", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                   check=True)


def differs(root: Path, rev: str) -> bool:
    """Whether the tracked files of the working tree at ``root`` differ
    from ``rev``."""
    return subprocess.run(["git", "-C", str(root), "diff", "--quiet", rev,
                           "--"]).returncode != 0


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> str:
    """One benchmark run in ``checkout``; its last stdout line, the
    result."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
        timeout=4 * seconds + 300)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{workload} in {checkout} exited "
                           f"{done.returncode}")
    return lines[-1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(results: dict[str, list[dict[str, str]]],
              metrics: list[dict]) -> list[str]:
    """The summary lines of ``results``: per workload, the result line of
    each side ({"parent": line, "change": line}) per pair."""
    out = []
    for workload, pairs in results.items():
        values = {side: [json.loads(pair[side])["metrics"] for pair in pairs]
                  for side in SIDES}
        failed = {side: sum(json.loads(pair[side])["failed"]
                            for pair in pairs) for side in SIDES}
        out.append(f"{workload}: {len(pairs)} pairs, failed operations "
                   f"parent {failed['parent']}, change {failed['change']}")
        out.append(f"  {'metric':<12} {'better':<6} "
                   f"{'parent median [q1, q3]':<30} "
                   f"{'change median [q1, q3]':<30} "
                   f"{'diff':>8} {'bound':>6} {'':<6} wins  gain")
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [m[name]["value"] for m in values["parent"]]
            change = [m[name]["value"] for m in values["change"]]
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            rel = (cm - pm) / pm if pm else (0.0 if cm == pm else float("inf"))
            within = (rel if lower else -rel) <= metric["bound"]
            wins = sum(c < p if lower else c > p
                       for p, c in zip(parent, change))
            gap = pm - cm if lower else cm - pm
            holds = 10 * wins >= 9 * len(pairs) and gap > p3 - p1
            out.append(
                f"  {name:<12} {metric['better']:<6} "
                f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':<30} "
                f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':<30} "
                f"{rel:>+8.2%} {metric['bound']:>6g} "
                f"{'within' if within else 'OVER':<6} "
                f"{wins:>2}/{len(pairs):<2} {'holds' if holds else 'no'}")
    return out


def read_saved(path: Path) -> dict[str, list[dict[str, str]]]:
    """Saved result lines back as complete pairs, per workload."""
    runs: dict[str, dict[int, dict[str, str]]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            run = json.loads(line)
            runs.setdefault(run["workload"], {}).setdefault(
                run["pair"], {})[run["side"]] = run["line"]
    return {workload: [pair for _, pair in sorted(pairs.items())
                       if len(pair) == 2]
            for workload, pairs in runs.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent",
                        help="revision to compare the working tree with")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json; all by default")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", type=Path,
                        help="write each run's result line to this new file")
    parser.add_argument("--summarize", type=Path,
                        help="summarize a --save file and run nothing")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.summarize is not None:
        print("\n".join(summarize(read_saved(args.summarize),
                                  bench["end_to_end"])))
        return 0
    if args.parent is None:
        parser.error("--parent is required unless --summarize is given")
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"no such workload: {', '.join(unknown)}")
    if args.save is not None and args.save.exists():
        parser.error(f"{args.save} exists; --save writes a new file")
    if not differs(ROOT, args.parent):
        parser.error(f"the working tree equals {args.parent}")
    results: dict[str, list[dict[str, str]]] = {w: [] for w in workloads}
    parent = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        export(ROOT, args.parent, parent)
        checkouts = {"parent": parent, "change": ROOT}
        for pair in range(args.pairs):
            for workload in workloads:
                lines = {}
                for side in sides_in_order(pair):
                    lines[side] = run_once(bench["command"], checkouts[side],
                                           workload, args.seed + pair,
                                           bench["run_seconds"])
                    if args.save is not None:
                        with args.save.open("a") as saved:
                            saved.write(json.dumps({
                                "workload": workload, "pair": pair,
                                "side": side, "line": lines[side]}) + "\n")
                results[workload].append(lines)
                print(f"pair {pair + 1}/{args.pairs} {workload} done",
                      file=sys.stderr, flush=True)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    print("\n".join(summarize(results, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
