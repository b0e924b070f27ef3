"""Command-line driver.

Subcommands: gen, solve, stats, pipeline, rank, verify, integrals.
Errors exit nonzero with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SelSolveError
from .formats import read_solution, read_system, write_solution, write_system
from .linsys import dense_nullspace_oracle
from .pipeline import (DEFAULT_VERIFY_SEED, default_strategy, run_strategy,
                       verify_by_matrices)
from .solver import lsss_solve
from .symmetry import (EXPECTED_STATS, build_ansatz, build_symmetry_system,
                       find_first_integrals, first_integral_basis,
                       kontsevich_system, system_stats)

#: Smallest accepted value of each integer option that has one.
OPTION_MINIMUM = {"degree": 1, "dim": 2, "trials": 1}


def _cmd_gen(args) -> int:
    system = build_symmetry_system(args.degree, include_nc=args.nc)
    if args.out:
        write_system(system, args.out)
        print(f"wrote {len(system.equations)} equations over "
              f"{len(system.universe)} unknowns to {args.out}")
    else:
        from .formats import render_system
        sys.stdout.write(render_system(system))
    return 0


def _cmd_solve(args) -> int:
    system = read_system(args.file)
    state = lsss_solve(system)
    out = args.out or (args.file + ".sol")
    write_solution(state, out)
    print(f"zeros={len(state.zeros)} pivots={len(state.pivots)} "
          f"free={state.free_count} identities={state.identities}")
    print(f"wrote {out}")
    if args.oracle:
        rank, basis = dense_nullspace_oracle(system)
        nullity = len(system.universe) - rank
        ok = nullity == state.free_count and all(
            state.contains_vector(vec) for vec in basis)
        print(f"oracle: nullity={nullity} agreement={'ok' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


def _cmd_stats(args) -> int:
    stats = system_stats(args.degree)
    row = (f"k={stats.k} e1={stats.e1} t1={stats.t1} "
           f"e2={stats.e2} t2={stats.t2} p={stats.p}")
    expected = EXPECTED_STATS.get(args.degree)
    if expected is None:
        print(f"{row} [NO REFERENCE]")
        return 0
    got = (stats.k, stats.e1, stats.t1, stats.e2, stats.t2, stats.p)
    if got == expected:
        print(f"{row} [MATCH]")
    else:
        labels = ("k", "e1", "t1", "e2", "t2", "p")
        diff = ", ".join(f"{lab}: got {g} want {w}"
                         for lab, g, w in zip(labels, got, expected) if g != w)
        print(f"{row} [DIFF {diff}]")
        print("note: equations counted after combining like words; terms "
              "count unknowns per equation; e1/t1 cover the side condition "
              "without auxiliary constants")
    return 0


def _cmd_pipeline(args) -> int:
    strategy = args.strategy or default_strategy(args.degree)
    _, report = run_strategy(args.degree, strategy)
    for line in report.lines():
        print(line)
    return 0


def _cmd_rank(args) -> int:
    system = read_system(args.file)
    rank, _ = dense_nullspace_oracle(system)
    print(f"rank={rank} nullity={len(system.universe) - rank}")
    return 0


def _cmd_verify(args) -> int:
    state = read_solution(args.solution)
    system = kontsevich_system()
    ansatz = build_ansatz(args.degree)
    print(f"seed={args.seed} dim={args.dim} trials={args.trials}")
    ok = verify_by_matrices(system, ansatz, state, args.dim, args.trials,
                            seed=args.seed)
    print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def _cmd_integrals(args) -> int:
    system = kontsevich_system()
    state = find_first_integrals(system, args.degree)
    print(f"free={state.free_count}")
    for i, poly in enumerate(first_integral_basis(system, args.degree), 1):
        print(f"basis {i}: {poly}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selsolve",
        description="Selection-system solver and symmetry generator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a split symmetry system")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--nc", action="store_true",
                   help="include the first-integral side condition")
    p.add_argument("--out", help="output path (sidecar <out>.names)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve a system file")
    p.add_argument("file")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the dense nullspace oracle")
    p.add_argument("--out", help="solution path (default <file>.sol)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("stats", help="size table row for one degree")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("pipeline", help="staged formulate/extract/solve run")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--strategy", help="explicit step text, e.g. (N)3SF")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("rank", help="rank and nullity of a system file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("verify", help="matrix check of a solved symmetry")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=DEFAULT_VERIFY_SEED)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("integrals", help="first integrals up to a degree")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_integrals)
    return parser


def _check_options(args) -> None:
    for name, low in OPTION_MINIMUM.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise SelSolveError(
                f"--{name} must be at least {low}, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except SelSolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
