"""Staged solving: harvest zeros before formulating the expensive parts.

Compares the all-at-once strategy F with staged strategies for degree 5,
shows the default, which harvests N and S until they find nothing before
it solves, and finishes with the independent matrix check of the solved
symmetry space.
"""

from selsolve import verify_by_matrices
from selsolve.pipeline import default_strategy, run_strategy
from selsolve.symmetry import build_ansatz, kontsevich_system

DEGREE = 5

print(f"degree {DEGREE}: strategy comparison")
for strategy in ("F", "NF", "NNF", "NSF"):
    state, report = run_strategy(DEGREE, strategy)
    print(f"  {strategy:<5} free={state.free_count} "
          f"equations_at_final={report.final_equations}")

state, report = run_strategy(DEGREE, default_strategy(DEGREE))
print(f"  fixpoint ran {report.strategy_text}: free={state.free_count} "
      f"equations_at_final={report.final_equations}")

print("\nstep trace of the fixpoint run:")
for line in report.lines():
    print(f"  {line}")

system = kontsevich_system()
ansatz = build_ansatz(DEGREE)
ok = verify_by_matrices(system, ansatz, state, dim=3, trials=3)
print(f"\nmatrix verification (dim 3, 3 trials): {'PASS' if ok else 'FAIL'}")
