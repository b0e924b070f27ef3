"""The selection-system solver, stage by stage.

Builds the degree-3 symmetry system (113 unknowns, 595 equations), harvests
1-term equations, sorts what is left by size, streams it through the pivot
map, and cross-checks the result against dense elimination.
"""

from selsolve import dense_nullspace_oracle, lsss_solve
from selsolve.solver import find_zeros, length_sort
from selsolve.symmetry import build_symmetry_system

system = build_symmetry_system(3, include_nc=True)
print(f"degree-3 system: {len(system.equations)} equations, "
      f"{len(system.universe)} unknowns, {system.term_total} terms")

zeros = set()
found = find_zeros(system, zeros)
print(f"\n1-term harvesting: {len(zeros)} zeros "
      f"in rounds {found.new_per_round}")
print(f"remaining equations: {len(found.remaining.equations)}")

order = length_sort(found.remaining)
lengths = list(found.remaining.row_lengths())
sizes = [lengths[k] for k in order[:10]]
print(f"after length sort, first sizes: {sizes}")

state = lsss_solve(system)
print(f"\nfull solve: zeros={len(state.zeros)} pivots={len(state.pivots)} "
      f"free={state.free_count}")

rank, basis = dense_nullspace_oracle(system)
print(f"oracle: rank={rank} nullity={len(system.universe) - rank}")
print("oracle basis satisfies the solved state:",
      all(state.contains_vector(vec) for vec in basis))
