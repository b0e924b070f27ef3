"""selsolve: exact solver for sparse selection systems, with a symmetry
application for a non-abelian Laurent ODE."""

from .errors import (BoundsError, InconsistentSystemError,
                     NonlinearProductError, ParseError, SelSolveError,
                     SingularSampleError, TooLargeError)
from .linsys import (AffineForm, Equation, LinearSystem, UnknownId,
                     canonicalize, dense_nullspace_oracle, substitute)
from .ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, Derivation, NCPoly,
                        Word, apply_derivation, poly_mul, word_mul)
from .pipeline import (FixpointStrategy, RunReport, Strategy,
                       default_strategy, run_pipeline, run_strategy,
                       verify_by_matrices)
from .solver import (SolutionState, find_zeros, length_sort, lsss_solve,
                     prune_zeros, stream_solve)
from .symmetry import (COMMUTATOR_UV, COMMUTATOR_VU, CommutatorCondition,
                       NecessaryCondition, SortedCondition, SymmetryAnsatz,
                       SystemStats, build_ansatz, build_symmetry_system,
                       complete_split, first_integral_basis, formulate_nc,
                       formulate_symcon, kontsevich_system, prune_ncpoly,
                       selective_split, system_stats)

__version__ = "0.1.0"
