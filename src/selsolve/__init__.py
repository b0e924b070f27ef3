"""selsolve: exact solver for sparse selection systems, with a symmetry
application for a non-abelian Laurent ODE."""

from .errors import (BoundsError, InconsistentSystemError,
                     NonlinearProductError, NotFirstIntegralError,
                     NotInvertibleError, ParseError, SelSolveError,
                     SingularSampleError, TooLargeError)
from .linsys import (AffineForm, Equation, LinearSystem, UnknownId,
                     canonicalize, dense_nullspace_oracle, substitute)
from .ncalgebra import (EMPTY_WORD, U, U_INV, V, V_INV, Derivation, NCPoly,
                        Word, apply_derivation, poly_mul, poly_pow, word_mul)
from .pipeline import (FixpointStrategy, RunReport, Strategy,
                       default_strategy, run_strategy, verify_by_matrices)
from .solver import (SolutionState, ZeroRegistry, find_zeros, length_sort,
                     lsss_solve, prune_zeros, stream_solve)
from .symmetry import (COMMUTATOR_UV, COMMUTATOR_VU, NecessaryCondition,
                       ODESystem, SymmetryAnsatz, SystemStats, build_ansatz,
                       build_symmetry_system, complete_split,
                       find_first_integrals, first_integral_basis,
                       formulate_nc, formulate_symcon, kontsevich_system,
                       prune_ncpoly, selective_split, system_stats)

__version__ = "0.1.0"
