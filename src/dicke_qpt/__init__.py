"""Ground-state entanglement of the single-mode Dicke model.

Finite-N results come from exact diagonalization in a truncated Fock (x)
Dicke basis with certified cutoff convergence; thermodynamic-limit results
come from the exact bosonized solution of both coupling phases.
"""

import types

from .eigensolver import GroundState, converge_cutoff, ground_state
from .entanglement import (ReducedDensityMatrix, average_linear_entropy_Q,
                           inverse_participation_ratio, linear_entropy,
                           partial_trace, single_atom_rdm, von_neumann_entropy)
from .errors import (CapacityError, ConfigError, CutoffConvergenceError,
                     DickeError, FitError, IntegrityError, ParameterError,
                     PhaseError, SolverError)
from .model import (BasisIndex, ModelParams, assemble_hamiltonian, build_basis,
                    make_params)
from .perturbative import perturbative_entropy
from .sweep import (ScalingFit, SweepConfig, SweepFailure, emit,
                    fit_critical_exponents, fit_entropy_scaling, run_sweep)
from .thermo import (ClosedForms, GaussianRDMParams, PhaseSolution,
                     closed_forms, critical_asymptote, effective_temperature,
                     entropy_td, ipr_td, linear_entropy_td, normal_solution,
                     q_td, q_td_derivative, rdm_params, sr_solution)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
