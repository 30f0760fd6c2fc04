"""Variational toolkit for coupled elliptic systems with Hardy potentials
and critical Hardy-Sobolev nonlinearities on R^N.

The package evaluates the closed-form constants and extremal profiles of
the scalar problems, discretizes radial profiles on a truncated log grid,
evaluates the coupled energy functional and its constraint set, computes
ground states by projected preconditioned descent, brackets min-max bound
states along a deformed path, and classifies parameter regimes against the
known existence statements.
"""

from .closed_forms import (best_constant, critical_exponent, critical_level,
                           exact_solution, extremal_prefactor, hardy_constant,
                           separability_check, singular_exponent,
                           sobolev_constant)
from .energy import (EnergyBreakdown, StatePair, energy, energy_positive,
                     gradient, gradient_dual_norm, lambda_norm_sq,
                     nehari_residual, pair_norm_sq, second_variation_diag)
from .errors import (ConfigError, DegenerateInputError, DegeneratePathError,
                     GridMismatchError, HsvarError, InvalidGridError,
                     InvalidParameterError, NoProjectionError,
                     PreconditionError)
from .grid import (RadialFunction, RadialGrid, build_grid, gradient_seminorm,
                   integrate, reference_grid, weighted_lp)
from .nehari import (ProjectionResult, constrained_energy, project,
                     project_decoupled)
from .params import HProfile, ProblemParams
from .regimes import (LemmaInstance, RegimeReport, algebraic_inf, classify,
                      default_sigma_grid, small_nu_threshold)
from .solvers import (DescentOptions, PathOptions, ProbeOptions, SolverReport,
                      classification_flip, compact_bump, escalate_nu,
                      extremal_pair, ground_state, interpolation_bound,
                      mountain_pass, random_bump, semitrivial_probe)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
