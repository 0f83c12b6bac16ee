"""Fisher-Shannon statistical complexity of one-dimensional quantum states
across the full manifold of rotated quadrature observables.

The quadrature s_theta = cos(theta) x - sin(theta) p interpolates between
position (theta = 0) and momentum (theta = pi/2); a state's complexity
C_FS = I x J generally depends on theta.  This package evaluates the per-angle
measure plus its two basis-independent companions: the angle average (global
measure) and the angle minimum.
"""

from .catalog import (AnalyticGaussian, BoxSpec, box_cfs_momentum,
                      box_cfs_position, box_k_integral, box_state,
                      box_wavefunction, choose_squeezed_truncation,
                      gaussian_sigma_theta, parse_state_literal,
                      squeezed_vacuum_fock, superposition_state)
from .errors import NumericsError, ParseError, QscError
from .frft import KernelTransform, kernel, transform
from .functionals import (ComplexityReport, FockEvaluator, Numerics,
                          cr_complexity, disequilibrium, entropy_power,
                          fisher_information, fs_complexity, integrate,
                          lmc_complexity, report_from_profile,
                          shannon_entropy, variance)
from .hermite import (BasisTable, build_basis_table, hermite_fn,
                      hermite_fn_derivative)
from .state import (DensityProfile, FockState, Grid, canonical_theta,
                    default_grid, eval_density, make_state, rotate)
from .sweep import SweepResult, analyze, global_fs, min_fs, sweep

__version__ = "0.1.0"

__all__ = [
    "AnalyticGaussian", "BasisTable", "BoxSpec", "ComplexityReport",
    "DensityProfile", "FockEvaluator", "FockState", "Grid",
    "KernelTransform", "Numerics", "NumericsError",
    "ParseError", "QscError", "SweepResult", "analyze", "box_cfs_momentum",
    "box_cfs_position", "box_k_integral", "box_state", "box_wavefunction",
    "build_basis_table", "canonical_theta", "choose_squeezed_truncation",
    "cr_complexity", "default_grid", "disequilibrium", "entropy_power",
    "eval_density", "fisher_information", "fs_complexity",
    "gaussian_sigma_theta", "global_fs", "hermite_fn",
    "hermite_fn_derivative", "integrate", "kernel", "lmc_complexity",
    "make_state", "min_fs", "parse_state_literal", "report_from_profile",
    "rotate", "shannon_entropy", "squeezed_vacuum_fock",
    "superposition_state", "sweep", "transform", "variance",
]
