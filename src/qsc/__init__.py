"""Fisher-Shannon statistical complexity of one-dimensional quantum states
across the full manifold of rotated quadrature observables.

The quadrature s_theta = cos(theta) x - sin(theta) p interpolates between
position (theta = 0) and momentum (theta = pi/2); a state's complexity
C_FS = I x J generally depends on theta.  This package evaluates the per-angle
measure plus its two basis-independent companions: the angle average (global
measure) and the angle minimum.
"""

from .catalog import (BoxSpec, box_cfs_momentum, box_cfs_position,
                      box_momentum_entropy, box_state, box_wavefunction,
                      choose_squeezed_truncation, parse_state_literal,
                      squeezed_vacuum_fock, superposition_state)
from .errors import NumericsError, ParseError, QscError
from .frft import kernel, transform
from .functionals import (ComplexityReport, FockEvaluator, entropy_power,
                          fs_complexity, integrate, report_from_profile)
from .hermite import BasisTable, tabulate
from .state import (AnalyticGaussian, DensityProfile, FockState, Grid,
                    canonical_theta, default_grid, eval_density,
                    gaussian_sigma_theta, make_state, rotate)
from .sweep import GlobalMeasure, SweepResult, analyze, min_fs, sweep

__version__ = "0.1.0"

__all__ = [
    "AnalyticGaussian", "BasisTable", "BoxSpec", "ComplexityReport",
    "DensityProfile", "FockEvaluator", "FockState", "GlobalMeasure", "Grid",
    "NumericsError",
    "ParseError", "QscError", "SweepResult", "analyze", "box_cfs_momentum",
    "box_cfs_position", "box_momentum_entropy", "box_state",
    "box_wavefunction",
    "canonical_theta", "choose_squeezed_truncation",
    "default_grid", "entropy_power", "eval_density", "fs_complexity",
    "gaussian_sigma_theta", "integrate", "kernel",
    "make_state", "min_fs",
    "parse_state_literal", "report_from_profile", "rotate",
    "squeezed_vacuum_fock", "superposition_state", "sweep", "tabulate",
    "transform",
]
