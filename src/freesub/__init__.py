"""freesub: free-probabilistic convolutions via analytic subordination.

Scalar free additive convolution on the line, free multiplicative
convolution of unitaries on the circle, matrix (operator-valued)
subordination for semicircular families, and seeded random-matrix
experiments that check the same identities empirically.
"""

from .additive import (SubordinationEval, convolve_cauchy, convolve_moments,
                       free_add_convolve, subordination_pair)
from .cumulants import (free_cumulants, free_cumulants_to_moments,
                        free_multiplicative_moments)
from .domains import (contraction_margins, halfplane_margin,
                      resolvent_identity_residual)
from .errors import (BadParams, DegenerateTransform, DomainError,
                     FreesubError, JacobianSingular, NoConvergence,
                     NonPositiveDensity, ZeroTransform)
from .matrixmodels import (ExperimentReport, experiment_lemma34,
                           experiment_prop32, experiment_prop33,
                           experiment_thm31_block, experiment_thm36)
from .measures import (CircleMeasure, GridSpec, LineMeasure, arcsine, atomic,
                       bernoulli_pm1, circle_atoms, from_json, haar_circle,
                       make_standard, marchenko_pastur,
                       measure_from_circle_moments, rotate, semicircle)
from .multiplicative import (DiskSubordinationEval, MultConvolution,
                             disk_subordination_solve,
                             free_mult_convolve_unitary)
from .opvalued import (CovarianceMap, OpCauchyEval, op_add_cauchy,
                       op_semicircular_cauchy, semicircular_shift_F,
                       solve_subordination_F)
from .transforms import (cauchy_transform, circle_cauchy, eta_transform,
                         h_transform, psi_transform, reciprocal_cauchy)

__version__ = "0.1.0"

__all__ = [
    "BadParams", "CircleMeasure", "CovarianceMap", "DegenerateTransform",
    "DiskSubordinationEval", "DomainError", "ExperimentReport",
    "FreesubError", "GridSpec", "JacobianSingular", "LineMeasure",
    "MultConvolution", "NoConvergence", "NonPositiveDensity", "OpCauchyEval",
    "SubordinationEval", "ZeroTransform", "arcsine", "atomic",
    "bernoulli_pm1", "cauchy_transform", "circle_atoms", "circle_cauchy",
    "contraction_margins", "convolve_cauchy", "convolve_moments",
    "disk_subordination_solve", "eta_transform",
    "experiment_lemma34", "experiment_prop32", "experiment_prop33",
    "experiment_thm31_block", "experiment_thm36", "free_add_convolve",
    "free_cumulants", "free_cumulants_to_moments",
    "free_mult_convolve_unitary", "free_multiplicative_moments", "from_json",
    "h_transform", "haar_circle", "halfplane_margin", "make_standard",
    "marchenko_pastur", "measure_from_circle_moments", "op_add_cauchy",
    "op_semicircular_cauchy", "psi_transform", "reciprocal_cauchy",
    "resolvent_identity_residual", "rotate", "semicircle",
    "semicircular_shift_F", "solve_subordination_F", "subordination_pair",
]
