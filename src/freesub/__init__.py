"""freesub: free-probabilistic convolutions via analytic subordination.

Scalar free additive convolution on the line, free multiplicative
convolution of unitaries on the circle, matrix (operator-valued)
subordination for semicircular families, and seeded random-matrix
experiments that check the same identities empirically.
"""

from .additive import (SubordinationEval, convolve_cauchy, convolve_moments,
                       free_add_convolve, free_cumulants,
                       free_cumulants_to_moments, subordination_pair)
from .cumulants import (free_multiplicative_moments, kreweras_complement,
                        moments_to_free_cumulants, noncrossing_partitions)
from .domains import (contraction_margins, halfplane_margin, im_part,
                      operator_norm, relative_contraction_margin,
                      resolvent_identity_residual)
from .errors import (BadParams, DegenerateTransform, DimensionMismatch,
                     DomainError, FreesubError, JacobianSingular,
                     NoConvergence, NonPositiveDensity, UnknownFamily,
                     ZeroTransform)
from .matrixmodels import (ExperimentReport, experiment_lemma34,
                           experiment_prop32, experiment_prop33,
                           experiment_thm31_block, experiment_thm36,
                           partial_trace, sample_angles)
from .measures import (CircleMeasure, GridSpec, LineMeasure, arcsine, atomic,
                       bernoulli_pm1, circle_atoms, from_json, haar_circle,
                       make_standard, marchenko_pastur,
                       measure_from_circle_moments, rotate, semicircle,
                       to_json, wrapped_density)
from .multiplicative import (DiskSubordinationEval, MultConvolution,
                             disk_subordination_solve,
                             free_mult_convolve_unitary, rotate_moments)
from .opvalued import (CovarianceMap, OpCauchyEval, op_add_cauchy,
                       op_semicircular_cauchy, semicircular_shift_F,
                       solve_subordination_F, zero_covariance)
from .transforms import (cauchy_transform, circle_cauchy, eta_transform,
                         h_transform, psi_transform, reciprocal_cauchy,
                         stieltjes_invert)

__version__ = "0.1.0"

__all__ = [
    "BadParams", "CircleMeasure", "CovarianceMap", "DegenerateTransform",
    "DimensionMismatch", "DiskSubordinationEval", "DomainError",
    "ExperimentReport", "FreesubError", "GridSpec",
    "JacobianSingular", "LineMeasure", "MultConvolution", "NoConvergence",
    "NonPositiveDensity", "OpCauchyEval", "SubordinationEval", "UnknownFamily",
    "ZeroTransform", "arcsine", "atomic", "bernoulli_pm1", "cauchy_transform",
    "circle_atoms", "circle_cauchy", "contraction_margins", "convolve_cauchy",
    "convolve_moments", "disk_subordination_solve", "eta_transform",
    "experiment_lemma34", "experiment_prop32", "experiment_prop33",
    "experiment_thm31_block", "experiment_thm36", "free_add_convolve",
    "free_cumulants", "free_cumulants_to_moments",
    "free_mult_convolve_unitary", "free_multiplicative_moments", "from_json",
    "h_transform", "haar_circle", "halfplane_margin", "im_part",
    "kreweras_complement", "make_standard", "marchenko_pastur",
    "measure_from_circle_moments", "moments_to_free_cumulants",
    "noncrossing_partitions", "op_add_cauchy", "op_semicircular_cauchy",
    "operator_norm", "partial_trace", "psi_transform", "reciprocal_cauchy",
    "relative_contraction_margin", "resolvent_identity_residual", "rotate",
    "rotate_moments", "sample_angles", "semicircle",
    "semicircular_shift_F", "solve_subordination_F", "stieltjes_invert",
    "subordination_pair", "to_json", "wrapped_density", "zero_covariance",
]
