"""Heavy-tail analysis of affine stochastic recursions X_k = A_k X_{k-1} + B_k
with A = I - xi*H, the coefficient structure of SGD on quadratic losses."""

from .mc import McEstimate, parallel_map, resolve_workers, substream
from .models import (ConfigurationError, GaussianVectorLaw, GoeLaw, MixtureLaw,
                     ModelSpec, Variant, load_law_file, rank1_gauss,
                     sample_pairs, symm)
from .recursion import (ProductState, StationaryBatch, StopRule, StopStatus,
                        finite_iteration_tail, moment_growth_curve,
                        sample_r_batch)
from .spectral import FirstColumnSample, ProductSample, quadrature_oracle_d1
from .tailsolver import (AlphaCurve, AlphaSolve, ContourGrid, RangeError,
                         SolveStatus, alpha_curve, contour_grid,
                         marching_squares, solve_alpha, solve_xi1)
from .transferop import (DiscretizedOperator, OperatorSpectrum,
                         PowerIterationError, build_operator,
                         eigenfunction_representation_check, power_iterate)
from .empirics import (AngularTestReport, EstimationError, IntegrabilityReport,
                       IntegrabilityTarget, TailFit, angular_exceedance_test,
                       chi2_diagonal_check, hill_estimate, hill_stability_scan,
                       integrability_probe, stam_p2_check)

__version__ = "0.1.0"
