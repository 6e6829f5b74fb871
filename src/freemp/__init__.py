"""Spectral limits of sample covariance matrices with random populations.

The package computes the deterministic objects attached to the limiting
eigenvalue distribution (Stieltjes transform, density, support edges),
evaluates the Gaussian fluctuation variance of linear eigenvalue
statistics by contour quadrature, and checks both against seeded Monte
Carlo simulation.
"""

from .contour import (Exponential, Polynomial, RationalShift, RectContour,
                      TestFunction, build_contour, clt_variance,
                      default_contour, f_sigma, mean_statistic)
from .errors import (ContourError, ConvergenceError, DomainError,
                     EdgeBracketError, EdgeProbeError, FreempError,
                     NearSingularityError, PsdViolationError, ReplicateError,
                     SingularDerivativeError)
from .freeconv import (FreeConvolution, SupportEdges, atom_at_zero, density,
                       density_batch, stieltjes, stieltjes_batch,
                       stieltjes_derivative, stieltjes_derivative_batch,
                       support_edges)
from .grammar import format_func, format_law, parse_func, parse_law
from .measures import (LinearLaw, PointLaw, PopulationLaw, SpectralMeasure,
                       UniformLaw, empirical_measure, sample_population)
from .rmt import (DataMatrixSpec, EigenSample, eigenvalues,
                  empirical_stieltjes, hat_fc, linear_statistic,
                  sample_data_matrix)
from .verify import (CltReport, ExperimentConfig, GateTolerances,
                     LocalLawReport, RateReport, check_edges, check_hat_rate,
                     check_local_law, ks_normality, report_to_csv,
                     report_to_json, run_clt_experiment)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
