"""Tikhonov regularization on spectral operators: source-condition
certificates, spectral-tail characterization, and empirical convergence
rates, with the explicit diagonal instances that separate the conditions."""

from .conditions import (CERTIFIED, HVI, INCONCLUSIVE, IVI, REFUTED_AT_N,
                         SPECTRAL_TAIL, STANDARD_SC, SVI, ConditionReport,
                         check_hvi, check_ivi, check_spectral_tail,
                         check_standard_sc, check_svi,
                         hvi_to_ivi_certificate, ivi_from_hvi_report,
                         scr_to_vi_certificate, ssc_to_hvi_certificate)
from .instances import INSTANCE_NAMES, NamedInstance, build, run_battery
from .measures import (DiscreteMeasure, MeasurePremiseError, SplitPoint,
                       cs_measure_bound, split_point, tail_integral_bound)
from .operators import (CoeffVector, Frame, FrameMismatchError,
                        SpectralOperator, apply, power_apply,
                        spectral_projection_norm, vector_measure)
from .rates import (IN_RANGE, RANDOM_SPHERE, WORST_CASE_BASIS,
                    DegenerateGridError, NoiseModel, QProjectionResult,
                    RateFit, infimum_rate, noise_free_rate, noisy_rate,
                    q_projection_equivalence)
from .tikhonov import (ErrorBoundReport, NotInRangeError, error_bound,
                       min_norm_solution, solve, solve_normal_equations)

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED", "REFUTED_AT_N", "INCONCLUSIVE",
    "STANDARD_SC", "HVI", "IVI", "SVI", "SPECTRAL_TAIL",
    "ConditionReport", "check_standard_sc", "check_hvi", "check_ivi",
    "check_svi", "check_spectral_tail", "ssc_to_hvi_certificate",
    "hvi_to_ivi_certificate", "scr_to_vi_certificate", "ivi_from_hvi_report",
    "SpectralOperator", "CoeffVector", "Frame", "FrameMismatchError",
    "apply", "power_apply", "spectral_projection_norm",
    "vector_measure",
    "DiscreteMeasure", "SplitPoint", "MeasurePremiseError",
    "cs_measure_bound", "tail_integral_bound", "split_point",
    "ErrorBoundReport", "NotInRangeError",
    "min_norm_solution", "solve", "solve_normal_equations", "error_bound",
    "RateFit", "NoiseModel", "QProjectionResult", "DegenerateGridError",
    "WORST_CASE_BASIS", "RANDOM_SPHERE", "IN_RANGE",
    "noise_free_rate", "noisy_rate", "infimum_rate",
    "q_projection_equivalence",
    "NamedInstance", "INSTANCE_NAMES", "build", "run_battery",
    "__version__",
]
