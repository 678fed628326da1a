"""The package's public names, and the names it no longer has."""

import pytest

import tikrates as tk
from tikrates import rates, tikhonov

PUBLIC = {
    "CERTIFIED", "REFUTED_AT_N", "INCONCLUSIVE",
    "STANDARD_SC", "HVI", "IVI", "SVI", "SPECTRAL_TAIL",
    "ConditionReport", "check_standard_sc", "check_hvi", "check_ivi",
    "check_svi", "check_spectral_tail", "ssc_to_hvi_certificate",
    "hvi_to_ivi_certificate", "scr_to_vi_certificate", "ivi_from_hvi_report",
    "SpectralOperator", "CoeffVector", "Frame", "FrameMismatchError",
    "apply", "power_apply", "spectral_projection_norm", "vector_measure",
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
}


def test_all_is_the_public_surface():
    assert len(tk.__all__) == len(set(tk.__all__))
    assert set(tk.__all__) == PUBLIC
    assert all(hasattr(tk, name) for name in PUBLIC)


# each removed name, and what a caller uses instead
@pytest.mark.parametrize("owner, name", [
    (tk, "TikhonovSolve"),  # solve returns the CoeffVector itself
    (tikhonov, "TikhonovSolve"),
    (rates, "_family_errors"),  # np.ldexp(*_kernel(...)(delta, alphas))
    (tk.SpectralOperator, "null_data_directions"),  # SVD of op.matrix
    (tk.SpectralOperator, "basis_vector"),  # op.vector(np.eye(op.n)[i])
    (tk.CoeffVector, "scaled"),  # op.vector(c * u.coeffs)
    (tk.CoeffVector, "inner"),  # u.coeffs @ v.coeffs
    (tk.DiscreteMeasure, "total_mass"),  # mu.masses.sum()
    (tk.DiscreteMeasure, "total_variation"),  # np.abs(mu.masses).sum()
    (tk.DiscreteMeasure, "abs"),  # DiscreteMeasure(lambdas, |masses|)
    (tk.DiscreteMeasure, "signed"),  # np.any(mu.masses < 0)
], ids=lambda x: getattr(x, "__name__", x))
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)
