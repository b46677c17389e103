import types

import novlab

# the package's whole public surface; the benchmark harness imports Grid,
# IllposedDataParams, build_initial_data, load_field and step_rk4 from here
PUBLIC_NAMES = {
    # spectral
    "Grid", "GridMismatchError", "RealField", "derivative", "helmholtz_inverse",
    "lp_norm", "product", "triple_product",
    # littlewood_paley
    "BesovIndex", "LPFilterBank", "UnresolvedSpectrumError", "besov_norm",
    "build_filter_bank", "commutator", "dyadic_block", "weighted_block_norms",
    # initial_data
    "IllposedDataParams", "InitialData", "ResolutionError", "build_bump",
    "build_initial_data", "modulated_bump",
    # solver
    "BlowupError", "SolverConfig", "StepSizeError", "SystemState", "Trajectory",
    "integrate", "rhs", "step_rk4",
    # experiments
    "DegenerateDataError", "ScalingFit", "StudyReport", "fit_powerlaw",
    "study_block_scaling", "study_inequalities", "study_separation",
    "study_short_time", "write_study",
    # fieldio
    "load_field", "save_field",
}


def test_exported_names_are_exactly_the_public_api():
    exported = {
        name for name, value in vars(novlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 41
    assert exported == PUBLIC_NAMES
