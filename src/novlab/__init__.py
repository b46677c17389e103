"""novlab: a numerical laboratory for the two-component Novikov system.

Spectral core on a periodic grid, a Littlewood-Paley/Besov toolkit, the
oscillatory lacunary data family, an RK4 pseudospectral solver for the
nonlocal form of the system, and verdict-bearing scaling studies.
"""

from .spectral import Grid, GridMismatchError, RealField
from .littlewood_paley import (
    BesovIndex,
    LPFilterBank,
    UnresolvedSpectrumError,
    besov_norm,
    build_filter_bank,
    weighted_block_norms,
)
from .initial_data import (
    IllposedDataParams,
    ResolutionError,
    SystemState,
    build_bump,
    build_initial_data,
    modulated_bump,
)
from .solver import (
    BlowupError,
    SolverConfig,
    StepSizeError,
    Trajectory,
    integrate,
    step_rk4,
)
from .experiments import (
    DegenerateDataError,
    ScalingFit,
    StudyReport,
    fit_powerlaw,
    study_block_scaling,
    study_inequalities,
    study_separation,
    study_short_time,
    write_study,
)
from .fieldio import load_field, save_field

__version__ = "0.1.0"
