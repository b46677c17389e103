"""Oscillatory initial data built from a compactly supported Fourier bump.

The bump phi has a smooth, even, nonnegative transform equal to 1 on
|xi| <= 1/4 and 0 on |xi| >= 1/2.  The data are lacunary sums of modulated
copies,

    rho0 = sum_n 2^(-n(s-1)) phi(x) cos(lambda 2^n x),
    u0   = sum_n 2^(-n s)    phi(x) cos(lambda 2^n x),

with lambda in [67/48, 69/48], so term n occupies the frequency band
lambda 2^n +- 1/2 and, for n >= 3, falls entirely inside the plateau of
dyadic ring n.  Each term is synthesized spectrally (coefficients are exact
samples of the shifted bump profile), which keeps every band machine-exact;
in physical space this equals the periodization of the line function, whose
wrap-around tail at these domain sizes is ~1e-5 and documented per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .littlewood_paley import smooth_step
from .spectral import (Grid, RealField, _check_p, _check_same_grid, _half_phase, _irfft_into,
                       _support_bins, field_from_half)

LAMBDA_MIN = 67.0 / 48.0
LAMBDA_MAX = 69.0 / 48.0
LAMBDA_DEFAULT = 68.0 / 48.0


class ResolutionError(ValueError):
    """Requested data needs frequencies the grid cannot represent."""


# the bump's Fourier profile is 1 on |xi| <= BUMP_PLATEAU, 0 on |xi| >= BUMP_CUTOFF
BUMP_PLATEAU = 0.25
BUMP_CUTOFF = 0.5


def bump_profile(xi) -> np.ndarray:
    """Transform samples: 1 inside the plateau, glued to 0 at the cutoff."""
    a = np.abs(np.asarray(xi, dtype=float))
    return smooth_step((BUMP_CUTOFF - a) / (BUMP_CUTOFF - BUMP_PLATEAU))


def _band(grid: Grid, omega: float):
    """The bins and half-spectrum coefficients of phi(x) cos(omega x),
    without the endpoint phase.

    Coefficients are (1/2)(phihat(xi-omega) + phihat(xi+omega))/L, the
    exact line transform of the product sampled at grid frequencies.  Both
    shifted profiles vanish off (omega - 1/2, omega + 1/2), so only the
    bins there are evaluated.
    """
    if omega < 0:
        raise ValueError("modulation frequency must be nonnegative")
    if omega + BUMP_CUTOFF >= grid.nyquist:
        raise ResolutionError(
            f"band {omega:g} +- {BUMP_CUTOFF:g} exceeds Nyquist {grid.nyquist:g}"
        )
    xi = grid.half_frequencies
    k = _support_bins(grid, omega - BUMP_CUTOFF, omega + BUMP_CUTOFF)
    return k, (1.0 / (2.0 * grid.length)) * (bump_profile(xi[k] - omega)
                                             + bump_profile(xi[k] + omega))


def modulated_bump(grid: Grid, omega: float) -> RealField:
    """Spectral synthesis of phi(x) cos(omega x) on the grid, from the exact
    coefficients of its band."""
    k, coefficients = _band(grid, omega)
    half = np.zeros(grid.num_points // 2 + 1)
    half[k] = coefficients
    return field_from_half(grid, half * _half_phase(grid.num_points))


def build_bump(grid: Grid) -> RealField:
    """The unmodulated bump phi itself (even, Schwartz-decaying)."""
    return modulated_bump(grid, 0.0)


def check_regime(s, p) -> float:
    """Reject (s, p) outside the regime of the paper: p in [1, inf] and a
    finite s > max(2 + 1/p, 5/2).  Returns p as a float."""
    p = _check_p(p)
    s_min = max(2.0 + 1.0 / p, 2.5)
    if not (s > s_min and math.isfinite(s)):
        raise ValueError(f"s > max(2 + 1/p, 5/2) = {s_min:g} and finite (got {s})")
    return p


@dataclass(frozen=True)
class IllposedDataParams:
    """Parameters of the lacunary data family.

    The regularity must satisfy s > max(2 + 1/p, 5/2); the modulation
    lambda stays in [67/48, 69/48] so that band n sits in ring n's plateau.
    ``grid`` is a required keyword.  p is kept as the float that
    ``check_regime`` returns, so p = "inf" reads math.inf.
    """

    s: float
    p: float
    lam: float = LAMBDA_DEFAULT
    num_terms: int = 12
    grid: Grid = field(kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "p", check_regime(self.s, self.p))
        if not LAMBDA_MIN <= self.lam <= LAMBDA_MAX:
            raise ValueError(
                f"lambda must lie in [{LAMBDA_MIN:.6g}, {LAMBDA_MAX:.6g}], got {self.lam}"
            )
        if self.num_terms < 1:
            raise ValueError("num_terms must be positive")
        # the top band lambda 2^n +- 1/2 must clear Nyquist by the margin
        # lambda/2 > 1/2; as lambda > 1, n >= log2(Nyquist) fails without
        # forming 2^n, which overflows a double for large num_terms
        n, nyquist = self.num_terms - 1, self.grid.nyquist
        if n >= math.log2(nyquist) or self.lam * (2.0**n + 0.5) >= nyquist:
            raise ResolutionError(
                f"top band lambda 2^{n} + 1/2 is not resolved (Nyquist {nyquist:g}); "
                f"reduce num_terms or refine the grid"
            )


@dataclass(frozen=True)
class SystemState:
    """The pair (rho, u) at one time."""

    rho: RealField
    u: RealField
    time: float = 0.0

    def __post_init__(self):
        _check_same_grid(self.rho, self.u)
        if self.time < 0:
            raise ValueError("time must be nonnegative")

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    def sup_norm(self) -> float:
        return max(self.rho.sup_norm(), self.u.sup_norm())


def build_initial_data(params: IllposedDataParams) -> SystemState:
    """Truncated lacunary sums for rho0 and u0 at time 0: every band's
    coefficients, weighted, in one stack of half spectra, which one
    transform takes to the grid."""
    grid = params.grid
    s, lam, n_terms = params.s, params.lam, params.num_terms
    # every band is checked before any transform
    bands = [_band(grid, lam * 2.0**n) for n in range(n_terms)]
    # complex from the start, which numpy's transform would otherwise copy
    # the stack to
    half = np.zeros((2, grid.num_points // 2 + 1), dtype=complex)
    for n, (k, coefficients) in enumerate(bands):
        half[0, k] += 2.0 ** (-n * (s - 1)) * coefficients
        half[1, k] += 2.0 ** (-n * s) * coefficients
    half *= _half_phase(grid.num_points)
    values = _irfft_into(half, n=grid.num_points, norm="forward")
    values.flags.writeable = False  # so the fields take their rows without a copy
    return SystemState(RealField(grid, values[0]), RealField(grid, values[1]))


def tail_bound(params: IllposedDataParams) -> float:
    """The sup-norm bound on the terms n >= num_terms that the data drop
    (rho's tail, which dominates u's), from the bump synthesized on the
    grid."""
    s = params.s
    bump_sup = build_bump(params.grid).sup_norm()
    return bump_sup * 2.0 ** (-params.num_terms * (s - 1)) / (1.0 - 2.0 ** (-(s - 1)))
