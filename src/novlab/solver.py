"""Pseudospectral time integration of the two-component Novikov system.

The system is evolved in its nonlocal form, where the momentum variable has
been eliminated with the inverse Helmholtz operator G = (1 - d^2/dx^2)^-1:

    rho_t = u^2 rho_x + rho u u_x
    u_t   = u^2 u_x + d/dx G(u^3 + (3/2) u u_x^2 - (1/2) u rho^2)
                    + G((1/2) u_x^3 - (1/2) u_x rho^2)

All products are dealiased by factor-two zero padding (exact for the cubic
nonlinearities), and time stepping is classical fixed-step RK4; the studies
run on horizons far below any stability limit of these smooth bounded
rates.

One kernel evaluates the right-hand side from half spectra to half spectra
(4 padded inverse and 4 forward real FFTs).  An RK4 step transforms the
state once, forms its stages on half spectra, and adds the inverse
transform of dt/6 (k1 + 2 k2 + 2 k3 + k4) to the state values: the state
is only ever incremented and never takes a transform round trip, whose
roundoff the 2^(js)-weighted Besov blocks would amplify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, rfft

from .spectral import (
    Grid,
    RealField,
    _WORKERS,
    _check_same_grid,
    _derivative_symbol,
    _padded_values,
    _smoothing_symbol,
    _truncate_half,
    field_from_half,
    half_spectrum,
)


class BlowupError(RuntimeError):
    """Sup norm exceeded the guard threshold during integration."""

    def __init__(self, time, sup):
        super().__init__(f"blow-up guard tripped at t={time:g} (sup norm {sup:.3e})")
        self.time = time
        self.sup = sup


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


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step integration settings.

    ``blowup_threshold`` defaults to 100x the initial sup norm when left
    unset.
    """

    dt: float
    t_final: float
    blowup_threshold: float | None = None

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.t_final < math.inf:
            raise ValueError("t_final must be nonnegative and finite")
        if self.t_final > 0 and self.dt > self.t_final:
            raise ValueError("dt must not exceed t_final")
        if self.blowup_threshold is not None and not self.blowup_threshold > 0:
            raise ValueError("blowup_threshold must be positive")


def _rhs_half(grid: Grid, hrho: np.ndarray, hu: np.ndarray):
    """Half spectra of (rho_t, u_t) from the half spectra of (rho, u).

    The single RHS kernel: 4 inverse transforms to the padded grid for the
    products and 4 forward transforms back.
    """
    d = _derivative_symbol(grid)
    g = _smoothing_symbol(grid)
    n = grid.num_points
    up = _padded_values(hu, n)
    rp = _padded_values(hrho, n)
    uxp = _padded_values(d * hu, n)
    rxp = _padded_values(d * hrho, n)
    u2 = up * up
    arg_rho = u2 * rxp + rp * up * uxp
    arg_u = u2 * uxp
    arg_dx_smooth = up * (u2 + 1.5 * uxp * uxp - 0.5 * rp * rp)
    arg_smooth = 0.5 * uxp * (uxp * uxp - rp * rp)

    def back(vals):
        return _truncate_half(rfft(vals, workers=_WORKERS) / (2 * n), n)

    h_rho_t = back(arg_rho)
    h_u_t = back(arg_u) + d * g * back(arg_dx_smooth) + g * back(arg_smooth)
    return h_rho_t, h_u_t


def rhs(state: SystemState):
    """Time derivative (rho_t, u_t) of the nonlocal system at this state."""
    grid = state.grid
    h_rho_t, h_u_t = _rhs_half(grid, half_spectrum(state.rho), half_spectrum(state.u))
    return field_from_half(grid, h_rho_t), field_from_half(grid, h_u_t)


def step_rk4(state: SystemState, dt: float,
             blowup_threshold: float | None = None) -> SystemState:
    """One classical four-stage Runge-Kutta step of size dt.

    The stages live on half spectra; the state values are only ever
    incremented, by the inverse transform of the stage combination, so the
    state itself takes no transform round trip.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    grid = state.grid
    n = grid.num_points
    hr0, hu0 = half_spectrum(state.rho), half_spectrum(state.u)
    kr, ku = _rhs_half(grid, hr0, hu0)
    # running k1 + 2 k2 + 2 k3 + k4, so only one stage is held at a time
    sum_r, sum_u = kr, ku
    for frac, weight in ((0.5, 2), (0.5, 2), (1.0, 1)):
        kr, ku = _rhs_half(grid, hr0 + frac * dt * kr, hu0 + frac * dt * ku)
        sum_r += weight * kr
        sum_u += weight * ku
    r1 = state.rho.values + irfft((dt / 6.0) * sum_r, n=n, workers=_WORKERS) * n
    u1 = state.u.values + irfft((dt / 6.0) * sum_u, n=n, workers=_WORKERS) * n
    if not (np.all(np.isfinite(r1)) and np.all(np.isfinite(u1))):
        raise BlowupError(state.time + dt, math.inf)
    sup = max(np.max(np.abs(r1)), np.max(np.abs(u1)))
    if blowup_threshold is not None and sup > blowup_threshold:
        raise BlowupError(state.time + dt, sup)
    return SystemState(
        rho=RealField(grid, r1), u=RealField(grid, u1), time=state.time + dt
    )


@dataclass(frozen=True)
class Trajectory:
    """Initial state plus the states at each requested checkpoint.

    ``sup_norms`` records (time, sup rho, sup u) after every step taken.
    """

    states: tuple
    sup_norms: tuple


def _default_threshold(state0: SystemState) -> float:
    """The guard integrate applies when none is configured: 100x the
    initial sup norm."""
    return 100.0 * max(state0.sup_norm(), np.finfo(float).tiny)


def integrate(state0: SystemState, cfg: SolverConfig, checkpoints=None) -> Trajectory:
    """Fixed-step RK4 up to t_final, landing exactly on each checkpoint.

    Between consecutive checkpoints the step is cfg.dt shrunk just enough
    to divide the interval evenly; it never exceeds cfg.dt.
    """
    if checkpoints is None:
        checkpoints = [cfg.t_final] if cfg.t_final > 0 else []
    checkpoints = sorted(float(t) for t in checkpoints)
    if checkpoints and (checkpoints[0] <= state0.time or checkpoints[-1] > cfg.t_final + 1e-15):
        raise ValueError("checkpoints must lie in (t0, t_final]")
    threshold = cfg.blowup_threshold
    if threshold is None:
        threshold = _default_threshold(state0)
    elif threshold <= state0.sup_norm():
        raise ValueError("blowup_threshold must exceed the initial sup norm")

    states = [state0]
    sup_norms = []
    current = state0
    t_prev = state0.time
    for t_next in checkpoints:
        seg = t_next - t_prev
        n_steps = max(1, math.ceil(seg / cfg.dt - 1e-12))
        h = seg / n_steps
        for _ in range(n_steps):
            current = step_rk4(current, h, threshold)
            sup_norms.append(
                (current.time, current.rho.sup_norm(), current.u.sup_norm())
            )
        # land exactly on the checkpoint despite accumulated rounding
        current = SystemState(rho=current.rho, u=current.u, time=t_next)
        states.append(current)
        t_prev = t_next
    return Trajectory(states=tuple(states), sup_norms=tuple(sup_norms))
