"""Pseudospectral time integration of the two-component Novikov system.

The system is evolved in its nonlocal form, where the momentum variable has
been eliminated with the inverse Helmholtz operator G = (1 - d^2/dx^2)^-1:

    rho_t = u^2 rho_x + rho u u_x
    u_t   = u^2 u_x + d/dx G(u^3 + (3/2) u u_x^2 - (1/2) u rho^2)
                    + G((1/2) u_x^3 - (1/2) u_x rho^2)

All products are dealiased by factor-two zero padding (exact for the cubic
nonlinearities).  Time stepping is classical RK4 with an error-controlled
step (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  Each step's error
estimate is the embedded third-order FSAL formula (h/6)(k4 - k5), where
k5 = f(y_(n+1)) becomes the next step's k1, so an accepted step costs the
four right-hand-side evaluations a fixed step costs.  The estimate is
measured in B^(s-1)_{2,inf} x B^s_{2,inf} over sharp dyadic shells of the
half spectrum, and the step is accepted when it is at most
RTOL ||increment|| + ATOL ||state|| in that norm.

One kernel evaluates the right-hand side from half spectra to half spectra
(4 padded inverse and 4 forward real FFTs).  A step forms its stages on the
state's carried half spectra and adds the inverse transform of the
increment h/6 (k1 + 2 k2 + 2 k3 + k4) to the state values: neither the
values nor the spectra ever take a transform round trip, whose roundoff the
2^(js)-weighted Besov blocks and the error estimate would amplify.

The kernel's transforms run as four pairs of independent ones: the inverse
transforms of rho and u, then of u_x and rho_x, then the forward transforms
of rho_t and of u^2 u_x, then of the two arguments of G.  When the
process may use a second CPU, one transform of each pair runs on a worker
thread that the process starts on first use, and the other on the caller;
with one CPU both run inline.  numpy's transforms release the GIL, and a
transform's bits do not depend on the thread that computed it, so the
result is the same either way.

The kernel and the step work in a private workspace (``_Workspace``): the
symbols; one pair of padded forward spectra, whose leading half-spectrum
bins also stage the inputs of the inverse pairs (the padded inverse
transform pads with zeros itself, so there is no padded half-spectrum
buffer); the kernel's six padded value buffers, the first of which also
takes the values of the step's increment; and the step's stage and
stage-rate buffers.  ``integrate`` builds one per call and hands it from
step to step inside the ``RK4Step`` it threads through ``step_rk4``; a
step without a ``start`` builds its own.  What a step hands out (the new
state's values and every array of its ``RK4Step``) is freshly allocated and
never aliases the workspace, so a step allocates only its outputs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .spectral import (
    Grid,
    RealField,
    _bin_energy,
    _check_same_grid,
    _derivative_symbol,
    _half_from_padded,
    _irfft_into,
    _smoothing_symbol,
    field_from_half,
    rfft,
)

# error control: accept when err <= RTOL ||increment|| + ATOL ||state||; the
# ATOL term keeps roundoff in the top shells of large states from driving
# the step down
RTOL = 1e-6
ATOL = 1e-9
SAFETY = 0.9
GROWTH_MIN, GROWTH_MAX = 0.2, 4.0
# a step the controller shrinks below this share of the horizon raises
MIN_STEP_FRACTION = 1e-10
# integrate raises BlowupError once the sup norm exceeds this multiple of
# the initial one
BLOWUP_FACTOR = 100.0


class BlowupError(RuntimeError):
    """Sup norm exceeded the guard threshold during integration."""

    def __init__(self, time, sup):
        super().__init__(f"blow-up guard tripped at t={time:g} (sup norm {sup:.3e})")
        self.time = time
        self.sup = sup


class StepSizeError(RuntimeError):
    """The error controller shrank the step below its floor."""


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
    """Integration settings.

    ``dt`` optionally caps the error-controlled step, and may not lie below
    the step floor MIN_STEP_FRACTION t_final; ``s`` sets the norm
    B^(s-1)_{2,inf} x B^s_{2,inf} the step error is measured in.
    """

    t_final: float
    dt: float | None = None
    s: float = 3.0

    def __post_init__(self):
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 <= self.t_final < math.inf:
            raise ValueError("t_final must be nonnegative and finite")
        if self.dt is not None and self.dt < MIN_STEP_FRACTION * self.t_final:
            raise ValueError(f"dt must be at least MIN_STEP_FRACTION * t_final = "
                             f"{MIN_STEP_FRACTION * self.t_final:g}, got {self.dt:g}")
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")


def _new_pool() -> None:
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="novlab-fft")


# The worker thread that runs one transform of each of the kernel's pairs,
# started on the first submit.  A forked child inherits the executor but not
# its thread, so the child gets a new executor before any of its code runs.
_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pair(f, g) -> None:
    """Run f on the worker thread and g on the caller, or both inline when
    the process may use only one CPU; f and g must write disjoint buffers.

    numpy's transforms release the GIL, so two of them overlap.  Returns
    once both are done, and an exception of either reaches the caller.
    """
    # on one CPU the worker could only take turns with the caller: its
    # hand-offs made a 2^14 separation study about 7 % slower than inline
    if _usable_cpus() < 2:
        f()
        g()
        return
    future = _pool.submit(f)
    try:
        g()
    finally:
        # f writes the caller's buffers: never return while it runs
        wait((future,))
    future.result()


class _Workspace:
    """The buffers that the kernel and the step reuse on one grid of n points.

    ``d`` and ``g`` are the derivative and smoothing symbols.  ``spectrum``
    holds a pair of padded forward spectra (n + 1 bins each); the first
    n/2 + 1 bins of its rows also stage the half spectra that a pair of
    padded inverse transforms reads, which pad with zeros themselves.
    ``values`` holds the kernel's six padded value buffers; the step writes
    the values of its increment to the first, viewed as (2, n), while no
    kernel runs.  ``stage`` holds a stage's argument and then its weighted
    rate, ``rate`` the stage rates k2, k3 and k4.
    """

    def __init__(self, grid: Grid):
        n = grid.num_points
        halves = (2, n // 2 + 1)
        self.d = _derivative_symbol(grid)
        # complex, so that multiplying a spectrum by it casts nothing; the
        # product is the same as with the real symbol
        self.g = _smoothing_symbol(grid).astype(complex)
        self.spectrum = np.empty((2, n + 1), dtype=complex)
        self.values = np.empty((6, 2 * n))
        self.stage = np.empty(halves, dtype=complex)
        self.rate = np.empty(halves, dtype=complex)


def _rhs_half(y: np.ndarray, work: _Workspace, out=None) -> np.ndarray:
    """Half spectra of (rho_t, u_t) from the half spectra y = (rho, u),
    stacked along the first axis, written to ``out`` when given and else to
    a fresh array.

    The single RHS kernel: 4 inverse transforms to the padded grid for the
    products and 4 forward transforms back, run as four pairs (``_pair``)
    through the buffers of ``work``; ``out`` must not alias ``y`` or
    ``work``.  Which thread runs a transform changes none of its bits.
    """
    n = 2 * (y.shape[-1] - 1)
    d, g = work.d, work.g
    spectrum = work.spectrum
    a, b = spectrum[:, : n // 2 + 1]
    rp, up, uxp, rxp, u2, tmp = work.values

    def inverse(half, dest):
        return partial(_irfft_into, half, n=2 * n, norm="forward", out=dest)

    def forward(vals, row):
        # the pair's half spectra are then a and b
        return partial(_half_from_padded, vals, n, spectrum[row])

    # the original Nyquist bin splits evenly between +-n/2 on the padded grid
    a[:] = y[0]
    a[-1] *= 0.5
    b[:] = y[1]
    b[-1] *= 0.5
    _pair(inverse(a, rp), inverse(b, up))
    # d vanishes at the Nyquist bin, so these have nothing to halve there
    np.multiply(d, y[1], out=a)
    np.multiply(d, y[0], out=b)
    _pair(inverse(a, uxp), inverse(b, rxp))
    np.multiply(up, up, out=u2)
    rxp *= u2
    np.multiply(rp, up, out=tmp)
    tmp *= uxp
    rxp += tmp                              # u^2 rho_x + rho u u_x
    np.multiply(u2, uxp, out=tmp)           # u^2 u_x
    _pair(forward(rxp, 0), forward(tmp, 1))
    if out is None:
        out = np.empty_like(y)
    out[0] = a
    out[1] = b                              # the nonlocal terms join it below
    rp *= rp
    rp *= 0.5                               # rho^2 / 2
    np.multiply(uxp, uxp, out=tmp)          # u_x^2
    np.multiply(tmp, 1.5, out=rxp)
    rxp += u2
    rxp -= rp
    rxp *= up                               # u^3 + (3/2) u u_x^2 - (1/2) u rho^2
    tmp *= 0.5
    tmp -= rp
    tmp *= uxp                              # (1/2) u_x^3 - (1/2) u_x rho^2
    _pair(forward(rxp, 0), forward(tmp, 1))
    a *= d
    a += b
    a *= g
    # floating-point addition commutes, so this is the sum with the terms
    # the other way round, bit for bit
    out[1] += a
    return out


def _spectra(state: SystemState) -> np.ndarray:
    """Half spectra of (rho, u), stacked along the first axis: one batched
    transform, which gives each row the bits of ``half_spectrum``."""
    return rfft(np.stack([state.rho.values, state.u.values]), norm="forward")


def rhs(state: SystemState):
    """Time derivative (rho_t, u_t) of the nonlocal system at this state."""
    grid = state.grid
    rate = _rhs_half(_spectra(state), _Workspace(grid))
    return field_from_half(grid, rate[0]), field_from_half(grid, rate[1])


@dataclass(frozen=True)
class RK4Step:
    """One RK4 step and what the next step reuses from it.

    Half spectra are stacked (rho, u) along the first axis.  ``spectra``
    are the half spectra of ``state``, carried as the previous ones plus
    ``increment`` = h/6 (k1 + 2 k2 + 2 k3 + k4), never a transform of the
    values; ``rate`` is the right-hand side at ``spectra``, the FSAL stage
    k5 that the next step takes as its k1; ``error`` is the embedded
    third-order estimate h/6 (k4 - k5).  A step of size zero (at the
    initial state) has no increment and no error.  ``_workspace`` is the
    private scratch of the integration that made the step, which the next
    step reuses; none of the other arrays aliases it.
    """

    state: SystemState
    spectra: np.ndarray
    rate: np.ndarray
    increment: np.ndarray | None = None
    error: np.ndarray | None = None
    _workspace: _Workspace | None = field(default=None, repr=False, compare=False)


def _rest(state: SystemState) -> RK4Step:
    """The step of size zero that ends at ``state``, with a new workspace."""
    work = _Workspace(state.grid)
    y = _spectra(state)
    return RK4Step(state, y, _rhs_half(y, work), _workspace=work)


def step_rk4(state: SystemState, dt: float, sup_limit: float | None = None,
             start: RK4Step | None = None) -> RK4Step:
    """One classical four-stage Runge-Kutta step of size dt from ``state``.

    BlowupError is raised when the new state is not finite or its sup norm
    exceeds ``sup_limit``.  ``start`` is the step that ended at ``state``;
    its carried spectra and rate are reused, so the step costs four
    right-hand-side evaluations (k2, k3, k4 and k5), and so is its
    workspace.  Without it the state is transformed once, k1 evaluated and
    a workspace built.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    grid = state.grid
    n = grid.num_points
    if start is None:
        start = _rest(state)
    work = start._workspace
    y0, k = start.spectra, start.rate
    stage = work.stage
    # running k1 + 2 k2 + 2 k3 + k4, so only one stage is held at a time
    increment = k.copy()
    for frac, weight in ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0)):
        np.multiply(frac * dt, k, out=stage)
        stage += y0
        k = _rhs_half(stage, work, work.rate)
        np.multiply(weight, k, out=stage)
        increment += stage
    increment *= dt / 6.0
    delta = _irfft_into(increment, n=n, norm="forward", out=work.values[0].reshape(2, n))
    r1 = state.rho.values + delta[0]
    u1 = state.u.values + delta[1]
    if not (np.all(np.isfinite(r1)) and np.all(np.isfinite(u1))):
        raise BlowupError(state.time + dt, math.inf)
    sup = max(np.max(np.abs(r1)), np.max(np.abs(u1)))
    if sup_limit is not None and sup > sup_limit:
        raise BlowupError(state.time + dt, sup)
    y1 = y0 + increment
    rate = _rhs_half(y1, work)
    error = k - rate  # k is k4, in the workspace
    error *= dt / 6.0
    # read-only, so the fields take them without a copy
    r1.flags.writeable = False
    u1.flags.writeable = False
    new = SystemState(rho=RealField(grid, r1), u=RealField(grid, u1), time=state.time + dt)
    return RK4Step(new, y1, rate, increment, error, work)


class _ShellNorm:
    """||a||_{B^(s-1)_{2,inf}} + ||b||_{B^s_{2,inf}} of stacked half spectra
    (a, b), over the sharp dyadic shells |xi| < 1 and 2^j <= |xi| < 2^(j+1)
    of the grid frequencies, by Parseval: no transform is needed.

    The norm is returned divided by a common power of two, so the largest
    squared shell weight is L and no weight overflows for any s; the
    controller only compares norms, which that factor does not change.  A shell
    whose squared weight falls below 2^-1074 of the top one counts as zero.
    """

    def __init__(self, grid: Grid, s: float):
        xi = grid.half_frequencies
        self.shell = np.zeros(xi.size, dtype=np.intp)
        above = xi >= 1.0
        self.shell[above] = np.floor(np.log2(xi[above])).astype(np.intp) + 1
        j = np.arange(self.shell[-1] + 1) - 1.0
        # squared weights 2^(2 j sigma - 2 scale) times L, for sigma = s - 1
        # and s; the top one is L
        exponents = np.outer([s - 1.0, s], j)
        scale = math.ceil(exponents.max())
        self.weights = grid.length * 4.0 ** (exponents - scale)

    def __call__(self, y: np.ndarray) -> float:
        total = 0.0
        for row, w in zip(_bin_energy(y), self.weights):
            sums = np.bincount(self.shell, weights=row, minlength=w.size)
            total += math.sqrt(float(np.max(w * sums)))
        return total


@dataclass(frozen=True)
class Trajectory:
    """Where an integration ended and how it got there.

    ``final`` is the state at the last checkpoint (the initial state when
    there is none); ``sup_norms`` records (time, sup rho, sup u) after
    every accepted step, ``errors`` the (step size, error estimate) of the
    same steps, with the estimate relative to the norm of the state the
    step started from, in the norm the step was controlled in;
    ``rejected`` counts the steps the controller rejected.
    """

    final: SystemState
    sup_norms: tuple
    errors: tuple = ()
    rejected: int = 0


def integrate(state0: SystemState, cfg: SolverConfig, checkpoints=None,
              visit=None) -> Trajectory:
    """Error-controlled RK4 up to t_final, landing exactly on each checkpoint.

    Each checkpoint state is passed to ``visit``, when given, as the sweep
    reaches it, so a long sweep holds one state at a time.

    The step error is controlled in B^(s-1)_{2,inf} x B^s_{2,inf}, with s
    from ``cfg``, whatever integrability index p a study measures its
    results in: a study at p != 2 still gets steps controlled at p = 2.

    The controller proposes a step h (never above cfg.dt when set); the
    interval to the next checkpoint is then split evenly into steps of at
    most h, so no sliver step is taken.  A rejected step is retried with a
    smaller h; StepSizeError is raised once h falls below
    MIN_STEP_FRACTION of the horizon.
    """
    if checkpoints is None:
        checkpoints = [cfg.t_final] if cfg.t_final > 0 else []
    checkpoints = sorted(float(t) for t in checkpoints)
    if checkpoints and (checkpoints[0] <= state0.time or checkpoints[-1] > cfg.t_final + 1e-15):
        raise ValueError("checkpoints must lie in (t0, t_final]")
    sup_limit = BLOWUP_FACTOR * max(state0.sup_norm(), np.finfo(float).tiny)

    if not checkpoints:
        return Trajectory(final=state0, sup_norms=())
    sup_norms, errors = [], []
    rejected = 0
    norm = _ShellNorm(state0.grid, cfg.s)
    horizon = checkpoints[-1] - state0.time
    h_min = MIN_STEP_FRACTION * horizon
    h_max = cfg.dt if cfg.dt is not None else math.inf
    current = _rest(state0)
    state_norm = norm(current.spectra)
    rate_norm = norm(current.rate)
    # the usual first guess 0.01 ||y|| / ||f(y)||, or the whole horizon
    # when either norm vanishes
    if state_norm > 0 and rate_norm > 0:
        h = 0.01 * state_norm / rate_norm
    else:
        h = horizon
    h = min(h, h_max)
    for t_next in checkpoints:
        while current.state.time < t_next:
            remaining = t_next - current.state.time
            steps_left = max(1, math.ceil(remaining / h - 1e-12))
            step = remaining / steps_left
            trial = step_rk4(current.state, step, sup_limit, start=current)
            err = norm(trial.error)
            tol = RTOL * norm(trial.increment) + ATOL * state_norm
            if err == 0:
                ratio, factor = 0.0, GROWTH_MAX
            else:
                ratio = err / tol if tol > 0 else math.inf
                factor = min(GROWTH_MAX, max(GROWTH_MIN, SAFETY * ratio**-0.25))
            if ratio <= 1:
                st = trial.state
                if steps_left == 1:
                    # land exactly on the checkpoint despite accumulated rounding
                    st = replace(st, time=t_next)
                # keep only what the next step reuses
                current = RK4Step(st, trial.spectra, trial.rate,
                                  _workspace=trial._workspace)
                sup_norms.append((st.time, st.rho.sup_norm(), st.u.sup_norm()))
                # relative, so free of the norm's scale; a nonzero error on a
                # state of zero norm has no finite relative size
                rel = err / state_norm if state_norm > 0 else (math.inf if err else 0.0)
                errors.append((step, rel))
                state_norm = norm(current.spectra)
                # a step shortened to land on a checkpoint keeps the proposal
                h = step * factor if factor < 1 else max(h, step * factor)
            else:
                rejected += 1
                h = step * factor
                if h < h_min:
                    raise StepSizeError(
                        f"step {h:.3e} below its floor {h_min:.3e} at "
                        f"t={current.state.time:g} (error {ratio:.3e} times its tolerance)"
                    )
            h = min(h, h_max)
            del trial
        if visit is not None:
            visit(current.state)
    return Trajectory(final=current.state, sup_norms=tuple(sup_norms),
                      errors=tuple(errors), rejected=rejected)
