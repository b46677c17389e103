"""Pseudospectral time integration of the two-component Novikov system.

The system is evolved in its nonlocal form, where the momentum variable has
been eliminated with the inverse Helmholtz operator G = (1 - d^2/dx^2)^-1:

    rho_t = u^2 rho_x + rho u u_x
    u_t   = u^2 u_x + d/dx G(u^3 + (3/2) u u_x^2 - (1/2) u rho^2)
                    + G((1/2) u_x^3 - (1/2) u_x rho^2)

All products are dealiased as factor-two zero padding would dealias them
(exact for the cubic nonlinearities), without padding: the padded grid is
the grid and the grid shifted by half a cell (Patterson & Orszag, Phys.
Fluids 14, 1971), and each product is formed on both.  Time stepping is
classical RK4 with an error-controlled step (Hairer, Norsett & Wanner,
Solving ODEs I, II.4).  Each step's error estimate is the embedded
third-order FSAL formula (h/6)(k4 - k5), where k5 = f(y_(n+1)) becomes the
next step's k1, so an accepted step costs the four right-hand-side
evaluations a fixed step costs.  The estimate is measured in
B^(s-1)_{2,inf} x B^s_{2,inf} on the studies' filter bank, by Parseval, and
the step is accepted when it is at most RTOL ||increment|| + ATOL ||state||.

One kernel evaluates the right-hand side from half spectra to half spectra
(on each of the two grids, 4 inverse and 4 forward real FFTs of n points,
made as 2 inverse and 2 forward numpy calls on stacks of two rows).
A step forms its stages on the state's carried half spectra and adds the
inverse transform of the increment h/6 (k1 + 2 k2 + 2 k3 + k4) to the state
values: neither the values nor the spectra ever take a transform round
trip, whose roundoff the 2^(js)-weighted Besov blocks and the error
estimate would amplify.

The kernel runs in two independent halves, one for each grid: each lifts
rho, rho_x, u and u_x to its grid, forms every product, transforms the
products back, applies d/dx and G and weights its result, in its own
buffers; then the two are added, the kernel's fold.  When the process may
use a second CPU and the work is large enough (``_pair``), the shifted
grid's half runs on a worker thread that the process starts on first use,
and the grid's half on the caller; else both run inline.  numpy's
transforms and array arithmetic release the GIL, and neither a transform's
bits nor a product's depend on the thread that computed it, so the result
is the same either way.  The step's own work between evaluations (its
stages, its increment and the increment's inverse transform, the new values
and their sup, the new spectra, the error and the three norms the
controller reads) runs on the caller, on the stacked (rho, u) rows.  The
studies hand the same worker work of their own through ``_pair``.

The kernel and the step work in a private workspace (``_Workspace``): the
symbols; a pool of fourteen rows of n + 2 doubles, seven for each half,
each of which holds values on n points or, viewed as complex, a half
spectrum; and the step's stage buffer.  Between evaluations two rows of
the grid's half hold the step's stage rate, which the kernel reads nothing
from and writes last, and two others the values of the step's increment.
``integrate`` builds one per call and hands it from step to step inside
the ``RK4Step`` it threads through ``step_rk4``; a step without a
``start`` builds its own.  What a step hands out (the new state's values
and every array of its ``RK4Step``) is freshly allocated and never aliases
the workspace, so a step allocates only its outputs.  ``integrate`` hands
its caller one record per checkpoint, the accepted ``RK4Step`` that ended
there, so a study measures the states from their carried spectra.  At a
time it is asked for but does not land on, it hands one read from the
cubic Hermite interpolant of the accepted step that passes it
(``_hermite``: the step's two ends and their FSAL rates; Hairer, Norsett &
Wanner, II.6), which costs no kernel evaluation and no transform.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .initial_data import SystemState
from .littlewood_paley import _block_energies, build_filter_bank
from .spectral import (
    Grid,
    RealField,
    _bin_energy,
    _derivative_symbol,
    _half_cell_shift,
    _irfft_into,
    _lp_rows,
    _rfft_into,
    _smoothing_symbol,
    rfft,
)

# error control: accept when err <= RTOL ||increment|| + ATOL ||state||, in
# the block norm of ``_StepNorm``; the ATOL term keeps roundoff in the top
# blocks of large states from driving the step down
RTOL = 1e-6
ATOL = 1e-9
SAFETY = 0.9
GROWTH_MIN, GROWTH_MAX = 0.2, 4.0
# a step the controller proposes below this share of the horizon raises
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
    """The error controller proposed a step below its floor."""


@dataclass(frozen=True)
class SolverConfig:
    """Integration settings.

    ``dt`` optionally caps the error-controlled step, and may not lie below
    the step floor MIN_STEP_FRACTION t_final; ``s`` sets the norm
    B^(s-1)_{2,inf} x B^s_{2,inf} the step error is measured in, and may
    not be so large that a block weight's exponent overflows.
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
        # the step norm's weight exponents j s and j (s - 1), -1 <= j <= j_max,
        # must be finite on every grid: a finite Nyquist frequency has j_max <= 1023
        if not math.isfinite(1023 * (abs(self.s) + 1.0)):
            raise ValueError(f"s must be finite and |s| + 1 at most 1/1023 of the largest "
                             f"double, got {self.s:g}")


def _new_pool() -> None:
    global _pool
    _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="novlab-fft")


# The worker thread that runs the first function of each ``_pair``: the
# kernel's half on the shifted grid, one of the inequality study's corpora,
# or a blockscale product on the shifted grid; started on the first submit.
# A forked child inherits the executor but not its thread, so the child gets
# a new executor before any of its code runs.
_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)

# The size (points times transforms of that many points) from which a pair
# runs on two threads; below it the hand-off to the worker, 46-82 us,
# costs more than the overlap gains.  Placed from the warm kernel
# (``_rhs_half``, 16 transforms, then in 8 calls up to 2^14 points and 16
# above) with its halves inline or threaded on two usable CPUs (Intel Xeon,
# 2 vCPUs under KVM), medians of 7 batches, then the median of 4 runs:
#
#   points            2^9   2^10   2^11   2^12   2^13   2^14   2^15
#   inline   (us)     202    275    431    737   1515   2944   8174
#   threaded (us)     461    499    521    680   1124   1834   4679
#
# (threaded faster at 2^12 in 13 of 20 alternating pairs, at 2^13 and up in
# 19 or 20), so the kernel threads from 2^12 points (size 2^16) up.
PAIR_MIN_SIZE = 2**16


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pair(f, g, size) -> None:
    """Run f on the worker thread and g on the caller, or both inline when
    the process may use only one CPU or ``size``, the work of the pair in
    points times transforms of that many points, is below PAIR_MIN_SIZE;
    f and g must write disjoint buffers.

    f must not itself call ``_pair``: there is one worker, so a nested call
    would wait on itself.  The kernel's halves, the inequality study's
    corpus function (which calls no solver code) and the blockscale sweep's
    products (one inverse transform, a product and one forward transform)
    keep to that.  numpy's and scipy's transforms and numpy's array
    arithmetic release the GIL, so the two grids of the kernel and of the
    sweep overlap; so does most of a corpus, which runs its pairs in stacks
    of ``experiments.CORPUS_CHUNK`` through transforms and array arithmetic,
    so that the two corpora take less wall time threaded than inline.
    Returns once both are done, and an exception of either reaches the
    caller.
    """
    # on one CPU the worker could only take turns with the caller: its
    # hand-offs made a 2^14 separation study about 7 % slower than inline
    if size < PAIR_MIN_SIZE or _usable_cpus() < 2:
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

    ``d`` and ``g`` are the derivative and smoothing symbols, ``tau`` and
    ``fold`` the half-cell shift of the half spectrum and its weight in the
    fold back (``spectral._half_cell_shift``).  ``rows`` is a pool of fourteen
    rows of n + 2 doubles, the first seven for the kernel's half on the grid
    and the last seven for its half on the shifted grid (``_grid_half`` gives
    each row its parts, and transforms them in stacks of two rows).  A row
    holds values on n points or, viewed as n/2 + 1 complex numbers, a half
    spectrum.  ``stage`` holds a stage's
    argument and then its weighted rate; it is a buffer of its own, since
    both halves read the kernel's input at once.  ``rate`` holds the stage
    rates k2, k3 and k4 in rows 2 and 3, which the kernel's halves read
    nothing from and its fold writes last.  Once the kernel is done, rows 4
    and 5 are free: the step writes its increment's values there after k4,
    and its norms' bin energies and block products after k5.
    """

    def __init__(self, grid: Grid):
        n = grid.num_points
        m = n // 2 + 1
        self.d = _derivative_symbol(grid)
        # complex, so that multiplying a spectrum by it casts nothing; the
        # product is the same as with the real symbol
        self.g = _smoothing_symbol(grid).astype(complex)
        self.tau, self.fold = _half_cell_shift(grid)
        self.rows = np.empty((14, n + 2))
        self.stage = np.empty((2, m), dtype=complex)
        self.rate = self.rows[2:4].view(complex)


def _grid_half(y: np.ndarray, work: _Workspace, rows: np.ndarray, tau, weight) -> None:
    """One half of the RHS kernel: the products on the grid (``tau`` None)
    or on the grid shifted by half a cell, through seven rows of ``work``,
    ending with the weighted half spectra of (rho_t, u_t) in the first two.

    The half spectrum lifts to the shifted grid as the transform of tau
    times it.  The bins +-n/2 that a Nyquist bin c stands for give Re(c) on
    the grid and Re(i c) on the shifted grid, which is all a transform to n
    points reads, so the Nyquist bin needs no care of its own.
    """
    n = rows.shape[-1] - 2
    d, g = work.d, work.g
    # rows 0-3 take rho, u, rho_x and u_x, rows 5-6 stage the inverse
    # transforms' inputs of rho and u, and rows 2 and 4-6 then take
    # products; each stack of two rows is transformed in one call, and each
    # forward transform writes rows whose values are dead, so the weighted
    # rates end in rows 0 and 1.  The symbols multiply one row at a time: a
    # broadcast multiply of a stack shorter than numpy's ufunc buffer (8192
    # elements) allocates
    rho, u, rx, ux, u2, tmp, arg = rows[:, :n]
    spectra = rows.view(complex)
    staged = spectra[5:7]
    if tau is None:
        _irfft_into(y, n=n, norm="forward", out=rows[:2, :n])
        for r in (0, 1):
            np.multiply(d, y[r], out=staged[r])
    else:
        for r in (0, 1):
            np.multiply(tau, y[r], out=staged[r])
        _irfft_into(staged, n=n, norm="forward", out=rows[:2, :n])
        for r in (0, 1):
            staged[r] *= d
    _irfft_into(staged, n=n, norm="forward", out=rows[2:4, :n])
    np.multiply(u, u, out=u2)
    rx *= u2
    np.multiply(rho, u, out=tmp)
    tmp *= ux
    rx += tmp                               # u^2 rho_x + rho u u_x
    rho *= rho
    rho *= 0.5                              # rho^2 / 2
    np.multiply(ux, ux, out=tmp)            # u_x^2
    np.multiply(tmp, 1.5, out=arg)
    arg += u2
    arg -= rho
    arg *= u                                # u^3 + (3/2) u u_x^2 - (1/2) u rho^2
    u2 *= ux                                # u^2 u_x
    tmp *= 0.5
    tmp -= rho
    tmp *= ux                               # (1/2) u_x^3 - (1/2) u_x rho^2
    # rows 2 and 6 (rho_t's products, the nonlocal argument) to spectra 0
    # and 1, rows 4 and 5 (u^2 u_x, the plain argument) to spectra 2 and 3
    _rfft_into(rows[2:7:4, :n], n=n, norm="forward", out=spectra[:2])
    _rfft_into(rows[4:6, :n], n=n, norm="forward", out=spectra[2:4])
    nonlocal_, transport, plain_arg = spectra[1:4]
    nonlocal_ *= d
    nonlocal_ += plain_arg
    nonlocal_ *= g
    nonlocal_ += transport
    spectra[:2] *= weight


def _rhs_half(y: np.ndarray, work: _Workspace, out=None) -> np.ndarray:
    """Half spectra of (rho_t, u_t) from the half spectra y = (rho, u),
    stacked along the first axis, written to ``out`` when given and else to
    a fresh array.

    The single RHS kernel: each product is formed on the grid and on the
    grid shifted by half a cell, the even and odd points of the grid of 2n
    points that zero padding would use, with 4 inverse and 4 forward
    transforms of n points on each, in 4 calls on stacks of two rows; the
    truncated padded spectrum is (E_k + conj(tau_k) O_k) / 2 for the
    spectra E and O on the two grids.
    The shifted grid runs on the worker of one ``_pair`` and the grid on
    the caller, each in its own rows of ``work``; then the caller adds the
    two, the fold.  ``y`` may be ``work.stage`` and ``out`` may be
    ``work.rate``, but neither may otherwise alias ``work``.  Each half
    forms its products in one fixed order, so no bit depends on the threads.
    """
    n = work.rows.shape[-1] - 2
    _pair(partial(_grid_half, y, work, work.rows[7:], work.tau, work.fold),
          partial(_grid_half, y, work, work.rows[:7], None, 0.5), 16 * n)
    spectra = work.rows.view(complex)
    out = np.add(spectra[:2], spectra[7:9], out=out)
    out[:, -1] = 0.0  # discard the (unrepresentable) Nyquist content
    return out


def _spectra(state: SystemState) -> np.ndarray:
    """Half spectra of (rho, u), stacked along the first axis: one batched
    transform, which gives each row the bits of ``half_spectrum``."""
    return rfft(np.stack([state.rho.values, state.u.values]), norm="forward")


@dataclass(frozen=True)
class RK4Step:
    """One RK4 step and what the next step reuses from it.

    Half spectra are stacked (rho, u) along the first axis.  ``spectra``
    are the half spectra of ``state``, carried as the previous ones plus
    ``increment`` = h/6 (k1 + 2 k2 + 2 k3 + k4), never a transform of the
    values; ``rate`` is the right-hand side at ``spectra``, the FSAL stage
    k5 that the next step takes as its k1; ``error`` is the embedded
    third-order estimate h/6 (k4 - k5).  ``sup_norms`` are the sup norms
    of the new rho and u, and ``norms``, when the step was given a
    ``_StepNorm``, the norms of ``error``, ``increment`` and ``spectra``
    in it.  A step of size zero (at the initial state) has no increment,
    no error and none of these.  ``_workspace`` is the private scratch of
    the integration that made the step, which the next step reuses; none
    of the other arrays aliases it.  As a record of ``integrate`` it has the
    ``time`` of its state and is not ``interpolated``.
    """

    state: SystemState
    spectra: np.ndarray
    rate: np.ndarray
    increment: np.ndarray | None = None
    error: np.ndarray | None = None
    sup_norms: tuple = ()
    norms: tuple = ()
    _workspace: _Workspace | None = field(default=None, repr=False, compare=False)
    interpolated = False

    @property
    def time(self) -> float:
        return self.state.time


@dataclass(frozen=True)
class _Interpolated:
    """A record at a time that ``integrate`` did not land on: the time and
    the half spectra there of the interpolant of the step that passed it
    (``_hermite``), stacked (rho, u).  It has no state: grid values would
    take a transform."""

    time: float
    spectra: np.ndarray
    interpolated = True


def _hermite(y0: np.ndarray, f0: np.ndarray, increment: np.ndarray, f1: np.ndarray,
             h: float, theta: float, tmp: np.ndarray) -> np.ndarray:
    """The step's cubic Hermite interpolant at theta in [0, 1] (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6): the cubic in time through y0
    and y1 = y0 + ``increment``, a step of size h apart, with the slopes f0
    and f1 there,

        y0 + theta^2 (3 - 2 theta) increment
           + h theta (theta - 1)^2 f0 + h theta^2 (theta - 1) f1.

    Its error is O(h^4), the local order of the step.  Formed in one fresh
    array through ``tmp``, an array of its shape.
    """
    out = np.multiply(h * theta * (theta - 1.0) ** 2, f0)
    out += np.multiply(h * theta * theta * (theta - 1.0), f1, out=tmp)
    out += np.multiply(theta * theta * (3.0 - 2.0 * theta), increment, out=tmp)
    out += y0
    return out


def _rest(state: SystemState) -> RK4Step:
    """The step of size zero that ends at ``state``, with a new workspace."""
    work = _Workspace(state.grid)
    y = _spectra(state)
    return RK4Step(state, y, _rhs_half(y, work), _workspace=work)


def step_rk4(state: SystemState, dt: float, sup_limit: float | None = None,
             start: RK4Step | None = None, norm=None) -> RK4Step:
    """One classical four-stage Runge-Kutta step of size dt from ``state``.

    BlowupError is raised when the new state is not finite or its sup norm
    exceeds ``sup_limit``.  ``start`` is the step that ended at ``state``;
    its carried spectra and rate are reused, so the step costs four
    right-hand-side evaluations (k2, k3, k4 and k5), and so is its
    workspace.  Without it the state is transformed once, k1 evaluated and
    a workspace built.  ``norm``, a ``_StepNorm``, has the step measure
    its error, increment and new spectra in that norm.

    Each stage's rate is one kernel evaluation; everything between two
    evaluations works on the stacked (rho, u) rows on the caller.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    grid = state.grid
    n = grid.num_points
    if start is None:
        start = _rest(state)
    work = start._workspace
    y0, k1 = start.spectra, start.rate
    stage = work.stage
    # the running sum k1 + 2 k2 + 2 k3 + k4, so only one stage is held at a
    # time; then dt/6 times it
    increment = k1.copy()
    np.multiply(0.5 * dt, k1, out=stage)
    stage += y0
    for frac in (0.5, 1.0):
        k = _rhs_half(stage, work, work.rate)
        # weight k into the increment, and the next stage's argument
        np.multiply(2.0, k, out=stage)
        increment += stage
        np.multiply(frac * dt, k, out=stage)
        stage += y0
    k4 = _rhs_half(stage, work, work.rate)
    increment += k4
    increment *= dt / 6.0
    delta = _irfft_into(increment, n=n, norm="forward", out=work.rows[4:6, :n])
    values = [f.values + d for f, d in zip((state.rho, state.u), delta)]
    sups = tuple(float(_lp_rows(v, grid.spacing, math.inf)) for v in values)
    if not all(map(math.isfinite, sups)):  # which max() might drop as a NaN
        raise BlowupError(state.time + dt, math.inf)
    if sup_limit is not None and max(sups) > sup_limit:
        raise BlowupError(state.time + dt, max(sups))
    for v in values:
        v.flags.writeable = False  # so the field takes it without a copy
    new = SystemState(rho=RealField(grid, values[0]), u=RealField(grid, values[1]),
                      time=state.time + dt)
    y1 = y0 + increment
    error = k4.copy()  # k4's rows are the next evaluation's
    # a fresh rate, allocated after the kernel's halves and not beside their
    # temporaries
    rate = _rhs_half(y1, work)
    error -= rate
    error *= dt / 6.0
    norms = ()
    if norm is not None:
        # the kernel is done, so rows 4 and 5 are free
        norms = tuple(norm(a, work.rows[4:6]) for a in (error, increment, y1))
    return RK4Step(new, y1, rate, increment, error, sups, norms, work)


class _StepNorm:
    """||a||_{B^(s-1)_{2,inf}} + ||b||_{B^s_{2,inf}} of stacked half spectra
    (a, b) on the blocks of the grid's filter bank, by Parseval from the
    block energies the studies' norms read (``_block_energies``).

    The norm is returned divided by the power of two 2^scale, so the largest
    squared block weight is L and no weight overflows for any s; the
    controller only compares norms, which that factor does not change.  A block
    whose squared weight falls below 2^-1074 of the top one counts as zero.
    ``term(y[r], r)`` is row r's share, and the norm is the sum of the two.
    The grid's bank is the one the studies share (``build_filter_bank``).
    """

    def __init__(self, grid: Grid, s: float):
        self.bank = build_filter_bank(grid)
        # squared weights 2^(2 j sigma - 2 scale) times L, for sigma = s - 1
        # and s; the top one is L
        exponents = np.outer([s - 1.0, s], np.arange(-1.0, self.bank.j_max + 1))
        self.scale = math.ceil(exponents.max())
        self.weights = grid.length * 4.0 ** (exponents - self.scale)

    def term(self, row: np.ndarray, r: int, work=(None, None)) -> float:
        """Row r's share; with ``work``, two rows of at least twice the
        bins in doubles, its bin energies and their products with the bank
        are formed there."""
        energies = _block_energies(self.bank, _bin_energy(row, out=work[0]), work[1])
        energies *= self.weights[r]
        # the largest by its index, which, unlike np.max, builds no reduction
        # iterator, and which reads a NaN as np.max does
        return math.sqrt(float(energies[energies.argmax()]))

    def __call__(self, y: np.ndarray, work=(None, None)) -> float:
        return self.term(y[0], 0, work) + self.term(y[1], 1, work)


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
              visit=None, interpolated=()) -> Trajectory:
    """Error-controlled RK4 up to t_final, landing exactly on each checkpoint.

    ``visit``, when given, is called with one record before the first step
    (there is none without a checkpoint) and one at each checkpoint as the
    sweep reaches it, so a long sweep holds one record at a time.  A record
    is the ``RK4Step`` that ended there, cut to what the next step reuses:
    the state, its carried half spectra and the right-hand side at them
    (the FSAL rate); the first is the step of size zero at ``state0``.  So a
    caller measures the states from their spectra, and takes the rate at the
    data, without a transform or an evaluation of its own.

    ``interpolated`` are times the sweep does not land on, in (t0, t_final],
    up to the last checkpoint, and none of them a checkpoint (ValueError
    otherwise).  At each, ``visit`` is called, in time order with the
    checkpoints, with an interpolated record (``record.interpolated``; a
    landed one is not): its ``time`` and the half spectra there of the
    cubic Hermite interpolant of the accepted step that passes it
    (``_hermite``), with no state.  It costs no kernel evaluation and no
    transform, and the steps are those of the checkpoints alone.

    The step error is controlled in B^(s-1)_{2,inf} x B^s_{2,inf}, with s
    from ``cfg``, on the grid's filter bank (``_StepNorm``; ValueError on a
    grid with Nyquist frequency below 1, which has none), whatever
    integrability index p a study measures its results in: a study at
    p != 2 still gets steps controlled at p = 2.

    The controller proposes a step h (never above cfg.dt when set); the
    interval to the next checkpoint is then split evenly into steps of at
    most h, so no sliver step is taken.  A rejected step is retried with a
    smaller h.  StepSizeError is raised before any step whose proposal h,
    the first guess included, lies below MIN_STEP_FRACTION of the horizon.  Each step measures its own error,
    increment, spectra and sup norms (``step_rk4``'s ``norm``).
    """
    if checkpoints is None:
        checkpoints = [cfg.t_final] if cfg.t_final > 0 else []
    checkpoints = sorted(float(t) for t in checkpoints)
    if checkpoints and (checkpoints[0] <= state0.time or checkpoints[-1] > cfg.t_final + 1e-15):
        raise ValueError("checkpoints must lie in (t0, t_final]")
    # the interpolated times still ahead, the next one last
    pending = sorted((float(t) for t in interpolated), reverse=True)
    if pending and (not checkpoints or pending[-1] <= state0.time
                    or pending[0] > checkpoints[-1] or not set(pending).isdisjoint(checkpoints)):
        raise ValueError("interpolated times must lie in (t0, t_final], up to the last "
                         "checkpoint, and not be checkpoints")
    sup_limit = BLOWUP_FACTOR * max(state0.sup_norm(), np.finfo(float).tiny)

    if not checkpoints:
        return Trajectory(final=state0, sup_norms=())
    current = _rest(state0)
    if visit is not None:
        visit(current)
    sup_norms, errors = [], []
    rejected = 0
    norm = _StepNorm(state0.grid, cfg.s)
    horizon = checkpoints[-1] - state0.time
    h_min = MIN_STEP_FRACTION * horizon
    h_max = cfg.dt if cfg.dt is not None else math.inf
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
            if h < h_min:
                raise StepSizeError(f"step {h:.3e} below its floor {h_min:.3e} "
                                    f"at t={current.state.time:g}")
            remaining = t_next - current.state.time
            steps_left = max(1, math.ceil(remaining / h - 1e-12))
            step = remaining / steps_left
            trial = step_rk4(current.state, step, sup_limit, start=current, norm=norm)
            err, increment_norm, new_norm = trial.norms
            tol = RTOL * increment_norm + ATOL * state_norm
            if err == 0:
                ratio, factor = 0.0, GROWTH_MAX
            else:
                ratio = err / tol if tol > 0 else math.inf
                factor = min(GROWTH_MAX, max(GROWTH_MIN, SAFETY * ratio**-0.25))
            previous = increment = None  # an accepted step's start and increment
            if ratio <= 1:
                st = trial.state
                if steps_left == 1:
                    # land exactly on the checkpoint despite accumulated rounding
                    st = replace(st, time=t_next)
                previous, increment = current, trial.increment
                # keep only what the next step reuses
                current = RK4Step(st, trial.spectra, trial.rate,
                                  _workspace=trial._workspace)
                sup_norms.append((st.time, *trial.sup_norms))
                # relative, so free of the norm's scale; a nonzero error on a
                # state of zero norm has no finite relative size
                rel = err / state_norm if state_norm > 0 else (math.inf if err else 0.0)
                errors.append((step, rel))
                state_norm = new_norm
                # a step shortened to land on a checkpoint keeps the proposal
                h = step * factor if factor < 1 else max(h, step * factor)
            else:
                rejected += 1
                h = step * factor
            h = min(h, h_max)
            del trial
            # the interpolated records of the times the step passed, built once
            # its error is let go, in the stage buffer free until the next step
            passed = []
            while (visit is not None and increment is not None and pending
                   and pending[-1] <= current.state.time):
                t = pending.pop()
                passed.append(_Interpolated(t, _hermite(
                    previous.spectra, previous.rate, increment, current.rate, step,
                    (t - previous.state.time) / step, current._workspace.stage)))
            del previous, increment
            # visited once the step's start is let go, popped so that no
            # record outlives its visit
            while passed:
                visit(passed.pop(0))
        if visit is not None:
            visit(current)
    return Trajectory(final=current.state, sup_norms=tuple(sup_norms),
                      errors=tuple(errors), rejected=rejected)
