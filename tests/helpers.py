"""Plain test helpers: the data modulation and data outside the paper's
regime, grid modes, seeded random fields, the grid L^p norm, the block
multipliers, the kernel's RHS as fields, the zero-padded field operators
that serve as oracles, a term-by-term RHS, a straight-line RHS kernel,
fixed-step RK4 states, the inequality corpus's draws and ratios, and the
CPUs and worker threads that ``solver._pair`` sees.

They live apart from conftest.py so that a test module can import them by a
name no other collected directory shares.
"""

import math
import os
import threading
import tracemalloc
import types
from dataclasses import replace

import numpy as np

from novlab import RealField, build_initial_data
from novlab.experiments import _chunk_ratios, _draw_fields, _pair_stacks
from novlab.littlewood_paley import _block_half
from novlab.solver import _rhs_half, _spectra, _Workspace
from novlab.spectral import _check_p, _lp_rows, field_from_half, half_spectrum

LAMBDA = 68.0 / 48.0


def out_of_regime_data(s, lam, num_terms, grid):
    """The lacunary data at an (s, p) outside the paper's regime, which
    ``IllposedDataParams`` refuses: ``build_initial_data`` reads only s,
    lam, num_terms and grid, here from a plain namespace."""
    return build_initial_data(types.SimpleNamespace(s=s, lam=lam, num_terms=num_terms,
                                                    grid=grid))


def lp_norm(f, p):
    """Grid quadrature of the L^p norm of f; p = inf gives the max norm."""
    return float(_lp_rows(np.array(f.values), f.grid.spacing, _check_p(p)))


def block_multiplier(bank, j):
    """Block j's multiplier sampled on every nonnegative grid frequency, as
    ``_block_half`` applies it: chi for j = -1, phi(2^-j xi) for j >= 0,
    zero for j <= -2, and an error past j_max."""
    return _block_half(bank, np.ones(bank.grid.half_frequencies.size), j)


def rhs(state):
    """Time derivative (rho_t, u_t) of the nonlocal system at ``state``, as
    fields: the kernel (``solver._rhs_half``) at the state's half spectra."""
    grid = state.grid
    rate = _rhs_half(_spectra(state), _Workspace(grid))
    return field_from_half(grid, rate[0]), field_from_half(grid, rate[1])


def mode(grid, freq_index, kind="cos", amplitude=1.0):
    """Pure grid mode with wavenumber freq_index (physical freq 2 pi k / L)."""
    xi = 2 * math.pi * freq_index / grid.length
    fn = np.cos if kind == "cos" else np.sin
    return RealField(grid, amplitude * fn(xi * grid.points))


def coefficients(f):
    """Fourier coefficients coeff(k), k = 0..N/2, under the module convention:
    the half spectrum times the phase of the left endpoint x_0 = -L/2."""
    from novlab.spectral import _half_phase

    return _half_phase(f.grid.num_points) * half_spectrum(f)


def random_field(grid, seed, cutoff_fraction=0.25):
    """Seeded random real field, band-limited below a fraction of Nyquist."""
    rng = np.random.default_rng(seed)
    half = np.zeros(grid.num_points // 2 + 1, dtype=complex)
    n_active = int(cutoff_fraction * (grid.num_points // 2))
    half[:n_active] = rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
    half[0] = half[0].real
    half /= grid.num_points**0.5
    return field_from_half(grid, half)


# -- zero-padded oracles ------------------------------------------------------
#
# The field operators that the package dealiases without padding, written
# from first principles: a field's full complex spectrum (numpy's fft order),
# exact multipliers on every frequency, and products formed on 2n points, to
# which the spectra are padded with zeros.  Each starts from
# ``half_spectrum``, the transform the studies start from, so that a block
# far below a field's size is cut from the same roundoff on both sides.

def extend_half(half):
    """The n coefficients, in numpy's fft order, that the half spectrum
    ``half`` (n/2 + 1 bins) stands for: bin -k holds the conjugate of bin k,
    and the Nyquist bin is kept as given."""
    n = 2 * (len(half) - 1)
    full = np.empty(n, dtype=complex)
    full[: n // 2 + 1] = half
    full[n // 2 + 1 :] = np.conj(half[n // 2 - 1 : 0 : -1])
    return full


def full_spectrum(f):
    """The full spectrum of f, from ``half_spectrum(f)``."""
    return extend_half(half_spectrum(f))


def field_from_full(grid, full):
    """The real field whose full spectrum is ``full``."""
    return RealField(grid, np.fft.ifft(full, norm="forward").real)


def full_frequencies(grid):
    """The physical frequency of each bin of a full spectrum."""
    return 2 * math.pi * np.fft.fftfreq(grid.num_points, d=grid.spacing)


def apply_multiplier(f, samples):
    """The even multiplier with ``samples`` on the nonnegative frequencies
    (rfft layout) applied to f: bin k and bin -k take sample |k|."""
    n = f.grid.num_points
    k = np.arange(n)
    return field_from_full(f.grid, samples[np.minimum(k, n - k)] * full_spectrum(f))


def derivative(f):
    """d/dx: i xi on every bin, the (sign-ambiguous) Nyquist bin zeroed."""
    symbol = 1j * full_frequencies(f.grid)
    symbol[f.grid.num_points // 2] = 0.0
    return field_from_full(f.grid, symbol * full_spectrum(f))


def helmholtz_inverse(f):
    """G = (1 - d^2/dx^2)^-1: each bin divided by 1 + xi^2."""
    xi = full_frequencies(f.grid)
    return field_from_full(f.grid, full_spectrum(f) / (1.0 + xi * xi))


def dyadic_block(bank, f, j):
    """Block j of f: the bank's multiplier of block j on every frequency."""
    return apply_multiplier(f, block_multiplier(bank, j))


def padded_values(full):
    """Values on 2n points of the n-point full spectrum ``full`` padded with
    zeros.  The Nyquist bin c stands for the bins +-n/2 of the finer grid,
    c/2 and its conjugate, so the padded spectrum is a real field's."""
    n = len(full)
    padded = np.zeros(2 * n, dtype=complex)
    padded[: n // 2] = full[: n // 2]
    padded[n // 2] = full[n // 2] / 2
    padded[-(n // 2)] = np.conj(full[n // 2]) / 2
    padded[-(n // 2) + 1 :] = full[n // 2 + 1 :]
    return np.fft.ifft(padded, norm="forward").real


def truncated_spectrum(values):
    """The full spectrum on n points of ``values`` on 2n points: the bins
    |k| < n/2 of their spectrum, and a zero Nyquist bin."""
    n = len(values) // 2
    spectrum = np.fft.fft(values, norm="forward")
    full = np.zeros(n, dtype=complex)
    full[: n // 2] = spectrum[: n // 2]
    full[n // 2 + 1 :] = spectrum[-(n // 2) + 1 :]
    return full


def product(*fields):
    """Pointwise product of two or three fields, dealiased by padding to 2n
    points: the spectrum of a product of three fields below n/2 lies below
    3n/2, which 2n points alias onto no bin |k| < n/2, so every kept bin is
    exact."""
    values = padded_values(full_spectrum(fields[0]))
    for f in fields[1:]:
        values = values * padded_values(full_spectrum(f))
    return field_from_full(fields[0].grid, truncated_spectrum(values))


def commutator(bank, j, u, v):
    """[block_j, u] d/dx v = block_j(u v_x) - u block_j(v_x), dealiased."""
    vx = derivative(v)
    return dyadic_block(bank, product(u, vx), j) - product(u, dyadic_block(bank, vx, j))


def composed_rhs(rho, u):
    """(rho_t, u_t) of the nonlocal system, composed term by term from the
    zero-padded oracles (G = helmholtz_inverse):

        rho_t = u^2 rho_x + rho u u_x
        u_t   = u^2 u_x + d/dx G(u^3 + (3/2) u u_x^2 - (1/2) u rho^2)
                        + G((1/2) u_x^3 - (1/2) u_x rho^2)
    """
    rho_x, u_x = derivative(rho), derivative(u)
    rho_t = product(u, u, rho_x) + product(rho, u, u_x)
    dx_arg = (product(u, u, u) + 1.5 * product(u, u_x, u_x)
              - 0.5 * product(u, rho, rho))
    plain_arg = 0.5 * product(u_x, u_x, u_x) - 0.5 * product(u_x, rho, rho)
    u_t = (product(u, u, u_x) + derivative(helmholtz_inverse(dx_arg))
           + helmholtz_inverse(plain_arg))
    return rho_t, u_t


def reference_rhs_half(y, grid):
    """Half spectra of (rho_t, u_t) from the stacked half spectra y = (rho, u),
    written out straight and on one thread in the operation order that
    ``solver._rhs_half`` keeps: on the grid and then on the grid shifted by
    half a cell, the four inverse transforms of n points, every product, the
    four forward transforms and the weight; then the sum of the two.  The
    kernel must match it bit for bit, so a reassociated product or a moved
    transform shows."""
    from novlab.spectral import _derivative_symbol, _smoothing_symbol

    n = grid.num_points
    d = _derivative_symbol(grid)
    g = _smoothing_symbol(grid).astype(complex)
    tau = np.exp(1j * math.pi / n * np.arange(n // 2 + 1))

    def on_grid(rho_half, u_half, weight):
        rho = np.fft.irfft(rho_half, n=n, norm="forward")
        rho_x = np.fft.irfft(d * rho_half, n=n, norm="forward")
        u = np.fft.irfft(u_half, n=n, norm="forward")
        u_x = np.fft.irfft(d * u_half, n=n, norm="forward")
        u2 = u * u
        rho_t = rho_x * u2 + (rho * u) * u_x
        half_rho2 = (rho * rho) * 0.5
        u_x2 = u_x * u_x
        dx_arg = ((u_x2 * 1.5 + u2) - half_rho2) * u
        plain_arg = (u_x2 * 0.5 - half_rho2) * u_x
        rho_t, u2_u_x, dx_arg, plain_arg = (np.fft.rfft(v, norm="forward") for v in
                                            (rho_t, u2 * u_x, dx_arg, plain_arg))
        return np.stack([rho_t, (dx_arg * d + plain_arg) * g + u2_u_x]) * weight

    rate = on_grid(y[0], y[1], 0.5) + on_grid(tau * y[0], tau * y[1], 0.5 * np.conj(tau))
    rate[:, -1] = 0.0
    return rate


def fixed_step_states(state0, dt, checkpoints):
    """States at the checkpoints of classical RK4 with a fixed step: each
    interval between checkpoints is split evenly into steps of at most dt."""
    from novlab import SystemState, step_rk4

    states, state, step = [], state0, None
    for t_next in sorted(checkpoints):
        seg = t_next - state.time
        n_steps = max(1, math.ceil(seg / dt - 1e-12))
        for _ in range(n_steps):
            step = step_rk4(state, seg / n_steps, start=step)
            state = step.state
        # land exactly on the checkpoint despite accumulated rounding
        state = SystemState(rho=state.rho, u=state.u, time=t_next)
        step = replace(step, state=state)
        states.append(state)
    return states


def random_band_limited_values(grid, rng, k):
    """The values, one row each, of k random band-limited corpus fields, as
    an inequality corpus draws them (``experiments._draw_fields``)."""
    values = np.empty((k, grid.num_points))
    _draw_fields(grid, rng, np.empty((k, grid.num_points // 2 + 1), dtype=complex), values)
    return values


def random_band_limited_field(grid, rng):
    """One random band-limited corpus field."""
    return RealField(grid, random_band_limited_values(grid, rng, 1)[0])


def pair_ratios(bank, u, v, idx):
    """The product-law, commutator and smoothing ratios
    (``experiments._chunk_ratios``) of each sample pair (u, v) given by grid
    values, one pair per row of the (k, n) stacks u and v, as a (k, 3)
    array, formed on a copy of them in fresh stacks."""
    n = bank.grid.num_points
    stacks = _pair_stacks(bank.grid, len(u))
    stacks[2:4, :, :n] = u, v
    return _chunk_ratios(bank, stacks, idx)


def see_cpus(monkeypatch, usable):
    """Make the process see the CPUs ``usable``: with two, ``solver._pair``
    runs its first function on the worker thread, with one inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)


def fft_threads():
    """The live worker threads of ``solver._pair``."""
    return [t for t in threading.enumerate() if t.name.startswith("novlab-fft")]


def traced_peak(fn):
    """fn's result and the peak of the memory traced during the call, above
    what was traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
