"""Plain test helpers: the data modulation, grid modes, seeded random fields,
a term-by-term RHS, a straight-line RHS kernel, fixed-step RK4 states, and
the CPUs and worker threads that ``solver._pair`` sees.

They live apart from conftest.py so that a test module can import them by a
name no other collected directory shares.
"""

import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np

from novlab import RealField

LAMBDA = 68.0 / 48.0


def mode(grid, freq_index, kind="cos", amplitude=1.0):
    """Pure grid mode with wavenumber freq_index (physical freq 2 pi k / L)."""
    xi = 2 * math.pi * freq_index / grid.length
    fn = np.cos if kind == "cos" else np.sin
    return RealField(grid, amplitude * fn(xi * grid.points))


def coefficients(f):
    """Fourier coefficients coeff(k), k = 0..N/2, under the module convention:
    the half spectrum times the phase of the left endpoint x_0 = -L/2."""
    from novlab.spectral import _half_phase, half_spectrum

    return _half_phase(f.grid.num_points) * half_spectrum(f)


def random_field(grid, seed, cutoff_fraction=0.25):
    """Seeded random real field, band-limited below a fraction of Nyquist."""
    rng = np.random.default_rng(seed)
    half = np.zeros(grid.num_points // 2 + 1, dtype=complex)
    n_active = int(cutoff_fraction * (grid.num_points // 2))
    half[:n_active] = rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)
    half[0] = half[0].real
    half /= grid.num_points**0.5
    from novlab.spectral import field_from_half

    return field_from_half(grid, half)


def composed_rhs(rho, u):
    """(rho_t, u_t) of the nonlocal system, composed term by term from the
    public operators (G = helmholtz_inverse):

        rho_t = u^2 rho_x + rho u u_x
        u_t   = u^2 u_x + d/dx G(u^3 + (3/2) u u_x^2 - (1/2) u rho^2)
                        + G((1/2) u_x^3 - (1/2) u_x rho^2)
    """
    from novlab import derivative, helmholtz_inverse, triple_product

    rho_x, u_x = derivative(rho), derivative(u)
    rho_t = triple_product(u, u, rho_x) + triple_product(rho, u, u_x)
    dx_arg = (triple_product(u, u, u) + 1.5 * triple_product(u, u_x, u_x)
              - 0.5 * triple_product(u, rho, rho))
    plain_arg = 0.5 * triple_product(u_x, u_x, u_x) - 0.5 * triple_product(u_x, rho, rho)
    u_t = (triple_product(u, u, u_x) + derivative(helmholtz_inverse(dx_arg))
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
