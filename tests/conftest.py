import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from novlab import (
    Grid,
    IllposedDataParams,
    RealField,
    build_filter_bank,
    build_initial_data,
)

LAMBDA = 68.0 / 48.0


@pytest.fixture(scope="session")
def small_grid():
    return Grid(2**12, 64.0)


@pytest.fixture(scope="session")
def small_bank(small_grid):
    return build_filter_bank(small_grid)


@pytest.fixture(scope="session")
def medium_grid():
    # Nyquist 256*pi ~ 804 resolves bands up to n = 8 and blocks up to j = 9
    return Grid(2**14, 64.0)


@pytest.fixture(scope="session")
def medium_bank(medium_grid):
    return build_filter_bank(medium_grid)


@pytest.fixture(scope="session")
def medium_params(medium_grid):
    return IllposedDataParams(s=3.0, p=2.0, lam=LAMBDA, num_terms=9, grid=medium_grid)


@pytest.fixture(scope="session")
def medium_data(medium_params):
    return build_initial_data(medium_params)


@pytest.fixture
def count_ffts(monkeypatch):
    """Start counting the rfft and irfft calls made through any novlab module.

    Calling the returned function wraps, for the rest of the test, every
    binding of scipy's or numpy's ``rfft`` or ``irfft`` in a loaded novlab
    module, under whatever name, and returns the dict of counts, which the
    wrappers update in place.
    """
    import scipy.fft

    transforms = ((scipy.fft.rfft, "rfft"), (scipy.fft.irfft, "irfft"),
                  (np.fft.rfft, "rfft"), (np.fft.irfft, "irfft"))

    def start():
        counts = {"rfft": 0, "irfft": 0}
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "novlab":
                continue
            for name, fn in list(vars(module).items()):
                kind = next((k for t, k in transforms if fn is t), None)
                if kind is None:
                    continue

                def counted(*args, _fn=fn, _kind=kind, **kwargs):
                    counts[_kind] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return counts

    return start


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
