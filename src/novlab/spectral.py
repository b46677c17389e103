"""Uniform periodic grid, half-spectrum transforms, multipliers, and norms.

The domain is [-L/2, L/2) with periodic identification, sampled at
``num_points`` equispaced nodes.  Fields are represented spectrally by
their half spectrum: the rfft of the values divided by ``num_points``
(the transform's ``norm="forward"``), indexed by k = 0..N/2 with
physical frequency xi_k = 2*pi*k/L.  Realness is built in, since the
negative frequencies are the conjugates of the stored ones.  A
unit-amplitude cosine mode has half-spectrum entry 1/2 at its wavenumber,
up to the phase exp(-i xi_k x_0) = (-1)^k of the left endpoint
x_0 = -L/2; diagonal operators and products do not see that phase, so
only data synthesis applies it (``_half_phase``).  Pointwise products of
fields are dealiased as zero-padding to twice the grid dealiases them,
which is exact for nonlinearities up to degree three, but without padding:
the RHS kernel and the blockscale sweep form each product on the grid and
on its half-cell shift (``_half_cell_shift``), and the inequality corpus,
whose fields lie below Nyquist/4, on the grid or on its even points
(``_product_half``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# Every transform outside this module and ``solver`` runs numpy.fft, which
# can write into a given array (out=).  The field transforms here and the
# solver's rfft of a state run scipy.fft, where the benchmark's tracer
# wraps them.  Both are pocketfft and give the same bits.  Every transform
# is normalized "forward", the half-spectrum convention, so no scaling
# pass follows it.
from numpy.fft import irfft as _irfft_into, rfft as _rfft_into
from scipy.fft import irfft, rfft


class GridMismatchError(ValueError):
    """Operands live on different grids."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-length/2, length/2)."""

    num_points: int
    length: float

    def __post_init__(self):
        n = self.num_points
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"num_points must be a power of two >= 16, got {n}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"length must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.num_points

    @property
    def nyquist(self) -> float:
        """Largest resolved physical frequency, pi*num_points/length."""
        return math.pi * self.num_points / self.length

    @cached_property
    def points(self) -> np.ndarray:
        x = -self.length / 2 + self.spacing * np.arange(self.num_points)
        x.flags.writeable = False
        return x

    @cached_property
    def half_frequencies(self) -> np.ndarray:
        """Nonnegative physical frequencies (rfft layout, k = 0..N/2)."""
        xi = 2 * math.pi * np.fft.rfftfreq(self.num_points, d=self.spacing)
        xi.flags.writeable = False
        return xi


class RealField:
    """Real-valued function sampled on a Grid.  Values are immutable."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.num_points,):
            raise ValueError(
                f"expected {grid.num_points} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        if values.flags.writeable:
            values = values.copy()
            values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("RealField is immutable")

    def __add__(self, other):
        _check_same_grid(self, other)
        return RealField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return RealField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return RealField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def sup_norm(self) -> float:
        return float(_lp_rows(self.values, self.grid.spacing, math.inf))


@lru_cache(maxsize=32)
def _half_phase(n: int) -> np.ndarray:
    # exp(-i xi_k x_0) with x_0 = -L/2 reduces to (-1)^k for every k
    p = np.where(np.arange(n // 2 + 1) % 2 == 0, 1.0, -1.0)
    p.flags.writeable = False
    return p


def _check_same_grid(*objs):
    g = objs[0].grid
    for o in objs[1:]:
        if o.grid != g:
            raise GridMismatchError(f"grid mismatch: {o.grid} vs {g}")


# -- half spectra and multipliers ---------------------------------------------

def half_spectrum(f: RealField) -> np.ndarray:
    """rfft of the values divided by num_points, without the endpoint phase.

    Diagonal operators are phase-invariant, so multiplier application and
    products work directly on this representation.
    """
    # No command calls it: ``derivative`` takes its field transform here,
    # and the tests build their one-field oracles on it.
    return rfft(f.values, norm="forward")


def field_from_half(grid: Grid, half: np.ndarray) -> RealField:
    v = irfft(half, n=grid.num_points, norm="forward")
    return RealField(grid, v)


def _derivative_symbol(grid: Grid) -> np.ndarray:
    """i xi on the half spectrum; the (sign-ambiguous) Nyquist bin is zeroed.

    Built per call rather than cached: a cached symbol would outlive every
    study that used it.
    """
    d = 1j * grid.half_frequencies
    d[-1] = 0.0
    return d


def _half_cell_shift(grid: Grid) -> tuple:
    """tau = e^(i pi k / n), whose product with a half spectrum transforms
    to the values on the grid shifted by half a cell, and its weight
    conj(tau) / 2 in the fold back (E + conj(tau) O) / 2 of a product's
    spectra E and O on the two grids to its truncated padded spectrum."""
    n = grid.num_points
    tau = np.exp(1j * math.pi / n * np.arange(n // 2 + 1))
    return tau, 0.5 * np.conj(tau)


def _smoothing_symbol(grid: Grid) -> np.ndarray:
    """1 / (1 + xi^2), the symbol of (1 - d^2/dx^2)^-1."""
    xi = grid.half_frequencies
    return 1.0 / (1.0 + xi * xi)


def derivative(f: RealField) -> RealField:
    """Spectral derivative; the (sign-ambiguous) Nyquist bin is zeroed."""
    # No command calls it: it stays because benchmarks/tests/test_tracing.py
    # traces one call of it, through scipy's rfft and irfft.
    return field_from_half(f.grid, _derivative_symbol(f.grid) * half_spectrum(f))


def _support_bins(grid: Grid, lo: float, hi: float) -> slice:
    """The half-spectrum bins whose frequencies lie in the open interval (lo, hi).

    A profile that vanishes off (lo, hi) needs sampling only there.
    """
    xi = grid.half_frequencies
    return slice(int(np.searchsorted(xi, lo, "right")), int(np.searchsorted(xi, hi, "left")))


def _bin_energy(half: np.ndarray, out=None) -> np.ndarray:
    """|half|^2 per rfft bin along the last axis, counted with its multiplicity.

    An interior bin stands for itself and its conjugate, so it counts twice;
    k = 0 and k = N/2 count once.  By discrete Parseval, L times the sum of
    these energies is the grid quadrature of the squared L^2 norm.

    With ``out``, rows of at least twice the bins in doubles, the energies
    are written to its first bins and no array is allocated.
    """
    if out is None:
        energy = np.square(half.real)
        energy += np.square(half.imag)
    else:
        bins = half.shape[-1]
        energy = np.square(half.real, out=out[..., :bins])
        energy += np.square(half.imag, out=out[..., bins : 2 * bins])
    energy[..., 1:-1] *= 2.0
    return energy


def _check_p(p) -> float:
    """The one rule for an integrability index: p in [1, inf]."""
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    return p


def _lp_rows(values: np.ndarray, spacing: float, p: float) -> np.ndarray:
    """The grid quadrature of the L^p norm of each row of ``values``, along
    the last axis, for a checked p; p = inf gives the max norm.  For a
    finite p != 2 the powers |values|^p are taken in ``values`` itself."""
    if math.isinf(p):  # max(max, -min): no |values| array, a NaN propagates, zeros give +0.0
        return np.maximum(np.max(values, axis=-1), -np.min(values, axis=-1)) + 0.0
    if p == 2.0:
        return np.sqrt(spacing * np.sum(np.square(values), axis=-1))
    powers = np.abs(values, out=values)
    powers **= p  # the bits of np.abs(values) ** p
    sums = spacing * np.sum(powers, axis=-1)
    # the root is taken one row at a time: numpy's vectorized power can
    # differ from the scalar one in the last bit
    return np.array([x ** (1.0 / p) for x in np.ravel(sums).tolist()]).reshape(sums.shape)


# -- products on the grid ----------------------------------------------------

def _product_half(values: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """Half spectrum of products given by their n grid values, along the last
    axis, written to ``spectrum`` (n/2 + 1 complex bins) and returned, with
    the Nyquist bin zeroed as a dealiased product's is.  The products must
    lie below Nyquist, where the grid holds them without aliasing."""
    half = _rfft_into(values, norm="forward", out=spectrum)
    half[..., -1] = 0.0  # discard the (unrepresentable) Nyquist content
    return half
