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
fields are dealiased by zero-padding to twice the grid, which is exact
for nonlinearities up to degree three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# The padded transforms run numpy.fft, which can write into a given array
# (out=) and allocates without one; the field transforms, the solver's
# included, run scipy.fft.
# Both are pocketfft and give the same bits.  Every transform is normalized
# "forward", the half-spectrum convention, so no scaling pass follows it.
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
        return float(np.max(np.abs(self.values)))


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
    return rfft(f.values, norm="forward")


def field_from_half(grid: Grid, half: np.ndarray) -> RealField:
    v = irfft(half, n=grid.num_points, norm="forward")
    return RealField(grid, v)


def apply_half_multiplier(f: RealField, samples: np.ndarray) -> RealField:
    """Apply multiplier samples given on the nonnegative frequencies."""
    return field_from_half(f.grid, samples * half_spectrum(f))


def _derivative_symbol(grid: Grid) -> np.ndarray:
    """i xi on the half spectrum; the (sign-ambiguous) Nyquist bin is zeroed.

    Built per call rather than cached: a cached symbol would outlive every
    study that used it.
    """
    d = 1j * grid.half_frequencies
    d[-1] = 0.0
    return d


def _smoothing_symbol(grid: Grid) -> np.ndarray:
    """1 / (1 + xi^2), the symbol of (1 - d^2/dx^2)^-1."""
    xi = grid.half_frequencies
    return 1.0 / (1.0 + xi * xi)


def derivative(f: RealField) -> RealField:
    """Spectral derivative; the (sign-ambiguous) Nyquist bin is zeroed."""
    return apply_half_multiplier(f, _derivative_symbol(f.grid))


def helmholtz_inverse(f: RealField) -> RealField:
    """Invert 1 - d^2/dx^2, i.e. divide each mode by 1 + xi^2."""
    return apply_half_multiplier(f, _smoothing_symbol(f.grid))


def _support_bins(grid: Grid, lo: float, hi: float) -> slice:
    """The half-spectrum bins whose frequencies lie in the open interval (lo, hi).

    A profile that vanishes off (lo, hi) needs sampling only there.
    """
    xi = grid.half_frequencies
    return slice(int(np.searchsorted(xi, lo, "right")), int(np.searchsorted(xi, hi, "left")))


def _bin_energy(half: np.ndarray) -> np.ndarray:
    """|half|^2 per rfft bin along the last axis, counted with its multiplicity.

    An interior bin stands for itself and its conjugate, so it counts twice;
    k = 0 and k = N/2 count once.  By discrete Parseval, L times the sum of
    these energies is the grid quadrature of the squared L^2 norm.
    """
    energy = np.square(half.real) + np.square(half.imag)
    energy[..., 1:-1] *= 2.0
    return energy


def _check_p(p) -> float:
    """The one rule for an integrability index: p in [1, inf]."""
    p = float(p)
    if math.isnan(p) or p < 1:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    return p


def lp_norm(f: RealField, p) -> float:
    """Grid quadrature of the L^p norm; p = inf gives the max norm."""
    p = _check_p(p)
    a = np.abs(f.values)
    if math.isinf(p):
        return float(np.max(a))
    if p == 2.0:
        return float(math.sqrt(f.grid.spacing * np.sum(a * a)))
    return float((f.grid.spacing * np.sum(a**p)) ** (1.0 / p))


# -- dealiased products -------------------------------------------------------

def _padded_values(half: np.ndarray, n: int) -> np.ndarray:
    """Values on grid 2n of a half spectrum of grid n, zero-padded, in a
    fresh array.

    The original Nyquist bin splits evenly between +-n/2, which the padded
    half spectrum represents by halving it; that is done on a copy, so
    ``half`` is never modified.  The transform to 2n points pads the n/2 + 1
    bins with zeros itself.
    """
    staged = np.array(half, dtype=complex)
    staged[n // 2] *= 0.5
    return _irfft_into(staged, n=2 * n, norm="forward")


def _half_from_padded(values: np.ndarray, n: int, spectrum=None) -> np.ndarray:
    """Half spectrum on grid n of values on the padded grid 2n, truncated.

    With ``spectrum`` (n + 1 complex) the padded spectrum is written there
    and the result is a view of its first n/2 + 1 bins, valid until the
    buffer's next use; without it the result is a fresh array.
    """
    half = _rfft_into(values, norm="forward", out=spectrum)[: n // 2 + 1]
    if spectrum is None:
        half = half.copy()  # which does not keep the padded spectrum alive
    half[-1] = 0.0  # discard the (unrepresentable) Nyquist content
    return half


def dealiased_half_product(grid: Grid, halves) -> np.ndarray:
    """Half spectrum of the pointwise product of fields given by half spectra.

    Factor-two zero padding makes the retained modes exact for products of
    up to three fields whose spectra fill the grid.
    """
    n = grid.num_points
    acc = _padded_values(halves[0], n)
    for h in halves[1:]:
        acc *= _padded_values(h, n)
    return _half_from_padded(acc, n)


def product(f: RealField, g: RealField) -> RealField:
    """Dealiased pointwise product of two fields."""
    _check_same_grid(f, g)
    return field_from_half(
        f.grid, dealiased_half_product(f.grid, [half_spectrum(f), half_spectrum(g)])
    )


def triple_product(f: RealField, g: RealField, h: RealField) -> RealField:
    """Dealiased pointwise product of three fields (exact for cubic terms)."""
    _check_same_grid(f, g, h)
    halves = [half_spectrum(f), half_spectrum(g), half_spectrum(h)]
    return field_from_half(f.grid, dealiased_half_product(f.grid, halves))
