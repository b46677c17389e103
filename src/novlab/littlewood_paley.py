"""Smooth dyadic filter bank, frequency blocks, Besov norms, commutators.

The bank is built from a single smooth low-pass profile T with T = 1 for
|xi| <= 1 and T = 0 for |xi| >= 4/3, glued by the standard exponential
transition.  The low-pass symbol is chi = T and the ring symbol is
phi(xi) = T(xi/2) - T(xi), so the partition

    chi(xi) + sum_{j>=0} phi(2^-j xi) = T(2^-(J+1) xi)

telescopes exactly and equals 1 on every resolved frequency once
2^(J+1) exceeds the Nyquist frequency.  The ring symbol is supported in
{1 <= |xi| <= 8/3} and equals 1 exactly on {4/3 <= |xi| <= 2}; rings two
indices apart are disjoint.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .spectral import (
    Grid,
    RealField,
    _bin_energy,
    _check_p,
    _check_same_grid,
    _irfft_into,
    _lp_rows,
    _product_half,
    _support_bins,
    half_spectrum,
)

CHI_PLATEAU_END = 1.0
CHI_SUPPORT_END = 4.0 / 3.0
RING_SUPPORT = (1.0, 8.0 / 3.0)
RING_PLATEAU = (4.0 / 3.0, 2.0)


class UnresolvedSpectrumError(ValueError):
    """Field carries significant energy above the resolved dyadic band."""


def smooth_step(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between.

    Built as g(t)/(g(t) + g(1-t)) with g(t) = exp(-1/t) for t > 0.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        g = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        g1 = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return g / (g + g1)


def low_pass_profile(xi):
    """The profile T: identically 1 on |xi| <= 1, identically 0 on |xi| >= 4/3."""
    a = np.abs(np.asarray(xi, dtype=float))
    return smooth_step((CHI_SUPPORT_END - a) / (CHI_SUPPORT_END - CHI_PLATEAU_END))


def ring_profile(xi):
    """The ring symbol T(xi/2) - T(xi); nonnegative, supported in 1 <= |xi| <= 8/3."""
    xi = np.asarray(xi, dtype=float)
    return low_pass_profile(xi / 2) - low_pass_profile(xi)


@dataclass(frozen=True)
class BesovIndex:
    """Indices (s, p) of B^s_{p,inf}; s is finite, p may be math.inf."""

    s: float
    p: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        _check_p(self.p)


@dataclass(frozen=True, eq=False)
class LPFilterBank:
    """Sampled dyadic multipliers for one grid.

    ``blocks[j + 1] = (lo, hi, samples)`` holds block j's multiplier on the
    range lo..hi-1 of its nonzero half-spectrum bins, read-only; ``j_max``
    is the largest dyadic index whose ring intersects the resolved band.
    Because the partition telescopes, blocks -1..j_max reconstruct every
    grid field exactly.  For ``_block_energies``, ``_squares`` holds the
    squared multipliers of the even and of the odd j in one dense row each,
    ``_starts`` where a block or a gap starts in the two rows laid end to
    end, and ``_picks`` which of those segments is block j's.  Every array
    is read-only, since one bank serves every caller on its grid.
    """

    grid: Grid
    blocks: tuple
    j_max: int
    _squares: np.ndarray = field(repr=False)
    _starts: np.ndarray = field(repr=False)
    _picks: np.ndarray = field(repr=False)

    def resolved_band_end(self) -> float:
        """Guard frequency for Besov norms: content above (3/2) 2^j_max sits
        so close to Nyquist that the grid is considered too coarse for it."""
        return 1.5 * 2.0**self.j_max


def top_index(grid: Grid) -> int:
    """j_max, the largest j with 2^j <= Nyquist; a grid with Nyquist below 1 has none."""
    if not grid.nyquist >= 1.0:
        raise ValueError(f"grid Nyquist frequency {grid.nyquist:g} is below 1: no dyadic ring")
    return int(math.floor(math.log2(grid.nyquist)))


def _check_weights(s: float, j_max: int) -> None:
    """The rule that every block weight 2^(j s), -1 <= j <= j_max, is a finite double."""
    if max(-s, j_max * s) >= 1024:
        raise ValueError(f"s = {s:g} overflows a block weight 2^(j s), -1 <= j <= {j_max}")


def build_filter_bank(grid: Grid) -> LPFilterBank:
    """Sample chi and all resolved ring multipliers on the grid.

    Each profile is evaluated only on its support and kept on the range of
    its nonzero samples.  Off it the dense samples are exact zeros (T(xi/2)
    - T(xi) is 1 - 1 or 0 - 0 there, and T underflows near its ends).

    One bank serves each grid while any caller holds it: a second build of
    an equal grid returns the same object, whose arrays are all read-only,
    so the step controller of an integration shares the bank of the study
    that runs it; a bank that no caller holds is freed.
    """
    bank = _banks.get(grid)
    if bank is None:
        bank = _banks[grid] = _sample_bank(grid)
    return bank


_banks = weakref.WeakValueDictionary()


def _sample_bank(grid: Grid) -> LPFilterBank:
    xi = grid.half_frequencies
    j_max = top_index(grid)
    blocks = []
    # rings two indices apart are disjoint, so each parity fills one row;
    # ring 0 vanishes at xi = 0, so the even row's first segment sums
    # zeros, which an empty block reads
    squares = np.zeros((2, xi.size))
    bounds = {0, xi.size}
    for j in range(-1, j_max + 1):
        if j == -1:
            k = _support_bins(grid, -CHI_SUPPORT_END, CHI_SUPPORT_END)
            m = low_pass_profile(xi[k])
        else:
            k = _support_bins(grid, RING_SUPPORT[0] * 2.0**j, RING_SUPPORT[1] * 2.0**j)
            m = ring_profile(xi[k] / 2.0**j)
        nonzero = np.flatnonzero(m)
        lo, hi = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
        m = m[lo:hi]
        m.flags.writeable = False
        lo, hi = k.start + lo, k.start + hi
        blocks.append((lo, hi, m))
        if lo < hi:
            offset = (j % 2) * xi.size
            np.square(m, out=squares[j % 2, lo:hi])
            bounds.update((offset + lo, offset + hi))
    squares.flags.writeable = False
    starts = np.array(sorted(bounds - {2 * xi.size}))
    picks = np.array([np.searchsorted(starts, (j % 2) * xi.size + lo) if lo < hi else 0
                      for j, (lo, hi, _) in enumerate(blocks, start=-1)])
    starts.flags.writeable = False
    picks.flags.writeable = False
    return LPFilterBank(grid, tuple(blocks), j_max, squares, starts, picks)


def _block_half(bank: LPFilterBank, half: np.ndarray, j: int, out=None) -> np.ndarray:
    """Half spectrum of block j (chi(D) f for j = -1, phi(2^-j D) f for
    j >= 0, zero for j <= -2, and an error past j_max, where the grid
    cannot represent the ring) of the field f with half spectrum ``half``,
    or of each field of a stack of half spectra along the last axis,
    written to ``out`` when given and else to a fresh array; only the bins
    of the block's range are multiplied."""
    if j > bank.j_max:
        raise ValueError(f"block {j} exceeds resolved band j_max={bank.j_max}")
    if out is None:
        out = np.empty_like(half)
    out[...] = 0.0
    if j >= -1:
        lo, hi, m = bank.blocks[j + 1]
        np.multiply(m, half[..., lo:hi], out=out[..., lo:hi])
    return out


UNRESOLVED_ENERGY_TOL = 1e-12


def _check_resolved(bank: LPFilterBank, energy: np.ndarray) -> None:
    """Reject bin energies with more than UNRESOLVED_ENERGY_TOL of their total
    above the bank's resolved band; each row of a stack is judged on its own
    total, and a zero row passes."""
    end = bank.resolved_band_end()
    total = np.sum(energy, axis=-1)
    hi = np.sum(energy[..., np.searchsorted(bank.grid.half_frequencies, end, "right"):],
                axis=-1)
    unresolved = np.flatnonzero(hi > UNRESOLVED_ENERGY_TOL * total)
    if unresolved.size:
        row = unresolved[0]
        raise UnresolvedSpectrumError(
            f"fraction {np.ravel(hi)[row] / np.ravel(total)[row]:.2e} of the energy "
            f"lies above frequency {end:g}; grid too coarse for this field"
        )


def _half_lp_norm(grid: Grid, half: np.ndarray, p, values=None):
    """L^p norm of the field with half spectrum ``half``, along the last axis:
    by Parseval for p = 2, else on the grid after one inverse transform.
    With ``values``, rows of at least n + 2 doubles (n the grid's points)
    beside ``half``'s, the work is done there and no array is allocated."""
    if p == 2.0:
        return np.sqrt(grid.length * np.sum(_bin_energy(half, out=values), axis=-1))
    n = grid.num_points
    grid_values = _irfft_into(half, n=n, norm="forward",
                              out=None if values is None else values[..., :n])
    return _lp_rows(grid_values, grid.spacing, p)


def _block_energies(bank: LPFilterBank, energy: np.ndarray, out=None) -> np.ndarray:
    """The block energies sum_k m_j(xi_k)^2 e_k, j = -1 .. j_max, of the bin
    energies e along the last axis, along a new last axis (Parseval: see
    ``weighted_block_norms``), from one multiply by the bank's parity rows
    and one ``reduceat`` over their segments.  With ``out``, rows of at
    least twice the bins in doubles, the products are formed there.  A
    single row of bins is multiplied by one parity row at a time and its
    segments are picked without an ellipsis: the broadcast multiply
    allocates numpy's ufunc buffer on rows shorter than the buffer, even
    with ``out``, and an index after an ellipsis allocates too."""
    shape, m = energy.shape[:-1], energy.shape[-1]
    if energy.ndim == 1:
        products = np.empty(2 * m) if out is None else out[: 2 * m]
        for r in (0, 1):
            np.multiply(bank._squares[r], energy, out=products[r * m : (r + 1) * m])
        return np.add.reduceat(products, bank._starts)[bank._picks]
    if out is not None:
        out = out[..., : 2 * m].reshape(shape + (2, m))
    products = np.multiply(bank._squares, energy[..., None, :], out=out)
    sums = np.add.reduceat(products.reshape(shape + (2 * m,)), bank._starts, axis=-1)
    return sums[..., bank._picks]


def _block_weights(bank: LPFilterBank, s: float) -> np.ndarray:
    """The weights 2^(j s) for j = -1 .. j_max; rejects any that overflows."""
    _check_weights(s, bank.j_max)
    return np.array([2.0 ** (j * s) for j in range(-1, bank.j_max + 1)])


def _block_norms(bank: LPFilterBank, half: np.ndarray, p,
                 check_resolved: bool = True, work=None) -> np.ndarray:
    """The unweighted sequence ||block_j f||_Lp for j = -1 .. j_max of the
    field f with half spectrum ``half``, along a new last axis when ``half``
    is a stack; see ``weighted_block_norms``.  With ``work``, two stacks of
    rows of at least n + 2 doubles beside ``half``'s, the energies, the
    weighted block energies, the blocks and their values are formed there.

    ``check_resolved=False`` skips the near-Nyquist energy guard.  That is
    needed for tiny difference fields (e.g. expansion residuals shrinking
    like t^2) whose genuine content cancels while the ~1e-16-level spectral
    dust of the subtracted terms does not, inflating the relative
    high-frequency fraction without any actual resolution problem."""
    energy = _bin_energy(half, out=None if work is None else work[0])
    if check_resolved:
        _check_resolved(bank, energy)
    if float(p) == 2.0:
        return np.sqrt(bank.grid.length
                       * _block_energies(bank, energy, None if work is None else work[1]))
    if work is None:
        block, values = np.empty_like(half), None
    else:
        block, values = work[0].view(complex)[..., : half.shape[-1]], work[1]
    return np.stack([_half_lp_norm(bank.grid, _block_half(bank, half, j, out=block), p, values)
                     for j in range(-1, bank.j_max + 1)], axis=-1)


def weighted_block_norms(bank: LPFilterBank, f: RealField, idx: BesovIndex) -> np.ndarray:
    """The sequence 2^(j s) ||block_j f||_Lp for j = -1 .. j_max.

    For p = 2 the sequence comes from one forward transform, by discrete
    Parseval: with e_k = mult_k |f_k|^2 the bin energies of the half
    spectrum f_k (mult_k = 2 on interior bins, 1 at k = 0 and k = N/2),

        ||block_j f||_L2^2 = L sum_k m_j(xi_k)^2 e_k,

    which in exact arithmetic is exactly the grid quadrature of the block's
    L^2 norm.  For p != 2 each block is transformed back to the grid and
    measured by its grid quadrature, one inverse transform per block.  A
    field with more than UNRESOLVED_ENERGY_TOL of its energy above the
    bank's resolved band raises UnresolvedSpectrumError.
    """
    _check_same_grid(bank, f)
    weights = _block_weights(bank, idx.s)  # rejects an overflowing s before any transform
    return weights * _block_norms(bank, half_spectrum(f), idx.p)


def besov_norm(bank: LPFilterBank, f: RealField, idx: BesovIndex) -> float:
    """B^s_{p,inf} norm: the largest weighted block norm."""
    return float(np.max(weighted_block_norms(bank, f, idx)))


def _commutator_halves(bank: LPFilterBank, hvx: np.ndarray, u_values: np.ndarray, blocks,
                       work: tuple):
    """Half spectra of [block_j, u] d/dx v = block_j(u v_x) - u block_j(v_x)
    for each j in ``blocks``, with every product formed on the grid.  The
    caller forms what does not depend on j: the half spectrum ``hvx`` of
    v_x, whose Nyquist bin is zero, and the n grid values ``u_values`` of u.
    Precondition: u and v lie below Nyquist/2, where every product is
    alias-free on the grid itself, as dealiased as a padded one.  Stacks of
    u values and v_x spectra along the last axis run row by row.

    The sweep runs in the three buffers ``work`` = (values, spectrum,
    h_uvx) that the caller lends, one row each per field: ``h_uvx`` (n/2 + 1
    complex bins) takes the spectrum of u v_x, formed once; ``values``
    (n + 2 doubles) takes u g_j on the grid, g_j = block_j(v_x), then
    block_j(u v_x); and ``spectrum`` (n/2 + 1 complex bins) takes g_j, then
    the spectrum of u g_j, then the commutator, which is yielded, valid
    until the next block; ``values`` is free while the caller holds it.
    Each block costs one inverse and one forward transform.
    """
    n = bank.grid.num_points
    values, spectrum, h_uvx = work
    product = values[..., :n]
    _irfft_into(hvx, n=n, norm="forward", out=product)
    product *= u_values
    _product_half(product, h_uvx)
    in_block = values.view(complex)[..., : n // 2 + 1]  # block_j(u v_x)
    for j in blocks:
        _block_half(bank, hvx, j, out=spectrum)
        _irfft_into(spectrum, n=n, norm="forward", out=product)
        product *= u_values
        _product_half(product, spectrum)
        np.subtract(_block_half(bank, h_uvx, j, out=in_block), spectrum, out=spectrum)
        yield spectrum


def _commutator_block_norms(bank: LPFilterBank, hvx: np.ndarray, u_values: np.ndarray,
                            p, work: tuple) -> np.ndarray:
    """The unweighted sequence ||[block_j, u] d/dx v||_Lp for j = -1 .. j_max,
    in one sweep from the hoisted v_x spectrum and u grid values of
    ``_commutator_halves``, along a new last axis for stacks; p = 2 takes
    each norm by Parseval, other p on the grid.  Each norm is taken in the
    sweep's lent buffers ``work``, so the sweep allocates no stack."""
    blocks = range(-1, bank.j_max + 1)
    norms = np.empty(u_values.shape[:-1] + (len(blocks),))
    for k, half in enumerate(_commutator_halves(bank, hvx, u_values, blocks, work)):
        norms[..., k] = _half_lp_norm(bank.grid, half, p, work[0])
    return norms
