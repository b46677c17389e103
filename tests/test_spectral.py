import math

import numpy as np
import pytest

from novlab import Grid, GridMismatchError, RealField
from novlab.spectral import _half_phase, derivative, field_from_half, half_spectrum

from helpers import (apply_multiplier, coefficients, helmholtz_inverse, lp_norm, mode, product,
                     random_field)


def _field(grid, coeffs):
    """The real field with coefficients coeff(k), k = 0..N/2."""
    return field_from_half(grid, _half_phase(grid.num_points) * coeffs)


class TestGrid:
    def test_basic_properties(self):
        g = Grid(64, 32.0)
        assert g.spacing == 0.5
        assert g.nyquist == pytest.approx(math.pi * 64 / 32)
        assert g.points[0] == -16.0
        assert g.points[-1] == 16.0 - 0.5

    @pytest.mark.parametrize("n", [8, 15, 100, 2**10 + 1])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(n, 32.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid(64, -1.0)


class TestRealField:
    def test_rejects_nonfinite(self, small_grid):
        vals = np.zeros(small_grid.num_points)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            RealField(small_grid, vals)

    def test_values_immutable(self, small_grid):
        f = RealField(small_grid, np.zeros(small_grid.num_points))
        with pytest.raises(ValueError):
            f.values[0] = 1.0
        with pytest.raises(AttributeError):
            f.values = np.ones(small_grid.num_points)


class TestForwardTransform:
    def test_constant_field(self, small_grid):
        f = RealField(small_grid, np.ones(small_grid.num_points))
        c = coefficients(f)
        assert c[0] == pytest.approx(1.0, abs=1e-14)
        others = np.abs(c).copy()
        others[0] = 0.0
        assert others.max() < 1e-14

    def test_single_cosine_mode(self, small_grid):
        # coeff(-1) = conj(coeff(1)) is built into the half spectrum
        c = coefficients(mode(small_grid, 1))
        assert c[1] == pytest.approx(0.5, abs=1e-14)
        rest = np.abs(c).copy()
        rest[1] = 0.0
        assert rest.max() < 1e-14

    def test_round_trip_random(self, small_grid):
        f = random_field(small_grid, seed=7)
        back = field_from_half(small_grid, half_spectrum(f))
        scale = np.abs(f.values).max()
        assert np.abs(back.values - f.values).max() < 1e-12 * scale

    def test_parseval(self, small_grid):
        f = random_field(small_grid, seed=8)
        w = np.abs(half_spectrum(f)) ** 2
        w[1:-1] *= 2.0  # each interior bin stands for k and -k
        lhs = small_grid.spacing * np.sum(f.values**2)
        rhs = small_grid.length * np.sum(w)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestInverseTransform:
    def test_zero_coeffs(self, small_grid):
        c = np.zeros(small_grid.num_points // 2 + 1, complex)
        assert np.all(_field(small_grid, c).values == 0.0)

    def test_cosine_from_coeffs(self, small_grid):
        coeffs = np.zeros(small_grid.num_points // 2 + 1, complex)
        coeffs[1] = 0.5
        f = _field(small_grid, coeffs)
        expected = mode(small_grid, 1)
        assert np.abs(f.values - expected.values).max() < 1e-13

    def test_sine_from_coeffs(self, small_grid):
        coeffs = np.zeros(small_grid.num_points // 2 + 1, complex)
        coeffs[1] = -0.5j
        f = _field(small_grid, coeffs)
        expected = mode(small_grid, 1, kind="sin")
        assert np.abs(f.values - expected.values).max() < 1e-13


class TestApplyMultiplier:
    # the oracles' even multiplier, on which their blocks rest
    def test_identity(self, small_grid):
        f = random_field(small_grid, seed=9)
        out = apply_multiplier(f, np.ones_like(small_grid.half_frequencies))
        assert np.abs(out.values - f.values).max() < 1e-14

    def test_single_mode_diagonal_action(self, small_grid):
        k = 5
        xi0 = 2 * math.pi * k / small_grid.length
        f = mode(small_grid, k)
        xi = small_grid.half_frequencies
        out = apply_multiplier(f, 1.0 / (1.0 + xi**2))
        expected = f.values / (1.0 + xi0**2)
        assert np.abs(out.values - expected).max() < 1e-14

    def test_empty_band_annihilates(self, small_grid):
        f = mode(small_grid, 3)
        xi0 = 2 * math.pi * 3 / small_grid.length
        xi = small_grid.half_frequencies
        out = apply_multiplier(f, ((xi > 10 * xi0) & (xi < 20 * xi0)).astype(float))
        assert np.abs(out.values).max() < 1e-14


class TestDerivative:
    @pytest.mark.parametrize("k", [1, 4, 31])
    def test_cosine(self, small_grid, k):
        xi0 = 2 * math.pi * k / small_grid.length
        out = derivative(mode(small_grid, k))
        expected = -xi0 * mode(small_grid, k, kind="sin").values
        assert np.abs(out.values - expected).max() < 1e-11 * xi0

    def test_sine(self, small_grid):
        k = 7
        xi0 = 2 * math.pi * k / small_grid.length
        out = derivative(mode(small_grid, k, kind="sin"))
        expected = xi0 * mode(small_grid, k).values
        assert np.abs(out.values - expected).max() < 1e-12 * xi0

    def test_constant(self, small_grid):
        f = RealField(small_grid, np.full(small_grid.num_points, 3.7))
        assert np.abs(derivative(f).values).max() < 1e-13


class TestHelmholtzInverse:
    # the oracle for G, against which the kernel's terms are checked
    def test_single_mode(self, small_grid):
        k = 6
        xi0 = 2 * math.pi * k / small_grid.length
        out = helmholtz_inverse(mode(small_grid, k))
        expected = mode(small_grid, k).values / (1.0 + xi0**2)
        assert np.abs(out.values - expected).max() < 1e-14

    def test_constant(self, small_grid):
        f = RealField(small_grid, np.full(small_grid.num_points, 2.5))
        assert np.abs(helmholtz_inverse(f).values - 2.5).max() < 1e-13

    def test_composition_with_helmholtz(self, small_grid):
        f = random_field(small_grid, seed=10)
        g = apply_multiplier(helmholtz_inverse(f), 1.0 + small_grid.half_frequencies**2)
        scale = np.abs(f.values).max()
        assert np.abs(g.values - f.values).max() < 1e-10 * scale

    def test_commutes_with_derivative(self, small_grid):
        f = random_field(small_grid, seed=11)
        a = derivative(helmholtz_inverse(f))
        b = helmholtz_inverse(derivative(f))
        scale = np.abs(a.values).max()
        assert np.abs(a.values - b.values).max() < 1e-12 * scale


class TestLpNorm:
    def test_constant_l2(self, small_grid):
        f = RealField(small_grid, np.ones(small_grid.num_points))
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(small_grid.length), rel=1e-14)

    def test_sine_sup(self, small_grid):
        f = mode(small_grid, 1, kind="sin")
        assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-14)

    def test_zero_field(self, small_grid):
        f = RealField(small_grid, np.zeros(small_grid.num_points))
        for p in (1, 2, 3.5, math.inf):
            assert lp_norm(f, p) == 0.0

    def test_rejects_p_below_one(self, small_grid):
        f = mode(small_grid, 1)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_homogeneity_exact_for_dyadic_scalar(self, small_grid, p):
        f = random_field(small_grid, seed=12)
        assert lp_norm(2.0 * f, p) == 2.0 * lp_norm(f, p)

    def test_p1_norm_is_the_plain_quadrature(self, small_grid):
        f = random_field(small_grid, seed=15)
        assert lp_norm(f, 1) == small_grid.spacing * np.sum(np.abs(f.values))

    def test_homogeneity_general(self, small_grid):
        f = random_field(small_grid, seed=13)
        c = -1.7
        assert lp_norm(c * f, 3.3) == pytest.approx(abs(c) * lp_norm(f, 3.3), rel=1e-13)


def _full_spectrum(f):
    """Coefficients of all wavenumbers in numpy fft order, without the phase
    of the left endpoint (a convolution carries that phase through)."""
    return np.fft.fft(f.values) / f.grid.num_points


def _convolution_oracle(grid, fields):
    """Spectral truncation of the exact product via integer-wavenumber
    convolution of the full coefficient arrays (no wraparound)."""
    n = grid.num_points
    specs = []
    for f in fields:
        c = np.fft.fftshift(_full_spectrum(f))  # index k = -n/2 .. n/2-1
        specs.append(c)
    acc = specs[0]
    for c in specs[1:]:
        acc = np.convolve(acc, c)
    center = len(fields) * (n // 2)  # index of wavenumber zero after m convolutions
    out = np.zeros(n, complex)
    for k in range(-n // 2 + 1, n // 2):
        out[k % n] = acc[center + k]
    return out


class TestProducts:
    # the oracle products, zero-padded to 2n points
    def test_multiply_by_one(self, small_grid):
        f = random_field(small_grid, seed=14)
        one = RealField(small_grid, np.ones(small_grid.num_points))
        out = product(f, one)
        assert np.abs(out.values - f.values).max() < 1e-13

    def test_product_to_sum_identity(self, small_grid):
        k = 9
        f = mode(small_grid, k)
        out = product(f, f)
        expected = 0.5 * (1.0 + mode(small_grid, 2 * k).values)
        assert np.abs(out.values - expected).max() < 1e-13

    def test_triple_product_trig_expansion(self, small_grid):
        # cos(a x) cos(b x) cos(c x) expanded into four cosines
        ka, kb, kc = 3, 5, 11
        a = 2 * math.pi * ka / small_grid.length
        b = 2 * math.pi * kb / small_grid.length
        c = 2 * math.pi * kc / small_grid.length
        out = product(
            mode(small_grid, ka), mode(small_grid, kb), mode(small_grid, kc)
        )
        x = small_grid.points
        expected = 0.25 * (
            np.cos((a + b + c) * x)
            + np.cos((a + b - c) * x)
            + np.cos((a - b + c) * x)
            + np.cos((a - b - c) * x)
        )
        assert np.abs(out.values - expected).max() < 1e-12

    def test_grid_mismatch(self, small_grid):
        other = Grid(2**10, 64.0)
        f = mode(small_grid, 1)
        g = mode(other, 1)
        with pytest.raises(GridMismatchError):
            f + g

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_triple_product_vs_convolution_oracle(self, n):
        grid = Grid(n, 8.0)
        fs = [random_field(grid, seed=20 + i, cutoff_fraction=0.9) for i in range(3)]
        out = _full_spectrum(product(*fs))
        oracle = _convolution_oracle(grid, fs)
        scale = max(np.abs(oracle).max(), 1e-30)
        assert np.abs(out - oracle).max() < 1e-12 * scale

    def test_pairwise_product_vs_convolution_oracle(self):
        grid = Grid(32, 8.0)
        fs = [random_field(grid, seed=30 + i, cutoff_fraction=0.9) for i in range(2)]
        out = _full_spectrum(product(*fs))
        oracle = _convolution_oracle(grid, fs)
        scale = np.abs(oracle).max()
        assert np.abs(out - oracle).max() < 1e-12 * scale
