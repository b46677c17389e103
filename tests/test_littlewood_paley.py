import math
import weakref

import numpy as np
import pytest

from novlab import (
    BesovIndex,
    Grid,
    IllposedDataParams,
    RealField,
    UnresolvedSpectrumError,
    besov_norm,
    build_initial_data,
    modulated_bump,
    weighted_block_norms,
)
from novlab.littlewood_paley import (
    CHI_SUPPORT_END,
    RING_PLATEAU,
    RING_SUPPORT,
    _block_energies,
    _block_half,
    _block_norms,
    _block_weights,
    _commutator_block_norms,
    _commutator_halves,
    build_filter_bank,
    low_pass_profile,
    ring_profile,
    smooth_step,
)
from novlab.spectral import (_bin_energy, _derivative_symbol, derivative, field_from_half,
                             half_spectrum)

from helpers import LAMBDA, block_multiplier, commutator, dyadic_block, lp_norm, mode, random_field

LAMBDAS = (67.0 / 48.0, 68.0 / 48.0, 69.0 / 48.0)


@pytest.fixture(scope="module")
def desk_bank():
    """The filter bank of the desk grid: 2^17 points on a box of length 128."""
    return build_filter_bank(Grid(2**17, 128.0))


@pytest.fixture(scope="module")
def desk_data(desk_bank):
    """The lacunary data of the default studies on the desk grid."""
    params = IllposedDataParams(s=3.0, p=2.0, lam=LAMBDA, num_terms=12, grid=desk_bank.grid)
    return build_initial_data(params)


def block_norms_by_quadrature(bank, f, idx):
    """2^(j s) ||block_j f||_Lp by grid quadrature of each block."""
    return [
        2.0 ** (j * idx.s) * lp_norm(dyadic_block(bank, f, j), idx.p)
        for j in range(-1, bank.j_max + 1)
    ]


class TestProfiles:
    def test_smooth_step_endpoints(self):
        t = np.array([-1.0, 0.0, 1e-4, 0.5, 1 - 1e-4, 1.0, 2.0])
        v = smooth_step(t)
        assert v[0] == 0.0 and v[1] == 0.0
        assert v[5] == 1.0 and v[6] == 1.0
        assert np.all(np.diff(v) >= 0)

    def test_low_pass_plateau_and_support(self):
        assert low_pass_profile(0.0) == 1.0
        assert low_pass_profile(1.0) == 1.0
        assert low_pass_profile(-0.7) == 1.0
        assert low_pass_profile(CHI_SUPPORT_END) == 0.0
        assert low_pass_profile(5.0) == 0.0

    def test_ring_plateau_value(self):
        # equals one exactly on the declared plateau, in particular at 1.4
        assert ring_profile(1.4) == 1.0
        assert ring_profile(RING_PLATEAU[0]) == 1.0
        assert ring_profile(RING_PLATEAU[1]) == 1.0

    def test_ring_support(self):
        xi = np.linspace(0, 4, 4001)
        v = ring_profile(xi)
        inside = (xi >= RING_SUPPORT[0]) & (xi <= RING_SUPPORT[1])
        assert np.all(v[~inside] == 0.0)
        assert np.all(v >= 0.0) and np.all(v <= 1.0)


def dense_blocks(bank):
    """Every block multiplier j = -1 .. j_max, dense, one row per block."""
    return np.array([block_multiplier(bank, j) for j in range(-1, bank.j_max + 1)])


class TestFilterBank:
    def test_chi_at_origin(self, small_bank):
        assert block_multiplier(small_bank, -1)[0] == 1.0

    def test_chi_support(self, small_bank, small_grid):
        xi = small_grid.half_frequencies
        assert np.all(block_multiplier(small_bank, -1)[xi > CHI_SUPPORT_END] < 1e-15)

    def test_ring_plateau_sampled_exactly(self, small_bank, small_grid):
        xi = small_grid.half_frequencies
        for j in range(small_bank.j_max + 1):
            scaled = xi / 2.0**j
            plateau = (scaled >= RING_PLATEAU[0]) & (scaled <= RING_PLATEAU[1])
            assert np.all(block_multiplier(small_bank, j)[plateau] == 1.0)

    def test_partition_of_unity(self, small_bank, small_grid):
        total = dense_blocks(small_bank).sum(axis=0)
        assert np.abs(total - 1.0).max() < 1e-12

    def test_partition_at_specific_frequency(self, small_bank, small_grid):
        xi = small_grid.half_frequencies
        k = int(np.argmin(np.abs(xi - 10.0)))
        total = dense_blocks(small_bank)[:, k].sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_near_orthogonality_of_rings(self, small_bank):
        for j in range(small_bank.j_max + 1):
            for jp in range(j + 2, small_bank.j_max + 1):
                assert np.all(block_multiplier(small_bank, j)
                              * block_multiplier(small_bank, jp) == 0.0)
                # stored ranges two indices apart are disjoint too
                assert small_bank.blocks[j + 1][1] <= small_bank.blocks[jp + 1][0]

    def test_j_max_spans_resolved_band(self, small_grid, small_bank):
        assert 2.0**small_bank.j_max <= small_grid.nyquist
        assert 2.0 ** (small_bank.j_max + 1) > small_grid.nyquist

    @pytest.mark.parametrize("num_points,length", [(2**12, 1e6), (16, 64.0)])
    def test_rejects_grid_without_ring(self, num_points, length):
        # Nyquist pi N / L below 1: not even ring 0 is resolved
        grid = Grid(num_points, length)
        assert grid.nyquist < 1
        with pytest.raises(ValueError, match="Nyquist frequency .* below 1"):
            build_filter_bank(grid)

    @pytest.mark.parametrize("bank_name", ["small_bank", "desk_bank"])
    def test_block_ranges_cover_every_multiplier(self, bank_name, request):
        # a multiplier sample outside its stored range would drop energy
        # from the block norms without any other symptom
        bank = request.getfixturevalue(bank_name)
        assert len(bank.blocks) == bank.j_max + 2
        for j, (lo, hi, samples) in enumerate(bank.blocks, start=-1):
            m = block_multiplier(bank, j)
            assert np.all(m[:lo] == 0.0) and np.all(m[hi:] == 0.0)
            # the range is exactly that of the nonzero samples
            assert m[lo] != 0.0 and m[hi - 1] != 0.0
            assert np.array_equal(samples, m[lo:hi])
        # index ranges, not a dense (j_max + 1) x (N/2 + 1) matrix
        dense_size = (bank.j_max + 1) * bank.grid.half_frequencies.size
        assert sum(samples.size for _, _, samples in bank.blocks) < 0.2 * dense_size

    @pytest.mark.parametrize("bank_name", ["small_bank", "medium_bank", "desk_bank"])
    def test_support_sampling_matches_dense_profiles(self, bank_name, request):
        # the bank evaluates each profile on its support only; off it the
        # dense formula gives exact zeros, so the arrays agree bit for bit
        bank = request.getfixturevalue(bank_name)
        xi = bank.grid.half_frequencies
        dense = np.array([low_pass_profile(xi)]
                         + [ring_profile(xi / 2.0**j) for j in range(bank.j_max + 1)])
        assert np.array_equal(dense_blocks(bank), dense)
        assert np.array_equal(np.signbit(dense_blocks(bank)), np.signbit(dense))

    def test_bank_is_immutable(self, small_bank):
        with pytest.raises(AttributeError):
            small_bank.j_max = 3
        with pytest.raises(ValueError):
            small_bank.blocks[1][2][0] = 2.0
        # the arrays of _block_energies too, since every caller on the grid
        # shares the bank
        for rows in (small_bank._squares, small_bank._starts, small_bank._picks):
            with pytest.raises(ValueError):
                rows[0] = 1

    def test_one_bank_per_grid(self, small_grid, small_bank):
        # equal grids share one bank while it is held, the step controller's
        # too, and a bank that no caller holds is freed
        from novlab.solver import _StepNorm

        assert build_filter_bank(Grid(small_grid.num_points, small_grid.length)) is small_bank
        assert _StepNorm(small_grid, 3.0).bank is small_bank
        other = build_filter_bank(Grid(small_grid.num_points, 2 * small_grid.length))
        assert other is not small_bank
        held = weakref.ref(other)
        del other
        assert held() is None

    @pytest.mark.parametrize("bank_name", ["small_bank", "desk_bank"])
    def test_block_half_matches_dense_multiplier(self, bank_name, request):
        # the range-wise product equals the dense one bit for bit
        bank = request.getfixturevalue(bank_name)
        rng = np.random.default_rng(11)
        size = bank.grid.half_frequencies.size
        h = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        for j in range(-1, bank.j_max + 1):
            assert np.array_equal(_block_half(bank, h, j), block_multiplier(bank, j) * h)
        assert np.array_equal(_block_half(bank, h, -2), np.zeros_like(h))
        with pytest.raises(ValueError, match="resolved"):
            _block_half(bank, h, bank.j_max + 1)

    def test_block_multiplier_follows_the_block_rule(self, small_bank):
        # _block_half gives zero below j = -1 (not a ring picked by a
        # negative index), also into a used ``out``, and a ValueError, not an
        # IndexError, past j_max
        h = np.ones(small_bank.grid.half_frequencies.size, dtype=complex)
        for j in (-2, -3):
            assert np.array_equal(_block_half(small_bank, h, j), np.zeros_like(h))
            out = np.full_like(h, 7.0)
            assert _block_half(small_bank, h, j, out=out) is out
            assert np.array_equal(out, np.zeros_like(h))
        with pytest.raises(ValueError, match="resolved"):
            _block_half(small_bank, h, small_bank.j_max + 1)


class TestDyadicBlock:
    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_band_identity(self, medium_grid, medium_bank, lam, n):
        f = modulated_bump(medium_grid, lam * 2.0**n)
        out = dyadic_block(medium_bank, f, n)
        assert lp_norm(out - f, 2) < 1e-10 * lp_norm(f, 2)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_off_band_vanishing(self, medium_grid, medium_bank, lam):
        n = 5
        f = modulated_bump(medium_grid, lam * 2.0**n)
        scale = lp_norm(f, 2)
        for j in range(3, medium_bank.j_max + 1):
            if j == n:
                continue
            assert lp_norm(dyadic_block(medium_bank, f, j), 2) < 1e-10 * scale

    def test_zero_field(self, small_grid, small_bank):
        z = RealField(small_grid, np.zeros(small_grid.num_points))
        assert lp_norm(dyadic_block(small_bank, z, 4), 2) == 0.0

    def test_deep_negative_index_gives_zero(self, small_grid, small_bank):
        f = random_field(small_grid, seed=3)
        assert np.all(dyadic_block(small_bank, f, -2).values == 0.0)
        assert np.all(dyadic_block(small_bank, f, -7).values == 0.0)

    def test_unresolved_band_rejected(self, small_grid, small_bank):
        f = random_field(small_grid, seed=4)
        with pytest.raises(ValueError, match="resolved"):
            dyadic_block(small_bank, f, small_bank.j_max + 1)

    def test_reconstruction(self, small_grid, small_bank):
        f = random_field(small_grid, seed=5)
        total = dyadic_block(small_bank, f, -1)
        for j in range(small_bank.j_max + 1):
            total = total + dyadic_block(small_bank, f, j)
        assert lp_norm(total - f, 2) < 1e-10 * lp_norm(f, 2)

    def test_block_near_orthogonality(self, small_grid, small_bank):
        f = random_field(small_grid, seed=6)
        for j in range(-1, small_bank.j_max + 1):
            bj = dyadic_block(small_bank, f, j)
            for jp in range(j + 2, small_bank.j_max + 1):
                assert lp_norm(dyadic_block(small_bank, bj, jp), 2) < 1e-12


class TestBesovNorm:
    def test_zero_field(self, small_grid, small_bank):
        z = RealField(small_grid, np.zeros(small_grid.num_points))
        assert besov_norm(small_bank, z, BesovIndex(1.5, 2)) == 0.0

    def test_homogeneity(self, small_grid, small_bank):
        f = random_field(small_grid, seed=20)
        idx = BesovIndex(0.5, 2)
        assert besov_norm(small_bank, 2.0 * f, idx) == pytest.approx(
            2.0 * besov_norm(small_bank, f, idx), rel=1e-13
        )

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_lacunary_term_norm_independent_of_band(self, medium_grid, medium_bank, p):
        # 2% at this small box: the bump's wrap-around tail (~4e-4 at L=64)
        # enters the L^1 norm; the 1% contract is checked at full scale in
        # the acceptance suite where the tail is ~5e-6.
        s, lam = 3.0, 68.0 / 48.0
        vals = []
        for n in range(4, medium_bank.j_max):
            g = 2.0 ** (-n * (s - 1)) * modulated_bump(medium_grid, lam * 2.0**n)
            vals.append(besov_norm(medium_bank, g, BesovIndex(s - 1, p)))
        vals = np.array(vals)
        assert vals.max() / vals.min() - 1.0 < 0.02

    def test_norm_is_largest_weighted_block(self, small_grid, small_bank):
        f = random_field(small_grid, seed=21)
        idx = BesovIndex(1.0, 2)
        seq = weighted_block_norms(small_bank, f, idx)
        assert besov_norm(small_bank, f, idx) == seq.max()
        assert seq.argmax() > 0  # a ring, not the low-pass block, carries it

    def test_block_weights_must_be_finite(self, small_grid, small_bank):
        # every 2^(j s), -1 <= j <= j_max = 7, is a finite double exactly
        # when -s < 1024 and 7 s < 1024
        assert small_bank.j_max == 7
        f = random_field(small_grid, seed=21)
        for s in (-1023.0, 146.0):
            weighted_block_norms(small_bank, f, BesovIndex(s, 2))
        for s in (-1024.0, 147.0):
            with pytest.raises(ValueError, match="overflows a block weight"):
                weighted_block_norms(small_bank, f, BesovIndex(s, 2))

    def test_unresolved_spectrum_error(self, small_grid, small_bank):
        # single mode one bin above the guard frequency
        xi = small_grid.half_frequencies
        guard = small_bank.resolved_band_end()
        k = int(np.searchsorted(xi, guard) + 1)
        half = np.zeros(xi.size, complex)
        half[k] = 1.0
        f = field_from_half(small_grid, half)
        with pytest.raises(UnresolvedSpectrumError):
            besov_norm(small_bank, f, BesovIndex(1.0, 2))

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_weighted_block_norms_consistency(self, small_grid, small_bank, p):
        # p = 2 compares Parseval with quadrature, other p the block loop
        f = random_field(small_grid, seed=22)
        idx = BesovIndex(1.2, p)
        seq = weighted_block_norms(small_bank, f, idx)
        direct = block_norms_by_quadrature(small_bank, f, idx)
        assert np.allclose(seq, direct, rtol=1e-13, atol=0)

    def test_parseval_block_norms_on_desk_data(self, desk_bank, desk_data):
        for f, idx in ((desk_data.rho, BesovIndex(2.0, 2)), (desk_data.u, BesovIndex(3.0, 2))):
            seq = weighted_block_norms(desk_bank, f, idx)
            direct = block_norms_by_quadrature(desk_bank, f, idx)
            assert np.allclose(seq, direct, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_matches_weighted_half_spectrum_entry_point(self, small_grid, small_bank, p):
        f = random_field(small_grid, seed=24)
        idx = BesovIndex(1.7, p)
        seq = weighted_block_norms(small_bank, f, idx)
        entry = _block_weights(small_bank, idx.s) * _block_norms(small_bank, half_spectrum(f), p)
        assert np.array_equal(seq, entry)

    @pytest.mark.parametrize("num_points,length", [(2**12, 64.0), (64, 2 * math.pi)])
    def test_block_energies_match_the_per_block_sums(self, num_points, length):
        # the parity rows against a sum over each block's own range, in a
        # stack and row by row, with energy in every bin; on 64 points in a
        # box of 2 pi the Nyquist frequency is 2^5, where ring 5 has no
        # nonzero sample
        bank = build_filter_bank(Grid(num_points, length))
        energy = _bin_energy(np.stack([half_spectrum(random_field(bank.grid, k, 1.0))
                                       for k in (31, 32)]))
        per_block = np.stack([np.sum(np.square(m) * energy[:, lo:hi], axis=-1)
                              for lo, hi, m in bank.blocks], axis=-1)
        stacked = _block_energies(bank, energy)
        assert stacked.shape == per_block.shape
        assert np.allclose(stacked, per_block, rtol=1e-15, atol=0)
        assert np.array_equal(stacked[1], _block_energies(bank, energy[1]))
        if length == 2 * math.pi:
            lo, hi, _ = bank.blocks[-1]
            assert lo == hi and np.all(stacked[:, -1] == 0.0)

    @pytest.mark.parametrize("p", [2, math.inf])
    def test_block_norm_transform_count(self, small_grid, small_bank, count_ffts, p):
        f = random_field(small_grid, seed=23)
        counts = count_ffts()
        weighted_block_norms(small_bank, f, BesovIndex(1.0, p))
        inverse = 0 if p == 2 else small_bank.j_max + 2
        assert counts == {"rfft": 1, "irfft": inverse}

    @pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
    def test_index_rejects_nonfinite_s(self, s):
        with pytest.raises(ValueError, match="s must be finite"):
            BesovIndex(s, 2)


class TestBernstein:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_derivative_bound_on_block_limited_corpus(self, small_grid, small_bank, p):
        rng = np.random.default_rng(99)
        xi = small_grid.half_frequencies
        for trial in range(20):
            j = int(rng.integers(2, small_bank.j_max + 1))
            # random spectrum inside ring j
            inside = (xi >= RING_SUPPORT[0] * 2.0**j) & (xi <= RING_SUPPORT[1] * 2.0**j)
            half = np.where(
                inside, rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size), 0.0
            )
            half[-1] = 0.0
            f = field_from_half(small_grid, half / small_grid.num_points)
            ratio = lp_norm(derivative(f), p) / lp_norm(f, p)
            assert ratio <= 3.0 * 2.0**j


def sweep_work(grid):
    """Fresh buffers (values, spectrum, h_uvx) for one field's commutator sweep."""
    n = grid.num_points
    return (np.empty(n + 2), np.empty(n // 2 + 1, dtype=complex),
            np.empty(n // 2 + 1, dtype=complex))


def commutator_norms(bank, u, v, p):
    """The corpus's commutator sweep (``_commutator_block_norms``) of (u, v)."""
    hvx = _derivative_symbol(bank.grid) * half_spectrum(v)
    return _commutator_block_norms(bank, hvx, u.values, p, sweep_work(bank.grid))


class TestCommutator:
    def test_constant_u_commutes(self, small_grid, small_bank):
        u = RealField(small_grid, np.full(small_grid.num_points, 2.0))
        v = random_field(small_grid, seed=30)
        assert np.max(commutator_norms(small_bank, u, v, math.inf)) < 1e-12

    def test_constant_v_gives_zero(self, small_grid, small_bank):
        u = random_field(small_grid, seed=31)
        v = RealField(small_grid, np.full(small_grid.num_points, 1.5))
        assert np.max(commutator_norms(small_bank, u, v, math.inf)) < 1e-13

    @pytest.mark.parametrize("p", [1, 2, math.inf],
                             ids=["on-grid-1", "on-grid-2", "on-grid-inf"])
    def test_commutator_block_norms_match_per_block(self, small_grid, small_bank, p):
        # u and v lie below Nyquist/4, so the sweep forms the products on the
        # grid itself; the oracle pads them to 2n points
        u = random_field(small_grid, seed=34)
        v = random_field(small_grid, seed=35)
        idx = BesovIndex(3.0, p)
        seq = _block_weights(small_bank, idx.s) * commutator_norms(small_bank, u, v, p)
        direct = [
            2.0 ** (j * idx.s) * lp_norm(commutator(small_bank, j, u, v), p)
            for j in range(-1, small_bank.j_max + 1)
        ]
        # the products lie below Nyquist/2, under block j_max's ring, where
        # both paths hold only roundoff, in different bits
        assert RING_SUPPORT[0] * 2.0**small_bank.j_max > small_grid.nyquist / 2
        assert max(seq[-1], direct[-1]) < 1e-12 * max(direct)
        assert np.allclose(seq[:-1], direct[:-1], rtol=1e-12, atol=0)

    def test_matches_public_composition(self, small_grid, small_bank):
        # the sweep's commutator field, not only its norm, against the
        # oracle's composition block_j(u v_x) - u block_j(v_x)
        u = random_field(small_grid, seed=32)
        v = random_field(small_grid, seed=33)
        j = 4
        expected = commutator(small_bank, j, u, v)
        hvx = _derivative_symbol(small_grid) * half_spectrum(v)
        (half,) = _commutator_halves(small_bank, hvx, u.values, [j], sweep_work(small_grid))
        out = field_from_half(small_grid, half)
        scale = max(lp_norm(expected, math.inf), 1e-30)
        assert lp_norm(out - expected, math.inf) < 1e-12 * scale
