import math
import weakref

import numpy as np
import pytest

from novlab import (
    Grid,
    IllposedDataParams,
    RealField,
    UnresolvedSpectrumError,
    build_initial_data,
    modulated_bump,
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
from novlab.experiments import _corpus_band
from novlab.spectral import (_bin_energy, _derivative_symbol, derivative, field_from_half,
                             half_spectrum)

from helpers import (LAMBDA, besov_norm, block_multiplier, commutator, dyadic_block, lp_norm,
                     mode, random_band_limited_values, random_field, weighted_block_norms)

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


def block_norms_by_quadrature(bank, f, s, p):
    """2^(j s) ||block_j f||_Lp by grid quadrature of each block."""
    return [
        2.0 ** (j * s) * lp_norm(dyadic_block(bank, f, j), p)
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

    def test_one_bank_per_grid(self, small_grid, small_bank, monkeypatch):
        # equal grids share one bank while it is held, the step controller's
        # too, and a bank that no caller holds is freed
        from novlab import SolverConfig, SystemState, integrate, littlewood_paley

        equal = Grid(small_grid.num_points, small_grid.length)
        assert build_filter_bank(equal) is small_bank
        # the controller measures on the held bank, so it samples none
        monkeypatch.setattr(littlewood_paley, "_sample_bank", None)
        f = mode(equal, 3)
        assert integrate(SystemState(rho=f, u=f), SolverConfig(t_final=1e-4)).errors
        monkeypatch.undo()
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
        assert besov_norm(small_bank, z, 1.5, 2) == 0.0

    def test_homogeneity(self, small_grid, small_bank):
        f = random_field(small_grid, seed=20)
        assert besov_norm(small_bank, 2.0 * f, 0.5, 2) == pytest.approx(
            2.0 * besov_norm(small_bank, f, 0.5, 2), rel=1e-13
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
            vals.append(besov_norm(medium_bank, g, s - 1, p))
        vals = np.array(vals)
        assert vals.max() / vals.min() - 1.0 < 0.02

    def test_norm_is_largest_weighted_block(self, small_grid, small_bank):
        f = random_field(small_grid, seed=21)
        seq = weighted_block_norms(small_bank, f, 1.0, 2)
        assert besov_norm(small_bank, f, 1.0, 2) == seq.max()
        assert seq.argmax() > 0  # a ring, not the low-pass block, carries it

    def test_block_weights_must_be_finite(self, small_grid, small_bank, count_ffts):
        # every 2^(j s), -1 <= j <= j_max = 7, is a finite double exactly
        # when -s < 1024 and 7 s < 1024
        assert small_bank.j_max == 7
        f = random_field(small_grid, seed=21)
        for s in (-1023.0, 146.0):
            weighted_block_norms(small_bank, f, s, 2)
        counts = count_ffts()
        for s in (-1024.0, 147.0):
            with pytest.raises(ValueError, match="overflows a block weight"):
                weighted_block_norms(small_bank, f, s, 2)
            with pytest.raises(ValueError, match="overflows a block weight"):
                _block_weights(small_bank, s)
        assert counts == {"rfft": 0, "irfft": 0}  # refused before any transform

    def test_unresolved_spectrum_error(self, small_grid, small_bank):
        # single mode one bin above the guard frequency
        xi = small_grid.half_frequencies
        guard = small_bank.resolved_band_end()
        k = int(np.searchsorted(xi, guard) + 1)
        half = np.zeros(xi.size, complex)
        half[k] = 1.0
        f = field_from_half(small_grid, half)
        with pytest.raises(UnresolvedSpectrumError):
            besov_norm(small_bank, f, 1.0, 2)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_weighted_block_norms_consistency(self, small_grid, small_bank, p):
        # p = 2 compares Parseval with quadrature, other p the block loop
        f = random_field(small_grid, seed=22)
        seq = weighted_block_norms(small_bank, f, 1.2, p)
        direct = block_norms_by_quadrature(small_bank, f, 1.2, p)
        assert np.allclose(seq, direct, rtol=1e-13, atol=0)

    def test_parseval_block_norms_on_desk_data(self, desk_bank, desk_data):
        for f, s in ((desk_data.rho, 2.0), (desk_data.u, 3.0)):
            seq = weighted_block_norms(desk_bank, f, s, 2)
            direct = block_norms_by_quadrature(desk_bank, f, s, 2)
            assert np.allclose(seq, direct, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_matches_weighted_half_spectrum_entry_point(self, small_grid, small_bank, p):
        f = random_field(small_grid, seed=24)
        seq = weighted_block_norms(small_bank, f, 1.7, p)
        entry = _block_weights(small_bank, 1.7) * _block_norms(small_bank, half_spectrum(f), p)
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
        weighted_block_norms(small_bank, f, 1.0, p)
        inverse = 0 if p == 2 else small_bank.j_max + 2
        assert counts == {"rfft": 1, "irfft": inverse}


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


def sweep_work(grid, hvx):
    """Fresh buffers (values, spectrum, h_uvx) for one field's commutator
    sweep, with the grid values of v_x (half spectrum ``hvx``) in the first
    n of ``values``, as the sweep takes them."""
    n = grid.num_points
    values = np.empty(n + 2)
    values[:n] = field_from_half(grid, hvx).values
    return values, np.empty(n // 2 + 1, dtype=complex), np.empty(n // 2 + 1, dtype=complex)


def commutator_norms(bank, u, v, p, band=None, u_band=None):
    """The corpus's commutator sweep (``_commutator_block_norms``) of (u, v),
    which skips the blocks from v's band ``band`` up and, by u's band
    ``u_band``, forms the products that lie below n/4 on n/2 points; by
    default it does neither."""
    hvx = _derivative_symbol(bank.grid) * half_spectrum(v)
    bands = tuple(hvx.size if b is None else b for b in (u_band, band))
    return _commutator_block_norms(bank, hvx, bands, u.values, p, sweep_work(bank.grid, hvx))


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
        seq = _block_weights(small_bank, 3.0) * commutator_norms(small_bank, u, v, p)
        direct = [
            2.0 ** (j * 3.0) * lp_norm(commutator(small_bank, j, u, v), p)
            for j in range(-1, small_bank.j_max + 1)
        ]
        # the products lie below Nyquist/2, under block j_max's ring, where
        # both paths hold only roundoff, in different bits
        assert RING_SUPPORT[0] * 2.0**small_bank.j_max > small_grid.nyquist / 2
        assert max(seq[-1], direct[-1]) < 1e-12 * max(direct)
        assert np.allclose(seq[:-1], direct[:-1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p", [1, 2, math.inf],
                             ids=["half-grid-1", "half-grid-2", "half-grid-inf"])
    def test_half_grid_blocks_match_the_padded_oracle(self, small_grid, small_bank, p,
                                                      count_ffts):
        # u and v lie below bin 512.  With u's band, blocks -1..4 (up to bin
        # 434) put u block_j(v_x) below n/4 = 1024 and take both transforms
        # on n/2 points; blocks 5..7 stay on the grid.  The oracle pads every
        # product to 2n points
        u = random_field(small_grid, seed=34)
        v = random_field(small_grid, seed=35)
        counts = count_ffts()
        seq = _block_weights(small_bank, 3.0) * commutator_norms(small_bank, u, v, p,
                                                                 u_band=512)
        assert counts.lengths[small_grid.num_points // 2] == 2 * 6
        direct = [
            2.0 ** (j * 3.0) * lp_norm(commutator(small_bank, j, u, v), p)
            for j in range(-1, small_bank.j_max + 1)
        ]
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
        (half,) = _commutator_halves(small_bank, hvx, (hvx.size, hvx.size), u.values, [j],
                                     sweep_work(small_grid, hvx))
        out = field_from_half(small_grid, half)
        scale = max(lp_norm(expected, math.inf), 1e-30)
        assert lp_norm(out - expected, math.inf) < 1e-12 * scale


def corpus_pairs(grid, seed, k):
    """k pairs (u, v) of corpus fields, as ``experiments._draw_fields`` draws them."""
    fields = random_band_limited_values(grid, np.random.default_rng(seed), 2 * k)
    return [(RealField(grid, u), RealField(grid, v)) for u, v in zip(fields[0::2], fields[1::2])]


class TestCommutatorBand:
    """The sweep skips the blocks that start at or above v's band."""

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_skip_matches_the_full_sweep(self, small_grid, small_bank, p):
        # on the corpus grid blocks 6 and 7 start above the band; the blocks
        # below it run the same code either way, and both sweeps take u's
        # band, so each block takes the same grid and keeps every bit.
        # Block 7 reads roundoff on both paths (the products lie below
        # Nyquist/2, under its ring), so the skip is held to the largest
        # block norm of the pair
        band = _corpus_band(small_grid)
        skipped = [j for j in range(-1, small_bank.j_max + 1)
                   if small_bank.blocks[j + 1][0] >= band]
        assert skipped == [6, 7]
        for u, v in corpus_pairs(small_grid, 15, 4):
            got = commutator_norms(small_bank, u, v, p, band, u_band=band)
            full = commutator_norms(small_bank, u, v, p, u_band=band)
            assert np.array_equal(got[:-2], full[:-2])
            assert np.all(np.abs(got - full) <= 1e-13 * np.max(full))

    def test_skipped_block_is_the_product_block(self, small_grid, small_bank):
        # a skipped block yields block_j(u v_x) from the hoisted h_uvx, bit for bit
        band = _corpus_band(small_grid)
        ((u, v),) = corpus_pairs(small_grid, 16, 1)
        hvx = _derivative_symbol(small_grid) * half_spectrum(v)
        work = sweep_work(small_grid, hvx)
        halves = [half.copy() for half in
                  _commutator_halves(small_bank, hvx, (band, band), u.values, [5, 6, 7], work)]
        h_uvx = work[2]
        for j, half in zip((6, 7), halves[1:]):
            assert np.array_equal(half, _block_half(small_bank, h_uvx, j))
        assert not np.array_equal(halves[0], _block_half(small_bank, h_uvx, 5))

    def test_block_inside_the_band_is_swept(self, small_grid, small_bank, count_ffts):
        # v reaches bin 818, into block 6 (from bin 658) but not block 7 (from
        # bin 1316); u stays low, so every product lies below Nyquist/2.  With
        # v's band, block 6 is swept, and matches the padded oracle
        u, v = random_field(small_grid, 36, 0.1), random_field(small_grid, 37, 0.4)
        band = int(0.4 * (small_grid.num_points // 2))
        assert small_bank.blocks[7][0] < band <= small_bank.blocks[8][0]
        counts = count_ffts()
        norms = commutator_norms(small_bank, u, v, math.inf, band)
        # v's spectrum, u v_x and the 8 blocks -1..6 forward; v_x, those 8
        # blocks and the 9 sup norms inverse
        assert counts == {"rfft": 1 + 1 + 8, "irfft": 1 + 8 + 9}
        expected = lp_norm(commutator(small_bank, 6, u, v), math.inf)
        assert expected > 1e-3 * np.max(norms)
        assert norms[7] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("shift,lengths", [(-1, {2**12: 2, 2**11: 2}), (0, {2**12: 4})],
                             ids=["below-n/4", "at-n/4"])
    def test_product_at_bin_n_over_4_stays_on_the_grid(self, small_grid, small_bank,
                                                       count_ffts, shift, lengths):
        # the half grid of n/2 points cannot hold bin n/4, its Nyquist bin.
        # With the corpus band, u block_5(v_x) reaches bin 512 + 512 = n/4, so
        # block 5 stays at n points; block 4 (up to bin 434) reaches n/4 at
        # u band 591 and stays, and takes n/2 points one bin below
        n = small_grid.num_points
        band = _corpus_band(small_grid)
        ((u, v),) = corpus_pairs(small_grid, 18, 1)
        hvx = _derivative_symbol(small_grid) * half_spectrum(v)
        assert (band - 1) + (min(small_bank.blocks[6][1], band) - 1) == n // 4
        counts = count_ffts()
        list(_commutator_halves(small_bank, hvx, (band, band), u.values, [5],
                                sweep_work(small_grid, hvx)))
        assert counts.lengths == {n: 1 + 1 + 2}  # v_x, u v_x, block 5
        u_band = n // 4 + 2 - small_bank.blocks[5][1] + shift
        assert u_band >= band
        counts.reset()
        (half,) = _commutator_halves(small_bank, hvx, (u_band, band), u.values, [4],
                                     sweep_work(small_grid, hvx))
        assert counts.lengths == lengths  # v_x and u v_x at n, block 4's two
        expected = half_spectrum(commutator(small_bank, 4, u, v))
        assert np.max(np.abs(half - expected)) < 1e-13 * np.max(np.abs(expected))
