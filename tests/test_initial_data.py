import io
import math

import numpy as np
import pytest
from scipy.integrate import quad

from novlab import (
    Grid,
    IllposedDataParams,
    RealField,
    ResolutionError,
    SystemState,
    build_bump,
    build_initial_data,
    load_field,
    modulated_bump,
    save_field,
)
from novlab.initial_data import BUMP_CUTOFF, bump_profile, check_regime, tail_bound
from novlab.spectral import _half_phase, field_from_half, half_spectrum

from helpers import LAMBDA, besov_norm, coefficients, dyadic_block, lp_norm


class TestBumpProfile:
    def test_profile_plateau_and_cutoff(self):
        xi = np.array([0.0, 0.1, 0.25, 0.3, 0.49, 0.5, 0.75, 2.0])
        v = bump_profile(xi)
        assert v[0] == 1.0 and v[1] == 1.0 and v[2] == 1.0
        assert 0.0 < v[3] < 1.0
        assert v[5] == 0.0 and v[6] == 0.0 and v[7] == 0.0

    def test_profile_even(self):
        xi = np.linspace(-1, 1, 501)
        assert np.array_equal(bump_profile(xi), bump_profile(-xi))


class TestBuildBump:
    def test_transform_matches_profile(self, small_grid):
        bump = build_bump(small_grid)
        xi = small_grid.half_frequencies
        # line-normalized: length * coeff reproduces the profile samples
        recovered = small_grid.length * coefficients(bump)
        expected = bump_profile(xi)
        assert np.abs(recovered - expected).max() < 1e-10

    def test_transform_at_origin_and_beyond_cutoff(self, small_grid):
        bump = build_bump(small_grid)
        c = coefficients(bump)
        assert small_grid.length * c[0] == pytest.approx(1.0, abs=1e-12)
        k_075 = round(0.75 * small_grid.length / (2 * math.pi))
        assert abs(small_grid.length * c[k_075]) < 1e-12

    def test_even_and_real(self, small_grid):
        bump = build_bump(small_grid)
        v = bump.values
        # grid point m and N-m mirror each other around x=0
        mirrored = v[(-np.arange(small_grid.num_points)) % small_grid.num_points]
        assert np.abs(v - mirrored).max() < 1e-12 * np.abs(v).max()

    def test_origin_value_against_quadrature_oracle(self, small_grid):
        bump = build_bump(small_grid)
        center = bump.values[small_grid.num_points // 2]
        # independent quadrature of the fixed profile
        integral, _ = quad(lambda t: bump_profile(t), 0.0, BUMP_CUTOFF, limit=200)
        line_value = integral / math.pi  # (1/2pi) * int over both signs
        # the periodization tail at |x| >= L shifts the grid value at ~1e-3
        assert center == pytest.approx(line_value, rel=1e-2)
        # and the grid value is exactly the Riemann sum of the sampled profile
        xi = small_grid.half_frequencies
        riemann = (bump_profile(xi).sum() * 2 - bump_profile(0.0)) / small_grid.length
        assert center == pytest.approx(float(riemann), rel=1e-13)

    def test_decay_toward_box_edge(self, small_grid):
        # glued-exponential profiles decay like exp(-c sqrt(x)): a few percent
        # of the peak at |x| = 32, dropping with the box size
        bump = build_bump(small_grid)
        center = bump.values[small_grid.num_points // 2]
        edge = np.abs(bump.values[: small_grid.num_points // 64]).max()
        assert edge < 0.05 * center
        bigger = Grid(2**13, 128.0)
        bump2 = build_bump(bigger)
        edge2 = np.abs(bump2.values[: bigger.num_points // 128]).max()
        assert edge2 < 0.3 * edge


class TestModulatedBump:
    def test_band_support_audit(self, medium_grid):
        omega = LAMBDA * 2.0**5
        f = modulated_bump(medium_grid, omega)
        w = np.abs(half_spectrum(f)) ** 2
        w[1:-1] *= 2.0  # each interior bin stands for k and -k
        xi = medium_grid.half_frequencies
        inside = (xi >= omega - 0.5) & (xi <= omega + 0.5)
        energy_out = np.sum(w[~inside])
        energy_total = np.sum(w)
        assert energy_out < 1e-12 * energy_total

    def test_rejects_unresolved_band(self, small_grid):
        with pytest.raises(ResolutionError):
            modulated_bump(small_grid, 0.999 * small_grid.nyquist)

    @pytest.mark.parametrize(
        "omega", [0.0, 0.3] + [LAMBDA * 2.0**n for n in range(12)],
        ids=["0", "0.3"] + [f"band{n}" for n in range(12)],
    )
    def test_support_synthesis_matches_dense_profile(self, omega):
        # only the bins within BUMP_CUTOFF of omega are evaluated; the dense
        # formula is exactly 0 elsewhere, so the spectra agree bit for bit
        # (omega = 0.3 < 1/2: both shifted profiles reach xi >= 0)
        grid = Grid(2**17, 128.0)
        xi = grid.half_frequencies
        dense = (1.0 / (2.0 * grid.length)) * (bump_profile(xi - omega) + bump_profile(xi + omega))
        expected = field_from_half(grid, dense * _half_phase(grid.num_points))
        f = modulated_bump(grid, omega)
        assert np.array_equal(f.values, expected.values)
        assert np.array_equal(half_spectrum(f), half_spectrum(expected))

    def test_desk_grid_resolution_limit(self):
        grid = Grid(2**17, 128.0)
        modulated_bump(grid, np.nextafter(grid.nyquist - BUMP_CUTOFF, 0.0))
        for omega in (grid.nyquist - BUMP_CUTOFF, LAMBDA * 2.0**12):
            with pytest.raises(ResolutionError):
                modulated_bump(grid, omega)
        with pytest.raises(ValueError, match="nonnegative"):
            modulated_bump(grid, -0.3)


class TestParamsValidation:
    def test_accepts_theorem_range(self, medium_grid):
        IllposedDataParams(s=3.0, p=2.0, grid=medium_grid, num_terms=8)
        IllposedDataParams(s=2.6, p=math.inf, grid=medium_grid, num_terms=8)

    def test_rejects_low_regularity(self, medium_grid):
        with pytest.raises(ValueError, match="5/2"):
            IllposedDataParams(s=2.0, p=2.0, grid=medium_grid, num_terms=8)
        with pytest.raises(ValueError, match="2 \\+ 1/p"):
            IllposedDataParams(s=2.6, p=1.0, grid=medium_grid, num_terms=8)

    def test_rejects_lambda_outside_window(self, medium_grid):
        with pytest.raises(ValueError, match="lambda"):
            IllposedDataParams(s=3.0, p=2.0, lam=1.5, grid=medium_grid, num_terms=8)

    def test_rejects_unresolved_top_band(self, medium_grid):
        with pytest.raises(ResolutionError):
            IllposedDataParams(s=3.0, p=2.0, grid=medium_grid, num_terms=12)

    def test_rejects_huge_num_terms_without_overflow(self, medium_grid):
        # lambda 2^1999 overflows a double; the check must not form it
        with pytest.raises(ResolutionError, match="not resolved"):
            IllposedDataParams(s=3.0, p=2.0, grid=medium_grid, num_terms=2000)

    def test_rejects_infinite_regularity(self, medium_grid):
        for s in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                IllposedDataParams(s=s, p=2.0, grid=medium_grid, num_terms=8)

    def test_p_is_kept_as_a_float(self, medium_grid):
        for p, value in (("inf", math.inf), ("2", 2.0), (1, 1.0)):
            assert check_regime(3.5, p) == value
            params = IllposedDataParams(s=3.5, p=p, grid=medium_grid, num_terms=8)
            assert params.p == value and type(params.p) is float

    @pytest.mark.parametrize("p", ["x", 0.5, math.nan])
    def test_rejects_p_outside_one_to_inf(self, medium_grid, p):
        with pytest.raises(ValueError):
            IllposedDataParams(s=3.5, p=p, grid=medium_grid, num_terms=8)

    def test_grid_is_a_required_keyword(self, medium_grid):
        with pytest.raises(TypeError, match="grid"):
            IllposedDataParams(s=3.0, p=2.0)
        with pytest.raises(TypeError):
            IllposedDataParams(3.0, 2.0, LAMBDA, 8, medium_grid)


class TestBuildInitialData:
    def test_single_term_is_single_band(self, medium_grid):
        params = IllposedDataParams(s=3.0, p=2.0, grid=medium_grid, num_terms=1)
        data = build_initial_data(params)
        expected = modulated_bump(medium_grid, LAMBDA)
        assert np.abs(data.rho.values - expected.values).max() < 1e-14
        assert np.abs(data.u.values - expected.values).max() < 1e-14

    def test_block_extraction_recovers_terms(self, medium_params, medium_data, medium_bank):
        s = medium_params.s
        for n in range(3, medium_params.num_terms):
            expected = 2.0 ** (-n * (s - 1)) * modulated_bump(
                medium_params.grid, LAMBDA * 2.0**n
            )
            got = dyadic_block(medium_bank, medium_data.rho, n)
            assert lp_norm(got - expected, 2) < 1e-8 * lp_norm(expected, 2)

    def test_besov_norm_close_to_single_block_value(self, medium_params, medium_data,
                                                    medium_bank):
        s, p = medium_params.s, medium_params.p
        single = lp_norm(modulated_bump(medium_params.grid, LAMBDA * 2.0**4), p)
        got = besov_norm(medium_bank, medium_data.rho, s - 1, p)
        assert got == pytest.approx(single, rel=0.01)

    def test_truncation_stability(self, medium_grid, medium_bank):
        s, p = 3.0, 2.0
        norms = []
        for n_terms in (6, 7, 8):
            params = IllposedDataParams(s=s, p=p, grid=medium_grid, num_terms=n_terms)
            data = build_initial_data(params)
            norms.append(
                (
                    besov_norm(medium_bank, data.rho, s - 1, p),
                    besov_norm(medium_bank, data.u, s, p),
                    2.0 ** (-n_terms * (s - 1)),
                )
            )
        for (r0, u0, tail0), (r1, u1, _) in zip(norms, norms[1:]):
            assert abs(r1 - r0) < 10 * tail0
            assert abs(u1 - u0) < 10 * tail0

    def test_data_are_a_state_at_time_zero(self, medium_data, medium_grid):
        assert isinstance(medium_data, SystemState)
        assert medium_data.time == 0.0 and medium_data.grid == medium_grid

    def test_tail_bound_reported(self, medium_params):
        s, n = medium_params.s, medium_params.num_terms
        bump_sup = build_bump(medium_params.grid).sup_norm()
        expected = bump_sup * 2.0 ** (-n * (s - 1)) / (1 - 2.0 ** (-(s - 1)))
        assert tail_bound(medium_params) == pytest.approx(expected, rel=1e-12)


class TestFieldIO:
    def test_round_trip(self, small_grid, tmp_path):
        f = modulated_bump(small_grid, LAMBDA * 4)
        path = tmp_path / "field.csv"
        save_field(f, path, time=0.25, note="trial")
        back, meta = load_field(path)
        assert back.grid == small_grid
        assert np.array_equal(back.values, f.values)
        assert float(meta["time"]) == 0.25
        assert meta["note"] == "'trial'"

    def test_dump_bytes_match_savetxt(self, small_grid, tmp_path):
        values = np.random.default_rng(5).standard_normal(small_grid.num_points)
        values[:5] = [-0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0]
        path = tmp_path / "field.csv"
        save_field(RealField(small_grid, values), path, time=0.5)
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        expected = io.BytesIO()
        np.savetxt(expected, values, fmt="%.17g")
        assert body == expected.getvalue()
        assert np.array_equal(np.signbit(load_field(path)[0].values), np.signbit(values))
