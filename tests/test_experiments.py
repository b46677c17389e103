import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from novlab import (
    DegenerateDataError,
    Grid,
    IllposedDataParams,
    ScalingFit,
    StudyReport,
    SystemState,
    UnresolvedSpectrumError,
    build_bump,
    build_filter_bank,
    build_initial_data,
    fit_powerlaw,
    integrate,
    study_block_scaling,
    study_inequalities,
    study_separation,
    study_short_time,
    write_study,
)
from novlab import experiments, solver
from novlab.experiments import (
    CONTROL_AMPLITUDE,
    CORPUS_BAND,
    CORPUS_CHUNK,
    DEFAULT_INEQUALITY_GRID,
    _corpus_band,
    _corpus_chunk,
    _draw_fields,
    _pair_stacks,
    _transport_block_norms,
    write_report_csv,
)
from novlab.littlewood_paley import RING_SUPPORT, _block_norms, _block_weights
from novlab.spectral import field_from_half

from helpers import (besov_norm, derivative, dyadic_block, fft_threads, fixed_step_states,
                     helmholtz_inverse, lp_norm, mode, pair_ratios, product, random_band_limited_field,
                     random_band_limited_values, random_field, see_cpus, traced_peak)


class TestFitPowerlaw:
    def test_exact_dyadic_decay(self):
        pts = [(n, 2.0 ** (-2 * n)) for n in range(3, 10)]
        fit = fit_powerlaw(pts, kind="dyadic")
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_exact_quadratic_time_scaling(self):
        pts = [(t, 3.7 * t**2) for t in (0.1, 0.05, 0.025, 0.0125)]
        fit = fit_powerlaw(pts, kind="loglog")
        assert fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_constant_data(self):
        pts = [(n, 5.0) for n in range(5)]
        fit = fit_powerlaw(pts, kind="dyadic")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_too_few_points(self):
        with pytest.raises(DegenerateDataError):
            fit_powerlaw([(1, 1.0), (2, 0.5)])

    @pytest.mark.parametrize("xs", [(5, 5, 5), (5, 6, 6)])
    def test_rejects_fewer_than_three_distinct_abscissae(self, xs):
        # a line through repeated abscissae is no fit: at one x numpy warns
        # and the r^2 of the constant ordinates reads 1
        with pytest.raises(DegenerateDataError, match="distinct"):
            fit_powerlaw([(x, 2.0 ** -x) for x in xs])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DegenerateDataError):
            fit_powerlaw([(1, 1.0), (2, 0.0), (3, 0.5)])


SHORT_T_MAX = 5e-3  # the top of the shorttime fixture's ladder


@pytest.fixture(scope="module")
def blockscale_report(medium_params):
    return study_block_scaling(medium_params, 4, 8)


@pytest.fixture(scope="module")
def shorttime_report(medium_params):
    return study_short_time(medium_params, SHORT_T_MAX)


@pytest.fixture(scope="module")
def separation_report(medium_params):
    return study_separation(medium_params, 5, 8, delta=0.1)


@pytest.fixture(scope="module")
def inequalities_report():
    return study_inequalities(corpus_size=100, seed=11)


class TestBlockScalingStudy:
    def test_rho_slope_matches_regularity(self, blockscale_report, medium_params):
        s = medium_params.s
        assert blockscale_report.fits["rho_exponent"].slope == pytest.approx(-(s - 2), abs=0.1)

    def test_u_slope_matches_regularity(self, blockscale_report, medium_params):
        s = medium_params.s
        assert blockscale_report.fits["u_exponent"].slope == pytest.approx(-(s - 1), abs=0.1)

    def test_fit_quality_and_plateau(self, blockscale_report):
        assert blockscale_report.verdict("rho_r2").passed
        assert blockscale_report.verdict("u_r2").passed
        assert blockscale_report.verdict("rho_plateau").passed
        assert blockscale_report.verdict("u_plateau").passed
        assert blockscale_report.passed

    def test_rejects_out_of_range_bands(self, medium_params):
        with pytest.raises(ValueError):
            study_block_scaling(medium_params, 2, 5)
        with pytest.raises(ValueError):
            study_block_scaling(medium_params, 6, 11)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_sweep_matches_per_block_oracle(self, medium_params, medium_bank, p):
        # the study's one sweep against the zero-padded per-block oracle
        params = replace(medium_params, s=3.5, p=p)
        data = build_initial_data(params)
        report = study_block_scaling(params, 4, 8)
        for n, norm_rho, norm_u, *_ in report.rows:
            for f, norm in ((data.rho, norm_rho), (data.u, norm_u)):
                block = derivative(dyadic_block(medium_bank, f, n))
                oracle = lp_norm(product(data.u, data.u, block), p)
                assert norm == pytest.approx(oracle, rel=1e-13, abs=0)

    def test_sweep_transform_count(self, medium_bank, medium_data, count_ffts):
        bands = range(4, 9)
        counts = count_ffts()
        _transport_block_norms(medium_bank, solver._spectra(medium_data), bands, 2.0)
        # hoisted: the spectra of rho and u and the values of u on the grid
        # and on its half-cell shift; then one inverse and one forward
        # transform per grid and (field, band), none of them padded
        pairs = 2 * len(bands)
        assert counts == {"rfft": 2 + 2 * pairs, "irfft": 2 + 2 * pairs}
        assert counts.lengths == {medium_bank.grid.num_points: 4 + 4 * pairs}

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_sweep_threaded_and_inline_give_the_same_bits(self, medium_bank, medium_data,
                                                          monkeypatch, p):
        # each (field, band) hands the shifted grid's product to the solver's
        # worker when a second CPU is usable, and runs it inline when not
        bands = range(4, 9)
        y = solver._spectra(medium_data)
        submit = solver._pool.submit
        runs = {}
        for usable in ({0, 1}, {0}):
            submits = []
            see_cpus(monkeypatch, usable)
            monkeypatch.setattr(solver._pool, "submit",
                                lambda f: submits.append(f) or submit(f))
            runs[len(usable)] = _transport_block_norms(medium_bank, y, bands, p)
            assert len(submits) == (2 * len(bands) if len(usable) == 2 else 0)
            assert len(fft_threads()) <= 1
        assert runs[2].shape == (2, len(bands))
        assert runs[2].tobytes() == runs[1].tobytes()

    def test_resolution_robustness(self, medium_params, medium_grid):
        finer_grid = Grid(2**15, medium_grid.length)
        finer = IllposedDataParams(
            s=medium_params.s, p=medium_params.p, lam=medium_params.lam,
            num_terms=medium_params.num_terms, grid=finer_grid,
        )
        coarse = study_block_scaling(medium_params, 4, 8)
        fine = study_block_scaling(finer, 4, 8)
        for rc, rf in zip(coarse.rows, fine.rows):
            assert rf[1] == pytest.approx(rc[1], rel=5e-3)
            assert rf[2] == pytest.approx(rc[2], rel=5e-3)


class TestShortTimeStudy:
    def test_first_order_slopes(self, shorttime_report):
        assert shorttime_report.fits["first_order_rho"].slope == pytest.approx(1.0, abs=0.1)
        assert shorttime_report.fits["first_order_u"].slope == pytest.approx(1.0, abs=0.1)

    def test_second_order_slopes(self, shorttime_report):
        assert shorttime_report.fits["second_order_rho"].slope == pytest.approx(2.0, abs=0.2)
        assert shorttime_report.fits["second_order_u"].slope == pytest.approx(2.0, abs=0.2)
        assert shorttime_report.passed

    def test_header_reports_solver_work(self, shorttime_report, medium_params, medium_data):
        # the sweep lands on the top time alone and reads the rest of the
        # ladder from the interpolant, so its work is that of integrate run
        # to the top time alone, under the study's own config
        params = shorttime_report.params
        _, config = experiments.check_shorttime(medium_params, SHORT_T_MAX, None)
        alone = integrate(medium_data, config)
        assert params["rk4_steps"] == len(alone.errors)
        assert params["rk4_rejected"] == alone.rejected
        assert params["dt"] == max(h for h, _ in alone.errors)
        assert params["time_error_max"] == max(err for _, err in alone.errors)
        assert 0 < params["time_error_max"] < 1e-6
        assert params["ladder_interpolated"] == len(experiments.time_ladder(SHORT_T_MAX)) - 1

    def test_step_is_controlled_in_the_strongest_reported_norm(self, medium_params):
        # shorttime reports distances in B^(s-2) x B^(s-1) and residuals one
        # derivative below; separation reports in the data space B^(s-1) x B^s
        _, config = experiments.check_shorttime(medium_params, SHORT_T_MAX, None)
        assert config.s == medium_params.s - 1
        _, cfg = experiments.check_separation(medium_params, 5, 8, 0.1, None)
        assert cfg.s == medium_params.s

    def test_headers_name_the_step_norm(self, medium_params, shorttime_report,
                                        separation_report):
        # the sigma of B^(sigma-1)_{2,inf} x B^sigma_{2,inf}, in which dt,
        # rk4_rejected and time_error_max were measured
        assert shorttime_report.params["step_norm_s"] == medium_params.s - 1
        assert separation_report.params["step_norm_s"] == medium_params.s

    def test_interpolated_ladder_matches_a_fine_landed_reference(self, medium_params,
                                                                 shorttime_report,
                                                                 monkeypatch):
        # against a sweep that lands on every time with steps capped at
        # 2.5e-5 (202 steps): the distances agree to roundoff (measured
        # 3.5e-15), while the residuals, O(t^2) differences of O(t) terms,
        # sit on their roundoff floor (measured 6.0e-8, and the slopes
        # 8.6e-9; the reference itself moves by 1.7e-7 when its cap is
        # halved).  Landing on every time at the default tolerance takes 6
        # steps where the interpolated ladder, controlled in the distances'
        # norm, takes 1
        assert shorttime_report.params["rk4_steps"] == 1
        landed = _landing_every_time(medium_params, monkeypatch)
        assert landed.params["rk4_steps"] == 6
        reference = _landing_every_time(medium_params, monkeypatch, dt_cap=2.5e-5)
        _assert_rows_agree(shorttime_report, reference)

    def test_ablation_degrades_second_order_to_first(self, medium_params, monkeypatch):
        # the first variation replaced by zero: the residuals are then the
        # distances two derivatives below, which are O(t)
        sweep = experiments._sweep

        def ablated_sweep(state0, cfg, checkpoints, measure, interpolated=()):
            return sweep(state0, cfg, checkpoints,
                         lambda record, y0, f0: measure(record, y0, np.zeros_like(f0)),
                         interpolated)

        monkeypatch.setattr(experiments, "_sweep", ablated_sweep)
        ablated = study_short_time(medium_params, SHORT_T_MAX)
        assert ablated.fits["second_order_rho"].slope == pytest.approx(1.0, abs=0.1)
        assert ablated.fits["second_order_u"].slope == pytest.approx(1.0, abs=0.1)

    def test_dt_robustness(self, medium_params, shorttime_report):
        halved = study_short_time(medium_params, SHORT_T_MAX, dt_cap=5e-5)
        assert halved.params["dt"] <= 5e-5 * (1 + 1e-12)  # up to even division
        for r1, r2 in zip(shorttime_report.rows, halved.rows):
            for a, b in zip(r1[1:], r2[1:]):
                assert b == pytest.approx(a, rel=1e-2)

    def test_rejects_degenerate_times(self, medium_params):
        with pytest.raises(ValueError):
            study_short_time(medium_params, math.nan)

    @pytest.mark.parametrize("s,p", [(3.1, 1.0), (2.6, math.inf), (2.6, 2.0)],
                             ids=["3.1-1", "2.6-inf", "2.6-2"])
    def test_paper_edges_against_every_time_landed(self, medium_params, monkeypatch, s, p):
        # every verdict passes at the edges of the theorem's (s, p) range,
        # and the interpolated ladder (one step) agrees with the landed one
        # (6 steps): measured 8.2e-13 in the distances (at (2.6, inf), a sup
        # over grid values) and 1.2e-7 in the residuals (at (3.1, 1))
        params = replace(medium_params, s=s, p=p)
        report = study_short_time(params, SHORT_T_MAX)
        assert report.passed
        assert report.params["rk4_steps"] == 1
        landed = _landing_every_time(params, monkeypatch)
        assert landed.passed
        _assert_rows_agree(report, landed)


# relative bounds between two shorttime reports at the same times: the
# distances agree to roundoff; the residuals, O(t^2) differences of O(t)
# terms, and their slopes sit on a roundoff floor that any change of step
# sequence moves (measured up to 1.2e-7)
DISTANCE_REL = 1e-12
RESIDUAL_REL = 2e-7


def _landing_every_time(params, monkeypatch, dt_cap=None):
    """``study_short_time`` to SHORT_T_MAX with a sweep that lands on every
    time, as it did before the ladder was read from the interpolant."""
    sweep = experiments._sweep
    read = []  # the interpolated records that reach the measure

    def landing(state0, cfg, checkpoints, measure, interpolated=()):
        def counted(record, y0, f0):
            if record.interpolated:
                read.append(record.time)
            measure(record, y0, f0)

        return sweep(state0, cfg, [*checkpoints, *interpolated], counted)

    with monkeypatch.context() as m:
        m.setattr(experiments, "_sweep", landing)
        report = study_short_time(params, SHORT_T_MAX, dt_cap=dt_cap)
    assert read == []
    return report


def _assert_rows_agree(report, reference):
    """The rows of two shorttime reports at the same times: distances to
    DISTANCE_REL, residuals and fitted slopes to RESIDUAL_REL."""
    rows, ref = np.array(report.rows), np.array(reference.rows)
    assert np.array_equal(rows[:, 0], ref[:, 0])
    assert np.all(np.abs(rows[:, 1:3] - ref[:, 1:3]) <= DISTANCE_REL * np.abs(ref[:, 1:3]))
    assert np.all(np.abs(rows[:, 3:] - ref[:, 3:]) <= RESIDUAL_REL * np.abs(ref[:, 3:]))
    for name, fit in report.fits.items():
        assert fit.slope == pytest.approx(reference.fits[name].slope, rel=RESIDUAL_REL)


class TestSeparationStudy:
    def test_block_separation_persists(self, separation_report):
        assert separation_report.verdict("separation_slope").passed
        assert separation_report.verdict("separation_plateau").passed

    def test_full_distance_dominates_block_separation(self, separation_report):
        for row in separation_report.rows:
            assert row[5] >= row[2] * (1 - 1e-12)

    def test_energy_audit(self, separation_report):
        assert separation_report.verdict("energy_bounded").passed
        assert all(r[6] <= 2.0 for r in separation_report.rows)

    def test_control_collapses(self, separation_report):
        assert separation_report.verdict("control_collapses").passed
        assert separation_report.fits["control_trend"].slope <= -0.9

    def test_separation_follows_the_first_order_term(self, separation_report):
        # S_n against t_n (2^(n(s-1))||block_n v0|| + 2^(ns)||block_n w0||),
        # the paper's leading term.  Measured here (n = 5..8, delta 0.1):
        # sep_ratio 0.99999985-0.99999986, a spread max/min - 1 of 9.3e-9
        # (2.2e-9 to 1.8e-8 over the lambda window), held to 1e-7; the
        # distance from 1 is the O(delta^2) remainder and the floor
        columns = separation_report.columns
        assert columns[-2:] == ["sep_first_order", "sep_ratio"]
        ratios = np.array([row[9] for row in separation_report.rows])
        for row in separation_report.rows:
            assert row[9] == row[2] / row[8]
        assert ratios.max() / ratios.min() - 1 <= 1e-7
        assert np.all(np.abs(ratios - 1) <= 1e-6)

    def test_delta_linearity_of_plateau(self, medium_params, separation_report):
        half = study_separation(medium_params, 5, 8, delta=0.05)
        plateau_full = np.median([r[2] for r in separation_report.rows])
        plateau_half = np.median([r[2] for r in half.rows])
        assert plateau_half / plateau_full == pytest.approx(0.5, abs=0.1)

    def test_lambda_robustness(self, medium_grid, medium_params, separation_report):
        for lam in (67.0 / 48.0, 69.0 / 48.0):
            params = IllposedDataParams(
                s=medium_params.s, p=medium_params.p, lam=lam,
                num_terms=medium_params.num_terms, grid=medium_grid,
            )
            rep = study_separation(params, 5, 8, delta=0.1)
            assert rep.verdict("separation_slope").passed
            assert rep.verdict("separation_plateau").passed
            assert rep.verdict("energy_bounded").passed

    def test_controller_matches_a_fixed_fine_step(self, medium_params, separation_report):
        # the gate of the error-controlled step: 10 controlled steps against
        # 64 capped at t_8/4 move the plateau by 9.5e-15 and S_n by at most
        # 1.8e-14 relative, far below the controller's own time-error
        # estimate (9.2e-11); held to 5e-14
        capped = study_separation(medium_params, 5, 8, delta=0.1,
                                  dt_cap=0.1 * 2.0**-8 / 4)
        assert capped.params["rk4_steps"] > separation_report.params["rk4_steps"]
        plateau, fine = (rep.verdict("separation_plateau").observed
                         for rep in (separation_report, capped))
        assert abs(plateau - fine) <= 5e-14 * fine
        for row, ref in zip(separation_report.rows, capped.rows):
            assert row[2] == pytest.approx(ref[2], rel=5e-14, abs=0.0)

    def test_rejects_bad_range(self, medium_params):
        with pytest.raises(ValueError):
            study_separation(medium_params, 3, 6)
        with pytest.raises(ValueError):
            study_separation(medium_params, 7, 5)
        # two bands are too few for the trend fit
        with pytest.raises(ValueError, match="at least 3 bands"):
            study_separation(medium_params, 5, 6)

    def test_sweep_matches_per_horizon_integration(self, medium_params, separation_report):
        reference = _per_horizon_separation_rows(medium_params, range(5, 9), delta=0.1)
        assert len(separation_report.rows) == len(reference)
        # S_n, the full u distance and the total carry 2^(ns)-weighted block
        # norms of u - u0 that sit at the double-precision floor on this grid:
        # the per-horizon reference itself moves them by up to 1.4e-6 relative
        # between 64 and 1024 steps, so those columns are held to that floor
        for row, ref in zip(separation_report.rows, reference):
            n, t_n, sep, full_rho, full_u, total, energy, control = row[:8]
            assert (n, t_n) == ref[:2]
            assert (full_rho, energy, control) == pytest.approx(
                (ref[3], ref[6], ref[7]), rel=1e-8, abs=0.0
            )
            assert (sep, full_u, total) == pytest.approx(
                (ref[2], ref[4], ref[5]), rel=2e-6, abs=0.0
            )

    @pytest.mark.parametrize("n_max", [7, 8])
    def test_one_sweep_per_initial_state(self, medium_params, monkeypatch, n_max):
        # one integrate call for the data and one for the control, each
        # through every horizon, in fewer steps than the fixed rule's
        # 64 + 32 (k - 1); the control's on its own grid of 512 points.  The
        # data sweep lands on the dyadic ladder t_5 .. t_(n_max + 2) alone,
        # one step each (6 at n_max = 8), and reads the k quarters 3 t_n/4
        # from the interpolant
        sweeps = []

        def counting(state0, cfg, checkpoints=None, visit=None, interpolated=()):
            traj = integrate(state0, cfg, checkpoints, visit, interpolated)
            sweeps.append((state0.time, traj.sup_norms[-1][0], len(traj.sup_norms),
                           state0.grid.num_points, sorted(interpolated)))
            return traj

        monkeypatch.setattr(experiments, "integrate", counting)
        report = study_separation(medium_params, 5, n_max, delta=0.1)
        k = n_max - 4
        assert [sweep[:2] for sweep in sweeps] == [(0.0, 0.1 * 2.0**-5)] * 2
        assert [sweep[3] for sweep in sweeps] == [2**14, 512]
        assert all(sweep[2] < 64 + 32 * (k - 1) for sweep in sweeps)
        assert sweeps[0][2] == k + 2
        assert sweeps[0][4] == sorted(0.1 * 2.0**-n * 3 / 4 for n in range(5, n_max + 1))
        assert sweeps[1][4] == []
        assert report.params["audit_interpolated"] == k
        assert report.params["rk4_steps"] == sum(sweep[2] for sweep in sweeps)
        assert report.params["control_rk4_steps"] == sweeps[1][2]
        assert report.params["control_grid_points"] == 512

    @pytest.mark.parametrize("grid, points", [
        (Grid(2**14, 64.0), 512), (Grid(2**17, 128.0), 1024), (Grid(2**8, 64.0), 2**8),
        (Grid(2**9, 64.0), 2**9), (Grid(16, 1.0), 16),
    ])
    def test_control_grid_rule(self, grid, points):
        # the fewest points (a power of two) whose Nyquist frequency clears
        # CONTROL_NYQUIST_MIN, at most the data grid's
        coarse = experiments._control_grid(grid)
        assert coarse == Grid(points, grid.length)
        assert coarse.nyquist > experiments.CONTROL_NYQUIST_MIN or coarse == grid
        if points > 16:
            assert Grid(points // 2, grid.length).nyquist <= experiments.CONTROL_NYQUIST_MIN

    @pytest.mark.parametrize("s, p", [(3.0, 2.0), (3.1, 1.0), (2.6, math.inf)])
    def test_control_on_its_grid_matches_the_data_grid(self, medium_params, s, p):
        # The control integrated on 512 points and measured on the data's
        # 2^14 grid through the lift, against the control integrated and
        # measured on the data grid.  Measured (n = 5..8, delta 0.1): the
        # distances differ by at most 3.5e-11 (p = 2), 2.4e-11 (p = 1) and
        # 5.0e-11 (p = inf) relative, the time error of 4 steps against
        # 7-20, and the control slope by at most 2.2e-11
        params = replace(medium_params, s=s, p=p)
        report = study_separation(params, 5, 8, delta=0.1)
        distances, _ = _data_grid_control(params, 5, 8, delta=0.1)
        assert report.params["control_grid_points"] == 512
        assert [row[7] for row in report.rows] == pytest.approx(distances, rel=1e-10, abs=0.0)
        slope = fit_powerlaw(zip(range(5, 9), distances), "dyadic").slope
        assert report.fits["control_trend"].slope == pytest.approx(slope, rel=1e-9, abs=0.0)
        assert report.passed

    @pytest.mark.parametrize("s, p", [(3.0, 2.0), (3.1, 1.0), (2.6, math.inf)])
    def test_control_distance_from_its_padded_half_spectrum(self, medium_params, s, p):
        # The control's differences are measured from their half spectra on
        # 512 points padded with zeros to the data's 2^14: every block whose
        # ring starts above the control grid's Nyquist frequency reads
        # exactly 0, and the distance is the one besov_norm gives the padded
        # field on the data grid.  Measured (n = 5..8, delta 0.1): the two
        # differ by at most 1.6e-16 (p = 2), 2.0e-16 (p = 1) and 1.5e-16
        # (p = inf) relative, held to 1e-15
        params = replace(medium_params, s=s, p=p)
        grid = params.grid
        report = study_separation(params, 5, 8, delta=0.1)
        n_list, cfg = experiments.check_separation(params, 5, 8, 0.1, None)
        coarse = experiments._control_grid(grid)
        coarse_bank, bank = build_filter_bank(coarse), build_filter_bank(grid)
        control = CONTROL_AMPLITUDE * build_bump(coarse)
        zero_blocks = [j for j in range(-1, bank.j_max + 1)
                       if RING_SUPPORT[0] * 2.0**j >= coarse.nyquist]
        assert zero_blocks == [5, 6, 7, 8, 9]
        lifted, start = [], []

        def collapse(record):
            if not start:  # the control's own half spectra
                start.append(record.spectra)
                return
            dist = 0.0
            for diff, t in zip(record.spectra - start[0], (s - 1, s)):
                norms = _block_norms(bank, experiments._padded_half(grid, coarse_bank, diff), p)
                assert all(norms[j + 1] == 0.0 for j in zero_blocks)
                # the lift: the transform to 2^14 points pads the spectrum
                half = diff.copy()
                half[-1] *= 0.5
                dist += besov_norm(bank, field_from_half(grid, half), t, p)
            lifted.append(dist)

        integrate(SystemState(rho=control, u=control), cfg,
                  checkpoints=[0.1 * 2.0**-n for n in n_list], visit=collapse)
        assert [row[7] for row in report.rows] == pytest.approx(lifted[::-1], rel=1e-15,
                                                                abs=0.0)

    def test_control_on_the_data_grid_when_no_coarser_grid_resolves_it(
            self, medium_params, separation_report, monkeypatch):
        # Raised to the data grid's Nyquist frequency, the rule keeps the
        # control on the data grid, with the bits of a control integrated
        # and measured there; the data's columns never see the control
        monkeypatch.setattr(experiments, "CONTROL_NYQUIST_MIN", medium_params.grid.nyquist)
        report = study_separation(medium_params, 5, 8, delta=0.1)
        distances, steps = _data_grid_control(medium_params, 5, 8, delta=0.1)
        assert report.params["control_grid_points"] == 2**14
        assert report.params["control_rk4_steps"] == steps
        assert [row[7] for row in report.rows] == distances
        for row, ref in zip(report.rows, separation_report.rows):
            assert row[:7] + row[8:] == ref[:7] + ref[8:]
        data_steps = (separation_report.params["rk4_steps"]
                      - separation_report.params["control_rk4_steps"])
        assert report.params["rk4_steps"] == data_steps + steps


@pytest.mark.parametrize("study", ["shorttime", "separation"])
def test_one_workspace_and_one_rate_at_the_data_per_integration(
        study, medium_params, medium_data, monkeypatch):
    # the rate at the data is the first step's k1, so each integration
    # evaluates the kernel once before its steps and four times per step
    y_data = solver._spectra(medium_data)
    at_data, workspaces = [], []
    kernel, workspace = solver._rhs_half, solver._Workspace

    def counting(y, *args):
        at_data.append(np.array_equal(y, y_data))
        return kernel(y, *args)

    class Counted(workspace):
        def __init__(self, grid):
            workspaces.append(grid)
            super().__init__(grid)

    monkeypatch.setattr(solver, "_rhs_half", counting)
    monkeypatch.setattr(solver, "_Workspace", Counted)
    if study == "shorttime":
        report, grids = study_short_time(medium_params, SHORT_T_MAX), [medium_params.grid]
    else:
        # the data on its grid and the control on its own, coarser one
        report = study_separation(medium_params, 5, 7, delta=0.1)
        grids = [medium_params.grid, Grid(512, medium_params.grid.length)]
    integrations = len(grids)
    assert sum(at_data) == 1
    assert workspaces == grids
    steps = report.params["rk4_steps"] + report.params["rk4_rejected"]
    assert len(at_data) == integrations + 4 * steps


@pytest.mark.parametrize("study", ["shorttime", "separation"])
def test_solver_studies_transform_only_to_integrate(study, medium_params, count_ffts):
    # a sweep transforms its initial state's two rows in one call, and runs
    # 16 transforms in 8 calls per kernel evaluation (one at the start and
    # four per step) and 2 per step (its increment, in one call); the
    # studies measure every record from its spectra, so what they transform
    # beyond their sweeps depends neither on the horizon nor on the number of
    # checkpoints: the data's synthesis (one inverse transform of its two
    # rows) and the control's
    counts = count_ffts()
    extra, extra_calls = [], []
    for t_max, n_max in ((SHORT_T_MAX, 7), (SHORT_T_MAX / 2, 8)):
        counts.reset()
        if study == "shorttime":
            report, sweeps = study_short_time(medium_params, t_max), 1
        else:
            report, sweeps = study_separation(medium_params, 5, n_max, delta=0.1), 2
        attempts = report.params["rk4_steps"] + report.params["rk4_rejected"]
        extra.append(sum(counts.values()) - sweeps * (2 + 16) - (4 * 16 + 2) * attempts)
        extra_calls.append(sum(counts.calls.values()) - sweeps * (1 + 8)
                           - (4 * 8 + 1) * attempts)
    assert extra[0] == extra[1] == 2 + (sweeps - 1)
    assert extra_calls[0] == extra_calls[1] == 1 + (sweeps - 1)


@pytest.mark.parametrize("study", ["shorttime", "separation"])
def test_sweeps_report_their_largest_sup_growth(study, medium_params, monkeypatch):
    # the largest sup norm over each sweep's accepted steps over its initial
    # one, recomputed from the trajectory that integrate returned to it
    growth = []

    def recorded(state0, *args):
        traj = integrate(state0, *args)
        sups = np.array(traj.sup_norms)[:, 1:]
        growth.append(float(sups.max()) / max(state0.rho.sup_norm(), state0.u.sup_norm()))
        return traj

    monkeypatch.setattr(experiments, "integrate", recorded)
    if study == "shorttime":
        report, keys = study_short_time(medium_params, SHORT_T_MAX), ["sup_growth_max"]
    else:
        report = study_separation(medium_params, 5, 8)
        keys = ["sup_growth_max", "control_sup_growth_max"]
    assert [report.params[key] for key in keys] == growth
    for key in keys:
        assert 0 < report.params[key] < solver.BLOWUP_FACTOR


def test_invariant_drift_measures_the_time_error(medium_params, monkeypatch):
    # int rho^2 and int (u^2 + u_x^2) drift only by the RK4 error, which
    # the step cap sets once the tolerance is loose enough that the
    # controller does not (at the default RTOL the controller keeps the
    # drift at its 1e-16 roundoff on this grid).  The drift is that of the
    # one landed record, at t_max = 2; the study splits what is left of it
    # evenly into steps of at most the cap.  Measured at 2^12/64, t_max 2:
    # 4.4e-11 and 2.0e-11 with steps of up to 0.42 (cap 0.5), 3.2e-12 and
    # 1.4e-12 with steps of up to 0.24 (cap 0.25), falls of 13.8 and 14.0
    params = replace(medium_params, num_terms=7, grid=Grid(2**12, 64.0))
    monkeypatch.setattr(solver, "RTOL", 1.0)
    drifts = []
    for cap in (0.5, 0.25):
        report = study_short_time(params, 2.0, dt_cap=cap)
        assert cap / 2 < report.params["dt"] <= cap
        drifts.append(np.array([report.params["invariant_drift_rho"],
                                report.params["invariant_drift_u"]]))
    assert np.all(drifts[0] > 1e-11)
    assert np.all(drifts[1] <= drifts[0] / 8)


def test_separation_reports_the_data_sweeps_invariant_drift(separation_report):
    # the data sweep alone, at its roundoff under the default tolerance
    for key in ("invariant_drift_rho", "invariant_drift_u"):
        assert 0 <= separation_report.params[key] < 1e-14


def test_separation_reports_the_control_sweeps_diagnostics(separation_report):
    # the control sweep's own largest per-step error and invariant drifts,
    # measured here (the control on 512 points): 1.17e-10, and 1.3e-15 and
    # 6.3e-16.  The header's time_error_max covers both sweeps, and here it
    # is the control's
    params = separation_report.params
    assert 0 < params["control_time_error_max"] <= params["time_error_max"]
    for key in ("control_invariant_drift_rho", "control_invariant_drift_u"):
        assert 0 <= params[key] < 1e-14


@pytest.mark.parametrize("s,p", [(3.1, 1.0), (2.6, math.inf), (2.6, 2.0)],
                         ids=["3.1-1", "2.6-inf", "2.6-2"])
def test_separation_and_blockscale_pass_at_the_paper_edges(medium_params, s, p):
    # every verdict of both studies at the edges of the theorem's range
    # s > max(2 + 1/p, 5/2), 1 <= p <= inf (shorttime's are
    # TestShortTimeStudy's); each report carries its whole verdict set
    params = replace(medium_params, s=s, p=p)
    for report, verdicts in ((study_separation(params, 5, 8, delta=0.1), 4),
                             (study_block_scaling(params, 4, 8), 6)):
        assert len(report.verdicts) == verdicts
        assert [v.name for v in report.verdicts if not v.passed] == []


def _data_grid_control(params, n_min, n_max, delta):
    """The control distances of ``study_separation`` with the control
    integrated and measured on the data grid, in its one sweep through the
    horizons, from the half spectra of its records, and that sweep's
    accepted steps."""
    n_list, cfg = experiments.check_separation(params, n_min, n_max, delta, None)
    bank = build_filter_bank(params.grid)
    weights = [_block_weights(bank, params.s - 1), _block_weights(bank, params.s)]
    control = CONTROL_AMPLITUDE * build_bump(params.grid)
    distances, start = [], []

    def collapse(record):
        if not start:  # the control's own half spectra
            start.append(record.spectra)
            return
        diff = record.spectra - start[0]
        distances.append(sum(float(np.max(w * _block_norms(bank, half, params.p)))
                             for w, half in zip(weights, diff)))

    traj = integrate(SystemState(rho=control, u=control), cfg,
                     checkpoints=[delta * 2.0**-n for n in n_list], visit=collapse)
    return distances[::-1], len(traj.errors)


def _per_horizon_separation_rows(params, n_range, delta):
    """Separation rows from one fixed-step integration per horizon t_n, each
    from the data, by the rule the studies used before error control: steps
    of min(1e-4, t_n / 64)."""
    s, p = params.s, params.p
    data = build_initial_data(params)
    bank = build_filter_bank(params.grid)
    energy0 = besov_norm(bank, data.rho, s - 1, p) + besov_norm(bank, data.u, s, p)
    control = CONTROL_AMPLITUDE * build_bump(params.grid)
    rows = []
    for n in n_range:
        t_n = delta * 2.0**-n
        dt = min(1e-4, t_n / 64)
        quarter = [t_n * k / 4 for k in (1, 2, 3, 4)]
        states = fixed_step_states(data, dt, quarter)
        energy_ratio = max(
            (besov_norm(bank, st.rho, s - 1, p) + besov_norm(bank, st.u, s, p)) / energy0
            for st in states
        )
        final = states[-1]
        drho, du = final.rho - data.rho, final.u - data.u
        full_rho = besov_norm(bank, drho, s - 1, p)
        full_u = besov_norm(bank, du, s, p)
        block_sep = 2.0 ** (n * (s - 1)) * lp_norm(dyadic_block(bank, drho, n), p) + 2.0 ** (
            n * s
        ) * lp_norm(dyadic_block(bank, du, n), p)
        cfinal = fixed_step_states(SystemState(rho=control, u=control), dt, [t_n])[-1]
        control_dist = (besov_norm(bank, cfinal.rho - control, s - 1, p)
                        + besov_norm(bank, cfinal.u - control, s, p))
        rows.append((n, t_n, block_sep, full_rho, full_u, full_rho + full_u,
                     energy_ratio, control_dist))
    return rows


def stack(*fields):
    """The (k, n) stack of the fields' grid values that ``pair_ratios`` takes."""
    return np.array([f.values for f in fields])


def one_pair_ratios(bank, u, v, s, p):
    """``pair_ratios`` of the single pair (u, v), as a tuple of floats."""
    return tuple(pair_ratios(bank, stack(u), stack(v), s, p)[0].tolist())


class TestInequalitiesStudy:
    def test_all_ratio_families_bounded_and_stable(self, inequalities_report):
        assert inequalities_report.passed
        for family in ("product_law", "commutator", "smoothing"):
            assert inequalities_report.verdict(f"{family}_max_finite").passed
            assert inequalities_report.verdict(f"{family}_stable").passed

    def test_deterministic_given_seed(self, inequalities_report):
        again = study_inequalities(corpus_size=100, seed=11)
        assert again.rows == inequalities_report.rows

    def test_threaded_and_inline_give_the_same_corpus(self, monkeypatch):
        # corpus B runs on the solver's worker thread when a second CPU is
        # usable, and after corpus A on the caller when not
        grid = Grid(2**9, 64.0)
        submit = solver._pool.submit
        runs = {}
        for usable in ({0, 1}, {0}):
            submits = []
            see_cpus(monkeypatch, usable)
            monkeypatch.setattr(solver._pool, "submit",
                                lambda f: submits.append(f) or submit(f))
            runs[len(usable)] = study_inequalities(corpus_size=100, seed=5, grid=grid).rows
            assert len(submits) == (1 if len(usable) == 2 else 0)
            assert len(fft_threads()) <= 1
        assert [r[:2] for r in runs[2]] == [(i, c) for c in "AB" for i in range(100)]
        assert runs[2] == runs[1]

    def test_band_ladder_separates_a_false_smoothing_estimate(self, monkeypatch):
        # a negative control along a band ladder: at box 64 the corpus band
        # doubles with each grid 2^10 .. 2^13.  The smoothing ratio's maximum
        # stays flat: 0.5861, 0.5832, 0.5823, 0.5784, a slope of -0.006 in
        # log2 per rung.  Without (1 - dxx)^-1 the ratio is ||u||_{B^s} /
        # ||u||_{B^(s-2)}, unbounded: its maximum is 4^J at the top block J
        # below the band, exactly 64, 256, 1024, 4096, a slope of 2.  Yet
        # all six verdicts pass on every rung either way, so today's
        # verdicts cannot tell the true estimate from the false one
        rungs = np.arange(4)

        def ladder():
            reports = [study_inequalities(100, 2026, Grid(2 ** (10 + k), 64.0))
                       for k in range(rungs.size)]
            assert all(report.passed for report in reports)
            return np.log2([max(row[4] for row in report.rows) for report in reports])

        true = ladder()
        monkeypatch.setattr(experiments, "_smoothing_symbol",
                            lambda grid: np.ones(grid.half_frequencies.size))
        false = ladder()
        assert np.array_equal(false, 6 + 2 * rungs)
        assert np.allclose(2**true, [0.5861, 0.5832, 0.5823, 0.5784], rtol=0, atol=5e-5)
        assert abs(np.polyfit(rungs, true, 1)[0]) < 0.05

    def test_rejects_small_corpus(self):
        with pytest.raises(ValueError):
            study_inequalities(corpus_size=10, seed=0)

    @pytest.mark.parametrize("kwargs,message", [
        # fields below Nyquist/4 multiply to below Nyquist/2 = 1.84, inside
        # the low-pass plateau, where every commutator block vanishes
        ({"grid": Grid(2**12, 7000.0)}, "Nyquist"),
        ({"seed": -1}, "seed"),
    ])
    def test_rejects_degenerate_corpus(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            study_inequalities(**{"corpus_size": 100, "seed": 0, **kwargs})

    def test_rejects_regularity_outside_regime(self):
        # the regime rule s > max(2 + 1/p, 5/2) of the data studies, here at p = 2
        with pytest.raises(ValueError, match="5/2"):
            study_inequalities(corpus_size=100, seed=3, s=2.0)

    def test_refuses_an_s_whose_ratios_may_overflow(self):
        # on the default grid at p = 2 the bound on every numerator and
        # denominator of the ratios is 2^1019 at s = 73 and 2^1033 at s = 74,
        # the first integer s refused (before the rule, a run at seed 2026
        # overflowed from s = 82 on)
        grid = Grid(*experiments.DEFAULT_INEQUALITY_GRID)
        assert experiments.check_inequalities(100, 0, grid, 73.0, 2.0) == 2.0
        with pytest.raises(ValueError, match="s = 74 may overflow a corpus ratio"):
            experiments.check_inequalities(100, 0, grid, 74.0, 2.0)
        # the default run and the paper's (s, p) edges stay accepted
        for s, p in ((3.0, 2.0), (3.1, 1.0), (2.6, math.inf), (2.6, 2.0)):
            assert experiments.check_inequalities(100, 0, grid, s, p) == p

    def test_seed_27_reproduces_a_spread_past_the_stability_factor(self):
        # the known reproducer of a corpus pair whose product-law maxima
        # disagree by more than the factor 2: the sampling of two 100-pair
        # maxima, not a defect, pinned so that any change that moves it shows
        report = study_inequalities(100, 27)
        verdict = report.verdict("product_law_stable")
        assert not verdict.passed
        assert verdict.observed == pytest.approx(2.1830159998746894, rel=1e-12, abs=0)

    def test_equal_fields_give_positive_ratio(self, small_grid, small_bank):
        u = random_field(small_grid, seed=40)
        r, _, _ = one_pair_ratios(small_bank, u, u, 3.0, 2.0)
        assert math.isfinite(r) and r > 0

    def test_constant_v_gives_zero_commutator_ratio(self, small_grid, small_bank):
        from novlab import RealField

        u = random_field(small_grid, seed=41)
        v = RealField(small_grid, np.full(small_grid.num_points, 2.0))
        _, r, _ = one_pair_ratios(small_bank, u, v, 3.0, 2.0)
        assert r < 1e-10

    def test_smoothing_ratio_bounded_by_one_ish(self, small_grid, small_bank):
        u = random_field(small_grid, seed=42)
        # the multiplier never exceeds 1, and the Besov reweighting 2^(2j)
        # exactly offsets the ring decay of 1/(1+xi^2) up to ring constants
        _, _, r = one_pair_ratios(small_bank, u, u, 3.0, 2.0)
        assert 0 < r < 3.0

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_pair_ratios_match_public_compositions(self, small_grid, small_bank, p):
        rng = np.random.default_rng(7)
        u = random_band_limited_field(small_grid, rng)
        v = random_band_limited_field(small_grid, rng)
        s, bank = 3.0, small_bank

        def besov(f, t):
            return besov_norm(bank, f, t, p)

        vx = derivative(v)
        comm = max(
            2.0 ** (j * s) * lp_norm(dyadic_block(bank, product(u, vx), j)
                                     - product(u, dyadic_block(bank, vx, j)), p)
            for j in range(-1, bank.j_max + 1)
        )
        expected = (
            besov(product(u, v), s - 2) / (besov(u, s - 2) * besov(v, s - 1)),
            comm / (lp_norm(derivative(u), math.inf) * besov(v, s)
                    + lp_norm(vx, math.inf) * besov(u, s)),
            besov(helmholtz_inverse(u), s) / besov(u, s - 2),
        )
        got = one_pair_ratios(bank, u, v, s, p)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)

    def test_pair_guards_the_product(self, small_grid, small_bank):
        # u at xi = 98.2 is resolved, but u^2 puts half its energy at 196.3,
        # above the guard frequency 1.5 * 2^7 = 192 and below Nyquist 201
        u = mode(small_grid, 1000)
        with pytest.raises(UnresolvedSpectrumError):
            one_pair_ratios(small_bank, u, u, 3.0, 2.0)
        # each row of a stack is judged on its own, wherever it sits
        ok = random_field(small_grid, seed=43)
        with pytest.raises(UnresolvedSpectrumError):
            pair_ratios(small_bank, stack(ok, ok, u), stack(ok, ok, u), 3.0, 2.0)

    def test_zero_row_gives_zero_ratios_and_spares_the_others(self, small_grid, small_bank):
        # a zero u makes every denominator of its row zero: that row reads 0,
        # without a warning, and the other rows keep the bits they get alone
        rng = np.random.default_rng(12)
        u = random_band_limited_values(small_grid, rng, 3)
        v = random_band_limited_values(small_grid, rng, 3)
        u[1] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = pair_ratios(small_bank, u, v, 3.0, 2.0)
        assert got[1].tolist() == [0.0, 0.0, 0.0]
        for row in (0, 2):
            alone = pair_ratios(small_bank, u[row:row + 1], v[row:row + 1], 3.0, 2.0)
            assert np.array_equal(got[row], alone[0])

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_stacked_pairs_match_pairs_alone(self, small_grid, small_bank, p):
        # every transform and reduction runs along the last axis, so a row of
        # a stack gets the bits it gets alone
        fields = random_band_limited_values(small_grid, np.random.default_rng(13), 10)
        u, v = fields[0::2], fields[1::2]
        s = 3.1 if p == 1.0 else 3.0
        got = pair_ratios(small_bank, u, v, s, p)
        assert got.shape == (5, 3)
        for row in range(5):
            alone = pair_ratios(small_bank, u[row:row + 1], v[row:row + 1], s, p)
            assert np.array_equal(got[row], alone[0])

    @pytest.mark.parametrize("s,p", [(3.1, 1.0), (3.0, 2.0), (3.0, math.inf)])
    def test_chunks_never_mix_rows(self, monkeypatch, s, p):
        # 101 pairs leave the last chunk partial at any chunk size above 1;
        # 2^12/64 is the default corpus grid
        assert 101 % CORPUS_CHUNK != 0
        grids = (Grid(2**9, 64.0), Grid(2**12, 64.0))
        chunked = [study_inequalities(corpus_size=101, seed=9, grid=grid, s=s, p=p)
                   for grid in grids]
        monkeypatch.setattr(experiments, "CORPUS_CHUNK", 1)
        for grid, report in zip(grids, chunked):
            one_by_one = study_inequalities(corpus_size=101, seed=9, grid=grid, s=s, p=p)
            assert [r[:2] for r in report.rows] == [(i, c) for c in "AB" for i in range(101)]
            assert report.rows == one_by_one.rows

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_chunk_runs_in_its_five_stacks(self, small_grid, small_bank, p):
        # a warm chunk of CORPUS_CHUNK pairs on the corpus grid, its draw and
        # its ratios, allocates its five stacks and about 0.4 value stacks S
        # (k rows of n doubles) more: 5.42 S at every p, measured at k = 6.
        # A sweep that took one fresh stack per block would peak above 6 S
        s = 3.1 if p == 1.0 else 3.0
        rng = np.random.default_rng(14)

        def chunk():
            return _corpus_chunk(small_bank, rng, _pair_stacks(small_grid, CORPUS_CHUNK), s, p)

        chunk()  # warm
        _, peak = traced_peak(chunk)
        assert peak <= 5.6 * CORPUS_CHUNK * small_grid.num_points * 8

    def test_pair_transform_count(self, small_grid, small_bank, count_ffts):
        # the corpus grid has 9 blocks, of which blocks 6 and 7 start above
        # the corpus band and take no transform.  A chunk of k pairs draws
        # its 2k fields with one irfft and takes 11 rffts (u, v, uv, u v_x
        # and one per swept commutator block) and 9 irffts (v_x, once for
        # sup|v_x| and u v_x, sup|u_x| and the 7 swept blocks), each on the
        # whole stack of k rows, whatever k: 22 transforms a pair.  The
        # corpus multiplies on its own grid, so no transform is padded, and
        # blocks -1..4 (up to bin 434) multiply on n/2 points, below its
        # Nyquist bin n/4 = 1024 with u below bin 513: 10 transforms of n
        # points and 12 of n/2
        assert small_bank.j_max + 2 == 9
        n = small_grid.num_points
        rng = np.random.default_rng(3)
        counts = count_ffts()
        pairs = 0
        for chunks, k in enumerate((1, CORPUS_CHUNK), start=1):
            pairs += k
            fields = random_band_limited_values(small_grid, rng, 2 * k)
            pair_ratios(small_bank, fields[0::2], fields[1::2], 3.0, 2.0)
            assert counts.calls == {"rfft": 11 * chunks, "irfft": (1 + 9) * chunks}
            assert counts == {"rfft": 11 * pairs, "irfft": (2 + 9) * pairs}
            assert counts.lengths == {n: 10 * pairs, n // 2: 12 * pairs}


@pytest.mark.parametrize("run,message", [
    (lambda prm: study_block_scaling(replace(prm, s=300.0), 4, 8), "s = 300"),
    (lambda prm: study_short_time(replace(prm, s=200.0), SHORT_T_MAX), "s = 200"),
    (lambda prm: study_short_time(prm, SHORT_T_MAX, dt_cap=1e-300), "dt"),
    (lambda prm: study_separation(replace(prm, s=200.0), 5, 8), "s = 200"),
    (lambda prm: study_separation(prm, 5, 8, dt_cap=1e-14), "dt"),
    (lambda prm: study_inequalities(100, 0, s=400.0), "s = 400"),
    (lambda prm: study_inequalities(100, -1), "seed"),
    # two bands are too few for a power-law fit; blockscale's bands start
    # at 3, separation's at 5, and both end below num_terms = 9
    (lambda prm: study_block_scaling(prm, 5, 6), r"at least 3 bands .* got \[5, 6\]"),
    (lambda prm: study_block_scaling(prm, 2, 6), r"= \[3, 8\], got \[2, 6\]"),
    (lambda prm: study_block_scaling(prm, 6, 9), r"= \[3, 8\], got \[6, 9\]"),
    (lambda prm: study_separation(prm, 5, 6), r"at least 3 bands .* got \[5, 6\]"),
    (lambda prm: study_separation(prm, 4, 8), r"= \[5, 8\], got \[4, 8\]"),
    (lambda prm: study_separation(prm, 6, 9), r"= \[5, 8\], got \[6, 9\]"),
    # int() would truncate these to [4, 8] and [5, 8]
    (lambda prm: study_block_scaling(prm, 4.9, 8.7), r"integers, got \[4.9, 8.7\]"),
    (lambda prm: study_separation(prm, 5.5, 8), r"integers, got \[5.5, 8\]"),
    # the step-cap rule (SolverConfig's t_final) runs before t_max > 0
    (lambda prm: study_short_time(prm, 0.0), "t_max must be positive"),
    (lambda prm: study_short_time(prm, -1.0), "t_final"),
    (lambda prm: study_short_time(prm, math.nan), "t_final"),
    (lambda prm: study_short_time(prm, math.inf), "t_final"),
    (lambda prm: study_inequalities(corpus_size=100, seed=3, p="x"), "could not convert"),
], ids=["blockscale-s", "shorttime-s", "shorttime-dt", "separation-s", "separation-dt",
        "inequalities-s", "inequalities-seed", "blockscale-two-bands", "blockscale-n_min",
        "blockscale-n_max", "separation-two-bands", "separation-n_min", "separation-n_max",
        "blockscale-fraction", "separation-fraction",
        "shorttime-t_max-0", "shorttime-t_max-neg", "shorttime-t_max-nan",
        "shorttime-t_max-inf", "inequalities-p"])
def test_studies_reject_bad_input_before_any_transform(run, message, medium_params,
                                                       count_ffts):
    counts = count_ffts()
    with pytest.raises(ValueError, match=message):
        run(medium_params)
    assert counts == {"rfft": 0, "irfft": 0}


@pytest.mark.parametrize("p,value", [("inf", math.inf), ("2", 2.0)])
def test_string_p_runs_as_its_float(p, value, small_grid):
    # a study reads p as the float that check_regime returns
    params = [IllposedDataParams(s=3.0, p=q, num_terms=6, grid=small_grid) for q in (p, value)]
    got, want = (study_block_scaling(prm, 3, 5) for prm in params)
    assert got.rows == want.rows and got.params["p"] == value
    got, want = (study_inequalities(corpus_size=100, seed=5, grid=small_grid, s=3.5, p=q)
                 for q in (p, value))
    assert got.rows == want.rows and got.params["p"] == value


def test_integral_band_bounds_pass(medium_params):
    assert experiments.check_blockscale(medium_params, 4.0, 8.0) == [4, 5, 6, 7, 8]
    n_list, _ = experiments.check_separation(medium_params, 5.0, 8, 0.1, None)
    assert n_list == [5, 6, 7, 8]


@pytest.mark.parametrize("report", ["blockscale_report", "shorttime_report",
                                    "separation_report", "inequalities_report"])
def test_criteria_name_declared_tolerances(report, request):
    # the benchmark's reference gate looks up every tol_* a criterion names
    report = request.getfixturevalue(report)
    for v in report.verdicts:
        for key in re.findall(r"tol_(\w+)", v.criterion):
            assert key in report.tolerances, (v.name, key)


def test_judges_read_declared_tolerances():
    report = StudyReport("t", {}, {"r2_min": 0.99, "slope": 0.1}, ["n"], [])
    report.judge("above", 0.995, "r2", ">=", "r2_min")
    report.judge("below", 0.995, "r2", "<=", "r2_min")
    report.judge_slope("near", ScalingFit(-1.05, 0.0, 1.0, ()), -1.0, "slope")
    report.judge_slope("far", ScalingFit(-1.15, 0.0, 1.0, ()), -1.0, "slope")
    assert [(v.passed, v.criterion) for v in report.verdicts] == [
        (True, "r2 >= tol_r2_min"), (False, "r2 <= tol_r2_min"),
        (True, "slope within -1 +- tol_slope"), (False, "slope within -1 +- tol_slope"),
    ]


class TestReportSerialization:
    def test_csv_round_trip_and_verdict_block(self, medium_params, tmp_path):
        report = study_block_scaling(medium_params, 4, 8)
        path = tmp_path / "blockscale.csv"
        write_report_csv(report, path)
        text = path.read_text().splitlines()
        assert any(line.startswith("# study=blockscale") for line in text)
        assert any(line.startswith("# s=3.0") for line in text)
        assert any(line.startswith("# tol_slope=") for line in text)
        assert any(line.startswith("# verdict: rho_slope=PASS") for line in text)
        data_rows = [l for l in text if not l.startswith("#")]
        assert len(data_rows) == len(report.rows)

    def test_bit_reproducible_except_timestamp(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(study_inequalities(corpus_size=100, seed=5), a)
        write_report_csv(study_inequalities(corpus_size=100, seed=5), b)
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("# generated=")]
        assert strip(a) == strip(b)

    def test_write_study_emits_plot_script(self, medium_params, tmp_path):
        report = study_block_scaling(medium_params, 4, 8)
        write_study(report, tmp_path / "out")
        gp = (tmp_path / "out.gp").read_text()
        assert "plot" in gp and "out.csv" in gp
        assert (tmp_path / "out.csv").exists()


class TestRandomFieldGenerator:
    def test_stack_matches_consecutive_fields(self, small_grid):
        # one draw of k fields gives the bits, and leaves the generator in
        # the state, of k consecutive random_band_limited_field calls
        one, many = np.random.default_rng(21), np.random.default_rng(21)
        fields = [random_band_limited_field(small_grid, one) for _ in range(5)]
        values = random_band_limited_values(small_grid, many, 5)
        assert np.array_equal(values, stack(*fields))
        assert one.bit_generator.state == many.bit_generator.state

    def test_band_limited_and_normalized(self, small_grid, small_bank):
        rng = np.random.default_rng(0)
        f = random_band_limited_field(small_grid, rng)
        assert f.sup_norm() == pytest.approx(1.0, rel=1e-12)
        from novlab.spectral import half_spectrum

        c = half_spectrum(f)
        xi = small_grid.half_frequencies
        hi = np.abs(c[xi > 0.5 * small_grid.nyquist]).max()
        assert hi < 1e-12

    def test_energy_above_corpus_band_is_roundoff(self, small_grid):
        # the premise of forming the corpus products on the grid: fields
        # below CORPUS_BAND = Nyquist/4 multiply to products below Nyquist
        from novlab.spectral import _bin_energy, half_spectrum

        rng = np.random.default_rng(0)
        above = small_grid.half_frequencies > CORPUS_BAND * small_grid.nyquist
        worst = 0.0
        for _ in range(200):
            e = _bin_energy(half_spectrum(random_band_limited_field(small_grid, rng)))
            worst = max(worst, e[above].sum() / e.sum())
        assert worst <= 1e-28

    @pytest.mark.parametrize("num_points", [2**12, 2**9])
    def test_draw_and_sweep_share_one_band(self, num_points):
        # _corpus_band is the first bin the draw leaves exactly zero, and the
        # band from which the commutator sweep skips a block
        grid = Grid(num_points, 64.0)
        band = _corpus_band(grid)
        coeffs = np.empty((20, num_points // 2 + 1), dtype=complex)
        _draw_fields(grid, np.random.default_rng(17), coeffs, np.empty((20, num_points)))
        assert np.all(coeffs[:, band:] == 0.0)
        assert np.all(coeffs[:, band - 1] != 0.0)
        if (num_points, 64.0) == DEFAULT_INEQUALITY_GRID:
            # blocks 6 and 7 start at or above the band, block 5 below it
            bank = build_filter_bank(grid)
            start = {j: bank.blocks[j + 1][0] for j in (5, 6, 7)}
            assert band == 513 and bank.j_max == 7
            assert start[5] < band <= start[6] < start[7]
