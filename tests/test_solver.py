import math
import os
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from novlab import (
    BlowupError,
    Grid,
    RealField,
    SolverConfig,
    SystemState,
    build_bump,
    build_filter_bank,
    build_initial_data,
    fit_powerlaw,
    integrate,
    modulated_bump,
    step_rk4,
)

from novlab import solver
from novlab.experiments import _besov_rows
from novlab.littlewood_paley import _block_energies
from novlab.solver import StepSizeError, _StepNorm
from novlab.spectral import _bin_energy, field_from_half

from helpers import (LAMBDA, composed_rhs, derivative, extend_half, fft_threads,
                     fixed_step_states, lp_norm, mode, padded_values, product,
                     reference_rhs_half, rhs, see_cpus, traced_peak, truncated_spectrum)


def _zero(grid):
    return RealField(grid, np.zeros(grid.num_points))


def _velocity_terms(u):
    """d/dx G(u^3) + (3/2) d/dx G(u u_x^2) + (1/2) G(u_x^3), G = (1-dxx)^-1,
    read off the RHS as u_t at rho = 0 minus the transport term u^2 u_x."""
    _, u_t = rhs(SystemState(rho=_zero(u.grid), u=u))
    return u_t - product(u, u, derivative(u))


def _coupling_terms(u, rho):
    """-(1/2) d/dx G(u rho^2) - (1/2) G(u_x rho^2), read off the RHS as u_t at
    (rho, u) minus u_t at (0, u)."""
    _, u_t = rhs(SystemState(rho=rho, u=u))
    _, u_t0 = rhs(SystemState(rho=_zero(u.grid), u=u))
    return u_t - u_t0


def _smoothing_oracle_terms(grid, k, amplitude):
    """Trig expansion of the u-only smoothing terms for u = A cos(omega x)."""
    om = 2 * math.pi * k / grid.length
    a3 = amplitude**3
    s1 = mode(grid, k, "sin").values
    s3 = mode(grid, 3 * k, "sin").values
    g1, g3 = 1.0 / (1.0 + om**2), 1.0 / (1.0 + 9.0 * om**2)
    p1 = -(3 * a3 * om / 4.0) * (s1 * g1 + s3 * g3)
    p2 = (3 * a3 * om**3 / 8.0) * (-s1 * g1 + 3 * s3 * g3)
    p3 = -(a3 * om**3 / 8.0) * (3 * s1 * g1 - s3 * g3)
    return p1 + p2 + p3


class TestNonlocalVelocityTerms:
    def test_zero(self, small_grid):
        out = _velocity_terms(_zero(small_grid))
        assert lp_norm(out, math.inf) == 0.0

    def test_constant(self, small_grid):
        u = RealField(small_grid, np.full(small_grid.num_points, 1.3))
        out = _velocity_terms(u)
        assert lp_norm(out, math.inf) < 1e-13

    @pytest.mark.parametrize("k,amplitude", [(3, 1.0), (7, 0.5)])
    def test_single_mode_trig_oracle(self, small_grid, k, amplitude):
        u = amplitude * mode(small_grid, k)
        out = _velocity_terms(u)
        expected = _smoothing_oracle_terms(small_grid, k, amplitude)
        scale = np.abs(expected).max()
        assert np.abs(out.values - expected).max() < 1e-10 * scale


class TestNonlocalCouplingTerms:
    def test_rho_zero(self, small_grid):
        u = mode(small_grid, 4)
        out = _coupling_terms(u, _zero(small_grid))
        assert lp_norm(out, math.inf) == 0.0

    def test_constant_u(self, small_grid):
        c = 2.0
        u = RealField(small_grid, np.full(small_grid.num_points, c))
        r = mode(small_grid, 5)
        out = _coupling_terms(u, r)
        # u_x = 0 kills the plain term; the rest is
        # -(c/2) d/dx G(rho^2) = (c nu / 2) sin(2 nu x) / (1 + 4 nu^2)
        nu = 2 * math.pi * 5 / small_grid.length
        expected = (c * nu / 2.0) * mode(small_grid, 10, "sin").values / (1.0 + 4 * nu**2)
        assert np.abs(out.values - expected).max() < 1e-12

    def test_single_mode_trig_oracle(self, small_grid):
        ku, kr, a, b = 6, 2, 0.8, 1.1
        om = 2 * math.pi * ku / small_grid.length
        nu = 2 * math.pi * kr / small_grid.length
        u = a * mode(small_grid, ku)
        r = b * mode(small_grid, kr)
        out = _coupling_terms(u, r)
        x = small_grid.points

        def gterm(freq):
            return np.sin(freq * x) / (1.0 + freq**2)

        ab2 = a * b * b
        q1 = (ab2 / 4.0) * (
            om * gterm(om)
            + 0.5 * (om + 2 * nu) * gterm(om + 2 * nu)
            + 0.5 * (om - 2 * nu) * gterm(om - 2 * nu)
        )
        q2 = (ab2 * om / 4.0) * (
            gterm(om) + 0.5 * gterm(om + 2 * nu) + 0.5 * gterm(om - 2 * nu)
        )
        expected = q1 + q2
        scale = np.abs(expected).max()
        assert np.abs(out.values - expected).max() < 1e-10 * scale


class TestRhs:
    def test_zero_state(self, small_grid):
        st = SystemState(rho=_zero(small_grid), u=_zero(small_grid))
        r_t, u_t = rhs(st)
        assert lp_norm(r_t, math.inf) == 0.0
        assert lp_norm(u_t, math.inf) == 0.0

    def test_u_zero_freezes_everything(self, small_grid):
        st = SystemState(rho=mode(small_grid, 3), u=_zero(small_grid))
        r_t, u_t = rhs(st)
        assert lp_norm(r_t, math.inf) == 0.0
        assert lp_norm(u_t, math.inf) == 0.0

    def test_matches_term_by_term_composition(self, medium_data):
        rho0, u0 = medium_data.rho, medium_data.u
        st = SystemState(rho=rho0, u=u0)
        r_t, u_t = rhs(st)
        rho_expected, u_expected = composed_rhs(rho0, u0)
        assert lp_norm(r_t - rho_expected, math.inf) < 1e-12 * lp_norm(r_t, math.inf)
        assert lp_norm(u_t - u_expected, math.inf) < 1e-12 * lp_norm(u_t, math.inf)

    def test_matches_composition_on_quarter_nyquist_mode(self, small_grid):
        # a unit mode at half Nyquist: its cube folds back onto the mode
        # itself unless the products are padded, so an aliased kernel would
        # miss the (dealiased) composition by O(1)
        f = mode(small_grid, small_grid.num_points // 4)
        r_t, u_t = rhs(SystemState(rho=f, u=f))
        rho_expected, u_expected = composed_rhs(f, f)
        assert lp_norm(r_t - rho_expected, math.inf) < 1e-12 * lp_norm(r_t, math.inf)
        assert lp_norm(u_t - u_expected, math.inf) < 1e-12 * lp_norm(u_t, math.inf)

    def test_rho_zero_annihilates_coupling(self, small_grid):
        z = _zero(small_grid)
        u0 = modulated_bump(small_grid, LAMBDA * 2.0**3)
        v0, w0 = rhs(SystemState(rho=z, u=u0))
        assert lp_norm(v0, math.inf) < 1e-15
        _, expected = composed_rhs(z, u0)
        scale = lp_norm(expected, math.inf)
        assert lp_norm(w0 - expected, math.inf) < 1e-12 * scale

    def test_single_mode_trig_oracle(self, small_grid):
        # u0 = rho0 = cos(xi0 x):
        # u0^2 drho0 + rho0 u0 du0 = -(xi0/2)(sin(xi0 x) + sin(3 xi0 x))
        k = 6
        xi0 = 2 * math.pi * k / small_grid.length
        f = mode(small_grid, k)
        v0, _ = rhs(SystemState(rho=f, u=f))
        expected = -(xi0 / 2.0) * (
            mode(small_grid, k, "sin").values + mode(small_grid, 3 * k, "sin").values
        )
        assert np.abs(v0.values - expected).max() < 1e-10 * xi0

    def test_even_data_gives_odd_rates(self, medium_data):
        st = medium_data
        r_t, u_t = rhs(st)
        n = st.grid.num_points
        reflect = (-np.arange(n)) % n
        for f in (r_t, u_t):
            residual = np.abs(f.values + f.values[reflect]).max()
            assert residual < 1e-10 * np.abs(f.values).max()


class TestStepRK4:
    def test_zero_fixed_point(self, small_grid):
        st = SystemState(rho=_zero(small_grid), u=_zero(small_grid))
        out = step_rk4(st, 1e-2).state
        assert lp_norm(out.rho, math.inf) == 0.0
        assert lp_norm(out.u, math.inf) == 0.0
        assert out.time == 1e-2

    def test_forward_backward_reversal_is_fifth_order_small(self, medium_data):
        # the dt^5 leading errors of the +dt and -dt steps cancel at leading
        # order, so the reversal residual decays at least like dt^5
        st = medium_data
        resid = []
        dts = [2e-2, 1e-2, 5e-3]
        for dt in dts:
            fwd = step_rk4(st, dt).state
            back = step_rk4(fwd, -dt).state
            r = max(
                np.abs(back.rho.values - st.rho.values).max(),
                np.abs(back.u.values - st.u.values).max(),
            )
            resid.append(r)
        fit = fit_powerlaw(list(zip(dts, resid)), kind="loglog")
        assert fit.slope >= 4.5
        assert resid[-1] < 1e-15

    def test_tiny_step_moves_state_only_by_its_increment(self, medium_data):
        # the state must never take a transform round trip, whose ~1e-17
        # roundoff would swamp an increment of order dt * rhs
        st = medium_data
        dt = 1e-30
        r_t, u_t = rhs(st)
        out = step_rk4(st, dt).state
        for new, old, rate in ((out.rho, st.rho, r_t), (out.u, st.u, u_t)):
            bound = 2 * abs(dt) * 1.01 * rate.sup_norm()
            assert np.abs(new.values - old.values).max() <= bound

    def test_error_estimate_sits_far_below_the_increment(self, medium_data):
        # k5 comes from the carried spectra, so a tiny step's estimate
        # h/6 (k4 - k5) carries no transform roundoff of the state; taken
        # from rfft(values) instead it would sit ~1e-9 below the increment
        st = medium_data
        norm = _StepNorm(st.grid, 3.0)
        step = step_rk4(st, 1e-6)
        assert norm(step.error) < 1e-12 * norm(step.increment)

    def test_first_order_consistency_with_rhs(self, medium_data):
        st = medium_data
        r_t, u_t = rhs(st)
        pts = []
        for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
            out = step_rk4(st, dt).state
            err = max(
                np.abs(out.rho.values - st.rho.values - dt * r_t.values).max(),
                np.abs(out.u.values - st.u.values - dt * u_t.values).max(),
            )
            pts.append((dt, err))
        fit = fit_powerlaw(pts, kind="loglog")
        assert fit.slope == pytest.approx(2.0, abs=0.1)


class TestIntegrate:
    def test_zero_horizon_returns_initial_state(self, medium_data):
        st = medium_data
        traj = integrate(st, SolverConfig(dt=1e-3, t_final=0.0))
        assert traj.final is st
        assert traj.sup_norms == ()

    def test_checkpoints_hit_exactly(self, medium_data):
        st = medium_data
        times = [1e-3, 2.5e-3, 4e-3]
        seen = []
        traj = integrate(st, SolverConfig(dt=3e-4, t_final=4e-3), checkpoints=times,
                         visit=lambda record: seen.append(record.state.time))
        # the start record, then one record per checkpoint
        assert seen == [st.time] + times
        assert traj.final.time == times[-1]
        assert len(traj.sup_norms) > 0

    def test_self_convergence_order_four(self, small_grid):
        # smooth O(1) data so the truncation error sits far above roundoff;
        # order is a property of the step, so the step is fixed
        from novlab import build_bump

        bump = 8.0 * build_bump(small_grid)
        st = SystemState(rho=bump, u=bump)
        t_final = 0.1
        finals = []
        for dt in (0.02, 0.01, 0.005):
            finals.append(fixed_step_states(st, dt, [t_final])[-1])
        e1 = max(
            np.abs(finals[0].rho.values - finals[1].rho.values).max(),
            np.abs(finals[0].u.values - finals[1].u.values).max(),
        )
        e2 = max(
            np.abs(finals[1].rho.values - finals[2].rho.values).max(),
            np.abs(finals[1].u.values - finals[2].u.values).max(),
        )
        order = math.log2(e1 / e2)
        assert order == pytest.approx(4.0, abs=0.3)

    def test_blowup_guard(self, medium_data):
        # inflate the data until the cubic rates destabilize this step size
        st = SystemState(rho=50.0 * medium_data.rho, u=50.0 * medium_data.u)
        with pytest.raises(BlowupError):
            step_rk4(st, 0.25, solver.BLOWUP_FACTOR * st.sup_norm())

    def test_blowup_guard_trips_on_real_growth(self, small_grid, monkeypatch):
        # the controller keeps its steps stable, so integrate trips the guard
        # where the sup norm really grows: on constant u = c the coupling
        # term -(c/2) d/dx G(rho^2) moves u away from c at rate ~0.25
        monkeypatch.setattr(solver, "BLOWUP_FACTOR", 1.001)
        u = RealField(small_grid, np.full(small_grid.num_points, 2.0))
        st = SystemState(rho=mode(small_grid, 5), u=u)
        with pytest.raises(BlowupError):
            integrate(st, SolverConfig(t_final=1.0))

    @pytest.mark.parametrize("row", [0, 1])
    def test_blowup_guard_sees_nan_in_either_field(self, small_grid, monkeypatch, row):
        # max(sup, nan) is sup, so a NaN in u would slip past a finiteness
        # test of the larger sup alone; the NaN enters one row of every rate
        # through the kernel's half on the grid
        grid_half = solver._grid_half

        def poisoned(y, work, rows, tau, weight):
            grid_half(y, work, rows, tau, weight)
            if tau is None:
                rows.view(complex)[row, 1] = math.nan

        monkeypatch.setattr(solver, "_grid_half", poisoned)
        st = SystemState(rho=mode(small_grid, 3), u=mode(small_grid, 5))
        with pytest.raises(BlowupError) as caught:
            step_rk4(st, 1e-3)
        assert caught.value.sup == math.inf

    @pytest.mark.parametrize("dt,t_final,s", [
        (0.0, 1.0, None), (-1e-3, 1.0, None), (math.nan, 1.0, None),
        (math.inf, 1.0, None), (1e-3, -1.0, None), (1e-3, math.nan, None),
        (1e-3, math.inf, None), (1e-3, 1.0, math.inf), (1e-3, 1.0, math.nan),
        # a cap below the step floor MIN_STEP_FRACTION t_final
        (1e-300, 1e-3, None), (1e-14, 1e-3, None),
        # a step-norm weight exponent j s overflows on some grid (j <= 1023)
        (None, 1.0, 1e308), (None, 1.0, -1e306),
    ])
    def test_config_rejects_bad_settings(self, dt, t_final, s):
        # s = None keeps the default s
        extra = {} if s is None else {"s": s}
        with pytest.raises(ValueError, match="dt must|t_final must|s must"):
            SolverConfig(dt=dt, t_final=t_final, **extra)

    def test_config_takes_an_s_whose_step_norm_weights_stay_finite(self, small_grid):
        for s in (80.0, -80.0, 1.7e305):
            SolverConfig(t_final=1.0, s=s)
            norm = _StepNorm(small_grid, s)
            assert np.all(np.isfinite(norm.weights))

    def test_start_record_rate_is_the_rhs_at_the_data(self, medium_data):
        st = medium_data
        records = []
        integrate(st, SolverConfig(t_final=1e-4), visit=records.append)
        start = records[0]
        assert start.state is st
        assert start.spectra.tobytes() == solver._spectra(st).tobytes()
        want = solver._rhs_half(solver._spectra(st), solver._Workspace(st.grid))
        assert start.rate.tobytes() == want.tobytes()
        for got, field in zip(start.rate, rhs(st)):
            assert field_from_half(st.grid, got).values.tobytes() == field.values.tobytes()

    def test_records_carry_the_step_that_ended_there(self, medium_data):
        # at each checkpoint: the accepted step's state, its carried spectra
        # and the kernel's rate at them; the sup norms the trajectory
        # records are the step's own, those of the state
        st = medium_data
        times = [1e-3, 2e-3]
        records = []
        traj = integrate(st, SolverConfig(t_final=2e-3), checkpoints=times,
                         visit=records.append)
        assert [record.state.time for record in records[1:]] == times
        assert records[-1].state is traj.final
        sups = {time: (sup_rho, sup_u) for time, sup_rho, sup_u in traj.sup_norms}
        for record in records[1:]:
            rate = solver._rhs_half(record.spectra, solver._Workspace(st.grid))
            assert record.rate.tobytes() == rate.tobytes()
            state = record.state
            assert sups[state.time] == (state.rho.sup_norm(), state.u.sup_norm())


class TestInterpolatedRecords:
    """Records at times the sweep does not land on, read from the step's
    cubic Hermite interpolant (``solver._hermite``), at 2^14/64."""

    @pytest.fixture(scope="class")
    def first_step(self, medium_data):
        st = medium_data
        return solver._rest(st), step_rk4(st, 1e-4)

    def test_ends_of_the_step_bit_for_bit(self, first_step):
        start, step = first_step
        ends = (solver._hermite(start.spectra, start.rate, step.increment, step.rate, 1e-4,
                                theta, np.empty_like(step.spectra)) for theta in (0.0, 1.0))
        assert next(ends).tobytes() == start.spectra.tobytes()
        assert next(ends).tobytes() == step.spectra.tobytes()

    def test_cubic_in_time_is_reproduced(self, medium_grid):
        # y(t) = a + b t + c t^2 + d t^3 with random complex coefficients,
        # from its values and slopes at t0 and t0 + h; measured 1.7e-16 of
        # the largest value
        rng = np.random.default_rng(5)
        shape = (2, medium_grid.num_points // 2 + 1)
        a, b, c, d = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                      for _ in range(4))

        def y(t):
            return a + t * (b + t * (c + t * d))

        def f(t):
            return b + t * (2 * c + t * 3 * d)

        t0, h = 0.3, 0.2
        scale = np.abs(y(t0 + h)).max()
        for theta in (0.1, 0.25, 0.5, 0.75, 1.0):
            got = solver._hermite(y(t0), f(t0), y(t0 + h) - y(t0), f(t0 + h), h, theta,
                                  np.empty(shape, dtype=complex))
            assert np.abs(got - y(t0 + theta * h)).max() <= 1e-15 * scale

    def test_interpolated_records_cost_no_kernel_call_and_no_transform(
            self, medium_data, monkeypatch, count_ffts):
        # the same checkpoints with and without interpolated times: the same
        # steps, bits, kernel calls and transforms; the interpolated records
        # come in time order among the landed ones
        st = medium_data
        cfg = SolverConfig(t_final=0.1 * 2.0**-5)
        ladder = [0.1 * 2.0**-n for n in (7, 6, 5)]
        between = [0.1 * 2.0**-n * 3 / 4 for n in (6, 5)]
        kernel = solver._rhs_half
        evals = []
        monkeypatch.setattr(solver, "_rhs_half",
                            lambda *a, **k: evals.append(1) or kernel(*a, **k))
        counts = count_ffts()
        runs = []
        for times in ((), between):
            evals.clear()
            counts.update(rfft=0, irfft=0)
            seen = []
            traj = integrate(st, cfg, ladder, lambda r: seen.append((r.time, r.interpolated)),
                             interpolated=times)
            runs.append((traj, len(evals), dict(counts), seen))
        (plain, evals, ffts, seen), (dense, evals_dense, ffts_dense, seen_dense) = runs
        assert evals > 0 and ffts["rfft"] > 0
        assert (evals_dense, ffts_dense) == (evals, ffts)
        assert dense.errors == plain.errors and dense.sup_norms == plain.sup_norms
        assert dense.final.u.values.tobytes() == plain.final.u.values.tobytes()
        assert [t for t, interpolated in seen_dense if not interpolated] == [t for t, _ in seen]
        assert [t for t, interpolated in seen_dense if interpolated] == sorted(between)
        assert [t for t, _ in seen_dense] == sorted(t for t, _ in seen_dense)

    def test_audit_norms_match_a_sweep_that_lands_there(self, medium_bank, medium_data):
        # the separation audit at 3 t_n/4, n = 5..8: the B^(s-1) x B^s norms
        # of the interpolant against those of a sweep that lands there.
        # Measured 1.4e-13 relative, held to 3e-13
        st = medium_data
        cfg = SolverConfig(t_final=0.1 * 2.0**-5)
        ladder = [0.1 * 2.0**-n for n in range(5, 11)]
        between = [0.1 * 2.0**-n * 3 / 4 for n in range(5, 9)]
        audits = []
        for checkpoints, times in ((ladder, between), (ladder + between, ())):
            audit = {}

            def visit(record):
                audit[record.time] = sum(_besov_rows(medium_bank, record.spectra, (2.0, 3.0), 2))

            integrate(st, cfg, checkpoints, visit, interpolated=times)
            audits.append(audit)
        read, landed = audits
        for t in between:
            assert read[t] == pytest.approx(landed[t], rel=3e-13, abs=0.0)

    def test_interpolated_records_raise_no_traced_peak(self, medium_data):
        # four steps of 1.25e-3 with one interpolated midpoint each: a record
        # built while the step's error is still held, or kept through the
        # next step, would peak one half-spectrum pair higher (measured 0.95
        # pair with the record built beside the step, 0.00 once it is let go)
        st = medium_data
        cfg = SolverConfig(t_final=5e-3, dt=1.25e-3)
        midpoints = [1.25e-3 * (k + 0.5) for k in range(4)]
        peaks = []
        for times in ((), midpoints):
            seen = []

            def sweep():
                return integrate(st, cfg, visit=lambda r: seen.append(r.time),
                                 interpolated=times)

            traj, peak = traced_peak(sweep)
            assert [h for h, _ in traj.errors] == pytest.approx([1.25e-3] * 4, rel=1e-12)
            assert len(seen) == 2 + len(times)
            peaks.append(peak)
        pair = solver._spectra(st).nbytes
        assert peaks[1] - peaks[0] <= 0.1 * pair

    @pytest.mark.parametrize("times", [
        [0.0], [-1e-4], [2e-3], [1e-3], [5e-4, 1e-3], [1.5e-3],
    ], ids=["t0", "before", "past-t_final", "checkpoint", "one-a-checkpoint",
            "past-the-last-checkpoint"])
    def test_times_outside_the_sweep_or_on_a_checkpoint_are_refused(self, medium_data, times):
        st = medium_data
        with pytest.raises(ValueError, match="interpolated times"):
            integrate(st, SolverConfig(t_final=2e-3), [1e-3], interpolated=times)

    def test_no_checkpoint_takes_no_interpolated_time(self, medium_data):
        st = medium_data
        with pytest.raises(ValueError, match="interpolated times"):
            integrate(st, SolverConfig(t_final=0.0), interpolated=[1e-4])


class TestErrorControl:
    @pytest.mark.parametrize("kind,num_points", [
        ("zero", 2**14), ("constant", 2**14), ("control", 2**14), ("control", 2**15),
    ])
    def test_controller_terminates(self, kind, num_points):
        # in fewer steps than the fixed rule's 64 to the separation horizon
        # t_5; the amplitude-24 control of the separation study has its top
        # blocks near the RK4 stability limit, and at 2^15 points their
        # roundoff would take the step down to 104 steps without the ATOL term
        from novlab import Grid, build_bump
        from novlab.experiments import CONTROL_AMPLITUDE

        grid = Grid(num_points, 64.0)
        if kind == "control":
            f = CONTROL_AMPLITUDE * build_bump(grid)
        else:
            f = RealField(grid, np.full(num_points, 0.0 if kind == "zero" else 1.5))
        t_final = 0.1 * 2.0**-5
        traj = integrate(SystemState(rho=f, u=f), SolverConfig(t_final=t_final))
        assert traj.final.time == t_final
        assert 1 <= len(traj.sup_norms) < 64
        assert len(traj.errors) == len(traj.sup_norms)

    def test_unmeetable_tolerance_raises_within_bounded_work(self, medium_data,
                                                              monkeypatch):
        # every attempt is rejected and shrinks the step at least fivefold, so
        # at most 1 + log5(1 / MIN_STEP_FRACTION) attempts of 4 evaluations
        # each, plus the initial k1, run before the floor raises
        monkeypatch.setattr(solver, "RTOL", 1e-30)
        monkeypatch.setattr(solver, "ATOL", 0.0)
        evals = []
        kernel = solver._rhs_half

        def counting(*args):
            evals.append(1)
            return kernel(*args)

        monkeypatch.setattr(solver, "_rhs_half", counting)
        st = medium_data
        with pytest.raises(StepSizeError):
            integrate(st, SolverConfig(t_final=1e-2))
        attempts = 1 + math.ceil(math.log(1 / solver.MIN_STEP_FRACTION, 5))
        assert len(evals) <= 1 + 4 * attempts

    @pytest.mark.parametrize("s", [3.0, 80.0, 600.0])
    def test_shell_weights_stay_finite(self, medium_grid, s):
        # the controller's squared block weights, scaled by a common power
        # of two so that the top one is L
        weights = _StepNorm(medium_grid, s).weights
        assert weights.shape == (2, build_filter_bank(medium_grid).j_max + 2)
        assert np.all(np.isfinite(weights))
        assert weights.max() == medium_grid.length

    @pytest.mark.parametrize("s", [3.0, 2.6, 5.5])
    def test_controller_measures_on_the_studies_filter_bank(self, medium_bank, medium_data, s):
        # the norm the step is controlled in, times its power of two, is the
        # B^(s-1)_{2,inf} x B^s_{2,inf} norm a study reads from the same
        # spectra (exactly equal on these data)
        y = solver._spectra(medium_data)
        norm = _StepNorm(medium_bank.grid, s)
        studies = sum(_besov_rows(medium_bank, y, (s - 1, s), 2))
        assert 2.0**norm.scale * norm(y) == pytest.approx(studies, rel=1e-15, abs=0.0)

    def test_grid_without_a_dyadic_ring_is_refused(self):
        # the controller measures on the grid's filter bank, which a grid
        # with Nyquist frequency below 1 does not have
        grid = Grid(16, 64.0)
        f = RealField(grid, np.full(16, 1.5))
        with pytest.raises(ValueError, match="Nyquist"):
            integrate(SystemState(rho=f, u=f), SolverConfig(t_final=1e-3))

    def test_controller_terminates_at_large_s(self, medium_data):
        # 2^(2 s j_max) overflows a double here, so unscaled squared weights
        # would make every norm inf and the first step guess nan
        st = medium_data
        t_final = 0.1 * 2.0**-5
        traj = integrate(st, SolverConfig(t_final=t_final, s=80.0))
        assert traj.final.time == t_final
        assert all(math.isfinite(err) for _, err in traj.errors)

    def test_scaling_symmetry_holds_bit_for_bit(self, medium_data):
        # every term is cubic, so (rho, u)(x, t) -> A (rho, u)(x, A^2 t) maps
        # solutions to solutions; for a power of two A every product, step
        # size and norm the controller reads scales exactly, so its
        # decisions and the states agree to the bit (16 steps, 0 rejected)
        ref = integrate(medium_data,
                        SolverConfig(t_final=0.1))
        assert len(ref.errors) > 1
        for a in (2.0, 4.0, 0.5):
            traj = integrate(SystemState(rho=a * medium_data.rho, u=a * medium_data.u),
                             SolverConfig(t_final=0.1 / a**2))
            assert np.array_equal(traj.final.rho.values, a * ref.final.rho.values)
            assert np.array_equal(traj.final.u.values, a * ref.final.u.values)
            assert traj.errors == tuple((h / a**2, e) for h, e in ref.errors)
            assert traj.rejected == ref.rejected

    def test_dt_caps_every_step(self, medium_data):
        st = medium_data
        traj = integrate(st, SolverConfig(t_final=1e-3, dt=1e-4), checkpoints=[3e-4, 1e-3])
        assert len(traj.errors) >= 10
        # the step divides each interval evenly, so it may pass the cap by
        # the rounding of that division
        assert max(h for h, _ in traj.errors) <= 1e-4 * (1 + 1e-12)


def _outputs(step):
    """Every array a step hands out."""
    return [step.spectra, step.rate, step.increment, step.error,
            step.state.rho.values, step.state.u.values]


class TestWorkspace:
    @pytest.fixture
    def first_step(self, small_grid):
        bump = 3.0 * build_bump(small_grid)
        return step_rk4(SystemState(rho=modulated_bump(small_grid, 2.0), u=bump), 1e-2)

    def test_warm_kernel_and_step_allocate_only_their_outputs(self, first_step):
        # the bound: the arrays handed out plus one half spectrum of slack,
        # of which the pairs' futures and partials take about 6 KB; a kernel
        # that allocated its padded buffers per call would peak near 591 KB
        # here
        work = first_step._workspace
        y = first_step.spectra
        one_half = y[0].nbytes
        solver._rhs_half(y, work)  # warm
        rate, peak = traced_peak(lambda: solver._rhs_half(y, work))
        assert peak <= rate.nbytes + one_half
        second = step_rk4(first_step.state, 1e-2, start=first_step)  # warm
        third, peak = traced_peak(lambda: step_rk4(second.state, 1e-2, start=second))
        assert peak <= sum(a.nbytes for a in _outputs(third)) + one_half

    def test_warm_measured_step_allocates_only_its_outputs(self, medium_data):
        # a step that measures its error, increment and spectra for the
        # controller forms each term's bin energies and block products in
        # free rows of the workspace; per term they took 1.5 half spectra.
        # On 2^14 points a row passes numpy's ufunc buffer of 8192 elements,
        # so the broadcast products are not buffered either
        first = step_rk4(medium_data, 1e-4)
        work, y = first._workspace, first.spectra
        norm = _StepNorm(first.state.grid, 3.0)
        second = step_rk4(first.state, 1e-4, start=first, norm=norm)  # warm
        third, peak = traced_peak(lambda: step_rk4(second.state, 1e-4, start=second, norm=norm))
        assert peak <= sum(a.nbytes for a in _outputs(third)) + y[0].nbytes
        # with the bits of terms measured in arrays of their own
        free = np.empty((2, y.shape[-1] * 2))
        for r in (0, 1):
            assert norm.term(y[r], r, free) == norm.term(y[r], r)
        assert third.norms == tuple(norm(a) for a in (third.error, third.increment,
                                                      third.spectra))
        assert work is third._workspace

    def test_warm_norm_term_in_workspace_rows_allocates_under_a_kilobyte(self, first_step):
        # on 2^12 points a row is shorter than numpy's ufunc buffer of 8192
        # elements, which a broadcast multiply by both parity rows allocated
        # even with out= (measured 34 KB a term); one multiply per parity
        # row leaves the reductions' own bookkeeping (measured 896 B).  The
        # norm has the bits of the stacked path's
        norm = _StepNorm(first_step.state.grid, 3.0)
        y = first_step.spectra
        free = first_step._workspace.rows[4:6]
        stacked = _block_energies(norm.bank, _bin_energy(y))
        for r in (0, 1):
            norm.term(y[r], r, free)  # warm
            term, peak = traced_peak(lambda: norm.term(y[r], r, free))
            assert peak < 1024
            assert term == math.sqrt(float(np.max(norm.weights[r] * stacked[r])))

    def test_workspace_holds_four_symbols_a_stage_and_fourteen_rows(self, first_step):
        # the buffers the workspace owns are exactly the four symbols d, g,
        # tau and fold, the two-row stage and the fourteen pool rows, each
        # of n + 2 doubles (a half spectrum's n/2 + 1 complex bins), also
        # after the kernel has run; with its one view, the two rows of
        # ``rate``, it holds 22 such rows
        work = first_step._workspace
        solver._rhs_half(first_step.spectra, work)
        n = first_step.state.grid.num_points
        arrays = [a for a in vars(work).values() if isinstance(a, np.ndarray)]
        row = (n + 2) * 8
        assert sum(a.nbytes for a in arrays if a.base is None) == 20 * row
        assert sum(a.nbytes for a in arrays) == 22 * row

    def test_steps_hand_out_fresh_arrays(self, first_step):
        second = step_rk4(first_step.state, 1e-2, start=first_step)
        work = second._workspace
        assert work is first_step._workspace
        handed = _outputs(first_step) + _outputs(second)
        buffers = list(vars(work).values())
        for i, a in enumerate(handed):
            for b in handed[i + 1:] + buffers:
                assert not np.shares_memory(a, b)
        # a reused workspace changes no bit of the step
        fresh = step_rk4(first_step.state, 1e-2, start=replace(
            first_step, _workspace=solver._Workspace(first_step.state.grid)))
        for a, b in zip(_outputs(second), _outputs(fresh)):
            assert np.array_equal(a, b)


def _threaded_against_inline(st, monkeypatch):
    """One kernel evaluation and a three-step integration from ``st``, on
    two usable CPUs and on one: the same bits, and the worker takes the
    shifted grid's half of every evaluation, or nothing."""
    y = solver._spectra(st)
    submit, rhs_half = solver._pool.submit, solver._rhs_half
    runs = {}
    for usable in ({0, 1}, {0}):
        submits, rhs_calls = [], []
        see_cpus(monkeypatch, usable)
        monkeypatch.setattr(solver._pool, "submit", lambda f: submits.append(f) or submit(f))
        monkeypatch.setattr(solver, "_rhs_half",
                            lambda *a: rhs_calls.append(a) or rhs_half(*a))
        rate = solver._rhs_half(y, solver._Workspace(st.grid))
        records = []
        traj = integrate(st, SolverConfig(t_final=3e-4, dt=1e-4), visit=records.append)
        runs[len(usable)] = (rate, traj, records)
        # one submit per evaluation, its halves, and nothing else per step
        assert len(rhs_calls) > 1
        assert len(submits) == (len(rhs_calls) if len(usable) == 2 else 0)
    (rate2, traj2, records2), (rate1, traj1, records1) = runs[2], runs[1]
    assert len(traj1.errors) == 3
    assert rate2.tobytes() == rate1.tobytes()
    assert traj2.final.rho.values.tobytes() == traj1.final.rho.values.tobytes()
    assert traj2.final.u.values.tobytes() == traj1.final.u.values.tobytes()
    assert traj2.sup_norms == traj1.sup_norms
    assert traj2.errors == traj1.errors
    for a, b in zip(records2, records1):
        assert a.spectra.tobytes() == b.spectra.tobytes()
        assert a.rate.tobytes() == b.rate.tobytes()


def _check_kernel_against_reference(grid, kind):
    """The kernel's rates at a smooth state ("data") or at a random state
    near Nyquist ("near_nyquist") have the bits of ``reference_rhs_half``."""
    if kind == "data":
        st = SystemState(rho=modulated_bump(grid, 2.0), u=3.0 * build_bump(grid))
        y = solver._spectra(st)
    else:
        rng = np.random.default_rng(19)
        y = np.zeros((2, grid.num_points // 2 + 1), dtype=complex)
        y[:, -64:] = rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64))
        y[:, -1] = y[:, -1].real
        y *= 1e-2
    rate = solver._rhs_half(y, solver._Workspace(grid))
    assert rate.tobytes() == reference_rhs_half(y, grid).tobytes()


def _check_sixteen_transforms(points, monkeypatch, count_ffts):
    """One evaluation on ``points`` points, on one CPU and on two, makes 8
    rfft and 8 irfft transforms of length n in 4 calls of each kind."""
    grid = Grid(points, 64.0)
    y = np.random.default_rng(29).standard_normal((2, points // 2 + 1)) + 0j
    counts = count_ffts()
    for usable in ({0, 1}, {0}):
        see_cpus(monkeypatch, usable)
        counts.reset()
        solver._rhs_half(y, solver._Workspace(grid))
        assert counts == {"rfft": 8, "irfft": 8}
        assert counts.lengths == {points: 16}
        assert counts.calls == {"rfft": 4, "irfft": 4}


class TestPairedKernel:
    def test_threaded_and_inline_give_the_same_bits(self, medium_data, monkeypatch):
        st = medium_data
        assert st.grid.num_points == 2**14
        _threaded_against_inline(st, monkeypatch)

    def test_threaded_and_inline_give_the_same_bits_on_threaded_rows(self, medium_params,
                                                                    monkeypatch):
        # at 2^15 points too, with a short switch interval that interleaves
        # the two halves' Python statements finely
        params = replace(medium_params, grid=Grid(2**15, medium_params.grid.length))
        st = build_initial_data(params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _threaded_against_inline(st, monkeypatch)
        finally:
            sys.setswitchinterval(interval)

    def test_pairs_below_the_size_constant_run_inline(self, small_grid, monkeypatch):
        # the separation control's grid: its kernel and steps submit nothing
        see_cpus(monkeypatch, {0, 1})
        submits = []
        submit = solver._pool.submit
        monkeypatch.setattr(solver._pool, "submit", lambda f: submits.append(f) or submit(f))
        ran_on = []

        def where():
            ran_on.append(threading.current_thread())

        solver._pair(where, where, solver.PAIR_MIN_SIZE - 1)
        assert submits == [] and ran_on == [threading.current_thread()] * 2
        grid = Grid(1024, 128.0)
        control = 24.0 * build_bump(grid)
        traj = integrate(SystemState(rho=control, u=control), SolverConfig(t_final=1e-3))
        assert len(traj.errors) > 0
        assert submits == []
        solver._pair(where, where, solver.PAIR_MIN_SIZE)
        assert len(submits) == 1
        assert sorted(t.name.startswith("novlab-fft") for t in ran_on[2:]) == [False, True]

    def test_sixteen_transforms_at_n_per_evaluation(self, monkeypatch, count_ffts):
        # each half makes two inverse and two forward calls on stacks of two
        # rows
        _check_sixteen_transforms(2**14, monkeypatch, count_ffts)

    @pytest.mark.parametrize("points", [2**12, 2**15], ids=["2^12", "2^15"])
    def test_sixteen_transforms_on_other_grid_sizes(self, monkeypatch, count_ffts, points):
        # the same calls below and above 2^14, where a stack was once split
        # into one call per row
        _check_sixteen_transforms(points, monkeypatch, count_ffts)

    @pytest.mark.parametrize("kind", ["data", "near_nyquist"])
    def test_kernel_matches_the_straight_line_reference(self, small_grid, cpus, kind):
        # the same operations in the same order give the same bits, on
        # either thread, with each stack of rows transformed in one call, at
        # the smallest size whose halves thread and at 2^15 points; a
        # near-Nyquist state exercises the Nyquist bin on the shifted grid
        # and the top of the products
        for grid in (small_grid, Grid(2**15, small_grid.length)):
            _check_kernel_against_reference(grid, kind)

    def test_lift_and_fold_match_the_padded_transforms(self, small_grid):
        # the grid and its half-cell shift are the even and odd points of
        # the padded grid; the Nyquist bin is complex, so only a lift that
        # reads Re(c) on the grid and Re(i c) on the shifted grid matches
        n = small_grid.num_points
        work = solver._Workspace(small_grid)
        rng = np.random.default_rng(23)
        y = np.zeros(n // 2 + 1, dtype=complex)
        y[-64:] = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        padded = padded_values(extend_half(y))
        scale = np.abs(padded).max()
        lifted = [np.fft.irfft(y, n=n, norm="forward"),
                  np.fft.irfft(work.tau * y, n=n, norm="forward")]
        for on_grid, points in zip(lifted, (padded[0::2], padded[1::2])):
            assert np.abs(on_grid - points).max() <= 1e-15 * scale
        cube = padded * padded * padded
        truncated = truncated_spectrum(cube)[: n // 2 + 1]
        folded = (0.5 * np.fft.rfft(cube[0::2], norm="forward")
                  + work.fold * np.fft.rfft(cube[1::2], norm="forward"))
        folded[-1] = 0.0
        assert np.abs(folded - truncated).max() <= 1e-15 * np.abs(truncated).max()

    def test_integrations_leave_at_most_one_extra_thread(self, small_grid, cpus):
        st = SystemState(rho=modulated_bump(small_grid, 2.0), u=3.0 * build_bump(small_grid))
        before = threading.active_count()
        for _ in range(2):
            integrate(st, SolverConfig(t_final=1e-2))
        assert threading.active_count() <= before + 1
        assert len(fft_threads()) <= 1

    def test_worker_exception_reaches_the_caller(self, cpus):
        def boom():
            raise ZeroDivisionError("in the worker")

        with pytest.raises(ZeroDivisionError, match="in the worker"):
            solver._pair(boom, lambda: None, solver.PAIR_MIN_SIZE)

    def test_caller_exception_waits_for_the_worker(self, cpus):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(True)

        def boom():
            raise KeyError("on the caller")

        with pytest.raises(KeyError):
            solver._pair(slow, boom, solver.PAIR_MIN_SIZE)
        assert done == [True]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        # the child inherits the executor but not its thread: the at-fork
        # hook gives it a new executor, whose thread runs the child's pairs
        see_cpus(monkeypatch, {0, 1})
        solver._pair(lambda: None, lambda: None, solver.PAIR_MIN_SIZE)
        parent_pool = solver._pool
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                # a child whose pair never runs dies of the alarm, not hangs
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(30)
                ran_on = []
                solver._pair(lambda: ran_on.append(threading.current_thread()), lambda: None,
                             solver.PAIR_MIN_SIZE)
                pool = solver._pool
                ok = (pool is not parent_pool and len(ran_on) == 1
                      and ran_on[0].name.startswith("novlab-fft") and ran_on[0] in pool._threads)
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert solver._pool is parent_pool
        assert len(fft_threads()) == 1


def _invariants(grid, y):
    """Integrals over the period of rho^2 and u^2 + u_x^2, by Parseval from
    the half spectra y = (rho, u)."""
    xi = grid.half_frequencies
    energy = _bin_energy(y)
    return grid.length * np.array([np.sum(energy[0]), np.sum((1.0 + xi * xi) * energy[1])])


class TestInvariants:
    """The semi-discrete system conserves both integrals exactly:
    (rho^2)_t = d/dx(u^2 rho^2), and d/dt of the second is 2 int m u_t with
    m = u - u_xx, which vanishes (the Novikov H^1 law; the two rho
    couplings cancel each other), while the dealiased cubics are exact on
    the retained modes.  Only the RK4 error and roundoff move them, so they
    check the kernel's coefficients independently of its term-by-term
    composition."""

    def test_drift_is_fourth_order_in_the_step(self, small_grid):
        # measured relative drifts at t = 2 (2^12 points, box 64): 5.6e-11 and
        # 4.8e-11 with 25 steps, 2.9e-12 and 2.7e-12 with 50 (ratios 19.4,
        # 17.9).  A kernel with 1.4 for the 3/2 moves the u integral by
        # 1.1e-5 at every step size.  The u^3 term and a common factor of
        # the two rho couplings conserve the u integral on their own, and
        # so does a sign flip of the whole rho equation for the rho
        # integral: those are left to the term-by-term tests above
        st = SystemState(rho=3.0 * modulated_bump(small_grid, 2.0),
                         u=3.0 * build_bump(small_grid))
        start = _invariants(small_grid, solver._spectra(st))
        drifts = []
        for steps in (25, 50):
            step, worst = None, np.zeros(2)
            for _ in range(steps):
                step = step_rk4(st if step is None else step.state, 2.0 / steps, start=step)
                drift = np.abs(_invariants(small_grid, step.spectra) - start) / start
                worst = np.maximum(worst, drift)
            drifts.append(worst)
        assert np.all(drifts[1] < 1e-11)
        assert np.all((12 < drifts[0] / drifts[1]) & (drifts[0] / drifts[1] < 24))
