import math
import os
import signal
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from novlab import (
    BlowupError,
    RealField,
    SolverConfig,
    SystemState,
    build_bump,
    derivative,
    fit_powerlaw,
    integrate,
    lp_norm,
    modulated_bump,
    rhs,
    step_rk4,
    triple_product,
)

from novlab import solver
from novlab.solver import StepSizeError, _ShellNorm
from novlab.spectral import _bin_energy

from helpers import LAMBDA, composed_rhs, fixed_step_states, mode


def _zero(grid):
    return RealField(grid, np.zeros(grid.num_points))


def _velocity_terms(u):
    """d/dx G(u^3) + (3/2) d/dx G(u u_x^2) + (1/2) G(u_x^3), G = (1-dxx)^-1,
    read off the RHS as u_t at rho = 0 minus the transport term u^2 u_x."""
    _, u_t = rhs(SystemState(rho=_zero(u.grid), u=u))
    return u_t - triple_product(u, u, derivative(u))


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
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
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
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
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
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
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
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        norm = _ShellNorm(st.grid, 3.0)
        step = step_rk4(st, 1e-6)
        assert norm(step.error) < 1e-12 * norm(step.increment)

    def test_first_order_consistency_with_rhs(self, medium_data):
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
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
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        traj = integrate(st, SolverConfig(dt=1e-3, t_final=0.0))
        assert traj.final is st
        assert traj.sup_norms == ()

    def test_checkpoints_hit_exactly(self, medium_data):
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        times = [1e-3, 2.5e-3, 4e-3]
        seen = []
        traj = integrate(st, SolverConfig(dt=3e-4, t_final=4e-3), checkpoints=times,
                         visit=lambda state: seen.append(state.time))
        assert seen == times
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

    @pytest.mark.parametrize("dt,t_final,s", [
        (0.0, 1.0, None), (-1e-3, 1.0, None), (math.nan, 1.0, None),
        (math.inf, 1.0, None), (1e-3, -1.0, None), (1e-3, math.nan, None),
        (1e-3, math.inf, None), (1e-3, 1.0, math.inf), (1e-3, 1.0, math.nan),
        # a cap below the step floor MIN_STEP_FRACTION t_final
        (1e-300, 1e-3, None), (1e-14, 1e-3, None),
    ])
    def test_config_rejects_bad_settings(self, dt, t_final, s):
        # s = None keeps the default s
        extra = {} if s is None else {"s": s}
        with pytest.raises(ValueError, match="dt must|t_final must|s must"):
            SolverConfig(dt=dt, t_final=t_final, **extra)


class TestErrorControl:
    @pytest.mark.parametrize("kind,num_points", [
        ("zero", 2**14), ("constant", 2**14), ("control", 2**14), ("control", 2**15),
    ])
    def test_controller_terminates(self, kind, num_points):
        # in fewer steps than the fixed rule's 64 to the separation horizon
        # t_5; the amplitude-24 control of the separation study has its top
        # shells near the RK4 stability limit, and at 2^15 points their
        # roundoff would take the step down to 106 steps without the ATOL term
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
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        with pytest.raises(StepSizeError):
            integrate(st, SolverConfig(t_final=1e-2))
        attempts = 1 + math.ceil(math.log(1 / solver.MIN_STEP_FRACTION, 5))
        assert len(evals) <= 1 + 4 * attempts

    @pytest.mark.parametrize("s", [3.0, 80.0, 600.0])
    def test_shell_weights_stay_finite(self, medium_grid, s):
        weights = _ShellNorm(medium_grid, s).weights
        assert np.all(np.isfinite(weights))
        assert weights.max() == medium_grid.length

    def test_controller_terminates_at_large_s(self, medium_data):
        # 2^(2 s j_max) overflows a double here, so unscaled squared weights
        # would make every norm inf and the first step guess nan
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        t_final = 0.1 * 2.0**-5
        traj = integrate(st, SolverConfig(t_final=t_final, s=80.0))
        assert traj.final.time == t_final
        assert all(math.isfinite(err) for _, err in traj.errors)

    def test_dt_caps_every_step(self, medium_data):
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        traj = integrate(st, SolverConfig(t_final=1e-3, dt=1e-4), checkpoints=[3e-4, 1e-3])
        assert len(traj.errors) >= 10
        # the step divides each interval evenly, so it may pass the cap by
        # the rounding of that division
        assert max(h for h, _ in traj.errors) <= 1e-4 * (1 + 1e-12)


def _outputs(step):
    """Every array a step hands out."""
    return [step.spectra, step.rate, step.increment, step.error,
            step.state.rho.values, step.state.u.values]


def _traced_peak(fn):
    """fn's result and the peak of the memory traced during the call, above
    what was traced when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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
        rate, peak = _traced_peak(lambda: solver._rhs_half(y, work))
        assert peak <= rate.nbytes + one_half
        second = step_rk4(first_step.state, 1e-2, start=first_step)  # warm
        third, peak = _traced_peak(lambda: step_rk4(second.state, 1e-2, start=second))
        assert peak <= sum(a.nbytes for a in _outputs(third)) + one_half

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


def _see_cpus(monkeypatch, usable):
    """Make the process see the CPUs ``usable``: with two the kernel's pairs
    run on the worker thread, with one inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: usable, raising=False)


@pytest.fixture(params=[{0, 1}, {0}], ids=["threaded", "inline"])
def cpus(request, monkeypatch):
    _see_cpus(monkeypatch, request.param)


def _fft_threads():
    return [t for t in threading.enumerate() if t.name.startswith("novlab-fft")]


class TestPairedKernel:
    def test_threaded_and_inline_give_the_same_bits(self, medium_data, monkeypatch):
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        y = solver._spectra(st)
        submit, rhs_half = solver._pool.submit, solver._rhs_half
        runs = {}
        for usable in ({0, 1}, {0}):
            submits, rhs_calls = [], []
            _see_cpus(monkeypatch, usable)
            monkeypatch.setattr(solver._pool, "submit",
                                lambda f: submits.append(f) or submit(f))
            monkeypatch.setattr(solver, "_rhs_half",
                                lambda *a: rhs_calls.append(a) or rhs_half(*a))
            rate = solver._rhs_half(y, solver._Workspace(st.grid))
            traj = integrate(st, SolverConfig(t_final=3e-4, dt=1e-4))
            runs[len(usable)] = (rate, traj)
            # one transform of each of the 4 pairs on the worker, or none
            assert len(rhs_calls) > 1
            assert len(submits) == (4 * len(rhs_calls) if len(usable) == 2 else 0)
        (rate2, traj2), (rate1, traj1) = runs[2], runs[1]
        assert len(traj1.errors) == 3
        assert rate2.tobytes() == rate1.tobytes()
        assert traj2.final.rho.values.tobytes() == traj1.final.rho.values.tobytes()
        assert traj2.final.u.values.tobytes() == traj1.final.u.values.tobytes()
        assert traj2.sup_norms == traj1.sup_norms
        assert traj2.errors == traj1.errors

    def test_eight_padded_transforms_per_evaluation(self, medium_data, monkeypatch,
                                                     count_ffts):
        # inline, so that the counts are not updated from two threads
        _see_cpus(monkeypatch, {0})
        st = SystemState(rho=medium_data.rho, u=medium_data.u)
        y = solver._spectra(st)
        counts = count_ffts()
        solver._rhs_half(y, solver._Workspace(st.grid))
        assert counts == {"rfft": 4, "irfft": 4}

    def test_integrations_leave_at_most_one_extra_thread(self, small_grid, cpus):
        st = SystemState(rho=modulated_bump(small_grid, 2.0), u=3.0 * build_bump(small_grid))
        before = threading.active_count()
        for _ in range(2):
            integrate(st, SolverConfig(t_final=1e-2))
        assert threading.active_count() <= before + 1
        assert len(_fft_threads()) <= 1

    def test_worker_exception_reaches_the_caller(self, cpus):
        def boom():
            raise ZeroDivisionError("in the worker")

        with pytest.raises(ZeroDivisionError, match="in the worker"):
            solver._pair(boom, lambda: None)

    def test_caller_exception_waits_for_the_worker(self, cpus):
        done = []

        def slow():
            time.sleep(0.05)
            done.append(True)

        def boom():
            raise KeyError("on the caller")

        with pytest.raises(KeyError):
            solver._pair(slow, boom)
        assert done == [True]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        # the child inherits the executor but not its thread: the at-fork
        # hook gives it a new executor, whose thread runs the child's pairs
        _see_cpus(monkeypatch, {0, 1})
        solver._pair(lambda: None, lambda: None)
        parent_pool = solver._pool
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                # a child whose pair never runs dies of the alarm, not hangs
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(30)
                ran_on = []
                solver._pair(lambda: ran_on.append(threading.current_thread()), lambda: None)
                pool = solver._pool
                ok = (pool is not parent_pool and len(ran_on) == 1
                      and ran_on[0].name.startswith("novlab-fft") and ran_on[0] in pool._threads)
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert solver._pool is parent_pool
        assert len(_fft_threads()) == 1


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
