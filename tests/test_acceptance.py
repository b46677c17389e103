"""Acceptance suite at full desk scale.

One test per criterion; each prints a PASS/FAIL line with the measured
numbers.  Scale: 2^17 grid points on a box of length 128 (Nyquist ~3217,
dyadic blocks up to j = 11), twelve data bands, n range 5..11.
"""

import math

import numpy as np
import pytest

from novlab import (
    Grid,
    IllposedDataParams,
    SystemState,
    build_bump,
    build_filter_bank,
    modulated_bump,
    study_block_scaling,
    study_inequalities,
    study_separation,
    study_short_time,
)
from novlab import solver
from novlab.experiments import write_report_csv
from novlab.spectral import derivative, field_from_half, half_spectrum

from helpers import besov_norm, dyadic_block, fixed_step_states, lp_norm, out_of_regime_data

GRID_POINTS = 2**17
LENGTH = 128.0
S, P = 3.0, 2.0
LAM = 68.0 / 48.0
NUM_TERMS = 12
N_MIN, N_MAX = 5, 11
DELTA = 0.1
T_MAX = 1e-2


def report_line(num, name, passed, detail):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def grid():
    return Grid(GRID_POINTS, LENGTH)


@pytest.fixture(scope="module")
def bank(grid):
    return build_filter_bank(grid)


@pytest.fixture(scope="module")
def params(grid):
    return IllposedDataParams(s=S, p=P, lam=LAM, num_terms=NUM_TERMS, grid=grid)


@pytest.fixture(scope="module")
def blockscale_report(params):
    return study_block_scaling(params, N_MIN, N_MAX)


@pytest.fixture(scope="module")
def shorttime_report(params):
    return study_short_time(params, T_MAX)


@pytest.fixture(scope="module")
def separation_report(params):
    return study_separation(params, N_MIN, N_MAX, delta=DELTA)


@pytest.fixture(scope="module")
def inequalities_report():
    return study_inequalities(corpus_size=100, seed=2026)


def test_criterion_1_frequency_localization(grid, bank):
    worst_identity, worst_residual = 0.0, 0.0
    for n in range(3, 12):
        f = modulated_bump(grid, LAM * 2.0**n)
        scale = lp_norm(f, 2)
        for j in range(3, 12):
            block = dyadic_block(bank, f, j)
            if j == n:
                worst_identity = max(worst_identity, lp_norm(block - f, 2) / scale)
            else:
                worst_residual = max(worst_residual, lp_norm(block, 2) / scale)
    passed = worst_identity < 1e-8 and worst_residual < 1e-8
    report_line(1, "frequency localization", passed,
                f"worst identity {worst_identity:.2e}, worst residual {worst_residual:.2e}")
    assert worst_identity < 1e-8
    assert worst_residual < 1e-8


def test_criterion_2_uniform_data_bounds(grid, bank):
    worst = 0.0
    for s, p in ((3.0, 2.0), (3.0, math.inf), (2.6, 1.0)):
        norms_rho, norms_u = [], []
        for n_terms in range(8, 13):
            # (2.6, 1) lies outside the regime s > 2 + 1/p, which the package refuses
            data = out_of_regime_data(s, LAM, n_terms, grid)
            norms_rho.append(besov_norm(bank, data.rho, s - 1, p))
            norms_u.append(besov_norm(bank, data.u, s, p))
        for vals in (norms_rho, norms_u):
            worst = max(worst, max(vals) / min(vals) - 1.0)
    passed = worst < 0.01
    report_line(2, "uniform data bounds", passed,
                f"worst variation across truncations {worst:.2e}")
    assert worst < 0.01


def test_criterion_3_block_derivative_scalings(blockscale_report):
    fit_rho = blockscale_report.fits["rho_exponent"]
    fit_u = blockscale_report.fits["u_exponent"]
    passed = (
        abs(fit_rho.slope + (S - 2)) <= 0.1
        and abs(fit_u.slope + (S - 1)) <= 0.1
        and fit_rho.r_squared >= 0.99
        and fit_u.r_squared >= 0.99
    )
    report_line(3, "block derivative scalings", passed,
                f"rho slope {fit_rho.slope:.3f} (want {-(S-2):.0f}+-0.1, r2 {fit_rho.r_squared:.4f}), "
                f"u slope {fit_u.slope:.3f} (want {-(S-1):.0f}+-0.1, r2 {fit_u.r_squared:.4f})")
    assert abs(fit_rho.slope + (S - 2)) <= 0.1
    assert abs(fit_u.slope + (S - 1)) <= 0.1
    assert fit_rho.r_squared >= 0.99
    assert fit_u.r_squared >= 0.99


def test_criterion_4_short_time_expansion_orders(shorttime_report):
    f = shorttime_report.fits
    slopes = {k: f[k].slope for k in
              ("first_order_rho", "first_order_u", "second_order_rho", "second_order_u")}
    passed = (
        abs(slopes["first_order_rho"] - 1) <= 0.1
        and abs(slopes["first_order_u"] - 1) <= 0.1
        and abs(slopes["second_order_rho"] - 2) <= 0.2
        and abs(slopes["second_order_u"] - 2) <= 0.2
    )
    report_line(4, "short-time expansion orders", passed,
                "slopes " + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))
    assert abs(slopes["first_order_rho"] - 1) <= 0.1
    assert abs(slopes["first_order_u"] - 1) <= 0.1
    assert abs(slopes["second_order_rho"] - 2) <= 0.2
    assert abs(slopes["second_order_u"] - 2) <= 0.2


def test_criterion_5_separation_persists(separation_report):
    trend = separation_report.fits["separation_trend"].slope
    plateau = separation_report.verdict("separation_plateau").observed
    control = separation_report.fits["control_trend"].slope
    passed = trend >= -0.1 and plateau >= 0.5 and control <= -0.9
    report_line(5, "data-to-solution separation", passed,
                f"block-separation trend {trend:.3f} (>= -0.1), "
                f"min/median {plateau:.3f} (>= 0.5), control trend {control:.3f} (<= -0.9)")
    assert trend >= -0.1
    assert plateau >= 0.5
    assert control <= -0.9


def test_criterion_6_energy_audit(separation_report):
    worst = max(row[6] for row in separation_report.rows)
    passed = worst <= 2.0
    report_line(6, "energy audit", passed,
                f"worst solution-norm ratio along trajectories {worst:.4f} (<= 2)")
    assert worst <= 2.0


def test_criterion_7_inequality_corpora(inequalities_report):
    passed = inequalities_report.passed
    maxima = {
        v.name: v.observed
        for v in inequalities_report.verdicts
        if v.name.endswith("_max_finite")
    }
    report_line(7, "inequality corpora", passed,
                "max ratios " + ", ".join(f"{k[:-11]}={v:.3f}" for k, v in maxima.items())
                + "; stable across seeds within 2x")
    assert passed


def test_criterion_8_numerical_hygiene(grid, tmp_path):
    # spectral operators exact per mode
    from novlab import RealField

    k = 4096  # frequency 2 pi k / L ~ 201
    xi0 = 2 * math.pi * k / LENGTH
    x = grid.points
    fmode = RealField(grid, np.cos(xi0 * x))
    d = derivative(fmode)
    # G as the kernel applies it: the smoothing symbol its workspace holds
    h = field_from_half(grid, solver._Workspace(grid).g * half_spectrum(fmode))
    err_d = np.abs(d.values + xi0 * np.sin(xi0 * x)).max() / xi0
    err_h = np.abs(h.values - np.cos(xi0 * x) / (1 + xi0**2)).max()
    mode_exact = max(err_d, err_h) < 1e-10

    # integrator self-convergence order, a property of the fixed step
    small = Grid(2**12, 64.0)
    bump = 8.0 * build_bump(small)
    st = SystemState(rho=bump, u=bump)
    finals = [fixed_step_states(st, dt, [0.1])[-1] for dt in (0.02, 0.01, 0.005)]
    e1 = max(np.abs(finals[0].rho.values - finals[1].rho.values).max(),
             np.abs(finals[0].u.values - finals[1].u.values).max())
    e2 = max(np.abs(finals[1].rho.values - finals[2].rho.values).max(),
             np.abs(finals[1].u.values - finals[2].u.values).max())
    order = math.log2(e1 / e2)
    order_ok = abs(order - 4.0) <= 0.3

    # bit reproducibility of a seeded study
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(study_inequalities(corpus_size=100, seed=7), a)
    write_report_csv(study_inequalities(corpus_size=100, seed=7), b)
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("# generated=")]
    reproducible = strip(a) == strip(b)

    passed = mode_exact and order_ok and reproducible
    report_line(8, "numerical hygiene", passed,
                f"per-mode error {max(err_d, err_h):.2e} (< 1e-10), "
                f"RK4 order {order:.3f} (4 +- 0.3), bit-reproducible {reproducible}")
    assert mode_exact
    assert order_ok
    assert reproducible
