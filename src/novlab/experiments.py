"""Scaling studies: power-law fits, study reports, CSV and plot emission.

Asymptotic lower bounds of the form "norm >= C 2^(-n a)" carry
non-constructive constants, so every study tests them as fitted exponents
plus a lower-bound plateau of the normalized quantity.  Reports collect the
raw per-point records, the fits, and named pass/fail verdicts whose
tolerances are declared in the CSV header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np

from .initial_data import (BUMP_CUTOFF, IllposedDataParams, SystemState, build_bump,
                           build_initial_data, check_regime)
from .littlewood_paley import (CHI_PLATEAU_END, LPFilterBank, _block_half, _block_norms,
                               _block_weights, _check_resolved, _check_weights,
                               _commutator_block_norms, _half_lp_norm, build_filter_bank,
                               top_index)
from .solver import SolverConfig, _pair, _spectra, integrate
from .spectral import (Grid, _bin_energy, _derivative_symbol, _half_cell_shift, _irfft_into,
                       _lp_rows, _product_half, _rfft_into, _smoothing_symbol)

DEFAULT_GRID_POINTS = 2**17
DEFAULT_DOMAIN_LENGTH = 128.0
DEFAULT_S = 3.0
DEFAULT_P = 2.0
DEFAULT_NUM_TERMS = 12
DEFAULT_N_RANGE = (5, 11)
DEFAULT_DELTA = 0.1
DEFAULT_T_MAX = 1e-2  # the horizon of solve and of the shorttime ladder


def time_ladder(t_max: float) -> tuple:
    """The shorttime times: t_max and its first five halvings.  The sweep
    lands on t_max alone and reads the halvings from the interpolant."""
    return tuple(t_max * 2.0**-k for k in range(6))


DEFAULT_SEED = 2026
DEFAULT_CORPUS_SIZE = 100
DEFAULT_INEQUALITY_GRID = (2**12, 64.0)  # grid points and domain length of the corpora
CORPUS_BAND = 0.25  # corpus fields live below this fraction of Nyquist
# The pairs that go through the inequality sweeps as one stack.  A chunk of
# k pairs runs in its five stacks of k rows of n + 2 doubles (``_pair_stacks``)
# and allocates no other stack, so its traced peak is about 5.4 value stacks
# S = k n doubles at every k; its cost is mostly per numpy call, which a
# wider chunk spreads over more pairs.  Measured on the default corpus (4096
# points, 400 pairs a corpus, 22 transforms a pair, 12 of them of 2048
# points) on a 2-vCPU Xeon: wall and CPU of ``study_inequalities(400, 0)``,
# the median over 3 processes of their medians of 5 calls; inline wall the
# same under ``taskset -c 0`` (2 processes); peak_rss_mb and wall_s the
# medians of 3 ``benchmarks/run.py`` runs of ``inequalities-corpus``:
#
#   k                          4       6       7       8
#   wall          (s)      0.514   0.368   0.362   0.320
#   CPU           (s)      0.778   0.635   0.628   0.575
#   inline wall   (s)      0.523   0.503   0.480   0.497
#   traced peak   (S)       5.54    5.42    5.39    5.34
#   traced peak   (MB)      0.73    1.07    1.24    1.40
#   peak_rss_mb            67.57   68.22   68.61   68.99
#   wall_s        (s)      0.488   0.421   0.423   0.407
#
# Each pair adds 5 stacks to each of the two corpora's threads, 0.33 MB per
# unit of k: k = 6 is still the widest chunk within a peak_rss_mb budget of
# 68.4 MB, and k = 7 gains no wall_s.
CORPUS_CHUNK = 6
# numpy's ufunc buffer, in elements, while a corpus chunk runs: a call on
# the block ranges of a stack's rows copies its operands through buffers of
# this many elements each, which at numpy's default of 8192 took 0.3 MB a
# thread (1.5 S at k = 6) and made a corpus 9 % slower at k = 8.  No bit
# depends on it: the sums along a row are not buffered.
CORPUS_UFUNC_BUFSIZE = 1024

SLOPE_TOL_FIRST_ORDER = 0.1
SLOPE_TOL_SECOND_ORDER = 0.2
SLOPE_TOL_BLOCKSCALE = 0.1
R2_MIN = 0.99
PLATEAU_MIN = 0.5
SEPARATION_SLOPE_MIN = -0.1
CONTROL_SLOPE_MAX = -0.9
ENERGY_FACTOR_MAX = 2.0
STABILITY_FACTOR = 2.0
# The control datum is the plain bump scaled by CONTROL_AMPLITUDE; it stays
# smooth and non-oscillatory over every horizon.  From block 2 on its
# distance holds only roundoff, which the 2^(js) weights amplify: integrated
# on the desk data grid (2^17 points) the top blocks read up to about 2e-5,
# which an amplitude of 24 keeps far below the O(t) distance.  On the grid
# the control runs on (``_control_grid``) the top block reads about 1e-12,
# and padded to the data grid (``_padded_half``) every block above that
# grid's Nyquist frequency reads exactly 0.
CONTROL_AMPLITUDE = 24.0
# The control runs on the smallest power-of-two grid of the data's box whose
# Nyquist frequency exceeds this multiple of the bump's cutoff (512 points at
# box 64, 1024 at box 128).  From there on the control distances at box 128
# agree to 1e-12 between grids, and the resolution guard passes on them.
CONTROL_NYQUIST_MIN = 32 * BUMP_CUTOFF


class DegenerateDataError(ValueError):
    """Fit input contains too few points or nonpositive values."""


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit; slope is the fitted exponent."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def fit_powerlaw(points, kind: str = "dyadic") -> ScalingFit:
    """Fit a power law through (x, y) points.

    kind="dyadic" regresses log2(y) on x (for band-indexed data, slope per
    unit n); kind="loglog" regresses log(y) on log(x) (for time-indexed
    data, slope is the t-exponent).
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 3:
        raise DegenerateDataError(f"need at least 3 distinct abscissae, got {pts}")
    if any(y <= 0 or not math.isfinite(y) for _, y in pts):
        raise DegenerateDataError("power-law fit requires positive finite values")
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    if kind == "dyadic":
        u, v = xs, np.log2(ys)
    elif kind == "loglog":
        if np.any(xs <= 0):
            raise DegenerateDataError("loglog fit requires positive abscissae")
        u, v = np.log(xs), np.log(ys)
    else:
        raise ValueError(f"unknown fit kind {kind!r}")
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ScalingFit(float(slope), float(intercept), r2, tuple(pts))


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    observed: float
    criterion: str


@dataclass
class StudyReport:
    """One study's parameters, per-point records, fits, and verdicts."""

    study_name: str
    params: dict
    tolerances: dict
    columns: list
    rows: list
    fits: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def add_verdict(self, name, passed, observed, criterion):
        self.verdicts.append(Verdict(name, bool(passed), float(observed), criterion))

    def judge(self, name, observed, quantity: str, op: str, key: str):
        """Add the verdict ``quantity op tol_<key>``, op ">=" or "<=", judged
        on the tolerance the report declares under ``key``."""
        tol = self.tolerances[key]
        passed = {">=": observed >= tol, "<=": observed <= tol}[op]
        self.add_verdict(name, passed, observed, f"{quantity} {op} tol_{key}")

    def judge_slope(self, name, fit: ScalingFit, target: float, key: str):
        """Add the verdict that ``fit``'s slope lies within target +- tol_<key>."""
        self.add_verdict(name, abs(fit.slope - target) <= self.tolerances[key], fit.slope,
                         f"slope within {target:g} +- tol_{key}")


def write_report_csv(report: StudyReport, path) -> None:
    """Emit the study CSV: # key=value header, rows, trailing verdict block."""
    with open(path, "w") as fh:
        fh.write(f"# study={report.study_name}\n")
        fh.write(f"# generated={datetime.now(timezone.utc).isoformat()}\n")
        for key, val in report.params.items():
            fh.write(f"# {key}={val}\n")
        for key, val in report.tolerances.items():
            fh.write(f"# tol_{key}={val}\n")
        fh.write("# columns: " + ",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")
        for name, fit in report.fits.items():
            fh.write(
                f"# fit {name}: slope={fit.slope:.17g} intercept={fit.intercept:.17g} "
                f"r2={fit.r_squared:.17g}\n"
            )
        for v in report.verdicts:
            status = "PASS" if v.passed else "FAIL"
            fh.write(f"# verdict: {v.name}={status} observed={v.observed:.6g} ({v.criterion})\n")


def write_plot_script(report: StudyReport, csv_path, gp_path) -> None:
    """Companion gnuplot script plotting every numeric column against the first."""
    xcol = report.columns[0]
    first = report.rows[0] if report.rows else ()
    numeric = [
        i for i in range(1, len(report.columns))
        if i < len(first) and isinstance(first[i], (int, float))
    ]
    with open(gp_path, "w") as fh:
        fh.write(f"# gnuplot companion for {csv_path}\n")
        fh.write('set datafile separator ","\n')
        fh.write('set datafile commentschars "#"\n')
        fh.write("set key outside\n")
        fh.write("set logscale y\n")
        fh.write(f'set xlabel "{xcol}"\n')
        parts = [
            f'"{csv_path}" using 1:{i+1} with linespoints title "{report.columns[i]}"'
            for i in numeric
        ]
        fh.write("plot \\\n    " + ", \\\n    ".join(parts) + "\n")


def write_study(report: StudyReport, output_path) -> None:
    """Write <output_path>.csv and <output_path>.gp side by side."""
    csv_path = str(output_path) + ".csv"
    gp_path = str(output_path) + ".gp"
    write_report_csv(report, csv_path)
    write_plot_script(report, csv_path, gp_path)


# ---------------------------------------------------------------------------

def _params_dict(params: IllposedDataParams, **extra) -> dict:
    out = {
        "s": params.s,
        "p": params.p,
        "lambda": params.lam,
        "num_terms": params.num_terms,
        "grid_points": params.grid.num_points,
        "domain_length": params.grid.length,
        "nyquist": params.grid.nyquist,
    }
    out.update(extra)
    return out


def _solver_params(*trajectories) -> dict:
    """Header entries for the work and the time error of the trajectories:
    the largest accepted step, the accepted and rejected step counts, and
    the largest per-step error estimate relative to the state's norm."""
    errors = [e for traj in trajectories for e in traj.errors]
    return {
        "dt": max((h for h, _ in errors), default=0.0),
        "rk4_steps": len(errors),
        "rk4_rejected": sum(traj.rejected for traj in trajectories),
        "time_error_max": max((err for _, err in errors), default=0.0),
    }


def _invariants(grid: Grid, y: np.ndarray) -> np.ndarray:
    """The integrals over the period of rho^2 and of u^2 + u_x^2, which the
    system conserves (the second is the Novikov H^1 law), from the half
    spectra y = (rho, u) by Parseval: no transform."""
    xi = grid.half_frequencies
    energy = _bin_energy(y)
    return grid.length * np.array([np.sum(energy[0]), np.sum((1.0 + xi * xi) * energy[1])])


def _sweep(state0: SystemState, cfg: SolverConfig, checkpoints, measure,
           interpolated=()) -> tuple:
    """``integrate`` from ``state0`` through ``checkpoints``, calling
    ``measure(record, y0, f0)`` at each and at each of the ``interpolated``
    times (``integrate``'s interpolated records, which have a ``time`` and
    no state; a measure reads ``record.time``), with y0 the half spectra
    of state0 and f0 the right-hand side there, both from the start record,
    which is not kept.  Returns the trajectory, (y0, f0), and the header
    entries ``invariant_drift_rho`` and ``invariant_drift_u``, the largest
    relative drift of each of the ``_invariants`` over the landed records
    (an interpolated one carries the interpolant's error besides the
    step's), and ``sup_growth_max``, the largest sup norm of the accepted
    steps (``Trajectory.sup_norms``) over the sup norm of state0."""
    grid = state0.grid
    start = []
    drift = np.zeros(2)

    def visit(record):
        nonlocal drift
        if not start:
            start.extend((record.spectra, record.rate, _invariants(grid, record.spectra)))
            return
        y0, f0, invariants0 = start
        if not record.interpolated:
            moved = np.abs(_invariants(grid, record.spectra) - invariants0) / invariants0
            drift = np.maximum(drift, moved)
        measure(record, y0, f0)

    traj = integrate(state0, cfg, checkpoints, visit, interpolated)
    return traj, start[:2], {
        "invariant_drift_rho": float(drift[0]), "invariant_drift_u": float(drift[1]),
        "sup_growth_max": max(max(r, u) for _, r, u in traj.sup_norms) / state0.sup_norm()}


def _weighted_rows(bank: LPFilterBank, y: np.ndarray, s_rows, p,
                   check_resolved: bool = True) -> np.ndarray:
    """The weighted block norms 2^(j s) ||block_j f||_Lp, j = -1 .. j_max, of
    each field f of the stacked half spectra y, row r with s = s_rows[r],
    for a checked p (see ``_block_norms``): the one routine that every
    command takes its Besov norms with."""
    weights = np.stack([_block_weights(bank, s) for s in s_rows])
    return weights * _block_norms(bank, y, p, check_resolved)


def _besov_rows(bank: LPFilterBank, y: np.ndarray, s_rows, p,
                check_resolved: bool = True) -> list:
    """The B^s_{p,inf} norm (the largest weighted block norm) of each field
    of the stacked half spectra y, row r with s = s_rows[r]."""
    return np.max(_weighted_rows(bank, y, s_rows, p, check_resolved), axis=-1).tolist()


def _bands(params: IllposedDataParams, n_min: int, n_max: int, n_lowest: int) -> list:
    """The band indices n_min..n_max of a study: integers, at least 3, the
    fewest a power-law fit takes, each in [n_lowest, num_terms - 1]."""
    if not (float(n_min).is_integer() and float(n_max).is_integer()):
        raise ValueError(f"band bounds must be integers, got [{n_min}, {n_max}]")
    n_min, n_max = int(n_min), int(n_max)
    if n_max - n_min < 2 or n_min < n_lowest or n_max >= params.num_terms:
        raise ValueError(
            f"n_range must hold at least 3 bands within [{n_lowest}, num_terms - 1] = "
            f"[{n_lowest}, {params.num_terms - 1}], got [{n_min}, {n_max}]"
        )
    return list(range(n_min, n_max + 1))


def check_blockscale(params: IllposedDataParams, n_min: int, n_max: int) -> list:
    """The input rules of ``study_block_scaling``: finite block weights
    2^(j s), j <= j_max, and bands in [3, num_terms - 1].  Returns the bands."""
    _check_weights(params.s, top_index(params.grid))
    return _bands(params, n_min, n_max, 3)


def _transport_block_norms(bank: LPFilterBank, y: np.ndarray, blocks, p) -> np.ndarray:
    """||u^2 d/dx block_j f||_Lp for f = rho (row 0) and f = u (row 1) and
    each j in ``blocks``, from the stacked half spectra y = (rho, u) on the
    bank's grid, for a checked p; dealiased as zero-padding to twice the
    grid dealiases it, without padding: as in the RHS kernel
    (``solver._rhs_half``), each product is formed on the grid and on its
    half-cell shift, with one inverse and one forward transform of n points
    on each, and folded back.  u^2 is formed once on each grid.  The shifted
    grid's product runs on the worker of one ``solver._pair`` beside the
    grid's on the caller, each in its own rows of one buffer allocated once
    per sweep, so no bit depends on the threads."""
    grid = bank.grid
    n = grid.num_points
    d = _derivative_symbol(grid)
    tau, fold = _half_cell_shift(grid)
    # per grid: u^2, a product's values, and a half spectrum that stages the
    # lifted g and then takes the product's weighted spectrum
    on_grid, shifted = np.empty((2, 3, n + 2))
    for rows, lift in ((on_grid, y[1]), (shifted, tau * y[1])):
        u2 = _irfft_into(lift, n=n, norm="forward", out=rows[0, :n])
        u2 *= u2

    def product(rows, weight):
        values, spectrum = rows[1, :n], rows[2].view(complex)
        _irfft_into(spectrum, n=n, norm="forward", out=values)
        values *= rows[0, :n]
        _rfft_into(values, norm="forward", out=spectrum)
        spectrum *= weight

    g, g_shifted = on_grid[2].view(complex), shifted[2].view(complex)
    norms = np.empty((2, len(blocks)))
    for i, hf in enumerate(y):
        for k, j in enumerate(blocks):
            _block_half(bank, hf, j, out=g)
            g *= d
            np.multiply(tau, g, out=g_shifted)
            _pair(partial(product, shifted, fold), partial(product, on_grid, 0.5), 4 * n)
            g += g_shifted
            g[-1] = 0.0  # discard the (unrepresentable) Nyquist content
            norms[i, k] = _half_lp_norm(grid, g, p)
    return norms


def study_block_scaling(params: IllposedDataParams, n_min: int = DEFAULT_N_RANGE[0],
                        n_max: int = DEFAULT_N_RANGE[1]) -> StudyReport:
    """Decay exponents of || u0^2 d/dx block_n(data) ||_Lp versus n.

    The rho-data norms must scale like 2^(-n(s-2)) and the u-data norms
    like 2^(-n(s-1)); both are also required to stay bounded below after
    normalization.

    At desk scale the top rows sit near their roundoff floor: band 11 of u0
    is about 2^-33 of its largest band, so a roundoff-level change in the
    data (for instance another summation order in synthesis) moves the
    top ``norm_u_term`` rows by up to about 2e-8 relative.  The slope and
    plateau verdicts are far from this.
    """
    n_list = check_blockscale(params, n_min, n_max)
    y = _spectra(build_initial_data(params))  # the values die here, before the sweep
    bank = build_filter_bank(params.grid)
    s, p = params.s, params.p

    norms_rho, norms_u = _transport_block_norms(bank, y, n_list, p).tolist()
    rows = [
        (n, norm_rho, norm_u, 2.0 ** (n * (s - 2)) * norm_rho, 2.0 ** (n * (s - 1)) * norm_u)
        for n, norm_rho, norm_u in zip(n_list, norms_rho, norms_u)
    ]

    fit_rho = fit_powerlaw([(r[0], r[1]) for r in rows], "dyadic")
    fit_u = fit_powerlaw([(r[0], r[2]) for r in rows], "dyadic")
    report = StudyReport(
        study_name="blockscale",
        params=_params_dict(params, n_min=n_list[0], n_max=n_list[-1]),
        tolerances={
            "slope": SLOPE_TOL_BLOCKSCALE,
            "r2_min": R2_MIN,
            "plateau_min": PLATEAU_MIN,
        },
        columns=["n", "norm_rho_term", "norm_u_term", "normalized_rho", "normalized_u"],
        rows=rows,
        fits={"rho_exponent": fit_rho, "u_exponent": fit_u},
    )
    report.judge_slope("rho_slope", fit_rho, -(s - 2), "slope")
    report.judge_slope("u_slope", fit_u, -(s - 1), "slope")
    report.judge("rho_r2", fit_rho.r_squared, "r2", ">=", "r2_min")
    report.judge("u_r2", fit_u.r_squared, "r2", ">=", "r2_min")
    for label, col in (("rho", 3), ("u", 4)):
        vals = np.array([r[col] for r in rows])
        report.judge(f"{label}_plateau", float(vals.min() / np.median(vals)),
                     "min/median of normalized values", ">=", "plateau_min")
    return report


def check_shorttime(params: IllposedDataParams, t_max: float, dt_cap) -> tuple:
    """The input rules of ``study_short_time``: finite block weights, the step
    cap against t_max, then a positive t_max.  Returns the times,
    ``time_ladder(t_max)``, and the study's SolverConfig at s - 1, so the step
    norm is the distances' B^(s-2) x B^(s-1), the strongest the study reports."""
    _check_weights(params.s, top_index(params.grid))
    config = SolverConfig(t_final=t_max, dt=dt_cap, s=params.s - 1)
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    return time_ladder(t_max), config


def study_short_time(params: IllposedDataParams, t_max: float = DEFAULT_T_MAX,
                     dt_cap: float | None = None) -> StudyReport:
    """Short-time expansion orders of the flow started from the lacunary data.

    Distances one derivative below the data space must be O(t); residuals
    u(t) - u0 - t w0 against the first variation (v0, w0), the right-hand
    side at the data, two derivatives below, must be O(t^2).  The step is
    controlled in the distances' norm and capped by ``dt_cap``, if given.

    The times are ``time_ladder(t_max)``.  The sweep lands on t_max only
    and reads every other time from the interpolant of the step that passes
    it (``integrate``'s ``interpolated``), which costs no kernel evaluation:
    its steps are those of ``integrate`` run to t_max alone.  The header's
    ``ladder_interpolated`` counts the times read so, and its invariant
    drifts cover the one landed record.
    """
    times, config = check_shorttime(params, t_max, dt_cap)
    s, p = params.s, params.p
    data = build_initial_data(params)
    bank = build_filter_bank(params.grid)
    rows = []
    read = []  # the ladder times read from the interpolant

    def expand(record, y0, f0):
        # (v0, w0) = f0, the right-hand side at the data
        t = record.time
        if record.interpolated:  # its spectra are its own and die with this visit
            read.append(t)
        diff = np.subtract(record.spectra, y0, out=record.spectra if record.interpolated else None)
        distances = _besov_rows(bank, diff, (s - 2, s - 1), p)
        diff -= t * f0  # the residual
        # the residuals shrink like t^2 while inheriting harmless spectral
        # dust from t*f0, so the resolution guard would misfire on them
        rows.append((t, *distances,
                     *_besov_rows(bank, diff, (s - 3, s - 2), p, check_resolved=False)))

    traj, _, drifts = _sweep(data, config, times[:1], expand, times[1:])
    fits = {
        "first_order_rho": fit_powerlaw([(r[0], r[1]) for r in rows], "loglog"),
        "first_order_u": fit_powerlaw([(r[0], r[2]) for r in rows], "loglog"),
        "second_order_rho": fit_powerlaw([(r[0], r[3]) for r in rows], "loglog"),
        "second_order_u": fit_powerlaw([(r[0], r[4]) for r in rows], "loglog"),
    }
    report = StudyReport(
        study_name="shorttime",
        params=_params_dict(
            params,
            t_max=times[0],
            ablate_first_variation=False,  # constant: the header changes only by addition
            **_solver_params(traj), step_norm_s=config.s,
            ladder_interpolated=len(read),
            **drifts,
        ),
        tolerances={
            "first_order_slope": SLOPE_TOL_FIRST_ORDER,
            "second_order_slope": SLOPE_TOL_SECOND_ORDER,
        },
        columns=["t", "dist_rho", "dist_u", "resid_rho", "resid_u"],
        rows=rows,
        fits=fits,
    )
    for name in ("first_order_rho", "first_order_u"):
        report.judge_slope(name, fits[name], 1.0, "first_order_slope")
    for name in ("second_order_rho", "second_order_u"):
        report.judge_slope(name, fits[name], 2.0, "second_order_slope")
    return report


def check_separation(params: IllposedDataParams, n_min: int, n_max: int, delta,
                     dt_cap) -> tuple:
    """The input rules of ``study_separation``: finite block weights, bands in
    [5, num_terms - 1], delta in (0, 1) and the step cap against the longest
    horizon delta 2^-n_min.  Returns the bands and the study's SolverConfig."""
    _check_weights(params.s, top_index(params.grid))
    n_list = _bands(params, n_min, n_max, 5)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return n_list, SolverConfig(t_final=delta * 2.0**-n_list[0], dt=dt_cap, s=params.s)


def _control_grid(grid: Grid) -> Grid:
    """The grid the separation control runs on: the grid of ``grid``'s box
    with the fewest points, a power of two, whose Nyquist frequency exceeds
    CONTROL_NYQUIST_MIN, or one with as many points as ``grid`` when no
    coarser grid does."""
    coarse = Grid(16, grid.length)
    while coarse.nyquist <= CONTROL_NYQUIST_MIN and coarse.num_points < grid.num_points:
        coarse = Grid(2 * coarse.num_points, grid.length)
    return coarse


def _padded_half(grid: Grid, bank: LPFilterBank, half: np.ndarray) -> np.ndarray:
    """The half spectra on ``grid``, a grid of the same box with no fewer
    points, of the fields with half spectra ``half`` (along the last axis)
    on the grid of ``bank``: ``half`` itself when the grids are equal, else
    padded with zeros, the Nyquist bin split evenly between the bins +-N/2
    that it stands for on the finer grid, once the resolution guard has
    passed each field on its own grid."""
    if bank.grid == grid:
        return half
    _check_resolved(bank, _bin_energy(half))
    m = half.shape[-1]
    padded = np.zeros(half.shape[:-1] + (grid.num_points // 2 + 1,), dtype=complex)
    padded[..., :m] = half
    padded[..., m - 1] *= 0.5
    return padded


def study_separation(params: IllposedDataParams, n_min: int = DEFAULT_N_RANGE[0],
                     n_max: int = DEFAULT_N_RANGE[1], delta: float = DEFAULT_DELTA,
                     dt_cap: float | None = None) -> StudyReport:
    """Non-vanishing data-to-solution separation along t_n = delta 2^-n.

    For each n the report records, at t_n, both the full Besov distances
    and the block-n separation

        S_n = 2^(n(s-1)) ||block_n(rho - rho0)||_Lp
            + 2^(n s)    ||block_n(u - u0)||_Lp,

    which lower-bounds the full distance, beside the paper's leading term
    for it: u(t) - u0 ~ t w0 and rho(t) - rho0 ~ t v0 for small t, with
    (v0, w0) the right-hand side at the data, so

        sep_first_order = t_n (2^(n(s-1)) ||block_n v0||_Lp
                               + 2^(n s) ||block_n w0||_Lp)

    and sep_ratio = S_n / sep_first_order, which no verdict reads.
    Truncated data are smooth, so the full distance itself decays like t_n
    once n passes the truncation; the persistence verdicts therefore run on
    the block-matched statistic, and the smooth-data control (an amplified
    bump with no content at block n), which every run integrates, is judged
    on the full distance.  The energy audit tracks the solution Besov norms
    at the quarters of every horizon.

    The horizons are nested, so the data and the control are each
    integrated once, in one error-controlled sweep; ``dt_cap`` optionally
    caps its step.  The data sweep lands on the dyadic ladder only: every
    horizon t_n and the quarters t_n/4 = t_(n+2) and t_n/2 = t_(n+1).  It
    reads the audit's off-ladder quarters 3 t_n/4 from the interpolant of
    the step that passes them (``integrate``'s ``interpolated``), which
    costs no kernel evaluation; the header's ``audit_interpolated`` counts
    them, and the data sweep's invariant drifts cover its landed records
    only.  The control's spectrum stays far below the data's, so it runs
    on the coarser grid ``_control_grid`` gives, whose step RK4's stability
    at the data's top wavenumber does not hold down; its distance is still
    measured on the data's grid, by the data's filter bank, from its half
    spectrum padded with zeros, after the resolution guard on its own grid
    (see ``_padded_half``).  The header's ``dt``, ``rk4_steps``,
    ``rk4_rejected`` and ``time_error_max`` cover both sweeps;
    ``control_rk4_steps`` counts the control's share, and
    ``control_time_error_max``, ``control_invariant_drift_rho`` and
    ``control_invariant_drift_u`` give the control sweep's largest per-step
    error and invariant drifts beside the data sweep's
    ``invariant_drift_rho`` and ``invariant_drift_u``.
    """
    n_list, cfg = check_separation(params, n_min, n_max, delta, dt_cap)
    s, p = params.s, params.p
    data = build_initial_data(params)
    bank = build_filter_bank(params.grid)

    horizon = {n: delta * 2.0**-n for n in n_list}
    band_at = {t_n: n for n, t_n in horizon.items()}
    # t_n/4 and t_n/2 coincide exactly with t_(n+2) and t_(n+1), on the
    # ladder the sweep lands on; 3 t_n/4 lies off it
    quarters = {n: [t_n * k / 4 for k in (1, 2, 3, 4)] for n, t_n in horizon.items()}
    off_ladder = {times[2] for times in quarters.values()}
    energy = {}  # the solution Besov norms, until divided by the data's
    separation = {}
    read = []  # the audit times read from the interpolant

    def audit(record, y0, f0):
        t = record.time
        if record.interpolated:
            read.append(t)
        norm_rho, norm_u = _besov_rows(bank, record.spectra, (s - 1, s), p)
        energy[t] = norm_rho + norm_u
        n = band_at.get(t)
        if n is not None:
            # one block sweep per difference gives both statistics
            w_rho, w_u = _weighted_rows(bank, record.spectra - y0, (s - 1, s), p)
            separation[n] = (float(w_rho[n + 1] + w_u[n + 1]), float(np.max(w_rho)),
                             float(np.max(w_u)))

    sweep, (y0, f0), drifts = _sweep(data, cfg, set().union(*quarters.values()) - off_ladder,
                                     audit, off_ladder)
    norm_rho, norm_u = _besov_rows(bank, y0, (s - 1, s), p)
    energy0 = norm_rho + norm_u
    # (v0, w0) = f0, the right-hand side at the data
    lead_rho, lead_u = _weighted_rows(bank, f0, (s - 1, s), p)
    lead = lead_rho + lead_u
    del y0, f0  # not held through the control's sweep
    control_dist = {}
    control_grid = _control_grid(params.grid)
    control = CONTROL_AMPLITUDE * build_bump(control_grid)
    control_bank = build_filter_bank(control_grid)

    def collapse(record, y0, f0):
        # the Besov distances of the padded differences, from their spectra
        diff = _padded_half(params.grid, control_bank, record.spectra - y0)
        dist_rho, dist_u = _besov_rows(bank, diff, (s - 1, s), p)
        control_dist[band_at[record.time]] = dist_rho + dist_u

    control_sweep, _, control_drifts = _sweep(SystemState(rho=control, u=control), cfg,
                                              horizon.values(), collapse)

    rows = []
    for n in n_list:
        block_sep, full_rho, full_u = separation[n]
        energy_ratio = max(energy[t] / energy0 for t in quarters[n])
        first_order = horizon[n] * float(lead[n + 1])
        rows.append((n, horizon[n], block_sep, full_rho, full_u, full_rho + full_u,
                     energy_ratio, control_dist[n], first_order, block_sep / first_order))

    fits = {"separation_trend": fit_powerlaw([(r[0], r[2]) for r in rows], "dyadic"),
            "control_trend": fit_powerlaw([(r[0], r[7]) for r in rows], "dyadic")}

    report = StudyReport(
        study_name="separation",
        params=_params_dict(params, delta=delta, n_min=n_list[0], n_max=n_list[-1],
                            with_control=True,  # constant: the header changes only by addition
                            control_amplitude=CONTROL_AMPLITUDE,
                            **_solver_params(sweep, control_sweep), step_norm_s=cfg.s,
                            control_grid_points=control_grid.num_points,
                            control_rk4_steps=len(control_sweep.errors),
                            audit_interpolated=len(read), **drifts,
                            # the control sweep's own time error and drifts, which the
                            # header's time_error_max and the data sweep's drifts do not isolate
                            control_time_error_max=_solver_params(control_sweep)["time_error_max"],
                            **{f"control_{key}": value for key, value in control_drifts.items()}),
        tolerances={
            "separation_slope_min": SEPARATION_SLOPE_MIN,
            "plateau_min": PLATEAU_MIN,
            "control_slope_max": CONTROL_SLOPE_MAX,
            "energy_factor_max": ENERGY_FACTOR_MAX,
        },
        columns=["n", "t_n", "sep_block", "dist_full_rho", "dist_full_u",
                 "dist_full_total", "energy_ratio_max", "control_dist_full",
                 "sep_first_order", "sep_ratio"],
        rows=rows,
        fits=fits,
    )
    report.judge("separation_slope", fits["separation_trend"].slope,
                 "block separation trend vs n", ">=", "separation_slope_min")
    seps = np.array([r[2] for r in rows])
    upper = seps[len(seps) // 2 :]
    report.judge("separation_plateau", float(upper.min() / np.median(seps)),
                 "min over upper half / median", ">=", "plateau_min")
    energy_worst = max(r[6] for r in rows)
    energy_ok = energy_worst <= report.tolerances["energy_factor_max"]
    report.add_verdict("energy_bounded", energy_ok, energy_worst,
                       "solution Besov norms within tol_energy_factor_max of initial")
    report.judge("control_collapses", fits["control_trend"].slope,
                 "smooth-data full distance trend", "<=", "control_slope_max")
    return report


# -- inequality corpora -------------------------------------------------------

def _corpus_band(grid: Grid) -> int:
    """The first half-spectrum bin of ``grid`` above CORPUS_BAND * Nyquist:
    every corpus field's spectrum is zero from it up."""
    return int(np.searchsorted(grid.half_frequencies, CORPUS_BAND * grid.nyquist, "right"))


def _draw_fields(grid: Grid, rng, coeffs: np.ndarray, values: np.ndarray) -> None:
    """Write to ``values``, rows of n grid values, random real fields with a
    smooth random spectrum below bin ``_corpus_band(grid)`` and sup norm 1, drawn
    in the C order of its leading axes, so k fields drawn at once get the
    bits of k drawn one at a time; ``coeffs``, complex rows of n/2 + 1 bins
    of the same leading shape, takes their spectra, and the one inverse
    transform writes straight into ``values``."""
    xi = grid.half_frequencies
    cutoff = CORPUS_BAND * grid.nyquist
    band = _corpus_band(grid)
    widths = np.empty(coeffs.shape[:-1] + (1,))
    for i in np.ndindex(coeffs.shape[:-1]):
        # each field draws its width, then its real and imaginary parts
        widths[i] = cutoff * rng.uniform(0.15, 1.0)
        coeffs[i].real = rng.standard_normal(xi.size)
        coeffs[i].imag = rng.standard_normal(xi.size)
    # the Gaussian envelope on the band, and zeros above it (the Nyquist bin
    # among them)
    envelope = np.divide(xi[:band], widths)
    envelope **= 2
    coeffs[..., :band] *= np.exp(np.negative(envelope, out=envelope), out=envelope)
    coeffs[..., band:] = 0.0
    coeffs[..., 0] = coeffs[..., 0].real
    coeffs[..., :band] /= grid.length
    _irfft_into(coeffs, n=grid.num_points, norm="forward", out=values)
    sup = _lp_rows(values, grid.spacing, math.inf)[..., None]
    values *= np.divide(1.0, sup, out=np.ones_like(sup), where=sup > 0)


def _pair_stacks(grid: Grid, k: int) -> np.ndarray:
    """The working memory of k sample pairs for ``_chunk_ratios``: five
    stacks of k rows of n + 2 doubles, each row the room of n grid values or
    of a half spectrum.  Stacks 2 and 3 hold the values of the u's and the
    v's in their first n columns."""
    return np.empty((5, k, grid.num_points + 2))


def _corpus_chunk(bank: LPFilterBank, rng, stacks: np.ndarray, s: float, p) -> np.ndarray:
    """Draw k sample pairs into ``stacks`` (``_pair_stacks`` of k pairs) and
    return their ratios (``_chunk_ratios``), as a corpus runs each chunk:
    the pairs' spectra go to stacks 0 and 1 and their values, u then v, to
    stacks 2 and 3, drawn u, v, u, v, ...; every ufunc buffers through
    CORPUS_UFUNC_BUFSIZE elements."""
    n = bank.grid.num_points
    with np.errstate():  # which restores this thread's buffer size
        np.setbufsize(CORPUS_UFUNC_BUFSIZE)
        _draw_fields(bank.grid, rng, stacks.view(complex)[:2].swapaxes(0, 1),
                     stacks[2:4, :, :n].swapaxes(0, 1))
        return _chunk_ratios(bank, stacks, s, p)


def _chunk_ratios(bank: LPFilterBank, stacks: np.ndarray, s: float, p) -> np.ndarray:
    """The product-law, commutator and smoothing ratios of the sample pairs
    (u, v) in ``stacks`` (``_pair_stacks``), one pair per row, as a (k, 3)
    array, for a checked p (a zero denominator gives 0):

        ||uv||_{B^(s-2)} / (||u||_{B^(s-2)} ||v||_{B^(s-1)}),
        sup_j 2^(js)||[block_j, u] v_x||_Lp
            / (||u_x||_inf ||v||_{B^s} + ||v_x||_inf ||u||_{B^s}),
        ||(1-dxx)^-1 u||_{B^s} / ||u||_{B^(s-2)}.

    Precondition: the spectra of u and v are zero from bin b =
    ``_corpus_band(grid)`` up, above CORPUS_BAND = 1/4 of Nyquist, as
    ``_draw_fields`` draws them.  Then uv, u v_x and u block_j(v_x) lie
    below Nyquist, so the grid's n samples hold them without aliasing, and
    every product is formed on the grid from the values of u, without
    padding; u block_j(v_x) lies below bin (b - 1) + (min(hi_j, b) - 1),
    and where that is below n/4 it is formed on u's n/2 even samples.  Each
    stack is transformed once, and its block sequences are weighted for all
    three indices; uv and (1-dxx)^-1 u are measured from their half
    spectra, and v_x's values serve sup|v_x| and the sweep's u v_x.  Every
    transform and reduction runs along the last axis, so each row gets the
    bits it would get alone.

    At p = 2 a pair takes 22 transforms on the default corpus grid (band
    bin 513): the draw's 2 inverse ones, the forward ones of u, v and uv,
    the inverse ones of u_x and v_x, and the commutator sweep's forward one
    of u v_x and 2 for each of the 7 blocks below the band, of which blocks
    -1..4 (up to bin 434) take n/2 points: 10 transforms of n points and 12
    of n/2.  Blocks 6 and 7 start above the band and take none
    (``_commutator_halves``).

    Every spectrum, product, energy and block is formed in the five stacks,
    which allocates no stack: v's values are spent once v's spectrum is
    formed, v_x's values take their place, and the commutator sweep
    (``_commutator_block_norms``) runs beside u and v_x's spectrum in the
    other three.
    """
    grid = bank.grid
    n = grid.num_points
    values, spectra = stacks[..., :n], stacks.view(complex)
    u, v = values[2], values[3]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValueError("field values must be finite")
    w2, w1, w0 = (_block_weights(bank, t) for t in (s - 2, s - 1, s))
    d = _derivative_symbol(grid)
    free = (stacks[0], stacks[4])  # the work of the block norms
    # uv: the product in stack 0, its spectrum in stack 1
    np.multiply(u, v, out=values[0])
    norms_uv = _block_norms(bank, _product_half(values[0], spectra[1]), p, work=free)
    # u: its spectrum in stack 1, u_x's in stack 0, then (1-dxx)^-1 u's in stack 1
    hu = _rfft_into(u, norm="forward", out=spectra[1])
    norms_u = _block_norms(bank, hu, p, work=free)
    sup_ux = _half_lp_norm(grid, np.multiply(d, hu, out=spectra[0]), math.inf, stacks[4])
    hu *= _smoothing_symbol(grid)
    norms_gu = _block_norms(bank, hu, p, work=free)
    # v: its spectrum in stack 1 and v_x's in stack 0, after which v's values
    # are free
    hv = _rfft_into(v, norm="forward", out=spectra[1])
    hvx = np.multiply(d, hv, out=spectra[0])
    norms_v = _block_norms(bank, hv, p, work=(stacks[3], stacks[4]))
    # v_x's values in stack 3, for sup|v_x| and the commutator sweep
    sup_vx = _lp_rows(_irfft_into(hvx, n=n, norm="forward", out=values[3]), grid.spacing,
                      math.inf)
    # u and v share the corpus band
    comm = _commutator_block_norms(bank, hvx, (_corpus_band(grid),) * 2, u, p,
                                   (stacks[3], spectra[4], spectra[1]))

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    def top(weights, norms):
        return np.max(weights * norms, axis=-1)

    return np.stack([
        ratio(top(w2, norms_uv), top(w2, norms_u) * top(w1, norms_v)),
        ratio(top(w0, comm), sup_ux * top(w0, norms_v) + sup_vx * top(w0, norms_u)),
        ratio(top(w0, norms_gu), top(w2, norms_u)),
    ], axis=-1)


def check_inequalities(corpus_size: int, seed: int, grid: Grid, s: float, p) -> float:
    """The input rules of ``study_inequalities``: (s, p) in the paper's regime,
    at least 100 pairs, a seed numpy accepts, finite block weights, and a grid
    on which the products u v_x (below 2 CORPUS_BAND Nyquist) reach past the
    low-pass plateau |xi| <= 1, inside which every commutator block vanishes
    and its ratio measures only roundoff.  Returns p as a float."""
    p = check_regime(s, p)
    if corpus_size < 100:
        raise ValueError(f"corpus_size must be at least 100, got {corpus_size}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if 2 * CORPUS_BAND * grid.nyquist <= CHI_PLATEAU_END:
        raise ValueError(
            f"corpus grid Nyquist frequency {grid.nyquist:g} must exceed "
            f"{CHI_PLATEAU_END / (2 * CORPUS_BAND):g}: below it every commutator "
            "block of the corpus vanishes"
        )
    _check_weights(s, top_index(grid))
    return p


def study_inequalities(corpus_size: int = DEFAULT_CORPUS_SIZE, seed: int = DEFAULT_SEED,
                       grid: Grid = Grid(*DEFAULT_INEQUALITY_GRID), s: float = DEFAULT_S,
                       p=DEFAULT_P) -> StudyReport:
    """Bounded-ratio audit of the product law, the commutator estimate, and
    the smoothing multiplier on two disjoint random corpora.

    The inequalities hold with non-constructive constants, so the verdict is
    that each family's max ratio is finite and agrees between the corpora
    within a factor of two.  Corpus fields lie below CORPUS_BAND * Nyquist,
    so each pair's products are formed on the corpus grid itself, without
    padding, and most commutator products on its even points (see
    ``_chunk_ratios``).
    """
    p = check_inequalities(corpus_size, seed, grid, s, p)
    bank = build_filter_bank(grid)

    def corpus(rows, name, corpus_seed):
        rng = np.random.default_rng(corpus_seed)
        stacks = _pair_stacks(grid, CORPUS_CHUNK)  # all the memory the chunks reuse
        for start in range(0, corpus_size, CORPUS_CHUNK):
            k = min(CORPUS_CHUNK, corpus_size - start)
            ratios = _corpus_chunk(bank, rng, stacks[:, :k], s, p).tolist()
            rows.extend((start + i, name, *r) for i, r in enumerate(ratios))

    # B runs on the solver's worker thread while A runs here, or after A on
    # one CPU.  The corpora share only read-only inputs (the bank, the grid,
    # whose frequencies the bank has cached, s and p) and each draws from its
    # own generator, so the rows are the same bits either way.  At p = 2 each
    # pair of fields takes 10 transforms of the default grid's n points and
    # 12 of n/2 (``_chunk_ratios``), the work of 16 of n points.
    rows_a, rows_b = [], []
    _pair(partial(corpus, rows_b, "B", seed + 1), partial(corpus, rows_a, "A", seed),
          2 * 16 * corpus_size * grid.num_points)
    rows = rows_a + rows_b

    report = StudyReport(
        study_name="inequalities",
        params={
            "corpus_size": corpus_size,
            "seed": seed,
            "s": s,
            "p": p,
            "grid_points": grid.num_points,
            "domain_length": grid.length,
        },
        tolerances={"stability_factor": STABILITY_FACTOR},
        columns=["sample", "corpus", "ratio_product_law", "ratio_commutator",
                 "ratio_smoothing"],
        rows=rows,
    )
    for col, family in enumerate(("product_law", "commutator", "smoothing"), start=2):
        a, b = (max(row[col] for row in rows if row[1] == corpus) for corpus in "AB")
        finite = math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0
        spread = max(a / b, b / a) if finite else math.inf
        report.add_verdict(
            f"{family}_max_finite", finite, a, "corpus max ratio finite and positive"
        )
        report.add_verdict(f"{family}_stable", spread <= report.tolerances["stability_factor"],
                           spread, "corpus max ratios agree within tol_stability_factor")
    return report
