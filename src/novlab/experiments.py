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

import numpy as np

from .initial_data import IllposedDataParams, build_bump, build_initial_data, check_regime
from .littlewood_paley import (
    CHI_PLATEAU_END,
    BesovIndex,
    LPFilterBank,
    build_filter_bank,
    besov_norm,
    top_index,
    _block_norms,
    _block_weights,
    _check_weights,
    _commutator_block_norms,
    _transport_block_norms,
    weighted_block_norms,
)
from .solver import SolverConfig, SystemState, integrate, rhs
from .spectral import (
    Grid,
    RealField,
    _derivative_symbol,
    _half_from_padded,
    _padded_values,
    _smoothing_symbol,
    field_from_half,
    half_spectrum,
    lp_norm,
)

DEFAULT_GRID_POINTS = 2**17
DEFAULT_DOMAIN_LENGTH = 128.0
DEFAULT_S = 3.0
DEFAULT_P = 2.0
DEFAULT_NUM_TERMS = 12
DEFAULT_N_RANGE = (5, 11)
DEFAULT_DELTA = 0.1
DEFAULT_T_MAX = 1e-2  # the horizon of solve and of the shorttime ladder


def time_ladder(t_max: float) -> tuple:
    """The shorttime checkpoints: t_max and its first five halvings."""
    return tuple(t_max * 2.0**-k for k in range(6))


DEFAULT_TIMES = time_ladder(DEFAULT_T_MAX)
DEFAULT_SEED = 2026
DEFAULT_CORPUS_SIZE = 100
DEFAULT_INEQUALITY_GRID = (2**12, 64.0)  # grid points and domain length of the corpora
CORPUS_BAND = 0.25  # corpus fields live below this fraction of Nyquist

SLOPE_TOL_FIRST_ORDER = 0.1
SLOPE_TOL_SECOND_ORDER = 0.2
SLOPE_TOL_BLOCKSCALE = 0.1
R2_MIN = 0.99
PLATEAU_MIN = 0.5
SEPARATION_SLOPE_MIN = -0.1
CONTROL_SLOPE_MAX = -0.9
ENERGY_FACTOR_MAX = 2.0
STABILITY_FACTOR = 2.0
# The control datum is the plain bump scaled so that its O(t) distances stay
# above the double-precision spectral floor of the 2^(js)-weighted top blocks
# (~1e-6 at desk scale); the datum stays smooth and non-oscillatory.
CONTROL_AMPLITUDE = 24.0


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
    if len(pts) < 3:
        raise DegenerateDataError(f"need at least 3 points, got {len(pts)}")
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


def _bands(params: IllposedDataParams, n_range, n_lowest: int) -> list:
    """The band indices of a study, sorted: at least 3, the fewest a
    power-law fit takes, each in [n_lowest, num_terms - 1].  ``None``
    selects DEFAULT_N_RANGE."""
    if n_range is None:
        n_range = range(DEFAULT_N_RANGE[0], DEFAULT_N_RANGE[1] + 1)
    n_list = sorted(int(n) for n in n_range)
    if len(n_list) < 3 or n_list[0] < n_lowest or n_list[-1] >= params.num_terms:
        raise ValueError(
            f"n_range must hold at least 3 bands within [{n_lowest}, num_terms - 1] = "
            f"[{n_lowest}, {params.num_terms - 1}], got {n_list}"
        )
    return n_list


def check_blockscale(params: IllposedDataParams, n_range=None) -> list:
    """The input rules of ``study_block_scaling``: finite block weights
    2^(j s), j <= j_max, and bands in [3, num_terms - 1].  Returns the bands."""
    _check_weights(params.s, top_index(params.grid))
    return _bands(params, n_range, 3)


def study_block_scaling(params: IllposedDataParams, n_range=None) -> StudyReport:
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
    n_list = check_blockscale(params, n_range)
    data = build_initial_data(params)
    bank = build_filter_bank(params.grid)
    s, p = params.s, params.p

    norms_rho, norms_u = _transport_block_norms(bank, data.rho, data.u, n_list, p).tolist()
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


def check_shorttime(params: IllposedDataParams, times, dt_cap) -> tuple:
    """The input rules of ``study_short_time``: finite block weights, the step
    cap against the largest time, then at least 3 distinct positive times.
    Returns the times, decreasing, and the study's SolverConfig."""
    _check_weights(params.s, top_index(params.grid))
    times = sorted({float(t) for t in times}, reverse=True)
    config = SolverConfig(t_final=max(times, default=0.0), dt=dt_cap, s=params.s)
    if len(times) < 3 or not all(t > 0 for t in times):
        raise ValueError(f"need at least 3 distinct positive times, got {times}")
    return times, config


def study_short_time(params: IllposedDataParams, times=DEFAULT_TIMES,
                     ablate_first_variation: bool = False,
                     dt_cap: float | None = None) -> StudyReport:
    """Short-time expansion orders of the flow started from the lacunary data.

    Distances one derivative below the data space must be O(t); residuals
    against the first variation (the right-hand side at the data), two
    derivatives below, must be O(t^2).
    Ablating the first variation (replacing it by zero) demotes the
    second-order pair to first order.  ``dt_cap`` optionally caps the
    error-controlled step.
    """
    times, config = check_shorttime(params, times, dt_cap)
    s, p = params.s, params.p
    data = build_initial_data(params)
    bank = build_filter_bank(params.grid)
    state0 = SystemState(rho=data.rho, u=data.u)
    if ablate_first_variation:
        zero = RealField(params.grid, np.zeros(params.grid.num_points))
        v0, w0 = zero, zero
    else:
        v0, w0 = rhs(state0)

    rows = []

    def expand(state):
        t = state.time
        drho, du = state.rho - data.rho, state.u - data.u
        d1r = besov_norm(bank, drho, BesovIndex(s - 2, p))
        d1u = besov_norm(bank, du, BesovIndex(s - 1, p))
        # the residuals shrink like t^2 while inheriting harmless spectral
        # dust from t*v0, so the resolution guard would misfire on them
        d2r = besov_norm(bank, drho - t * v0, BesovIndex(s - 3, p), check_resolved=False)
        d2u = besov_norm(bank, du - t * w0, BesovIndex(s - 2, p), check_resolved=False)
        rows.append((t, d1r, d1u, d2r, d2u))

    traj = integrate(state0, config, checkpoints=times, visit=expand)
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
            ablate_first_variation=ablate_first_variation,
            **_solver_params(traj),
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


def check_separation(params: IllposedDataParams, n_range, delta, dt_cap) -> tuple:
    """The input rules of ``study_separation``: finite block weights, bands in
    [5, num_terms - 1], delta in (0, 1) and the step cap against the longest
    horizon delta 2^-n_min.  Returns the bands and the study's SolverConfig."""
    _check_weights(params.s, top_index(params.grid))
    n_list = _bands(params, n_range, 5)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return n_list, SolverConfig(t_final=delta * 2.0**-n_list[0], dt=dt_cap, s=params.s)


def study_separation(params: IllposedDataParams, n_range=None,
                     delta: float = DEFAULT_DELTA, with_control: bool = True,
                     dt_cap: float | None = None) -> StudyReport:
    """Non-vanishing data-to-solution separation along t_n = delta 2^-n.

    For each n the report records, at t_n, both the full Besov distances
    and the block-n separation

        S_n = 2^(n(s-1)) ||block_n(rho - rho0)||_Lp
            + 2^(n s)    ||block_n(u - u0)||_Lp,

    which lower-bounds the full distance.  Truncated data are smooth, so
    the full distance itself decays like t_n once n passes the truncation;
    the persistence verdicts therefore run on the block-matched statistic,
    and the smooth-data control (an amplified bump with no content at block
    n) is judged on the full distance.  The energy audit tracks the
    solution Besov norms at the quarters of every horizon.

    The horizons are nested, so the data and the control are each
    integrated once, in one error-controlled sweep through every horizon
    and quarter checkpoint; ``dt_cap`` optionally caps its step.
    """
    n_list, cfg = check_separation(params, n_range, delta, dt_cap)
    s, p = params.s, params.p
    data = build_initial_data(params)
    bank = build_filter_bank(params.grid)
    idx_rho, idx_u = BesovIndex(s - 1, p), BesovIndex(s, p)
    energy0 = besov_norm(bank, data.rho, idx_rho) + besov_norm(bank, data.u, idx_u)

    horizon = {n: delta * 2.0**-n for n in n_list}
    band_at = {t_n: n for n, t_n in horizon.items()}
    # t_n/4 and t_n/2 coincide exactly with t_(n+2) and t_(n+1)
    quarters = {n: [t_n * k / 4 for k in (1, 2, 3, 4)] for n, t_n in horizon.items()}
    energy = {}
    separation = {}

    def audit(st):
        energy[st.time] = (
            besov_norm(bank, st.rho, idx_rho) + besov_norm(bank, st.u, idx_u)
        ) / energy0
        n = band_at.get(st.time)
        if n is not None:
            # one block sweep per difference field gives both statistics
            w_rho = weighted_block_norms(bank, st.rho - data.rho, idx_rho)
            w_u = weighted_block_norms(bank, st.u - data.u, idx_u)
            separation[n] = (float(w_rho[n + 1] + w_u[n + 1]), float(np.max(w_rho)),
                             float(np.max(w_u)))

    trajectories = [integrate(SystemState(rho=data.rho, u=data.u), cfg,
                              checkpoints=set().union(*quarters.values()), visit=audit)]
    control_dist = dict.fromkeys(n_list, math.nan)
    if with_control:
        control = CONTROL_AMPLITUDE * build_bump(params.grid)

        def collapse(st):
            control_dist[band_at[st.time]] = besov_norm(
                bank, st.rho - control, idx_rho
            ) + besov_norm(bank, st.u - control, idx_u)

        trajectories.append(integrate(SystemState(rho=control, u=control), cfg,
                                      checkpoints=horizon.values(), visit=collapse))

    rows = []
    for n in n_list:
        block_sep, full_rho, full_u = separation[n]
        energy_ratio = max(energy[t] for t in quarters[n])
        rows.append((n, horizon[n], block_sep, full_rho, full_u, full_rho + full_u,
                     energy_ratio, control_dist[n]))

    fits = {"separation_trend": fit_powerlaw([(r[0], r[2]) for r in rows], "dyadic")}
    if with_control:
        fits["control_trend"] = fit_powerlaw([(r[0], r[7]) for r in rows], "dyadic")

    report = StudyReport(
        study_name="separation",
        params=_params_dict(params, delta=delta, n_min=n_list[0], n_max=n_list[-1],
                            with_control=with_control,
                            control_amplitude=CONTROL_AMPLITUDE,
                            **_solver_params(*trajectories)),
        tolerances={
            "separation_slope_min": SEPARATION_SLOPE_MIN,
            "plateau_min": PLATEAU_MIN,
            "control_slope_max": CONTROL_SLOPE_MAX,
            "energy_factor_max": ENERGY_FACTOR_MAX,
        },
        columns=["n", "t_n", "sep_block", "dist_full_rho", "dist_full_u",
                 "dist_full_total", "energy_ratio_max", "control_dist_full"],
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
    if with_control:
        report.judge("control_collapses", fits["control_trend"].slope,
                     "smooth-data full distance trend", "<=", "control_slope_max")
    return report


# -- inequality corpora -------------------------------------------------------

def random_band_limited_field(grid: Grid, rng) -> RealField:
    """Random real field with smooth random spectrum below CORPUS_BAND * Nyquist."""
    xi = grid.half_frequencies
    cutoff = CORPUS_BAND * grid.nyquist
    width = cutoff * rng.uniform(0.15, 1.0)
    envelope = np.exp(-((xi / width) ** 2)) * (xi <= cutoff)
    coeffs = envelope * (rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size))
    coeffs[0] = coeffs[0].real
    coeffs[-1] = 0.0
    f = field_from_half(grid, coeffs / grid.length)
    sup = f.sup_norm()
    return f * (1.0 / sup) if sup > 0 else f


def _pair_ratios(bank: LPFilterBank, u: RealField, v: RealField,
                 idx: BesovIndex) -> tuple:
    """The product-law, commutator and smoothing ratios of one sample pair,
    with s, p = idx (a zero denominator gives 0):

        ||uv||_{B^(s-2)} / (||u||_{B^(s-2)} ||v||_{B^(s-1)}),
        sup_j 2^(js)||[block_j, u] v_x||_Lp
            / (||u_x||_inf ||v||_{B^s} + ||v_x||_inf ||u||_{B^s}),
        ||(1-dxx)^-1 u||_{B^s} / ||u||_{B^(s-2)}.

    Each field is transformed once, and its block sequence is weighted for
    all three indices.  uv (dealiased) and (1-dxx)^-1 u are measured from
    their half spectra, and the padded u serves the product and the
    commutator sweep.
    """
    grid = bank.grid
    n = grid.num_points
    p = idx.p
    w2, w1, w0 = (_block_weights(bank, s) for s in (idx.s - 2, idx.s - 1, idx.s))
    hu, hv = half_spectrum(u), half_spectrum(v)
    norms_u, norms_v = _block_norms(bank, hu, p), _block_norms(bank, hv, p)
    u_pad = _padded_values(hu, n)
    uv = _padded_values(hv, n)
    uv *= u_pad
    norms_uv = _block_norms(bank, _half_from_padded(uv, n), p)
    norms_gu = _block_norms(bank, _smoothing_symbol(grid) * hu, p)
    d = _derivative_symbol(grid)
    hvx = d * hv
    comm = _commutator_block_norms(bank, hvx, u_pad, p)
    sup_ux = lp_norm(field_from_half(grid, d * hu), math.inf)
    sup_vx = lp_norm(field_from_half(grid, hvx), math.inf)

    def ratio(num, den):
        return float(num / den) if den > 0 else 0.0

    return (
        ratio(np.max(w2 * norms_uv), np.max(w2 * norms_u) * np.max(w1 * norms_v)),
        ratio(np.max(w0 * comm),
              sup_ux * np.max(w0 * norms_v) + sup_vx * np.max(w0 * norms_u)),
        ratio(np.max(w0 * norms_gu), np.max(w2 * norms_u)),
    )


def check_inequalities(corpus_size: int, seed: int, grid: Grid | None, s: float, p) -> Grid:
    """The input rules of ``study_inequalities``: (s, p) in the paper's regime,
    at least 100 pairs, a seed numpy accepts, finite block weights, and a grid
    on which the products u v_x (below 2 CORPUS_BAND Nyquist) reach past the
    low-pass plateau |xi| <= 1, inside which every commutator block vanishes
    and its ratio measures only roundoff.  Returns the grid, the default
    corpus grid for None."""
    if grid is None:
        grid = Grid(*DEFAULT_INEQUALITY_GRID)
    check_regime(s, p)
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
    return grid


def study_inequalities(corpus_size: int = DEFAULT_CORPUS_SIZE, seed: int = DEFAULT_SEED,
                       grid: Grid | None = None, s: float = DEFAULT_S,
                       p=DEFAULT_P) -> StudyReport:
    """Bounded-ratio audit of the product law, the commutator estimate, and
    the smoothing multiplier on two disjoint random corpora.

    The inequalities hold with non-constructive constants, so the verdict is
    that each family's max ratio is finite and agrees between the corpora
    within a factor of two.
    """
    grid = check_inequalities(corpus_size, seed, grid, s, p)
    idx = BesovIndex(s, p)
    bank = build_filter_bank(grid)

    rows = []
    for corpus, corpus_seed in (("A", seed), ("B", seed + 1)):
        rng = np.random.default_rng(corpus_seed)
        for i in range(corpus_size):
            u = random_band_limited_field(grid, rng)
            v = random_band_limited_field(grid, rng)
            rows.append((i, corpus, *_pair_ratios(bank, u, v, idx)))

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
