"""Command-line entry point: data generation, solving, decomposition, studies.

Exit codes: 0 when every verdict passes, 1 when any verdict fails (outputs
are still written), 2 on usage, validation or file errors and when an
integration trips the solver's blow-up guard or step floor.  A plain
key=value config file can seed any run; explicit flags override it.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_type_hints

from . import experiments
from .experiments import (DEFAULT_CORPUS_SIZE, DEFAULT_DELTA, DEFAULT_DOMAIN_LENGTH,
                          DEFAULT_GRID_POINTS, DEFAULT_INEQUALITY_GRID, DEFAULT_N_RANGE,
                          DEFAULT_NUM_TERMS, DEFAULT_P, DEFAULT_S, DEFAULT_SEED, DEFAULT_T_MAX,
                          write_study)
from .fieldio import save_field
from .initial_data import (LAMBDA_DEFAULT, LAMBDA_MAX, LAMBDA_MIN, IllposedDataParams,
                           build_initial_data, tail_bound)
from .littlewood_paley import _check_weights, build_filter_bank, top_index
from .solver import (MIN_STEP_FRACTION, BlowupError, SolverConfig, StepSizeError, _spectra,
                     integrate)
from .spectral import Grid

STUDIES = ("blockscale", "shorttime", "separation", "inequalities")


def _setting(default, help: str, flag: str | None = None):
    """A ``RunConfig`` field that has a flag: ``flag``, or "--" plus the
    field's name with dashes for underscores, with ``help``."""
    return field(default=default, metadata={"help": help, "flag": flag})


@dataclass
class RunConfig:
    """Every setting of a run, with its type, its default and the help of
    its flag, which names the runs that read it (every command accepts
    every flag)."""

    command: str
    study_name: str | None = None
    s: float = _setting(DEFAULT_S, "regularity, must satisfy s > max(2+1/p, 5/2) "
                        f"(default {DEFAULT_S}); read by every run")
    p: float = _setting(DEFAULT_P, f"integrability in [1, inf], accepts 'inf' (default "
                        f"{DEFAULT_P}); read by every run (generate-data and solve only "
                        "check it against s)")
    lam: float = _setting(LAMBDA_DEFAULT, f"modulation in [{LAMBDA_MIN:.6g}, {LAMBDA_MAX:.6g}] "
                          f"(default {LAMBDA_DEFAULT:.6g}); read by every run but study "
                          "inequalities", flag="--lambda")
    num_terms: int = _setting(DEFAULT_NUM_TERMS, "truncation of the lacunary sums (default "
                              f"{DEFAULT_NUM_TERMS}); read by every run but study inequalities")
    grid_points: int = _setting(DEFAULT_GRID_POINTS, "grid size, power of two (default "
                                f"{DEFAULT_GRID_POINTS}; {DEFAULT_INEQUALITY_GRID[0]} for study "
                                "inequalities); read by every run")
    domain_length: float = _setting(DEFAULT_DOMAIN_LENGTH, "periodic box length (default "
                                    f"{DEFAULT_DOMAIN_LENGTH}; {DEFAULT_INEQUALITY_GRID[1]} for "
                                    "study inequalities); read by every run")
    dt: float | None = _setting(None, "cap on the error-controlled time step, at least "
                                f"{MIN_STEP_FRACTION:g} of the horizon (default: no cap); read "
                                "by solve, study shorttime and study separation")
    t_final: float = _setting(DEFAULT_T_MAX, f"integration horizon (default {DEFAULT_T_MAX:g}); "
                              "read by solve and study shorttime (study separation integrates "
                              "to delta 2^-n_min)")
    delta: float = _setting(DEFAULT_DELTA, f"separation scale in (0,1) (default {DEFAULT_DELTA})"
                            "; read by study separation")
    n_min: int = _setting(DEFAULT_N_RANGE[0], f"lowest band index (default {DEFAULT_N_RANGE[0]})"
                          "; read by study blockscale and study separation")
    n_max: int = _setting(DEFAULT_N_RANGE[1], f"highest band index (default {DEFAULT_N_RANGE[1]})"
                          "; read by study blockscale and study separation")
    seed: int = _setting(DEFAULT_SEED, f"corpus seed (default {DEFAULT_SEED}); read by study "
                         "inequalities")
    corpus_size: int = _setting(DEFAULT_CORPUS_SIZE, "inequality corpus size >= 100 (default "
                                f"{DEFAULT_CORPUS_SIZE}); read by study inequalities")
    output_path: str = _setting("novlab_out", "output path prefix (default novlab_out); read by "
                                "every run", flag="--output")

    def validate(self):
        """Reject the config before anything runs or is written: build the
        run it describes, whose ValueError is re-raised as a violation, and
        check that the output directory exists."""
        try:
            _plan(self)
        except ValueError as exc:
            raise ValueError(f"constraint violated: {exc}") from None
        parent = Path(self.output_path).resolve().parent
        if not parent.is_dir():
            raise ValueError(f"output directory does not exist: {parent}")

    def to_file(self, path):
        with open(path, "w") as fh:
            for f in fields(self):
                val = getattr(self, f.name)
                if val is not None:
                    fh.write(f"{f.name}={val}\n")

    @classmethod
    def _types(cls) -> dict:
        """Each field's type, which parses its flag and its config value."""
        # every field is int, float or str, optionally None
        return {k: (get_args(t) or (t,))[0] for k, t in get_type_hints(cls).items()}

    @classmethod
    def file_values(cls, path) -> dict:
        """The settings of a key=value file, each parsed as its field's type."""
        types = cls._types()
        out = {}
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, val = line.partition("=")
                key = key.strip()
                if key not in types:
                    raise ValueError(f"unknown config key {key!r}")
                if not sep:
                    raise ValueError(f"config key {key!r} has no value: expected {key}=value")
                try:
                    out[key] = types[key](val.strip())
                except ValueError as exc:
                    raise ValueError(f"config key {key!r}: {exc}") from None
        return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novlab",
        description="Numerical laboratory for the two-component Novikov system.",
        epilog="Config file: plain key=value lines; flags override file values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = RunConfig._types()

    def add_common(sp):
        sp.add_argument("--config", help="key=value config file (flags override it)")
        sp.add_argument("--dump-config", metavar="PATH",
                        help="write the effective config to PATH before running")
        for f in fields(RunConfig):
            if f.metadata:
                # default None: an unset flag leaves the config file's value
                sp.add_argument(f.metadata["flag"] or "--" + f.name.replace("_", "-"),
                                dest=f.name, type=types[f.name], default=None,
                                help=f.metadata["help"])

    helps = {
        "generate-data": "synthesize the data pair and dump the fields",
        "solve": "integrate the system from the data and dump the final state",
        "decompose": "tabulate weighted dyadic block norms of the data",
    }
    for name in ("generate-data", "solve", "decompose"):
        add_common(sub.add_parser(name, help=helps[name]))
    sp_study = sub.add_parser("study", help="run one verdict-bearing study")
    sp_study.add_argument("study_name", choices=STUDIES)
    add_common(sp_study)
    return parser


def parse_args(argv) -> RunConfig:
    """Flags override config-file values override documented defaults."""
    ns = build_parser().parse_args(argv)
    values = RunConfig.file_values(ns.config) if ns.config else {}
    for f in fields(RunConfig):
        flag_val = getattr(ns, f.name, None)
        if flag_val is not None:
            values[f.name] = flag_val
    if values.get("command") == "study" and values.get("study_name") == "inequalities":
        # the corpora live on a small grid unless one is requested explicitly
        values.setdefault("grid_points", DEFAULT_INEQUALITY_GRID[0])
        values.setdefault("domain_length", DEFAULT_INEQUALITY_GRID[1])
    cfg = RunConfig(**values)
    cfg.validate()
    if ns.dump_config:
        cfg.to_file(ns.dump_config)
    return cfg


def _plan(cfg: RunConfig):
    """The run ``cfg`` describes, as a callable that takes no arguments and
    returns the exit code.

    Building it applies every check the run is held to, before anything runs
    or is written: the core objects it builds (Grid, IllposedDataParams,
    SolverConfig), the bank's grid and block-weight rules for ``decompose``
    and each study's own ``experiments.check_*``.  Raises ValueError, also
    for an unknown command or study.
    """
    out = cfg.output_path
    grid = Grid(cfg.grid_points, cfg.domain_length)
    study = cfg.study_name if cfg.command == "study" else None
    if study == "inequalities":
        experiments.check_inequalities(cfg.corpus_size, cfg.seed, grid, cfg.s, cfg.p)
        return lambda: _report(out, experiments.study_inequalities(
            corpus_size=cfg.corpus_size, seed=cfg.seed, grid=grid, s=cfg.s, p=cfg.p))
    params = IllposedDataParams(s=cfg.s, p=cfg.p, lam=cfg.lam, num_terms=cfg.num_terms,
                                grid=grid)
    if cfg.command == "generate-data":
        return lambda: _generate_data(params, out)
    if cfg.command == "solve":
        # --dt only caps the step, so it may exceed the horizon
        config = SolverConfig(t_final=cfg.t_final, dt=cfg.dt, s=cfg.s)
        return lambda: _solve(params, config, out)
    if cfg.command == "decompose":
        _check_weights(cfg.s, top_index(grid))
        return lambda: _decompose(cfg, params)
    if cfg.command != "study":
        raise ValueError(f"unknown command {cfg.command!r}")
    if study == "blockscale":
        experiments.check_blockscale(params, cfg.n_min, cfg.n_max)
        return lambda: _report(out, experiments.study_block_scaling(params, cfg.n_min,
                                                                    cfg.n_max))
    if study == "shorttime":
        experiments.check_shorttime(params, cfg.t_final, cfg.dt)
        return lambda: _report(out, experiments.study_short_time(params, cfg.t_final, cfg.dt))
    if study == "separation":
        # integrated to the longest horizon delta 2^-n_min, not to --t-final
        experiments.check_separation(params, cfg.n_min, cfg.n_max, cfg.delta, cfg.dt)
        return lambda: _report(out, experiments.study_separation(
            params, cfg.n_min, cfg.n_max, cfg.delta, cfg.dt))
    raise ValueError(f"study must be one of {STUDIES}, got {cfg.study_name!r}")


def _generate_data(params: IllposedDataParams, out: str) -> int:
    data, tail = build_initial_data(params), tail_bound(params)
    save_field(data.rho, f"{out}_rho.csv", time=0.0, tail_bound=tail)
    save_field(data.u, f"{out}_u.csv", time=0.0, tail_bound=tail)
    print(f"wrote {out}_rho.csv, {out}_u.csv (tail bound {tail:.3e})")
    return 0


def _solve(params: IllposedDataParams, config: SolverConfig, out: str) -> int:
    traj = integrate(build_initial_data(params), config)
    final = traj.final
    save_field(final.rho, f"{out}_rho.csv", time=final.time)
    save_field(final.u, f"{out}_u.csv", time=final.time)
    print(f"wrote {out}_rho.csv, {out}_u.csv at t={final.time:g} "
          f"({len(traj.errors)} steps, {traj.rejected} rejected)")
    return 0


def _decompose(cfg: RunConfig, params: IllposedDataParams) -> int:
    y = _spectra(build_initial_data(params))  # the values die here, before the block sums
    bank = build_filter_bank(params.grid)
    wr, wu = experiments._weighted_rows(bank, y, (cfg.s - 1, cfg.s), cfg.p)
    path = f"{cfg.output_path}_blocks.csv"
    with open(path, "w") as fh:
        fh.write(f"# s={cfg.s}\n# p={cfg.p}\n# lambda={cfg.lam}\n")
        fh.write(f"# num_terms={cfg.num_terms}\n# grid_points={cfg.grid_points}\n")
        fh.write(f"# domain_length={cfg.domain_length}\n")
        fh.write("# columns: j,weighted_rho_block,weighted_u_block\n")
        for j in range(-1, bank.j_max + 1):
            fh.write(f"{j},{wr[j+1]:.17g},{wu[j+1]:.17g}\n")
    print(f"wrote {path}")
    return 0


def _report(out: str, report) -> int:
    write_study(report, f"{out}_{report.study_name}")
    for v in report.verdicts:
        print(f"{report.study_name}: {v.name} {'PASS' if v.passed else 'FAIL'} "
              f"(observed {v.observed:.6g})")
    print(f"wrote {out}_{report.study_name}.csv and .gp")
    return 0 if report.passed else 1


def run(cfg: RunConfig) -> int:
    """Build the run ``cfg`` describes and run it; returns the process exit code."""
    return _plan(cfg)()


def main(argv=None) -> int:
    try:
        return run(parse_args(sys.argv[1:] if argv is None else argv))
    except (ValueError, BlowupError, StepSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
