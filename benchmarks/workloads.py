"""The benchmark's workloads and the correctness gate on their outputs.

A workload is a fixed sequence of ``novlab`` CLI invocations, run back to
back by one caller (a closed loop).  The seed is the only input: on the data
workloads it draws ``--lambda`` uniformly from the data family's window, on
``inequalities-corpus`` it is the corpus seed.  The program sees only CLI
flags.  Why each workload exists is recorded in README.md and
BENCHMARK.json.

Each invocation declares its checks: the ``# verdict:`` lines of a study CSV,
or the read-back of ``generate-data`` and ``decompose`` outputs.  A check
fails when its verdict reads FAIL, when (at the reference seed) its observed
value leaves the recorded reference, or when the invocation raised or exited
non-zero.  Nothing here imports numpy or novlab at module level.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0  # the reference seed of the gate
# the data family's lambda window [67/48, 69/48] (novlab.initial_data)
LAMBDA_WINDOW = (67.0 / 48.0, 69.0 / 48.0)
# reference values are printed with %.6g; a later change may move a verdict's
# observed value by this share (and never by more than its declared tolerance)
REFERENCE_REL_TOL = 1e-3

# study name -> number of verdicts it emits (charged in full when it fails)
STUDY_VERDICTS = {"blockscale": 6, "shorttime": 4, "separation": 4, "inequalities": 6}


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    kind: str  # "study", "generate-data" or "decompose"
    output: str  # the --output prefix

    @property
    def study(self):
        return self.argv[1] if self.kind == "study" else None

    def outputs(self):
        if self.kind == "study":
            return [f"{self.output}_{self.study}.csv", f"{self.output}_{self.study}.gp"]
        if self.kind == "generate-data":
            return [f"{self.output}_rho.csv", f"{self.output}_u.csv"]
        return [f"{self.output}_blocks.csv"]

    def num_checks(self):
        if self.kind == "study":
            return STUDY_VERDICTS[self.study]
        return 2 if self.kind == "generate-data" else 1


def seed_lambda(seed: int) -> float:
    return random.Random(seed).uniform(*LAMBDA_WINDOW)


def _inv(*argv, output):
    argv = tuple(str(a) for a in argv) + ("--output", output)
    return Invocation(argv, argv[0], output)


def invocations(workload: str, seed: int, out_dir) -> list:
    """The CLI invocations of one pass of ``workload``."""
    out = str(Path(out_dir) / workload)
    lam = repr(seed_lambda(seed))
    if workload == "separation-medium":
        # the test-scale setup of tests/test_experiments.py
        return [_inv("study", "separation", "--grid-points", 16384, "--domain-length", 64,
                     "--num-terms", 9, "--n-min", 5, "--n-max", 8, "--lambda", lam,
                     output=out)]
    if workload == "shorttime-desk":
        return [_inv("study", "shorttime", "--lambda", lam, output=out)]
    if workload == "inequalities-corpus":
        return [_inv("study", "inequalities", "--corpus-size", 400, "--seed", seed,
                     output=out)]
    if workload == "fields-desk":
        return [_inv("generate-data", "--lambda", lam, output=out),
                _inv("decompose", "--lambda", lam, output=out),
                _inv("study", "blockscale", "--lambda", lam, output=out)]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("separation-medium", "shorttime-desk", "inequalities-corpus", "fields-desk")

# -- parsing the study CSV ----------------------------------------------------

_VERDICT = re.compile(r"^# verdict: (\w+)=(PASS|FAIL) observed=(\S+) \((.*)\)$")


def parse_study_csv(path):
    """Declared tolerances and verdicts of a study CSV.

    Returns ``(tolerances, verdicts)`` with tolerances keyed by the name after
    ``tol_`` and verdicts as ``[(name, passed, observed, criterion), ...]``.
    """
    tolerances, verdicts = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# tol_"):
                key, _, val = line[len("# tol_"):].partition("=")
                tolerances[key] = float(val)
            elif line.startswith("# verdict:"):
                m = _VERDICT.match(line)
                if m is None:
                    raise ValueError(f"malformed verdict line: {line!r}")
                name, status, observed, criterion = m.groups()
                verdicts.append((name, status == "PASS", float(observed), criterion))
    return tolerances, verdicts


def reference_bound(ref: float, criterion: str, tolerances: dict) -> float:
    """How far an observed value may sit from its reference.

    ``REFERENCE_REL_TOL`` of the value's magnitude, capped by the tolerance
    the criterion names, so the gate is never looser than the study's own.
    """
    bound = REFERENCE_REL_TOL * max(1.0, abs(ref))
    for key in re.findall(r"tol_(\w+)", criterion):
        bound = min(bound, abs(tolerances[key]))
    return bound


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool, why: str, log):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log.append(why)


def check_study(inv: Invocation, reference, result: CheckResult, log, observed_out):
    """Verdicts of one study invocation; ``reference`` maps verdict -> value."""
    path = inv.outputs()[0]
    tolerances, verdicts = parse_study_csv(path)
    names = [v[0] for v in verdicts]
    if len(verdicts) != STUDY_VERDICTS[inv.study]:
        # charge every expected verdict; a changed verdict set is a failure
        for _ in range(STUDY_VERDICTS[inv.study]):
            result.add(False, f"{path}: expected {STUDY_VERDICTS[inv.study]} verdicts, "
                       f"got {names}", log)
        return
    for name, passed, observed, criterion in verdicts:
        observed_out[f"{inv.study}.{name}"] = observed
        ok, why = passed, f"{inv.study}.{name} reads FAIL (observed {observed:g})"
        if ok and reference is not None:
            ref = reference.get(name)
            if ref is None:
                ok, why = False, f"{inv.study}.{name} has no reference value"
            else:
                bound = reference_bound(ref, criterion, tolerances)
                both_inf = math.isinf(ref) and ref == observed
                ok = both_inf or abs(observed - ref) <= bound
                why = (f"{inv.study}.{name} observed {observed!r} is off its reference "
                       f"{ref!r} by more than {bound:g}")
        result.add(ok, why, log)


def check_fields(inv: Invocation, result: CheckResult, log):
    """generate-data: dumps read back bit for bit equal to fresh data.

    decompose: one finite row per dyadic block -1..j_max.
    """
    import numpy as np
    from novlab import Grid, IllposedDataParams, build_initial_data, load_field
    from novlab import experiments as ex

    cfg = dict(zip(inv.argv[1::2], inv.argv[2::2]))
    grid = Grid(int(cfg.get("--grid-points", ex.DEFAULT_GRID_POINTS)),
                float(cfg.get("--domain-length", ex.DEFAULT_DOMAIN_LENGTH)))
    if inv.kind == "generate-data":
        params = IllposedDataParams(s=float(cfg.get("--s", ex.DEFAULT_S)),
                                    p=float(cfg.get("--p", ex.DEFAULT_P)),
                                    lam=float(cfg["--lambda"]),
                                    num_terms=int(cfg.get("--num-terms", ex.DEFAULT_NUM_TERMS)),
                                    grid=grid)
        data = build_initial_data(params)
        for name, expected in (("rho", data.rho), ("u", data.u)):
            loaded, _ = load_field(f"{inv.output}_{name}.csv")
            same = (loaded.grid == grid
                    and np.array_equal(loaded.values, expected.values))
            result.add(same, f"{inv.output}_{name}.csv does not round-trip bit for bit", log)
        return
    rows = np.loadtxt(inv.outputs()[0], delimiter=",", comments="#", ndmin=2)
    j_max = int(math.floor(math.log2(grid.nyquist)))
    ok = rows.shape == (j_max + 2, 3) and bool(np.all(np.isfinite(rows)))
    result.add(ok, f"{inv.outputs()[0]}: expected {j_max + 2} finite block rows, "
               f"got shape {rows.shape}", log)
