"""One fresh, single-threaded process: time the novlab import or run a workload.

    python3 benchmarks/worker.py probe
    python3 benchmarks/worker.py run WORKLOAD SEED SECONDS OUT_DIR [--trace] [--no-reference]

``probe`` prints the seconds ``import novlab.cli`` takes and the median
speed slice timed right after it.  ``run`` times the
import, then runs passes of the workload through ``novlab.cli.main`` until
SECONDS have passed (at least one pass), with a ``speed.SpeedProbe`` timing
the machine's speed through each pass.  It checks every pass and prints one
JSON object.  With ``--trace`` it runs an untraced warm-up pass, a traced
pass and an untraced pass instead, without the speed probe.  ``--no-reference`` skips
the reference-value check, for recording the reference.  The thread pins
below are set before novlab is imported: ``spectral`` reads NOVLAB_THREADS
once at import.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from time import perf_counter

PINNED_ENV = {
    "NOVLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_novlab(root: Path) -> float:
    t0 = perf_counter()
    import novlab.cli
    elapsed = perf_counter() - t0
    src = (root / "src").resolve()
    if Path(novlab.cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"novlab imported from {novlab.cli.__file__}, not from {src}")
    return elapsed


def execute(invs, tracer=None, probe=None):
    """Run the invocations back to back; returns (wall seconds, exit codes).

    ``tracer`` records spans for the pass; ``probe`` times speed slices
    through it.
    """
    import novlab.cli

    for inv in invs:
        for path in inv.outputs():
            Path(path).unlink(missing_ok=True)
    codes = []
    sink = io.StringIO()
    inst = tracing.install(tracer) if tracer is not None else None
    try:
        with probe if probe is not None else contextlib.nullcontext():
            t0 = perf_counter()
            for inv in invs:
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        codes.append(novlab.cli.main(list(inv.argv)))
                except Exception as exc:  # a crash fails this invocation's checks only
                    codes.append(repr(exc))
            wall = perf_counter() - t0
    finally:
        if inst is not None:
            inst.restore()
    return wall, codes


def check(invs, codes, reference, result, log, observed):
    """Gate one pass's outputs; failures go to ``result`` and ``log``."""
    for inv, code in zip(invs, codes):
        if code != 0:
            for _ in range(inv.num_checks()):
                result.add(False, f"{' '.join(inv.argv)} exited with {code}", log)
            continue
        try:
            if inv.kind == "study":
                ref = None if reference is None else reference.get(inv.study, {})
                workloads.check_study(inv, ref, result, log, observed)
            else:
                workloads.check_fields(inv, result, log)
        except (OSError, ValueError) as exc:
            for _ in range(inv.num_checks()):
                result.add(False, f"{' '.join(inv.argv)}: unreadable output: {exc}", log)


def main(argv) -> int:
    root = Path.cwd()
    if argv[0] == "probe":
        import_s = import_novlab(root)
        print(json.dumps({"import_s": import_s, "slice_s": speed.SpeedProbe().sample()}))
        return 0
    workload, seed, seconds, out_dir = argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
    trace = "--trace" in argv[5:]
    import_s = import_novlab(root)
    reference = None
    if seed == workloads.DEFAULT_SEED and "--no-reference" not in argv[5:]:
        ref_path = Path(__file__).resolve().parent / "reference.json"
        reference = json.loads(ref_path.read_text())[workload]
    invs = workloads.invocations(workload, seed, out_dir)

    walls, normalized, slice_means = [], [], []
    totals, logs, observed = workloads.CheckResult(), [], {}

    def one_pass(tracer=None, probe=None):
        wall, codes = execute(invs, tracer, probe)
        walls.append(wall)
        if probe is not None:
            normalized.append(probe.normalize(wall))
            slice_means.append(sum(probe.slices) / max(1, len(probe.slices)))
        check(invs, codes, reference, totals, logs, observed)

    out = {}
    start = perf_counter()
    if trace:
        # warm-up, traced, untraced: the overhead compares two warm passes
        tracer = tracing.Tracer(run_id=f"{workload}-seed{seed}")
        one_pass()
        one_pass(tracer)
        one_pass()
        out["layers"] = tracing.layer_metrics(tracer)
        out["layers"]["trace.overhead_ratio"] = walls[1] / walls[2] - 1.0
        tracing.write_spans(tracer, out_dir / f"{workload}-spans.csv")
    else:
        probe = speed.SpeedProbe()
        while not walls or perf_counter() - start < seconds:
            one_pass(probe=probe)

    import resource

    import numpy
    import scipy

    out.update(
        versions={"numpy": numpy.__version__, "scipy": scipy.__version__},
        import_s=import_s,
        walls=walls,
        normalized_walls=normalized,
        slice_means=slice_means,
        attempted=totals.attempted,
        failed=totals.failed,
        failures=logs[:20],
        observed=observed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
