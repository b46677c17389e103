"""novlab's benchmark: run a workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload NAME --record-reference
    python3 benchmarks/run.py                  # every workload in turn

Run it from the root of a source checkout; novlab is imported from ./src.
With ``--trace 0`` it times the import of novlab in fresh processes, then
runs the workload in one fresh single-threaded process for about S seconds.
It reports the median import and the median pass, both at the reference
machine speed (``setup_s``, ``wall_s``), the process's peak RSS and the
share of checks that passed.  With ``--trace 1`` it runs untraced and
traced passes and reports the per-layer metrics.  For each workload it prints two lines: the
environment record, then the result JSON, which is the last line of stdout
when one workload runs.  ``--record-reference`` rewrites the workload's
entry in reference.json from one pass at the reference seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from speed import at_reference_speed  # noqa: E402
from worker import PINNED_ENV  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUT_DIR = Path(".bench_out")
IMPORT_PROBES = 4  # timed fresh-process imports per run, after one warm-up
RUN_LIMIT_S = 175.0  # the whole run must end within 180 s


def env_for_children(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _child(args, env, timeout):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            out[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    return out


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "novlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path):
    if shutil.which("git") is None or not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root: Path, seed: int, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "threads": PINNED_ENV,
    }


def record_reference(root: Path, workload: str) -> int:
    env = env_for_children(root)
    OUT_DIR.mkdir(exist_ok=True)
    ref_path = BENCH_DIR / "reference.json"
    refs = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    res = json.loads(_child(["run", workload, str(DEFAULT_SEED), "0", str(OUT_DIR),
                             "--no-reference"], env, RUN_LIMIT_S))
    if res["failed"]:
        print("\n".join(res["failures"]), file=sys.stderr)
        return 1
    entry = {}
    for key, value in res["observed"].items():
        study, name = key.split(".", 1)
        entry.setdefault(study, {})[name] = value
    refs[workload] = entry
    ref_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(len(v) for v in entry.values())} reference values for {workload}")
    return 0


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int):
    """One run of one workload; returns (environment record, result line)."""
    started = perf_counter()
    env = env_for_children(root)
    OUT_DIR.mkdir(exist_ok=True)
    probes = []
    if not trace:
        _child(["probe"], env, 60)  # warm-up: bytecode and page cache
        probes = [json.loads(_child(["probe"], env, 60)) for _ in range(IMPORT_PROBES)]
    worker_args = ["run", workload, str(seed), str(seconds), str(OUT_DIR)]
    if trace:
        worker_args.append("--trace")
    res = json.loads(_child(worker_args, env, RUN_LIMIT_S - (perf_counter() - started)))

    attempted, failed = res["attempted"], res["failed"]
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["normalized_walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(
                at_reference_speed(p["import_s"], p["slice_s"]) for p in probes), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "verdict_pass_ratio": {"value": (attempted - failed) / attempted,
                                   "unit": "ratio"},
        }
    record = {
        "environment": environment(root, seed, res["versions"]),
        "workload": workload,
        "trace": trace,
        "pass_walls_s": res["walls"],
        "pass_normalized_walls_s": res["normalized_walls"],
        "pass_speed_slice_s": res["slice_means"],
        "import_probes": probes,
        "failures": res["failures"],
    }
    (OUT_DIR / f"{workload}-trace{trace}-result.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "novlab" / "__init__.py").is_file():
        print(f"error: no novlab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            if args.record_reference:
                if record_reference(root, name):
                    return 1
                continue
            record, result = run_workload(root, name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in record["failures"]:
            print(f"check failed: {line}", file=sys.stderr)
        print(json.dumps(record))
        print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("ratio") or name.endswith("per_rhs"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
