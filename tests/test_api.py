import ast
import importlib
import inspect
import sys
import types
import weakref
from pathlib import Path

import novlab
from novlab import cli, littlewood_paley

from helpers import see_cpus

# the package's whole public surface; the benchmark harness imports Grid,
# IllposedDataParams, build_initial_data and load_field from here
PUBLIC_NAMES = {
    # spectral
    "Grid", "GridMismatchError", "RealField",
    # littlewood_paley
    "LPFilterBank", "UnresolvedSpectrumError", "build_filter_bank",
    # initial_data
    "IllposedDataParams", "ResolutionError", "SystemState", "build_bump",
    "build_initial_data", "modulated_bump",
    # solver
    "BlowupError", "SolverConfig", "StepSizeError", "Trajectory", "integrate", "step_rk4",
    # experiments
    "DegenerateDataError", "ScalingFit", "StudyReport", "fit_powerlaw",
    "study_block_scaling", "study_inequalities", "study_separation",
    "study_short_time", "write_study",
    # fieldio
    "load_field", "save_field",
}

# the public functions each module defines, which the benchmark's tracer
# wraps; a function that only the tests call belongs in tests/helpers.py,
# bar the three that UNRUN names
MODULE_FUNCTIONS = {
    "cli": {"build_parser", "main", "parse_args", "run"},
    "experiments": {
        "check_blockscale", "check_inequalities", "check_separation", "check_shorttime",
        "fit_powerlaw", "study_block_scaling", "study_inequalities", "study_separation",
        "study_short_time", "time_ladder", "write_plot_script", "write_report_csv",
        "write_study",
    },
    "fieldio": {"load_field", "save_field"},
    "initial_data": {
        "build_bump", "build_initial_data", "bump_profile", "check_regime", "modulated_bump",
        "tail_bound",
    },
    "littlewood_paley": {
        "build_filter_bank", "low_pass_profile", "ring_profile", "smooth_step", "top_index",
    },
    "solver": {"integrate", "step_rk4"},
    "spectral": {"derivative", "field_from_half", "half_spectrum"},
}


def test_exported_names_are_exactly_the_public_api():
    exported = {
        name for name, value in vars(novlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 29
    assert exported == PUBLIC_NAMES


def test_each_module_defines_exactly_its_public_functions():
    for name, expected in MODULE_FUNCTIONS.items():
        module = importlib.import_module(f"novlab.{name}")
        defined = {
            key for key, value in vars(module).items()
            if not key.startswith("_") and isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__
        }
        assert defined == expected, name


# the parameters of the public studies: each study runs one way, so an
# option that only the tests would set has no place here
SIGNATURES = {
    "study_block_scaling": ["params", "n_min", "n_max"],
    "study_short_time": ["params", "t_max", "dt_cap"],
    "study_separation": ["params", "n_min", "n_max", "delta", "dt_cap"],
    "study_inequalities": ["corpus_size", "seed", "grid", "s", "p"],
}


def test_studies_take_exactly_their_parameters():
    for name, parameters in SIGNATURES.items():
        assert list(inspect.signature(getattr(novlab, name)).parameters) == parameters, name


# the modules in dependency order: each imports only modules before it
LAYERS = ("spectral", "littlewood_paley", "initial_data", "solver", "fieldio",
          "experiments", "cli")


def test_modules_import_only_earlier_layers():
    package = Path(novlab.__file__).parent
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((package / f"{name}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from .x import y" names x, "from . import x" names x itself
                imported.update([node.module] if node.module else
                                (alias.name for alias in node.names))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = ([node.module] if isinstance(node, ast.ImportFrom)
                         else [alias.name for alias in node.names])
                imported.update(n.split(".", 1)[1] for n in names
                                if n and n.startswith("novlab."))
        assert imported <= set(LAYERS[:rank]), name


# the scipy.fft transforms each module binds, by the name it binds them
# under: benchmarks/tests/test_tracing.py asserts on solver's rfft and traces
# spectral.derivative through spectral's two; every other transform runs
# numpy.fft
SCIPY_FFT_BINDINGS = {"spectral": {"irfft", "rfft"}, "solver": {"rfft"}}


def test_only_spectral_and_solver_bind_scipy_transforms():
    bound = {}
    for name in LAYERS:
        module = importlib.import_module(f"novlab.{name}")
        names = {key for key, value in vars(module).items()
                 if callable(value) and not isinstance(value, type)
                 and (getattr(value, "__module__", None) or "").startswith("scipy.fft")}
        if names:
            bound[name] = names
    assert bound == SCIPY_FFT_BINDINGS


# The public module functions that no command enters, each with the caller
# that keeps it in the package: benchmarks/tests/test_tracing.py traces
# spectral.derivative, whose field transform is spectral.half_spectrum, and
# benchmarks/workloads.py's check_fields reads the commands' dumps with
# load_field
UNRUN = {"spectral.half_spectrum", "spectral.derivative", "fieldio.load_field"}

# every command at test scale: 2^14 points on a box of 64 with 9 bands, the
# corpus on its default grid
TEST_SCALE = ["--grid-points", "16384", "--domain-length", "64", "--num-terms", "9"]
COMMANDS = (
    ["generate-data"], ["solve"], ["decompose"],
    ["study", "blockscale", "--n-min", "5", "--n-max", "8"], ["study", "shorttime"],
    ["study", "separation", "--n-min", "5", "--n-max", "8"],
)


def test_commands_enter_every_public_function_but_the_unrun(monkeypatch, tmp_path):
    # on one CPU every pair of jobs runs on this thread, where the hook
    # sees it; a fresh bank cache makes each command sample its own bank
    see_cpus(monkeypatch, {0})
    monkeypatch.setattr(littlewood_paley, "_banks", weakref.WeakValueDictionary())
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    out = ["--output", str(tmp_path / "run")]
    sys.setprofile(hook)
    try:
        codes = [cli.main(argv + TEST_SCALE + out) for argv in COMMANDS]
        codes.append(cli.main(["study", "inequalities", "--corpus-size", "100"] + out))
    finally:
        sys.setprofile(None)
    assert codes == [0] * 7
    unrun = set()
    for name in LAYERS:
        module = importlib.import_module(f"novlab.{name}")
        unrun.update(f"{name}.{key}" for key, value in vars(module).items()
                     if not key.startswith("_") and isinstance(value, types.FunctionType)
                     and value.__module__ == module.__name__
                     and value.__code__ not in entered)
    assert unrun == UNRUN


# The size of src/novlab, by one rule: the total counts every line of every
# module; the code lines are the non-blank lines that are neither comments
# (a line whose first non-blank character is #) nor docstrings (the lines
# of the first statement of a module, class or function body when it is a
# string, found with ast).  A change that adds code raises these numbers in
# its own diff and says why.
SOURCE_LINES_MAX = 2730
CODE_LINES_MAX = 1511


def _source_size(package: Path) -> tuple:
    total = code = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and node.body and isinstance(node.body[0], ast.Expr)
                    and isinstance(node.body[0].value, ast.Constant)
                    and isinstance(node.body[0].value.value, str)):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += len(lines)
        code += sum(1 for number, line in enumerate(lines, start=1)
                    if line.strip() and not line.lstrip().startswith("#")
                    and number not in docstrings)
    return total, code


def test_source_size_is_at_most_its_record():
    total, code = _source_size(Path(novlab.__file__).parent)
    assert total <= SOURCE_LINES_MAX
    assert code <= CODE_LINES_MAX
