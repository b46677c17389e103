"""Outside-in tracing of novlab: wrap public names where they are looked up.

novlab modules import names directly (``experiments.besov_norm``,
``solver.rfft``, ``spectral.irfft``), so a wrapper has to replace the entry
in every module namespace that holds the function, not only the defining
one.  ``install`` does that for

* every public plain function defined in a ``novlab`` module,
* every ``scipy.fft`` transform bound in a ``novlab`` module (layer ``fft``),
* ``spectral.RealField.__init__`` (span ``spectral.RealField``),

and ``Installation.restore`` puts the original objects back.  Each wrapped
call records one span (name, start, end, parent); spans stay in memory
until ``write_spans``.  Nothing here imports numpy, so importing this module
costs nothing inside a timed import.
"""

from __future__ import annotations

import hashlib
import os
import sys
import types
from array import array
from time import perf_counter

LAYERS = ("cli", "experiments", "solver", "littlewood_paley", "spectral",
          "initial_data", "fieldio", "fft")
FFT_LENGTHS = (4096, 8192, 16384, 32768, 131072, 262144)
RHS_SPANS = ("solver.step_rk4", "solver.rhs")
PRODUCT_SPANS = ("spectral.product", "spectral.triple_product",
                 "spectral.dealiased_half_product")


class Tracer:
    """Span recorder plus the argument-derived counters of one traced run.

    Spans live in flat arrays rather than one object each, which keeps the
    garbage collector from walking hundreds of thousands of containers.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, -1 at the top
        self._stack = []
        self.fft_lengths = {}
        self.fft_bytes = 0
        self.intervals = {}  # initial-state digest -> [(t0, t1), ...]
        self.besov_fields = []
        self.bytes_written = 0

    @property
    def spans(self):
        """``(name, start, end, parent)`` per span, in start order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        i = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(i)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = perf_counter()
            stack.pop()


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.data)
    return h.digest()


def _fft_length(name, args, kwargs):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    if n is not None:
        return int(n)
    m = len(args[0])
    return 2 * (m - 1) if name == "irfft" else m


def _observe(tracer, span_name, args, kwargs, result):
    """Counters that need the call's arguments; runs after the span closes."""
    if span_name.startswith("fft."):
        n = _fft_length(span_name[4:], args, kwargs)
        tracer.fft_lengths[n] = tracer.fft_lengths.get(n, 0) + 1
        tracer.fft_bytes += args[0].nbytes + result.nbytes
    elif span_name == "solver.integrate":
        state0, cfg = args[0], args[1]
        checkpoints = kwargs.get("checkpoints", args[2] if len(args) > 2 else None)
        end = max(checkpoints) if checkpoints else cfg.t_final
        key = _digest(state0.rho.values, state0.u.values)
        tracer.intervals.setdefault(key, []).append((state0.time, float(end)))
    elif span_name == "littlewood_paley.besov_norm":
        tracer.besov_fields.append(_digest(args[1].values))
    elif span_name == "fieldio.save_field":
        tracer.bytes_written += os.path.getsize(kwargs.get("path", args[1]))


_OBSERVED = ("solver.integrate", "littlewood_paley.besov_norm", "fieldio.save_field")


def _make_wrapper(tracer, span_name, fn):
    observed = span_name.startswith("fft.") or span_name in _OBSERVED

    def wrapper(*args, **kwargs):
        result = tracer.call(span_name, fn, args, kwargs)
        if observed:
            _observe(tracer, span_name, args, kwargs, result)
        return result

    wrapper.__name__ = getattr(fn, "__name__", span_name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def _span_name(obj):
    """Span name for a module-level object, or None when it is not traced."""
    module = getattr(obj, "__module__", None) or ""
    if isinstance(obj, types.FunctionType) and module.startswith("novlab."):
        return f"{module.split('.')[-1]}.{obj.__name__}"
    if callable(obj) and not isinstance(obj, type) and module.startswith("scipy.fft"):
        return f"fft.{obj.__name__}"
    return None


class Installation:
    """The patched namespace entries of one install, and their originals."""

    def __init__(self):
        self.patched = []  # (namespace dict, key, original object)

    def restore(self):
        for namespace, key, original in reversed(self.patched):
            namespace[key] = original
        self.patched.clear()


def novlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "novlab" or name.startswith("novlab."))]


def install(tracer: Tracer) -> Installation:
    """Wrap every traced name in every loaded novlab module namespace."""
    inst = Installation()
    wrappers = {}
    try:
        for module in novlab_modules():
            namespace = vars(module)
            for key, obj in list(namespace.items()):
                if key.startswith("_"):
                    continue
                span_name = _span_name(obj)
                if span_name is None:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = _make_wrapper(tracer, span_name, obj)
                inst.patched.append((namespace, key, obj))
                namespace[key] = wrappers[id(obj)]
        real_field = sys.modules["novlab.spectral"].RealField
        init = real_field.__dict__["__init__"]
        inst.patched.append((_ClassNamespace(real_field), "__init__", init))
        real_field.__init__ = _make_wrapper(tracer, "spectral.RealField", init)
    except BaseException:
        inst.restore()
        raise
    return inst


class _ClassNamespace:
    """Item assignment onto a class, so restore treats it like a module dict."""

    def __init__(self, cls):
        self.cls = cls

    def __setitem__(self, key, value):
        setattr(self.cls, key, value)


# -- span arithmetic ----------------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], cursor), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def useful_time_ratio(intervals_by_state) -> float:
    """Union of integrated intervals over their sum, over all initial states.

    1.0 means no time interval was integrated twice from the same state;
    0.0 when nothing was integrated.
    """
    union = total = 0.0
    for intervals in intervals_by_state.values():
        cursor = -float("inf")
        for lo, hi in sorted(intervals):
            total += hi - lo
            lo = max(lo, cursor)
            if hi > lo:
                union += hi - lo
                cursor = hi
    return union / total if total > 0 else 0.0


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and times of one traced run; absent spans read 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, total, self_s = {}, {}, {}
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_total = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    under_rhs = [False] * len(spans)
    fft_under_rhs = 0
    for i, (name, start, end, parent) in enumerate(spans):
        layer = _layer(name)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        layer_calls[layer] += 1
        layer_self[layer] += selfs[i]
        # inclusive time counts only the outermost span of each name / layer
        ancestor_names, ancestor_layers, p = set(), set(), parent
        while p >= 0:
            ancestor_names.add(spans[p][0])
            ancestor_layers.add(_layer(spans[p][0]))
            p = spans[p][3]
        if name not in ancestor_names:
            total[name] = total.get(name, 0.0) + (end - start)
        if layer not in ancestor_layers:
            layer_total[layer] += end - start
        under_rhs[i] = name in RHS_SPANS or (parent >= 0 and under_rhs[parent])
        if layer == "fft" and parent >= 0 and under_rhs[parent]:
            fft_under_rhs += 1

    def c(name):
        return calls.get(name, 0)

    def group(table, names):
        return sum(table.get(n, 0) for n in names)

    steps = c("solver.step_rk4")
    rhs_evals = 4 * steps + c("solver.rhs")
    studies = [n for n in calls if n.startswith("experiments.study_")]
    besov_calls = c("littlewood_paley.besov_norm")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = layer_calls[layer]
        m[f"{layer}.total_s"] = layer_total[layer]
        m[f"{layer}.self_s"] = layer_self[layer]
    m["fft.bytes_computed"] = tracer.fft_bytes
    m["fft.calls_per_rhs"] = fft_under_rhs / rhs_evals if rhs_evals else 0.0
    for n in FFT_LENGTHS:
        m[f"fft.calls.n{n}"] = tracer.fft_lengths.get(n, 0)
    m["fft.calls.other_lengths"] = sum(
        v for n, v in tracer.fft_lengths.items() if n not in FFT_LENGTHS)
    m["solver.rk4_steps"] = steps
    m["solver.rhs_evals"] = rhs_evals
    m["solver.integrate.calls"] = c("solver.integrate")
    m["solver.useful_time_ratio"] = useful_time_ratio(tracer.intervals)
    m["solver.step_rk4.self_s"] = self_s.get("solver.step_rk4", 0.0)
    for name in ("besov_norm", "commutator"):
        full = f"littlewood_paley.{name}"
        m[f"{full}.calls"] = c(full)
        m[f"{full}.total_s"] = total.get(full, 0.0)
        m[f"{full}.self_s"] = self_s.get(full, 0.0)
    m["littlewood_paley.besov_norm.distinct_field_ratio"] = (
        len(set(tracer.besov_fields)) / besov_calls if besov_calls else 0.0)
    m["littlewood_paley.build_filter_bank.total_s"] = total.get(
        "littlewood_paley.build_filter_bank", 0.0)
    m["littlewood_paley.weighted_block_norms.total_s"] = total.get(
        "littlewood_paley.weighted_block_norms", 0.0)
    m["littlewood_paley.dyadic_block.calls"] = c("littlewood_paley.dyadic_block")
    m["spectral.products.calls"] = group(calls, PRODUCT_SPANS)
    m["spectral.products.self_s"] = group(self_s, PRODUCT_SPANS)
    m["spectral.realfield.calls"] = c("spectral.RealField")
    m["spectral.realfield.self_s"] = self_s.get("spectral.RealField", 0.0)
    for name in ("build_initial_data", "first_variation"):
        m[f"initial_data.{name}.total_s"] = total.get(f"initial_data.{name}", 0.0)
    m["experiments.study.calls"] = group(calls, studies)
    m["experiments.study.self_s"] = group(self_s, studies)
    m["experiments.write_study.total_s"] = total.get("experiments.write_study", 0.0)
    m["fieldio.save_field.total_s"] = total.get("fieldio.save_field", 0.0)
    m["fieldio.bytes_written"] = tracer.bytes_written
    m["trace.spans"] = len(spans)
    return m


def write_spans(tracer: Tracer, path) -> None:
    """Dump the spans as CSV: id, parent, run, name, start, end."""
    with open(path, "w") as fh:
        fh.write("id,parent,run,name,start_s,end_s\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i},{parent},{tracer.run_id},{name},{start!r},{end!r}\n")
