import math
import time

import numpy as np
import pytest

import tracing


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["c", 5.0, 6.0, 2],
        ["d", 7.5, 9.0, 2],  # sticks out of its parent: only 7.5..8 is covered
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([10 - 2 - 4, 2.0, 4 - 1 - 0.5, 1.0, 1.5])


def _tracer(spans):
    t = tracing.Tracer("synthetic")
    for name, start, end, parent in spans:
        t.names.append(name)
        t.starts.append(start)
        t.ends.append(end)
        t.parents.append(parent)
    return t


def test_layer_metrics_counts_and_zeros():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["solver.step_rk4", 1.0, 5.0, 0],
        ["fft.rfft", 1.0, 2.0, 1],
        ["fft.irfft", 2.0, 2.5, 1],
        ["solver.rhs", 6.0, 7.0, 0],
        ["fft.rfft", 6.0, 6.5, 4],
        ["fft.rfft", 8.0, 8.5, 0],  # outside any RHS span
        ["spectral.product", 9.0, 9.8, 0],
        ["spectral.dealiased_half_product", 9.1, 9.5, 7],
    ]
    m = tracing.layer_metrics(_tracer(spans))
    assert m["solver.rk4_steps"] == 1
    assert m["solver.rhs_evals"] == 5
    assert m["fft.calls"] == 4
    assert m["fft.calls_per_rhs"] == pytest.approx(3 / 5)
    assert m["solver.step_rk4.self_s"] == pytest.approx(4 - 1.5)
    assert m["cli.self_s"] == pytest.approx(10 - 4 - 1 - 0.5 - 0.8)
    assert m["solver.total_s"] == pytest.approx(5.0)
    assert m["spectral.products.calls"] == 2
    assert m["spectral.products.self_s"] == pytest.approx(0.8)
    # layers and spans that never ran read 0 instead of going missing
    for key in ("fieldio.calls", "littlewood_paley.besov_norm.calls",
                "littlewood_paley.besov_norm.distinct_field_ratio",
                "solver.useful_time_ratio", "fft.calls.n262144"):
        assert m[key] == 0


def test_useful_time_ratio_nested_and_disjoint():
    nested = {"data": [(0.0, 4.0), (0.0, 2.0), (0.0, 1.0)]}
    assert tracing.useful_time_ratio(nested) == pytest.approx(4 / 7)
    disjoint = {"data": [(0.0, 1.0), (2.0, 3.0)]}
    assert tracing.useful_time_ratio(disjoint) == 1.0
    # the same interval from two different initial states is not re-integration
    two_states = {"data": [(0.0, 1.0)], "control": [(0.0, 1.0)]}
    assert tracing.useful_time_ratio(two_states) == 1.0
    mixed = {"data": [(0.0, 4.0), (0.0, 2.0)], "control": [(0.0, 4.0)]}
    assert tracing.useful_time_ratio(mixed) == pytest.approx(8 / 10)
    assert tracing.useful_time_ratio({}) == 0.0


def _snapshot():
    import novlab.spectral

    spaces = {m.__name__: dict(vars(m)) for m in tracing.novlab_modules()}
    return spaces, novlab.spectral.RealField.__dict__["__init__"]


def test_install_and_restore_leave_namespaces_identical():
    import novlab
    from novlab import solver, spectral

    before, init = _snapshot()
    tracer = tracing.Tracer("install-test")
    inst = tracing.install(tracer)
    try:
        assert solver.rfft is not before["novlab.solver"]["rfft"]
        assert solver.rfft.__wrapped__ is before["novlab.solver"]["rfft"]
        assert solver.step_rk4 is novlab.step_rk4  # one wrapper per function
        grid = spectral.Grid(64, 2 * math.pi)
        f = spectral.RealField(grid, np.cos(grid.points))
        spectral.derivative(f)
    finally:
        inst.restore()
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["spectral.RealField", "spectral.derivative"]
    assert "fft.rfft" in names and "fft.irfft" in names
    after, init_after = _snapshot()
    assert init_after is init
    assert before.keys() == after.keys()
    for module, space in before.items():
        assert space.keys() == after[module].keys(), module
        for key, obj in space.items():
            assert after[module][key] is obj, f"{module}.{key}"


def test_speed_probe_normalizes_and_restores_the_alarm_handler():
    import signal

    import speed

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe:
        deadline = time.perf_counter() + 5 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.slices) >= 2
    probe.slices = [2 * speed.REFERENCE_SLICE_S] * 4
    # twice as slow as the reference: the pass minus the slices, halved
    assert probe.normalize(1.0) == pytest.approx((1.0 - 8 * speed.REFERENCE_SLICE_S) / 2)
    probe.slices = []
    assert probe.normalize(1.0) == 1.0
