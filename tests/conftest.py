"""Fixtures shared by the test modules; plain helpers live in helpers.py."""

import collections
import math
import sys
import threading

import numpy as np
import pytest

from novlab import Grid, IllposedDataParams, build_filter_bank, build_initial_data

from helpers import LAMBDA, see_cpus


@pytest.fixture(scope="session")
def small_grid():
    return Grid(2**12, 64.0)


@pytest.fixture(scope="session")
def small_bank(small_grid):
    return build_filter_bank(small_grid)


@pytest.fixture(scope="session")
def medium_grid():
    # Nyquist 256*pi ~ 804 resolves bands up to n = 8 and blocks up to j = 9
    return Grid(2**14, 64.0)


@pytest.fixture(scope="session")
def medium_bank(medium_grid):
    return build_filter_bank(medium_grid)


@pytest.fixture(scope="session")
def medium_params(medium_grid):
    return IllposedDataParams(s=3.0, p=2.0, lam=LAMBDA, num_terms=9, grid=medium_grid)


@pytest.fixture(scope="session")
def medium_data(medium_params):
    return build_initial_data(medium_params)


@pytest.fixture(params=[{0, 1}, {0}], ids=["threaded", "inline"])
def cpus(request, monkeypatch):
    see_cpus(monkeypatch, request.param)


class FFTCounts(dict):
    """The rfft and irfft transforms by kind, where a call on a stack of k
    rows counts k transforms; ``lengths`` counts the transforms by their
    length (an rfft's input, an irfft's output) and ``calls`` the calls by
    kind."""

    def __init__(self):
        super().__init__(rfft=0, irfft=0)
        self.calls = dict(rfft=0, irfft=0)
        self.lengths = collections.Counter()

    def reset(self):
        self.update(rfft=0, irfft=0)
        self.calls.update(rfft=0, irfft=0)
        self.lengths.clear()


@pytest.fixture
def count_ffts(monkeypatch):
    """Start counting the rfft and irfft transforms and calls made through
    any novlab module.

    Calling the returned function wraps, for the rest of the test, every
    binding of scipy's or numpy's ``rfft`` or ``irfft`` in a loaded novlab
    module, under whatever name, and returns the ``FFTCounts``, which the
    wrappers update in place, under a lock, so that transforms that two
    threads run at once are all counted.
    """
    import scipy.fft

    transforms = ((scipy.fft.rfft, "rfft"), (scipy.fft.irfft, "irfft"),
                  (np.fft.rfft, "rfft"), (np.fft.irfft, "irfft"))

    def start():
        counts = FFTCounts()
        lock = threading.Lock()
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "novlab":
                continue
            for name, fn in list(vars(module).items()):
                kind = next((k for t, k in transforms if fn is t), None)
                if kind is None:
                    continue

                def counted(*args, _fn=fn, _kind=kind, **kwargs):
                    out = _fn(*args, **kwargs)
                    # every transform in novlab runs along the last axis
                    shape = np.shape(out if _kind == "irfft" else args[0])
                    rows = math.prod(shape[:-1])
                    with lock:
                        counts[_kind] += rows
                        counts.calls[_kind] += 1
                        counts.lengths[shape[-1]] += rows
                    return out

                monkeypatch.setattr(module, name, counted)
        return counts

    return start
