"""Fixtures shared by the test modules; plain helpers live in helpers.py."""

import sys

import numpy as np
import pytest

from novlab import Grid, IllposedDataParams, build_filter_bank, build_initial_data

from helpers import LAMBDA


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


@pytest.fixture
def count_ffts(monkeypatch):
    """Start counting the rfft and irfft calls made through any novlab module.

    Calling the returned function wraps, for the rest of the test, every
    binding of scipy's or numpy's ``rfft`` or ``irfft`` in a loaded novlab
    module, under whatever name, and returns the dict of counts, which the
    wrappers update in place.
    """
    import scipy.fft

    transforms = ((scipy.fft.rfft, "rfft"), (scipy.fft.irfft, "irfft"),
                  (np.fft.rfft, "rfft"), (np.fft.irfft, "irfft"))

    def start():
        counts = {"rfft": 0, "irfft": 0}
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] != "novlab":
                continue
            for name, fn in list(vars(module).items()):
                kind = next((k for t, k in transforms if fn is t), None)
                if kind is None:
                    continue

                def counted(*args, _fn=fn, _kind=kind, **kwargs):
                    counts[_kind] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        return counts

    return start
