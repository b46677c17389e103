"""Self-describing CSV dumps for fields: grid header plus one value per line."""

from __future__ import annotations

import numpy as np

from .spectral import Grid, RealField

_DUMP_BLOCK = 4096  # values formatted per write; bounds the temporary text


def save_field(f: RealField, path, time: float | None = None, **extra) -> None:
    """Write a field with its grid header; extra keys land in the header."""
    with open(path, "w") as fh:
        fh.write(f"# num_points={f.grid.num_points}\n")
        fh.write(f"# length={f.grid.length!r}\n")
        if time is not None:
            fh.write(f"# time={time!r}\n")
        for key, val in extra.items():
            fh.write(f"# {key}={val!r}\n")
        # one format operation per block of values: the bytes np.savetxt
        # writes with fmt="%.17g", without its per-line loop
        for i in range(0, f.values.size, _DUMP_BLOCK):
            block = f.values[i:i + _DUMP_BLOCK].tolist()
            fh.write(("%.17g\n" * len(block)) % tuple(block))


def load_field(path):
    """Read a field dump; returns (RealField, header dict)."""
    meta = {}
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                meta[key.strip()] = val.strip()
            else:
                values.append(float(line))
    grid = Grid(int(meta["num_points"]), float(meta["length"]))
    return RealField(grid, np.array(values)), meta
