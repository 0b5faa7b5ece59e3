"""On-disk formats: binary field snapshots, CSV export, PGM heatmaps.

Snapshot layout: an 8-byte magic string, a little-endian u32 version and u32
node counts nx, ny, two f64 side lengths, then nx*ny*3 little-endian f64
values in C order (x index major, 3 components per node: the transpose of
the in-memory (3, nx, ny) layout).  Reload is bit-exact.
"""

from __future__ import annotations

import struct

import numpy as np

from .domain import make_grid
from .field import SphereField

MAGIC = b"SFLDSNAP"
VERSION = 1

_HEADER = struct.Struct("<8sIIIdd")


def write_snapshot(path, field: SphereField) -> None:
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.nx, g.ny, g.lx, g.ly))
        # the node-major copy is written through its buffer, without a bytes copy
        fh.write(np.ascontiguousarray(field.values.transpose(1, 2, 0), dtype="<f8"))


def read_snapshot(path) -> SphereField:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"truncated snapshot header in {path}")
        magic, version, nx, ny, lx, ly = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path} is not a field snapshot (bad magic {magic!r})")
        if version != VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        data = fh.read()
    expected = nx * ny * 3 * 8
    if len(data) != expected:
        raise ValueError(f"snapshot payload has {len(data)} bytes, expected {expected}")
    values = np.frombuffer(data, dtype="<f8").reshape(nx, ny, 3).transpose(2, 0, 1)
    return SphereField(make_grid(nx, ny, lx, ly), values)


def write_field_csv(path, field: SphereField) -> None:
    """Plain-text export: one node per line, x,y,ux,uy,uz."""
    g = field.grid
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,ux,uy,uz\n")
        ys = [j * g.hy for j in range(g.ny)]
        # one x-row at a time: a node-major copy of the whole field and its
        # list of Python floats would set the peak memory of the run
        for i in range(g.nx):
            x = i * g.hx
            fh.writelines(f"{x!r},{y!r},{a!r},{b!r},{c!r}\n"
                          for y, a, b, c in zip(ys, *field.values[:, i].tolist()))


def write_density_pgm(path, density: np.ndarray, maxval: int = 255) -> None:
    """ASCII PGM (P2) heatmap of a non-negative scalar field, max-scaled.

    Rows run along the y index, columns along x; an all-zero field, and one
    with a NaN or +inf value (an overflowed density), map to all-black.
    """
    density = np.asarray(density, dtype=np.float64)
    if density.ndim != 2:
        raise ValueError("density must be a 2D array")
    top = float(density.max())
    if 0.0 < top < np.inf:
        img = np.rint(np.clip(density, 0.0, None) / top * maxval).astype(int)
    else:
        img = np.zeros(density.shape, dtype=int)
    nx, ny = density.shape
    # each pixel value formatted once, then looked up
    lut = np.array([str(k) for k in range(maxval + 1)], dtype=object)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"P2\n{nx} {ny}\n{maxval}\n")
        fh.writelines(" ".join(row) + "\n" for row in lut[img.T].tolist())
