import numpy as np
import pytest

import spinflow as sf
from spinflow.domain import _dot
from spinflow.field import SphereField, normalize


def unit_coupling(grid, value=1.0):
    return sf.make_coupling(grid, "constant", {"value": value})


def cosine_coupling(grid, base=1.0, ax=0.25, ay=0.25):
    return sf.make_coupling(grid, "cosine-product", {"base": base, "ax": ax, "ay": ay})


def blob_field(grid):
    """Smooth, generic, non-stationary analytic field (same continuum object
    at every resolution)."""
    x, y = grid.mesh()
    kx, ky = 2 * np.pi / grid.lx, 2 * np.pi / grid.ly
    raw = np.stack([0.4 * np.sin(kx * x) + 0.1,
                    0.3 * np.cos(ky * y) - 0.2,
                    1.0 + 0.25 * np.sin(kx * x) * np.cos(ky * y)])
    return SphereField(grid, normalize(raw))


def rotation_matrix(axis=(1.0, 2.0, 3.0), angle=0.7):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_tangent(field, seed, normalized=True):
    rng = np.random.default_rng(seed)
    u = field.values
    w = np.moveaxis(rng.standard_normal(field.grid.shape + (3,)), -1, 0)
    w -= _dot(w, u) * u
    if normalized:
        w /= np.sqrt(np.einsum("ijk,ijk->", w, w) * field.grid.cell_area)
    return w


@pytest.fixture
def grid64():
    return sf.make_grid(64, 64, 1.0, 1.0)


@pytest.fixture
def grid32():
    return sf.make_grid(32, 32, 1.0, 1.0)
