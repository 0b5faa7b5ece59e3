"""One in-memory layout: every vector field the package hands out is a
contiguous component-major (3, nx, ny) array; only the snapshot and CSV files
list the components node by node, as they always have.

A non-square grid keeps the x and y axes apart.
"""

import math
import struct

import numpy as np
import pytest

import spinflow as sf
from spinflow import checks, snapshots
from spinflow.flow import FlowState

from conftest import blob_field, cosine_coupling, rotation_matrix

NX, NY = 24, 20


@pytest.fixture
def grid():
    return sf.make_grid(NX, NY, 1.3, 0.7)


def assert_component_major(a):
    assert a.shape == (3, NX, NY)
    assert a.flags.c_contiguous


def read_independently(path):
    """(nx, ny, payload) of a snapshot, read without the package."""
    header = struct.Struct("<8sIIIdd")
    with open(path, "rb") as fh:
        magic, _, nx, ny, _, _ = header.unpack(fh.read(header.size))
        payload = np.frombuffer(fh.read(), dtype="<f8")
    assert magic == b"SFLDSNAP" and payload.size == nx * ny * 3
    return nx, ny, payload


class TestComponentMajor:
    def test_generators(self, grid):
        for u in (sf.constant_field(grid, (0.1, -0.2, 1.0)),
                  sf.great_circle_field(grid, axis="y"),
                  sf.bubble_field(grid, (0.6, 0.3), 0.05),
                  sf.perturb(blob_field(grid), 0.2, 3),
                  blob_field(grid).rotated(rotation_matrix())):
            assert_component_major(u.values)

    def test_operators(self, grid):
        u = blob_field(grid)
        c = cosine_coupling(grid)
        ux, uy = sf.grad(u)
        for a in (ux, uy, sf.laplacian(u), sf.tension(u).values,
                  sf.ps_residual(u, c).values, sf.ll_velocity(u, c).values):
            assert_component_major(a)

    @pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
    def test_flow(self, grid, kind):
        u = blob_field(grid)
        c = cosine_coupling(grid)
        cfg = sf.FlowConfig(flow_kind=kind, t_end=3 * sf.cfl_dt(grid, c, 0.5))
        new = sf.step(FlowState(field=u), c, cfg)
        assert_component_major(new.field.values)
        assert_component_major(new.last_velocity.values)
        out = sf.evolve(u, c, cfg)
        assert out.state.step == 3
        assert_component_major(out.state.field.values)

    def test_read_snapshot(self, grid, tmp_path):
        path = tmp_path / "u.bin"
        snapshots.write_snapshot(path, sf.perturb(blob_field(grid), 0.2, 3))
        assert_component_major(snapshots.read_snapshot(path).values)


class TestDiskFormatsStayNodeMajor:
    def test_snapshot_payload(self, grid, tmp_path):
        u = sf.perturb(blob_field(grid), 0.2, 3)
        path = tmp_path / "u.bin"
        snapshots.write_snapshot(path, u)
        nx, ny, payload = read_independently(path)
        assert (nx, ny) == (NX, NY)
        nodes = payload.reshape(nx, ny, 3)
        for k in range(3):
            assert np.array_equal(nodes[:, :, k], u.values[k])
        assert nodes[13, 5, 2] == u.values[2, 13, 5]

    def test_field_csv_rows(self, grid, tmp_path):
        u = sf.perturb(blob_field(grid), 0.2, 3)
        path = tmp_path / "u.csv"
        snapshots.write_field_csv(path, u)
        rows = np.loadtxt(path, delimiter=",", skiprows=1).reshape(NX, NY, 5)
        x, y = grid.mesh()
        assert np.array_equal(rows[:, :, 0], x) and np.array_equal(rows[:, :, 1], y)
        for k in range(3):
            assert np.array_equal(rows[:, :, 2 + k], u.values[k])


# ---------------------------------------------------------------------------
# Seeded draws: node-major reference constructions.  A seed must give the
# perturbation and check direction it gave when fields were node-major.


def node_major(values):
    return np.ascontiguousarray(values.transpose(1, 2, 0))


def ref_perturb(u, amplitude, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=u.shape)
    w -= np.einsum("ijk,ijk->ij", w, u)[..., None] * u
    norms = np.sqrt(np.einsum("ijk,ijk->ij", w, w))
    safe = np.maximum(norms, 1e-300)
    magnitude = amplitude * rng.uniform(0.0, 1.0, size=norms.shape)
    xi = np.where(norms[..., None] > 1e-12, w / safe[..., None] * magnitude[..., None], 0.0)
    p = u + xi
    return p / np.sqrt(np.einsum("ijk,ijk->ij", p, p))[..., None]


def ref_tangent_direction(u, cell_area, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(u.shape)
    w -= np.einsum("ijk,ijk->ij", w, u)[..., None] * u
    n = math.sqrt(float(np.einsum("ijk,ijk->", w, w)) * cell_area)
    return w / max(n, 1e-300)


class TestSeededDraws:
    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_perturb(self, grid, seed):
        u = blob_field(grid)
        want = ref_perturb(node_major(u.values), 0.3, seed)
        assert np.array_equal(sf.perturb(u, 0.3, seed).values, want.transpose(2, 0, 1))

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_check_direction(self, grid, seed):
        u = sf.perturb(blob_field(grid), 0.3, 5)
        want = ref_tangent_direction(node_major(u.values), grid.cell_area, seed)
        assert np.array_equal(checks._tangent_direction(u, seed), want.transpose(2, 0, 1))
