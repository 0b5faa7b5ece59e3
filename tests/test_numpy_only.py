"""numpy is the package's only runtime dependency.

The two numerical kernels that once came from scipy.ndimage, the periodic
3x3 minimum behind sampled critical points and the periodic cubic-spline
resampling behind variation_lhs, are checked here against brute force and,
where scipy happens to be installed, against scipy.ndimage.  A subprocess
guard keeps scipy off the import path of the CLI.
"""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import spinflow as sf
from spinflow.diagnostics import _spline_at, _spline_coefficients
from spinflow.domain import _periodic_min3

SHAPES = [(24, 24), (64, 64), (24, 40)]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def brute_min3(a):
    nx, ny = a.shape
    return np.array([[min(a[(i + di) % nx, (j + dj) % ny]
                          for di, dj in itertools.product((-1, 0, 1), repeat=2))
                      for j in range(ny)] for i in range(nx)])


def plateau(shape):
    a = np.random.default_rng(3).uniform(1.0, 2.0, shape)
    a[4:11, 6:15] = 0.5             # a flat minimum, so every node in it ties
    a[0, :] = 0.25                  # a flat row that wraps round the torus
    return a


class TestPeriodicMinimum:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("make", [
        lambda s: np.random.default_rng(0).standard_normal(s),
        lambda s: np.full(s, 0.7),
        plateau,
    ], ids=["random", "constant", "plateau"])
    def test_matches_brute_force(self, shape, make):
        a = make(shape)
        want = brute_min3(a)
        got = _periodic_min3(a)
        assert np.array_equal(got, want)
        assert np.array_equal(a <= got, a <= want)

    def test_sampled_coupling_candidates(self):
        # random smooth positive samples on a non-square grid: the points
        # critical_points returns are exactly the nodes where the discrete
        # gradient changes sign in both axes and |grad f|^2 is a periodic
        # 3x3 minimum (told apart by their f values, which are distinct)
        g = sf.make_grid(24, 40, 1.0, 1.5)
        x, y = g.mesh()
        rng = np.random.default_rng(7)
        values = np.full(g.shape, 3.0)
        for kx, ky in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
            a, phase = rng.uniform(0.1, 0.4), rng.uniform(0, 2 * np.pi)
            values += a * np.cos(2 * np.pi * (kx * x / g.lx + ky * y / g.ly) + phase)
        c = sf.make_coupling(g, "custom-sampled", {"values": values})
        gx, gy = c.grad_x, c.grad_y
        gnorm = gx * gx + gy * gy
        low = brute_min3(gnorm)
        want = set()
        for i in range(g.nx):
            for j in range(g.ny):
                flip_x = gx[i - 1, j] * gx[(i + 1) % g.nx, j] <= 0.0
                flip_y = gy[i, j - 1] * gy[i, (j + 1) % g.ny] <= 0.0
                if flip_x and flip_y and gnorm[i, j] <= low[i, j]:
                    want.add(float(values[i, j]))
        cs = sf.critical_points(c)
        assert cs.kind == "points" and len(want) >= 4
        assert sorted(p.value for p in cs.points) == sorted(want)


def spline_points(shape, seed):
    rng = np.random.default_rng(seed)
    nx, ny = shape
    return rng.uniform(-2.0, nx + 2.0, shape), rng.uniform(-2.0, ny + 2.0, shape)


class TestPeriodicSpline:
    @pytest.mark.parametrize("shape", SHAPES + [(128, 128)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_reproduces_the_nodes(self, shape):
        a = np.random.default_rng(1).standard_normal((3,) + shape)
        coeffs = _spline_coefficients(a)
        i, j = np.meshgrid(np.arange(shape[0]), np.arange(shape[1]), indexing="ij")
        for di, dj in [(0, 0), (shape[0], -shape[1]), (-2 * shape[0], shape[1])]:
            got = _spline_at(coeffs, (i + di).astype(float), (j + dj).astype(float))
            assert np.abs(got - a).max() <= 1e-14

    def test_is_periodic_and_smooth_in_between(self):
        # a single Fourier mode is reproduced to interpolation order between nodes
        n = 64
        a = np.cos(2 * np.pi * np.arange(n) / n)[:, None] * np.ones((1, 24))
        x = np.linspace(-n, 2 * n, 301)[:, None] * np.ones((1, 24))
        got = _spline_at(_spline_coefficients(a), x, np.zeros_like(x))
        assert np.abs(got - np.cos(2 * np.pi * x / n)).max() < 1e-5

    @pytest.mark.parametrize("shape", SHAPES + [(128, 128)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_matches_scipy(self, shape):
        ndimage = pytest.importorskip("scipy.ndimage")
        a = np.random.default_rng(2).standard_normal(shape)
        x, y = spline_points(shape, 4)
        want = ndimage.map_coordinates(ndimage.spline_filter(a, order=3, mode="grid-wrap"),
                                       np.stack([x, y]), order=3, mode="grid-wrap",
                                       prefilter=False)
        got = _spline_at(_spline_coefficients(a), x, y)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


GUARD_CONFIG = """\
grid.nx = 16
grid.ny = 16
grid.lx = 1.0
grid.ly = 1.0
coupling.kind = cosine-product
coupling.ax = 0.25
coupling.ay = 0.25
initial.kind = great-circle
flow.kind = gradient
flow.t_end = 0.01
output.dir = out
"""

GUARD_SCRIPT = """\
import sys
from spinflow import cli
codes = [cli.main([command, sys.argv[1]]) for command in ("relax", "check")]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(GUARD_CONFIG)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", GUARD_SCRIPT, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "out" / "check_report.txt").exists()


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    names = [d.split(">")[0].split("=")[0].split("<")[0].strip() for d in deps]
    assert names == ["numpy"]
