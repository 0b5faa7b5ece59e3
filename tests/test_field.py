import numpy as np
import pytest

import spinflow as sf
from spinflow.field import SphereField, bubble_profile

from conftest import unit_coupling


def profile_partials(a, b):
    """Closed-form partials of the planar degree-1 profile (the independent
    oracle for its energy; no grid stencils involved)."""
    r2 = a * a + b * b
    den = 1.0 + r2
    dmda = np.stack([(2 * den - 4 * a * a) / den**2,
                     (-4 * a * b) / den**2,
                     (-2 * a * den - (1 - r2) * 2 * a) / den**2], axis=-1)
    dmdb = np.stack([(-4 * a * b) / den**2,
                     (2 * den - 4 * b * b) / den**2,
                     (-2 * b * den - (1 - r2) * 2 * b) / den**2], axis=-1)
    return dmda, dmdb


def profile_energy_oracle(radius=200.0, n=3000):
    """Polar quadrature of |grad m|^2 over a large disc in profile units."""
    r = (np.arange(n) + 0.5) * radius / n
    th = (np.arange(2 * n) + 0.5) * np.pi / n
    rr, tt = np.meshgrid(r, th, indexing="ij")
    a = rr * np.cos(tt)
    b = rr * np.sin(tt)
    da, db = profile_partials(a, b)
    dens = (da * da).sum(-1) + (db * db).sum(-1)
    return float((dens * rr).sum() * (radius / n) * (np.pi / n))


class TestConstantField:
    def test_north_pole(self, grid32):
        u = sf.constant_field(grid32, (0, 0, 1))
        assert np.all(u.values[2] == 1.0)
        assert sf.energy(u, unit_coupling(grid32)) == 0.0

    def test_normalizes(self, grid32):
        u = sf.constant_field(grid32, (0, 0, 2))
        assert np.all(u.values[2] == 1.0)

    def test_rejects_zero(self, grid32):
        with pytest.raises(ValueError):
            sf.constant_field(grid32, (0, 0, 0))

    def test_unit_norm_invariant(self, grid32):
        u = sf.constant_field(grid32, (1.0, -2.0, 0.5))
        assert u.max_norm_deviation <= 1e-12


class TestGreatCircle:
    def test_components(self, grid64):
        u = sf.great_circle_field(grid64)
        x, _ = grid64.mesh()
        assert np.allclose(u.values[0], np.sin(2 * np.pi * x), atol=1e-15)
        assert np.all(u.values[1] == 0.0)
        assert u.max_norm_deviation <= 1e-12

    def test_axis_y_and_windings(self, grid64):
        u = sf.great_circle_field(grid64, windings=2, axis="y", phase=0.1)
        _, y = grid64.mesh()
        assert np.allclose(u.values[0], np.sin(4 * np.pi * y + 0.1), atol=1e-14)

    def test_bad_axis(self, grid64):
        with pytest.raises(ValueError):
            sf.great_circle_field(grid64, axis="z")


class TestBubble:
    def test_center_is_north_pole(self, grid64):
        u = sf.bubble_field(grid64, (0.5, 0.5), 0.1)
        i, j = 32, 32       # the node at (0.5, 0.5) of the 64^2 unit torus
        assert np.allclose(u.values[:, i, j], (0.0, 0.0, 1.0), atol=1e-14)

    def test_far_field_is_background_exactly(self, grid64):
        v = np.array([0.0, 0.0, -1.0])
        u = sf.bubble_field(grid64, (0.5, 0.5), 0.05, v)
        corner = u.values[:, 0, 0]   # distance ~0.707 from the center, past the blend
        assert np.all(corner == v)

    def test_scale_range_rejected(self, grid64):
        with pytest.raises(ValueError):
            sf.bubble_field(grid64, (0.5, 0.5), 0.3)
        with pytest.raises(ValueError):
            sf.bubble_field(grid64, (0.5, 0.5), 0.0)

    def test_zero_background_rejected(self, grid64):
        with pytest.raises(ValueError):
            sf.bubble_field(grid64, (0.5, 0.5), 0.1, (0, 0, 0))

    def test_profile_energy_matches_oracle(self):
        # the quadrature oracle confirms the classical degree-1 value 8 pi,
        # then the blended discrete field must match it within 3 percent
        oracle = profile_energy_oracle()
        assert oracle == pytest.approx(8 * np.pi, rel=1e-3)
        g = sf.make_grid(256, 256, 1.0, 1.0)
        u = sf.bubble_field(g, (0.5, 0.5), 0.05, (0.0, 0.0, -1.0))
        e = sf.energy(u, unit_coupling(g))
        assert abs(e - oracle) / oracle < 0.03

    def test_energy_concentrates_in_five_scales(self):
        g = sf.make_grid(256, 256, 1.0, 1.0)
        lam = 1 / 32
        u = sf.bubble_field(g, (0.5, 0.5), lam)
        f1 = unit_coupling(g)
        total = sf.energy(u, f1)
        local = sf.local_energy(u, f1, (0.5, 0.5), 5 * lam)
        assert local >= 0.9 * total

    def test_periodic_center(self, grid64):
        # center near the seam: the field must stay smooth across the wrap
        u = sf.bubble_field(grid64, (0.02, 0.98), 0.1)
        assert u.max_norm_deviation <= 1e-12
        gsq = sf.grad_squared(u)
        # density peaks at the wrapped center, with no spike at the seam
        i, j = np.unravel_index(np.argmax(gsq), grid64.shape)
        assert grid64.distance(i * grid64.hx, j * grid64.hy, 0.02, 0.98) <= 2 * grid64.hx
        assert gsq.max() < 2 * 8.0 / 0.1**2


class TestPerturb:
    def test_zero_amplitude_bitwise(self, grid32):
        u = sf.constant_field(grid32, (0.3, 0.4, 1.0))
        p = sf.perturb(u, 0.0, 42)
        assert np.array_equal(p.values, u.values)

    def test_seed_determinism(self, grid32):
        u = sf.constant_field(grid32, (0, 0, 1))
        a = sf.perturb(u, 0.01, 7)
        b = sf.perturb(u, 0.01, 7)
        c = sf.perturb(u, 0.01, 8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_negative_amplitude_rejected(self, grid32):
        with pytest.raises(ValueError):
            sf.perturb(sf.constant_field(grid32, (0, 0, 1)), -0.1, 0)

    def test_unit_norm_after_perturb(self, grid32):
        p = sf.perturb(sf.great_circle_field(grid32), 0.2, 3)
        assert p.max_norm_deviation <= 1e-12

    def test_energy_regression_bound(self):
        # stencil constant measured once: E = 1.384315e-1 for this seed;
        # bound C * amp^2 * (node count) / h^2 * cell_area with C = 0.5
        g = sf.make_grid(64, 64, 1.0, 1.0)
        p = sf.perturb(sf.constant_field(g, (0, 0, 1)), 0.01, 0)
        e = sf.energy(p, unit_coupling(g))
        assert e > 0.0
        assert e == pytest.approx(1.384315e-01, rel=1e-5)
        bound = 0.5 * 0.01**2 * (64 * 64) / g.hx**2 * g.cell_area
        assert e <= bound


class TestSphereFieldType:
    def test_rejects_non_unit(self, grid32):
        bad = np.ones((3,) + grid32.shape)
        with pytest.raises(ValueError):
            SphereField(grid32, bad)

    def test_rejects_wrong_shape(self, grid32):
        with pytest.raises(ValueError):
            SphereField(grid32, np.zeros((3, 3, 3)))

    def test_rotated(self, grid32):
        from conftest import rotation_matrix
        u = sf.great_circle_field(grid32)
        R = rotation_matrix()
        ru = u.rotated(R)
        assert np.allclose(ru.values, np.einsum("ab,bij->aij", R, u.values))
        assert ru.max_norm_deviation <= 1e-12

    def test_values_readonly(self, grid32):
        u = sf.constant_field(grid32, (0, 0, 1))
        with pytest.raises(ValueError):
            u.values[0, 0, 0] = 2.0

    def test_profile_far_limit(self):
        m = bubble_profile(np.array([1e8]), np.array([0.0]))
        assert np.allclose(m[:, 0], (0.0, 0.0, -1.0), atol=1e-7)
