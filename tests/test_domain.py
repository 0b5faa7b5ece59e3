import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinflow as sf

from conftest import cosine_coupling, unit_coupling


class TestGrid:
    def test_spacing(self):
        g = sf.make_grid(64, 64, 1.0, 1.0)
        assert g.hx == 1 / 64 and g.hy == 1 / 64

    def test_anisotropic_spacing(self):
        g = sf.make_grid(8, 8, 2.0, 1.0)
        assert g.hx == 0.25 and g.hy == 0.125

    def test_rejects_small_counts(self):
        with pytest.raises(ValueError):
            sf.make_grid(4, 64, 1.0, 1.0)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            sf.make_grid(16, 16, 0.0, 1.0)
        with pytest.raises(ValueError):
            sf.make_grid(16, 16, 1.0, -2.0)

    def test_wrap_shortest_representative(self):
        g = sf.make_grid(16, 16, 1.0, 2.0)
        assert g.wrap_dx(0.75) == pytest.approx(-0.25)
        assert g.wrap_dy(1.75) == pytest.approx(-0.25)
        assert g.distance(0.1, 0.0, 0.9, 0.0) == pytest.approx(0.2)

    def test_area(self):
        g = sf.make_grid(32, 16, 2.0, 3.0)
        assert g.area == 6.0
        assert g.cell_area == pytest.approx(g.hx * g.hy)


class TestCoupling:
    def test_constant(self, grid64):
        c = unit_coupling(grid64)
        assert np.all(c.values == 1.0)
        assert np.all(c.grad_x == 0.0) and np.all(c.grad_y == 0.0)

    def test_cosine_values_and_gradient(self, grid64):
        c = cosine_coupling(grid64)
        assert c.min_value == pytest.approx(0.5)
        assert c.max_value == pytest.approx(1.5)
        # grad = (-(0.5 pi / lx) sin(2 pi x / lx), ...) for amplitude 0.25
        x, y = grid64.mesh()
        expect_gx = -(0.5 * math.pi) * np.sin(2 * math.pi * x)
        expect_gy = -(0.5 * math.pi) * np.sin(2 * math.pi * y)
        assert np.allclose(c.grad_x, expect_gx, atol=1e-14)
        assert np.allclose(c.grad_y, expect_gy, atol=1e-14)

    def test_cosine_positivity_rejected(self, grid64):
        with pytest.raises(ValueError):
            cosine_coupling(grid64, ax=0.6, ay=0.6)

    def test_constant_positivity_rejected(self, grid64):
        with pytest.raises(ValueError):
            sf.make_coupling(grid64, "constant", {"value": 0.0})

    @pytest.mark.parametrize("params", [{"base": 5.0}, {"value": 2.0, "base": 5.0}])
    def test_constant_takes_only_value(self, grid64, params):
        # `base` is a cosine param: no alias of `value`, and never dropped
        with pytest.raises(ValueError, match=r"unexpected constant-coupling params: \['base'"):
            sf.make_coupling(grid64, "constant", params)

    def test_unknown_kind(self, grid64):
        with pytest.raises(ValueError):
            sf.make_coupling(grid64, "quadratic", {})

    def test_unknown_params_rejected(self, grid64):
        with pytest.raises(ValueError):
            sf.make_coupling(grid64, "cosine-product", {"ax": 0.1, "frequency": 3})

    def test_sampled_positivity(self, grid64):
        values = np.ones(grid64.shape)
        values[3, 5] = -0.1
        with pytest.raises(ValueError):
            sf.make_coupling(grid64, "custom-sampled", {"values": values})

    def test_sampled_gradient_second_order(self):
        errs = []
        for n in (32, 64):
            g = sf.make_grid(n, n, 1.0, 1.0)
            x, _ = g.mesh()
            values = 2.0 + np.sin(2 * np.pi * x)
            c = sf.make_coupling(g, "custom-sampled", {"values": values})
            exact = 2 * np.pi * np.cos(2 * np.pi * x)
            errs.append(np.abs(c.grad_x - exact).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_values_are_readonly(self, grid64):
        c = cosine_coupling(grid64)
        with pytest.raises(ValueError):
            c.values[0, 0] = 2.0


def test_wrapping_leaves_the_callers_array_writeable(grid32):
    # the values are a read-only view of the caller's own contiguous float64
    # array; wrapping must not freeze that array for the caller
    u = np.zeros((3,) + grid32.shape)
    u[2] = 1.0
    w = np.zeros((3,) + grid32.shape)
    f = np.full(grid32.shape, 2.0)
    gx, gy = np.zeros(grid32.shape), np.zeros(grid32.shape)
    held = [sf.SphereField(grid32, u).values, sf.TangentField(grid32, w).values]
    c = sf.Coupling(grid32, "constant", f, gx, gy)
    held += [c.values, c.grad_x, c.grad_y]
    for a in (u, w, f, gx, gy):
        assert a.flags.writeable
    for v in held:
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 0.5


class TestCriticalPoints:
    def test_cosine_four_points(self, grid64):
        c = cosine_coupling(grid64)
        cs = sf.critical_points(c)
        assert cs.kind == "points" and len(cs.points) == 4
        by_loc = {(p.x, p.y): p for p in cs.points}
        assert by_loc[(0.0, 0.0)].kind == "max"
        assert by_loc[(0.0, 0.0)].value == pytest.approx(1.5)
        assert by_loc[(0.5, 0.5)].kind == "min"
        assert by_loc[(0.5, 0.5)].value == pytest.approx(0.5)
        assert by_loc[(0.0, 0.5)].kind == "saddle"
        assert by_loc[(0.5, 0.0)].kind == "saddle"

    def test_gradient_vanishes_at_points(self, grid64):
        c = cosine_coupling(grid64, base=1.2, ax=0.3, ay=0.15)
        kx = 2 * math.pi / grid64.lx
        ky = 2 * math.pi / grid64.ly
        for p in sf.critical_points(c).points:
            gx = -0.3 * kx * math.sin(kx * p.x)
            gy = -0.15 * ky * math.sin(ky * p.y)
            assert math.hypot(gx, gy) < 1e-8

    def test_constant_everywhere(self, grid64):
        cs = sf.critical_points(unit_coupling(grid64))
        assert cs.everywhere
        assert cs.distance_to(0.37, 0.92, grid64) == 0.0

    def test_single_axis_gives_lines(self, grid64):
        c = cosine_coupling(grid64, ax=0.25, ay=0.0)
        cs = sf.critical_points(c)
        assert cs.kind == "lines" and len(cs.lines) == 2
        coords = sorted(ln.coordinate for ln in cs.lines)
        assert coords == [0.0, 0.5]
        # distance to the line x = 0.5 from (0.3, arbitrary y)
        assert cs.distance_to(0.3, 0.9, grid64) == pytest.approx(0.2)

    def test_sampled_detection_recovers_cosine(self):
        g = sf.make_grid(64, 64, 1.0, 1.0)
        x, y = g.mesh()
        values = 1.0 + 0.25 * np.cos(2 * np.pi * x) + 0.25 * np.cos(2 * np.pi * y)
        c = sf.make_coupling(g, "custom-sampled", {"values": values})
        cs = sf.critical_points(c)
        assert cs.kind == "points"
        analytic = {(0.0, 0.0): "max", (0.5, 0.5): "min",
                    (0.0, 0.5): "saddle", (0.5, 0.0): "saddle"}
        assert len(cs.points) == 4
        for p in cs.points:
            match = min(analytic, key=lambda q: g.distance(p.x, p.y, q[0], q[1]))
            assert g.distance(p.x, p.y, match[0], match[1]) < g.hx
            assert p.kind == analytic[match]

    @pytest.mark.parametrize("shape", [(64, 64, 1.0, 1.0), (40, 24, 1.3, 0.7)])
    def test_distance_to_points_matches_the_per_point_loop_bit_for_bit(self, shape):
        # one evaluation on the points' coordinate arrays, then its minimum
        g = sf.make_grid(*shape)
        cs = sf.critical_points(cosine_coupling(g))
        assert cs.kind == "points" and len(cs.points) == 4
        rng = np.random.default_rng(7)
        xs = rng.uniform(-0.5 * g.lx, 1.5 * g.lx, 2000)
        ys = rng.uniform(-0.5 * g.ly, 1.5 * g.ly, 2000)
        for x, y in zip(xs.tolist(), ys.tolist()):
            want = math.inf
            for p in cs.points:
                want = min(want, float(g.distance(x, y, p.x, p.y)))
            assert cs.distance_to(x, y, g) == want, (x, y)

    def test_nearest_point(self, grid64):
        cs = sf.critical_points(cosine_coupling(grid64))
        p = cs.nearest_point(0.7, 0.5, grid64)
        assert (p.x, p.y) == (0.5, 0.5)
        assert cs.distance_to(0.7, 0.5, grid64) == pytest.approx(0.2)


class TestCutoff:
    def make(self, grid, direction=(1.0, 0.0)):
        return sf.make_cutoff(grid, (0.5, 0.5), a=0.08, b_prime=0.12, b=0.18,
                              delta=0.08, direction=direction)

    def test_ordering_validated(self, grid64):
        with pytest.raises(ValueError):
            sf.make_cutoff(grid64, (0.5, 0.5), a=0.2, b_prime=0.12, b=0.18, delta=0.05)

    def test_support_fit_validated(self, grid64):
        with pytest.raises(ValueError):
            sf.make_cutoff(grid64, (0.5, 0.5), a=0.2, b_prime=0.3, b=0.55, delta=0.05)

    def test_outside_support_zero(self, grid64):
        cut = self.make(grid64)
        X, div, jac = cut.evaluate(0.5 + 0.19, 0.5)
        assert np.all(X == 0.0) and div == 0.0 and np.all(jac == 0.0)
        X, div, jac = cut.evaluate(0.5, 0.5 + 0.17)
        assert np.all(X == 0.0) and div == 0.0 and np.all(jac == 0.0)

    def test_core_is_unit_translation(self, grid64):
        cut = self.make(grid64)
        X, div, jac = cut.evaluate(0.5 + 0.119, 0.5 + 0.079)
        assert X[0] == pytest.approx(1.0) and X[1] == 0.0
        assert div == 0.0 and np.all(jac == 0.0)

    def test_ramp_divergence_value(self, grid64):
        # on the ramp b' < xi1 < b with |xi2| <= delta: div X = -1 / (b - b')
        cut = self.make(grid64)
        _, div, _ = cut.evaluate(0.5 + 0.15, 0.5)
        assert div == pytest.approx(-1.0 / (0.18 - 0.12))
        _, div_neg, _ = cut.evaluate(0.5 - 0.15, 0.5)
        assert div_neg == pytest.approx(1.0 / (0.18 - 0.12))

    def test_kink_derivative_is_one_sided_average(self, grid64):
        cut = self.make(grid64)
        slope = 1.0 / (0.18 - 0.12)
        assert cut.eta_prime(0.12) == pytest.approx(-slope / 2)
        assert cut.eta_prime(0.18) == pytest.approx(-slope / 2)
        assert cut.eta_prime(-0.12) == pytest.approx(slope / 2)
        assert cut.eta_prime(-0.18) == pytest.approx(slope / 2)

    def test_sigma_smooth_bump(self, grid64):
        cut = self.make(grid64)
        assert cut.sigma(0.05) == 1.0
        assert cut.sigma(0.17) == 0.0
        assert 0.0 < cut.sigma(0.12) < 1.0
        # C^1 at the joins: derivative vanishes approaching delta and 2 delta
        assert cut.sigma_prime(0.08) == 0.0
        assert cut.sigma_prime(0.16) == 0.0

    def test_jacobian_matches_finite_differences(self, grid64):
        cut = self.make(grid64, direction=(0.8, 0.6))
        pt = (0.5 + 0.11, 0.5 + 0.1)   # inside the smooth part of the bump
        _, _, jac = cut.evaluate(*pt)
        eps = 1e-7
        for j, dp in enumerate(((eps, 0.0), (0.0, eps))):
            Xp, _, _ = cut.evaluate(pt[0] + dp[0], pt[1] + dp[1])
            Xm, _, _ = cut.evaluate(pt[0] - dp[0], pt[1] - dp[1])
            fd = (Xp - Xm) / (2 * eps)
            assert np.allclose(jac[:, j], fd, atol=1e-6)

    def test_divergence_consistency_on_smooth_region(self, grid64):
        cut = self.make(grid64, direction=(0.6, -0.8))
        pt = (0.5 + 0.05, 0.5 - 0.04)
        _, div, jac = cut.evaluate(*pt)
        assert div == pytest.approx(jac[0, 0] + jac[1, 1], abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(cx=st.floats(0.0, 1.0), cy=st.floats(0.0, 1.0),
           angle=st.floats(0.0, 2 * math.pi),
           bp=st.floats(0.05, 0.15), width=st.floats(0.02, 0.06),
           delta=st.floats(0.04, 0.1))
    def test_discrete_divergence_theorem(self, cx, cy, angle, bp, width, delta):
        # grid sum of the discrete divergence of the sampled field vanishes
        g = sf.make_grid(64, 64, 1.0, 1.0)
        cut = sf.make_cutoff(g, (cx, cy), a=0.8 * bp, b_prime=bp, b=bp + width,
                             delta=delta, direction=(math.cos(angle), math.sin(angle)))
        x, y = g.mesh()
        X, _, _ = cut.evaluate(x, y)
        div_h = ((np.roll(X[..., 0], -1, 0) - np.roll(X[..., 0], 1, 0)) / (2 * g.hx)
                 + (np.roll(X[..., 1], -1, 1) - np.roll(X[..., 1], 1, 1)) / (2 * g.hy))
        total = abs(float(div_h.sum()) * g.cell_area)
        assert total <= 1e-10 * (g.nx * g.ny)

    def test_analytic_divergence_integral_first_order(self):
        # the node sum of the analytic div X reaches the exact integral 0 at
        # first order: the eta' jump lines sit at generic positions inside
        # grid cells, so the quadrature error is O(h) with an
        # alignment-dependent constant
        for n in (64, 128, 256):
            g = sf.make_grid(n, n, 1.0, 1.0)
            cut = sf.make_cutoff(g, (0.43, 0.51), a=0.08, b_prime=0.12, b=0.18,
                                 delta=0.08, direction=(1.0, 0.0))
            x, y = g.mesh()
            _, div, _ = cut.evaluate(x, y)
            total = abs(float(div.sum()) * g.cell_area)
            assert total <= 5.0 * g.hx


class TestUniformField:
    def test_evaluate(self):
        X, div, jac = sf.UniformVectorField((0.3, -1.2)).evaluate(
            np.zeros((4, 4)), np.zeros((4, 4)))
        assert np.all(X[..., 0] == 0.3) and np.all(X[..., 1] == -1.2)
        assert np.all(div == 0.0) and np.all(jac == 0.0)
