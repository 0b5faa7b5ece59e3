import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinflow as sf
from spinflow.field import SphereField, normalize
from spinflow.domain import _dot, _grad_arrays

from conftest import blob_field, cosine_coupling, random_tangent, unit_coupling


class TestGrad:
    def test_constant_field_zero(self, grid32):
        ux, uy = sf.grad(sf.constant_field(grid32, (0, 0, 1)))
        assert np.all(ux == 0.0) and np.all(uy == 0.0)

    def test_great_circle_magnitude(self, grid64):
        ux, uy = sf.grad(sf.great_circle_field(grid64))
        k = 2 * np.pi
        kh = k * grid64.hx
        # central differences give sin(kh)/h, off by k (kh)^2 / 6 at leading order
        expected_err = k * kh * kh / 6
        err = np.abs(np.sqrt(_dot(ux, ux)) - k).max()
        assert err <= 1.1 * expected_err
        assert np.all(uy == 0.0)

    def test_convergence_order(self):
        errs = []
        for n in (32, 64, 128):
            g = sf.make_grid(n, n, 1.0, 1.0)
            ux, _ = sf.grad(sf.great_circle_field(g))
            errs.append(np.abs(np.sqrt(_dot(ux, ux)) - 2 * np.pi).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_grad_squared_consistent(self, grid32):
        u = blob_field(grid32)
        ux, uy = sf.grad(u)
        assert np.allclose(sf.grad_squared(u), _dot(ux, ux) + _dot(uy, uy), rtol=1e-14)


class TestTension:
    def test_constant_zero(self, grid32):
        tau = sf.tension(sf.constant_field(grid32, (0, 0, 1)))
        assert np.all(tau.values == 0.0)

    def test_great_circle_is_discrete_geodesic(self, grid64):
        # lap u is parallel to u for the wrap map, so the projected tension
        # vanishes to rounding on k^2-sized intermediates (far below the
        # O(h^2) level the scheme promises)
        tau = sf.tension(sf.great_circle_field(grid64))
        assert np.abs(tau.values).max() <= 1e-10

    def test_bubble_core_residual_second_order(self):
        # the profile is harmonic; the interior discrete tension decays at
        # O(h^2) under refinement
        maxima = []
        for n in (128, 256):
            g = sf.make_grid(n, n, 1.0, 1.0)
            u = sf.bubble_field(g, (0.5, 0.5), 0.1)
            tau = sf.tension(u).values
            x, y = g.mesh()
            core = g.distance(x, y, 0.5, 0.5) < 0.2   # away from the blend
            maxima.append(np.abs(tau[:, core]).max())
        assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.5)

    def test_tangency(self, grid32):
        u = blob_field(grid32)
        assert sf.tension(u).max_tangency_defect(u) <= 1e-10


class TestPsResidual:
    def test_constant_field_zero(self, grid32):
        alpha = sf.ps_residual(sf.constant_field(grid32, (0, 0, 1)),
                               cosine_coupling(grid32))
        assert np.all(alpha.values == 0.0)
        assert sf.ps_norm(sf.constant_field(grid32, (0, 0, 1)),
                          cosine_coupling(grid32)) == 0.0

    def test_unit_coupling_reduces_to_tension(self, grid32):
        u = blob_field(grid32)
        alpha = sf.ps_residual(u, unit_coupling(grid32))
        tau = sf.tension(u)
        assert np.array_equal(alpha.values, tau.values)

    @pytest.mark.parametrize("spec", [(64, 64, 1.0, 1.0), (160, 130, 1.0, 1.0),
                                      (24, 20, 1.3, 0.7), (16, 32, 1.0, 1.0)],
                             ids=["64x64", "160x130", "24x20", "16x32"])
    def test_constant_coupling_is_a_multiple_of_the_tension_bit_for_bit(self, spec):
        # tension and ps_residual share one weighted 5-point sum, with hx < hy
        # (160x130) and hx > hy (24x20 on 1.3 x 0.7, 16x32) alike; doubling f
        # doubles every weight and so every rounded term exactly
        g = sf.make_grid(*spec)
        u = sf.perturb(blob_field(g), 0.3, 5)
        tau = sf.tension(u).values
        assert np.array_equal(sf.ps_residual(u, unit_coupling(g)).values, tau)
        assert np.array_equal(sf.ps_residual(u, unit_coupling(g, 2.0)).values, 2.0 * tau)

    def test_additive_in_coupling(self, grid32):
        u = blob_field(grid32)
        c1 = cosine_coupling(grid32, base=1.0, ax=0.2, ay=0.0)
        c2 = cosine_coupling(grid32, base=0.5, ax=0.0, ay=0.1)
        csum = sf.Coupling(grid32, "custom-sampled", c1.values + c2.values,
                           c1.grad_x + c2.grad_x, c1.grad_y + c2.grad_y)
        r1 = sf.ps_residual(u, c1).values
        r2 = sf.ps_residual(u, c2).values
        rsum = sf.ps_residual(u, csum).values
        scale = np.abs(rsum).max()
        assert np.abs(rsum - (r1 + r2)).max() <= 1e-12 * scale

    def test_constant_coupling_scales_tension(self, grid32):
        u = blob_field(grid32)
        tau = sf.tension(u).values
        alpha = sf.ps_residual(u, unit_coupling(grid32, value=2.0)).values
        assert np.allclose(alpha, 2.0 * tau, atol=1e-12)

    def test_tangency(self, grid32):
        u = blob_field(grid32)
        alpha = sf.ps_residual(u, cosine_coupling(grid32))
        assert alpha.max_tangency_defect(u) <= 1e-10

    def test_grid_mismatch_rejected(self, grid32, grid64):
        with pytest.raises(ValueError):
            sf.ps_residual(sf.constant_field(grid32, (0, 0, 1)),
                           cosine_coupling(grid64))


class TestVelocities:
    def test_constant_field_zero(self, grid32):
        u = sf.constant_field(grid32, (0, 0, 1))
        assert np.all(sf.ll_velocity(u, cosine_coupling(grid32)).values == 0.0)
        assert np.all(sf.ps_residual(u, cosine_coupling(grid32)).values == 0.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_ll_speed_identity(self, seed):
        # |v|^2 = 2 |F|^2 per node since F is tangent and |u| = 1
        g = sf.make_grid(16, 16, 1.0, 1.0)
        rng = np.random.default_rng(seed)
        u = SphereField(g, normalize(np.moveaxis(rng.standard_normal(g.shape + (3,)), -1, 0)))
        c = cosine_coupling(g)
        v = sf.ll_velocity(u, c).values
        F = sf.ps_residual(u, c).values
        vsq = _dot(v, v)
        fsq = _dot(F, F)
        scale = np.maximum(fsq, 1e-30)
        assert (np.abs(vsq - 2 * fsq) / scale).max() <= 1e-10

    def test_ll_minus_precession_is_gradient(self, grid32):
        u = blob_field(grid32)
        c = cosine_coupling(grid32)
        F = sf.ps_residual(u, c).values
        v = sf.ll_velocity(u, c).values
        assert np.allclose(v - np.cross(u.values, F, axis=0), F, atol=1e-12)

    def test_relaxed_harmonic_has_small_ll_velocity(self):
        g = sf.make_grid(32, 32, 1.0, 1.0)
        f1 = unit_coupling(g)
        u0 = sf.perturb(sf.constant_field(g, (0, 0, 1)), 0.05, 1)
        res = sf.relax(u0, f1, tol=1e-8, max_steps=50000)
        assert res.converged
        v = sf.ll_velocity(res.field, f1)
        assert v.l2_norm() <= np.sqrt(2.0) * 1e-8


class TestEnergyGradientOracle:
    """Finite-difference oracle fixing the first-variation constant: under the
    convention E = sum f |grad u|^2 dA, the derivative of E along a tangent
    perturbation xi equals -2 <F, xi>_{L2}."""

    def fd_and_pairing(self, factor, s=1e-6, seed=3):
        g = sf.make_grid(48, 48, 1.0, 1.0)
        c = cosine_coupling(g)
        u = blob_field(g)
        xi = random_tangent(u, seed)
        e_plus = sf.energy(SphereField(g, normalize(u.values + s * xi)), c)
        e_minus = sf.energy(SphereField(g, normalize(u.values - s * xi)), c)
        fd = (e_plus - e_minus) / (2 * s)
        F = sf.ps_residual(u, c).values
        pair = factor * float(np.einsum("ijk,ijk->", F, xi)) * g.cell_area
        return fd, pair

    def test_factor_is_minus_two(self):
        fd, pair = self.fd_and_pairing(-2.0)
        assert abs(fd - pair) / abs(fd) < 5e-3

    def test_other_factors_fail(self):
        fd, pair = self.fd_and_pairing(-2.0)
        best = abs(fd - pair)
        for factor in (-1.0, -4.0, 2.0):
            fd, pair = self.fd_and_pairing(factor)
            assert abs(fd - pair) > 20 * best


class TestIntegrationByParts:
    def test_defect_pairs_like_weighted_gradient_form(self):
        # <F, xi>_{L2} = -sum f <grad u, grad xi> dA + O(h^2) for smooth xi
        errs = []
        for n in (32, 64):
            g = sf.make_grid(n, n, 1.0, 1.0)
            c = cosine_coupling(g)
            u = blob_field(g)
            x, y = g.mesh()
            w = np.stack([np.sin(2 * np.pi * y), np.cos(2 * np.pi * x),
                          np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)])
            xi = w - _dot(w, u.values) * u.values
            F = sf.ps_residual(u, c).values
            lhs = float(np.einsum("ijk,ijk->", F, xi)) * g.cell_area
            ux, uy = _grad_arrays(u.values, g.hx, g.hy)
            xix, xiy = _grad_arrays(xi, g.hx, g.hy)
            rhs = -float((c.values * (_dot(ux, xix) + _dot(uy, xiy))).sum()) * g.cell_area
            errs.append(abs(lhs - rhs))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
        assert errs[1] <= 1e-2
