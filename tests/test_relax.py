import numpy as np
import pytest

import spinflow as sf
from spinflow.flow import FlowState
from spinflow.relax import DEFAULT_SAFETY

from conftest import blob_field, cosine_coupling, unit_coupling


class TestRelax:
    def test_constant_returns_immediately(self, grid32):
        u = sf.constant_field(grid32, (0, 0, 1))
        res = sf.relax(u, cosine_coupling(grid32), tol=1e-10, max_steps=100)
        assert res.converged and res.steps == 0
        assert res.field is u
        assert res.history == (0.0,)

    def test_perturbed_constant_returns_to_constant(self, grid32):
        f1 = unit_coupling(grid32)
        u0 = sf.perturb(sf.constant_field(grid32, (0, 0, 1)), 0.03, 12)
        res = sf.relax(u0, f1, tol=1e-10, max_steps=100000)
        assert res.converged
        assert res.history[-1] < 1e-10
        assert sf.energy(res.field, f1) < 1e-12

    def test_great_circle_is_fixed_point(self):
        g = sf.make_grid(128, 128, 1.0, 1.0)
        f1 = unit_coupling(g)
        res = sf.relax(sf.great_circle_field(g), f1, tol=1e-10, max_steps=1000)
        assert res.converged
        e = sf.energy(res.field, f1)
        assert e == pytest.approx((2 * np.pi) ** 2, rel=0.01)

    def test_history_non_increasing_after_transient(self, grid32):
        c = cosine_coupling(grid32)
        u0 = sf.perturb(sf.constant_field(grid32, (0, 0, 1)), 0.05, 3)
        res = sf.relax(u0, c, tol=1e-9, max_steps=50000)
        hist = np.array(res.history[10:])
        assert np.all(np.diff(hist) <= 1e-12)

    def test_returned_field_is_fixed_point(self, grid32):
        c = cosine_coupling(grid32)
        tol = 1e-10
        u0 = sf.perturb(sf.constant_field(grid32, (0, 0, 1)), 0.02, 8)
        res = sf.relax(u0, c, tol=tol, max_steps=100000)
        assert res.converged
        cfg = sf.FlowConfig(flow_kind="gradient", safety=0.8, t_end=1.0,
                            stationarity_tol=0.0)
        after = sf.step(FlowState(field=res.field), c, cfg)
        de = abs(sf.energy(after.field, c) - sf.energy(res.field, c))
        assert de < tol * tol

    def test_not_converged_returns_best_iterate(self, grid32):
        c = cosine_coupling(grid32)
        u0 = blob_field(grid32)
        res = sf.relax(u0, c, tol=1e-14, max_steps=5)
        assert not res.converged
        assert res.steps == 5
        assert len(res.history) == 6
        assert sf.ps_norm(res.field, c) == pytest.approx(min(res.history), rel=1e-12)

    def test_tol_validated(self, grid32):
        with pytest.raises(ValueError):
            sf.relax(blob_field(grid32), cosine_coupling(grid32), tol=0.0, max_steps=10)

    def test_is_the_gradient_evolve_loop(self):
        # relax runs the stepping loop of evolve: the same states, and a
        # history equal to the ledger's ps_norm column row by row
        g = sf.make_grid(24, 20, 1.3, 0.7)
        c = cosine_coupling(g)
        u0 = sf.perturb(blob_field(g), 0.3, 5)
        k = 40
        res = sf.relax(u0, c, tol=1e-30, max_steps=k)
        assert res.steps == k and not res.converged
        dt = sf.cfl_dt(g, c, DEFAULT_SAFETY)
        cfg = sf.FlowConfig(flow_kind="gradient", dt_policy="fixed", dt=dt, t_end=k * dt,
                            diagnostic_every=1, stationarity_tol=0.0)
        out = sf.evolve(u0, c, cfg)
        assert out.state.step == k
        assert list(res.history) == list(out.ledger.column("ps_norm"))
        # the defect falls monotonically here, so the best iterate is the last
        assert np.all(np.diff(res.history) < 0)
        assert np.array_equal(res.field.values, out.state.field.values)
