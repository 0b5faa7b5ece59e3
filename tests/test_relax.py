import numpy as np
import pytest

import spinflow as sf
from spinflow import flow as flow_module
from spinflow.flow import FlowState
from spinflow.relax import DEFAULT_SAFETY

from conftest import blob_field, cosine_coupling, unit_coupling
from test_stencil_reference import component_major, node_major, ref_euler


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


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("node, half", [((7, 2), 0), ((25, 9), 1)],
                         ids=["first-half", "second-half"])
def test_a_non_finite_last_defect_raises_with_the_last_iterate(grid32, monkeypatch, k, node, half):
    # relax stops at iterate max_steps = k, which the stepping loop checks
    # like every other: a NaN at `node` of its velocity (and in the sum of
    # |v|^2 over the half of the x-rows that holds it) raises, and the error
    # carries iterate k itself as the last valid state
    rhs = flow_module._rhs_arrays
    calls = []

    def poisoned(ws, *rest):
        v, F, gsq = rhs(ws, *rest)
        calls.append(1)
        if len(calls) == k + 1:
            v[1][node] = np.nan
            ws.sums[half] = np.nan
        return v, F, gsq

    monkeypatch.setattr(flow_module, "_rhs_arrays", poisoned)
    c = cosine_coupling(grid32)
    u0 = blob_field(grid32)
    with pytest.raises(sf.BlowUpError, match="non-finite velocity") as exc:
        sf.relax(u0, c, tol=1e-30, max_steps=k)
    err = exc.value
    dt = sf.cfl_dt(grid32, c, DEFAULT_SAFETY)
    assert len(calls) == k + 1
    assert (err.node, err.step, err.t) == (node, k, k * dt)
    assert (err.state.step, err.state.t) == (k, k * dt)
    want = ref_euler(node_major(u0.values), c, dt, "gradient", k)[0]
    assert np.array_equal(err.state.field.values, component_major(want))
