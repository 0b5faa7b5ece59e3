import numpy as np
import pytest

import spinflow as sf
from spinflow import flow as flow_module
from spinflow.field import SphereField, normalize
from spinflow.domain import Coupling, _dot
from spinflow.flow import FlowState, _project_unit, _step_budget
from spinflow.relax import DEFAULT_SAFETY

from conftest import blob_field, cosine_coupling, rotation_matrix, unit_coupling


class TestCflDt:
    def test_formula_values(self, grid64):
        c = cosine_coupling(grid64)   # max f = 1.5
        assert sf.cfl_dt(grid64, c, 0.5) == pytest.approx(0.5 * (1 / 64) ** 2 / 6.0,
                                                          rel=1e-12)

    def test_unit_coupling_value(self):
        g = sf.make_grid(8, 8, 1.0, 1.0)
        assert sf.cfl_dt(g, unit_coupling(g), 1.0) == pytest.approx(3.90625e-3, rel=1e-12)

    def test_safety_range(self, grid64):
        c = unit_coupling(grid64)
        with pytest.raises(ValueError):
            sf.cfl_dt(grid64, c, 0.0)
        with pytest.raises(ValueError):
            sf.cfl_dt(grid64, c, 1.5)

    def test_anisotropic_uses_min_spacing(self):
        g = sf.make_grid(64, 32, 1.0, 1.0)   # hx = 1/64 < hy = 1/32
        assert sf.cfl_dt(g, unit_coupling(g), 1.0) == pytest.approx((1 / 64) ** 2 / 4)


class TestFlowConfig:
    def test_fixed_requires_dt(self):
        with pytest.raises(ValueError):
            sf.FlowConfig(dt_policy="fixed", t_end=1.0)

    def test_cfl_requires_safety_in_range(self):
        with pytest.raises(ValueError):
            sf.FlowConfig(dt_policy="cfl", safety=0.0, t_end=1.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            sf.FlowConfig(flow_kind="schrodinger", t_end=1.0)

    def test_kind_aliases(self):
        assert sf.FlowConfig(flow_kind="landau-lifshitz", t_end=1.0).flow_kind \
            == "landau_lifshitz"

    def test_negative_t_end(self):
        with pytest.raises(ValueError):
            sf.FlowConfig(t_end=-1.0)


class TestDissipationCoefficient:
    def test_values(self):
        assert sf.dissipation_coefficient("gradient") == 2.0
        assert sf.dissipation_coefficient("landau_lifshitz") == 1.0
        with pytest.raises(ValueError):
            sf.dissipation_coefficient("other")

    def test_measured_constants_match(self, grid64):
        # finite-time oracle for the c in dE = -c |v|^2 dt, both flows
        c = cosine_coupling(grid64)
        u0 = sf.bubble_field(grid64, (0.7, 0.5), 0.1)
        dt = sf.cfl_dt(grid64, c, 0.25)
        for kind in ("gradient", "landau_lifshitz"):
            cfg = sf.FlowConfig(flow_kind=kind, dt_policy="fixed", dt=dt,
                                t_end=1000 * dt, stationarity_tol=0.0)
            out = sf.evolve(u0, c, cfg)
            e = out.ledger.column("e_f")
            v = out.ledger.column("v_norm_sq")
            measured = (e[0] - e[-1]) / (v[:-1].sum() * dt)
            assert measured == pytest.approx(sf.dissipation_coefficient(kind), rel=3e-2)


class TestStep:
    def test_constant_field_stationary_bitwise(self, grid32):
        u = sf.constant_field(grid32, (0.3, -0.2, 1.0))
        cfg = sf.FlowConfig(t_end=1.0, dt_policy="cfl", safety=0.5)
        state = FlowState(field=u)
        new = sf.step(state, cosine_coupling(grid32), cfg)
        assert new.field.values is u.values
        assert new.t > 0 and new.step == 1
        assert np.all(new.last_velocity.values == 0.0)

    def test_unit_norm_after_step(self, grid32):
        rng = np.random.default_rng(5)
        u = SphereField(grid32, normalize(np.moveaxis(rng.standard_normal(grid32.shape + (3,)),
                                                      -1, 0)))
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", t_end=1.0, safety=0.5)
        new = sf.step(FlowState(field=u), cosine_coupling(grid32), cfg)
        assert new.field.max_norm_deviation <= 1e-12

    def test_velocity_tangent_to_prior_state(self, grid32):
        u = blob_field(grid32)
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", t_end=1.0, safety=0.5)
        new = sf.step(FlowState(field=u), cosine_coupling(grid32), cfg)
        assert new.last_velocity.max_tangency_defect(u) <= 1e-10

    def test_blowup_error_carries_node(self, grid32):
        u = blob_field(grid32)
        cfg = sf.FlowConfig(dt_policy="fixed", dt=1e306, t_end=1.0)
        with pytest.raises(sf.BlowUpError) as exc:
            sf.step(FlowState(field=u), cosine_coupling(grid32), cfg)
        assert exc.value.node is not None
        assert exc.value.state is not None


class TestGradientDecay:
    def test_energy_strictly_decreases_until_stationary(self, grid32):
        c = unit_coupling(grid32)
        u = sf.perturb(sf.constant_field(grid32, (0, 0, 1)), 0.05, 2)
        cfg = sf.FlowConfig(flow_kind="gradient", safety=0.5, t_end=1.0,
                            stationarity_tol=1e-9)
        state = FlowState(field=u)
        tol = 1e-9
        e_prev = sf.energy(state.field, c)
        for _ in range(300):
            if state.last_velocity is not None and state.last_velocity.l2_norm() < tol:
                break
            state = sf.step(state, c, cfg)
            e = sf.energy(state.field, c)
            assert e < e_prev * (1 + 1e-12)
            e_prev = e


class TestEvolve:
    def test_zero_horizon_returns_initial(self, grid32):
        u = blob_field(grid32)
        c = cosine_coupling(grid32)
        dt = sf.cfl_dt(grid32, c, 0.5)
        cfg = sf.FlowConfig(dt_policy="fixed", dt=dt, t_end=0.0)
        out = sf.evolve(u, c, cfg, radii=(0.3, 0.2))
        assert out.state.field is u
        assert out.state.step == 0
        longer = sf.evolve(u, c, sf.FlowConfig(dt_policy="fixed", dt=dt, t_end=10 * dt),
                           radii=(0.3, 0.2))
        assert out.ledger.rows == [longer.ledger.rows[0]]

    def test_constant_field_bitwise_stationary(self, grid32):
        u = sf.constant_field(grid32, (0.1, 0.7, 0.3))
        cfg = sf.FlowConfig(t_end=1.0, safety=0.5)
        out = sf.evolve(u, cosine_coupling(grid32), cfg)
        assert out.reason == "stationary"
        assert out.state.field.values is u.values
        assert len(out.ledger) == 1
        assert out.ledger.rows[0].v_norm_sq == 0.0

    def test_ll_energy_non_increasing(self, grid64):
        c = cosine_coupling(grid64)
        u0 = sf.bubble_field(grid64, (0.7, 0.5), 0.1)
        dt = sf.cfl_dt(grid64, c, 0.25)
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="fixed", dt=dt,
                            t_end=300 * dt, stationarity_tol=0.0)
        out = sf.evolve(u0, c, cfg)
        e = out.ledger.column("e_f")
        assert np.all(np.diff(e) <= 1e-8 * e[0])

    def test_diagnostic_cadence_and_final_row(self, grid32):
        c = cosine_coupling(grid32)
        u = blob_field(grid32)
        dt = sf.cfl_dt(grid32, c, 0.5)
        cfg = sf.FlowConfig(t_end=10 * dt, dt_policy="fixed", dt=dt,
                            diagnostic_every=4, stationarity_tol=0.0)
        out = sf.evolve(u, c, cfg)
        ts = out.ledger.column("t")
        # rows at steps 0, 4, 8 plus the terminal state
        assert len(ts) == 4
        assert ts[-1] == pytest.approx(out.state.t)

    def test_snapshot_sink_cadence(self, grid32):
        c = cosine_coupling(grid32)
        u = blob_field(grid32)
        dt = sf.cfl_dt(grid32, c, 0.5)
        cfg = sf.FlowConfig(t_end=10 * dt, dt_policy="fixed", dt=dt,
                            snapshot_every=3, stationarity_tol=0.0)
        seen = []
        sf.evolve(u, c, cfg, snapshot_sink=lambda s: seen.append(s.step))
        assert seen == [3, 6, 9]

    def test_stop_when_callback(self, grid32):
        c = cosine_coupling(grid32)
        u = blob_field(grid32)
        dt = sf.cfl_dt(grid32, c, 0.5)
        cfg = sf.FlowConfig(t_end=100 * dt, dt_policy="fixed", dt=dt,
                            diagnostic_every=1, stationarity_tol=0.0)
        out = sf.evolve(u, c, cfg, stop_when=lambda row: row.t >= 5 * dt)
        assert out.reason == "stopped"
        assert out.state.step == pytest.approx(5, abs=1)

    def test_rotation_equivariance(self, grid32):
        R = rotation_matrix()
        c = cosine_coupling(grid32)
        u0 = sf.bubble_field(grid32, (0.6, 0.4), 0.12)
        dt = sf.cfl_dt(grid32, c, 0.25)
        for kind in ("gradient", "landau_lifshitz"):
            cfg = sf.FlowConfig(flow_kind=kind, dt_policy="fixed", dt=dt,
                                t_end=20 * dt, stationarity_tol=0.0)
            a = sf.evolve(u0.rotated(R), c, cfg).state.field.values
            b = sf.evolve(u0, c, cfg).state.field.rotated(R).values
            assert np.abs(a - b).max() <= 1e-10

    def test_blowup_keeps_partial_ledger(self, grid32):
        c = cosine_coupling(grid32)
        u = blob_field(grid32)
        cfg = sf.FlowConfig(dt_policy="fixed", dt=1e306, t_end=1.0,
                            diagnostic_every=1, stationarity_tol=0.0)
        with pytest.raises(sf.BlowUpError) as exc:
            sf.evolve(u, c, cfg)
        assert exc.value.ledger is not None
        assert len(exc.value.ledger) >= 1      # the pre-step row survives
        assert exc.value.state is not None
        assert exc.value.node is not None

    def test_blowup_writes_the_due_snapshot_before_the_check(self, grid32, monkeypatch):
        # the velocity of state 3 turns non-finite: its snapshot is written,
        # its row is not, and the error carries state 3
        calls = []
        rhs = flow_module._rhs_arrays

        def failing_rhs(u, ws, *rest):
            v, F, gsq = rhs(u, ws, *rest)
            calls.append(1)
            if len(calls) == 4:
                # node (7, 2) lies in the first half of the x-rows, whose
                # sum of |v|^2 the rhs plan wrote into ws.sums[0]
                v[1, 7, 2] = np.nan
                ws.sums[0] = np.nan
            return v, F, gsq

        monkeypatch.setattr(flow_module, "_rhs_arrays", failing_rhs)
        c = cosine_coupling(grid32)
        dt = sf.cfl_dt(grid32, c, 0.5)
        cfg = sf.FlowConfig(dt_policy="fixed", dt=dt, t_end=10 * dt, snapshot_every=3,
                            stationarity_tol=0.0)
        seen = []
        with pytest.raises(sf.BlowUpError) as exc:
            sf.evolve(blob_field(grid32), c, cfg, snapshot_sink=lambda s: seen.append(s))
        err = exc.value
        assert [s.step for s in seen] == [3]
        assert (err.node, err.step, err.t) == ((7, 2), 3, 3 * dt)
        assert [row.t for row in err.ledger.rows] == [0.0, dt, 2 * dt]
        assert err.state.step == 3
        assert np.array_equal(err.state.field.values, seen[0].field.values)

    def test_determinism(self, grid32):
        c = cosine_coupling(grid32)
        u = sf.perturb(sf.bubble_field(grid32, (0.5, 0.5), 0.1), 0.01, 9)
        dt = sf.cfl_dt(grid32, c, 0.25)
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="fixed", dt=dt,
                            t_end=50 * dt, stationarity_tol=0.0)
        led1 = sf.evolve(u, c, cfg).ledger.to_csv_text()
        led2 = sf.evolve(u, c, cfg).ledger.to_csv_text()
        assert led1 == led2

    def test_step_matches_evolve(self, grid32):
        # the one-step public op and the evolution loop share the numerics
        c = cosine_coupling(grid32)
        u = blob_field(grid32)
        dt = sf.cfl_dt(grid32, c, 0.5)
        cfg = sf.FlowConfig(t_end=3 * dt, dt_policy="fixed", dt=dt,
                            stationarity_tol=0.0)
        out = sf.evolve(u, c, cfg)
        state = FlowState(field=u)
        for _ in range(3):
            state = sf.step(state, c, cfg)
        assert np.array_equal(out.state.field.values, state.field.values)

    def test_integer_clock_runs_exactly_the_budget(self, grid64):
        # a float clock t += dt overshoots here: 1001 steps, t = 0.0101827
        c = cosine_coupling(grid64)
        dt = sf.cfl_dt(grid64, c, 0.25)
        cfg = sf.FlowConfig(dt_policy="fixed", dt=dt, t_end=1000 * dt,
                            diagnostic_every=100, stationarity_tol=0.0)
        out = sf.evolve(blob_field(grid64), c, cfg)
        assert out.state.step == 1000
        assert out.state.t == 1000 * dt
        assert out.ledger.rows[-1].t == 1000 * dt
        assert list(out.ledger.column("t")) == [n * dt for n in range(0, 1001, 100)]

    @pytest.mark.parametrize("t_end,dt,want", [
        (97690 * 0.0004540443915911709, 0.0004540443915911709, 97690),
        (20.151190126213297, 0.0002776143128413255, 72588),
        (0.0, 1e-3, 0),
    ], ids=["quotient-rounds-up", "quotient-rounds-down", "zero-horizon"])
    def test_step_budget_is_the_smallest_reaching_count(self, t_end, dt, want):
        n = _step_budget(t_end, dt)
        assert n == want
        assert n * dt >= t_end and (n == 0 or (n - 1) * dt < t_end)

    def test_exact_stationary_state_keeps_its_bits(self, grid32):
        # renormalizing this constant field, as the step does, would change its last bits
        u = sf.constant_field(grid32, (0.1, 0.7, 0.3))
        again = u.values / np.sqrt(_dot(u.values, u.values))
        assert not np.array_equal(again, u.values)
        c = cosine_coupling(grid32)
        dt = sf.cfl_dt(grid32, c, 0.5)
        cfg = sf.FlowConfig(dt_policy="fixed", dt=dt, t_end=5 * dt, stationarity_tol=0.0)
        out = sf.evolve(u, c, cfg)
        assert out.state.step == 5 and out.state.field is u
        assert sf.step(FlowState(field=u), c, cfg).field is u

    def test_underflowed_step_is_refused(self):
        # max f = 1e308 makes the CFL step 0.0; stepping would never reach t_end
        g = sf.make_grid(16, 16, 1.0, 1.0)
        c = unit_coupling(g, 1e308)
        u = sf.great_circle_field(g)
        cfg = sf.FlowConfig(t_end=1e-3)
        assert sf.cfl_dt(g, c, cfg.safety) == 0.0
        with pytest.raises(ValueError, match="cannot be reached"):
            sf.evolve(u, c, cfg)
        # a positive step too small for t_end / dt to be finite
        tiny = sf.FlowConfig(dt_policy="fixed", dt=5e-324, t_end=1.0)
        with pytest.raises(ValueError, match="cannot be reached"):
            sf.evolve(u, unit_coupling(g), tiny)


class TestBlowUpNode:
    """The reported node is the (i, j) grid index of the first non-finite
    value.  A NaN planted in the coupling gradient at a node with i != j on a
    non-square grid must come back as exactly that node."""

    NODE = (13, 5)

    def planted(self):
        g = sf.make_grid(24, 20, 1.3, 0.7)
        c = cosine_coupling(g)
        grad_x = c.grad_x.copy()
        grad_x[self.NODE] = np.nan
        bad = Coupling(g, c.kind, c.values, grad_x, c.grad_y, c.params)
        return g, bad, blob_field(g)

    @pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
    def test_step(self, kind):
        g, c, u = self.planted()
        cfg = sf.FlowConfig(flow_kind=kind, t_end=1.0)
        with pytest.raises(sf.BlowUpError) as exc:
            sf.step(FlowState(field=u), c, cfg)
        assert exc.value.node == self.NODE

    @pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
    def test_evolve(self, kind):
        g, c, u = self.planted()
        cfg = sf.FlowConfig(flow_kind=kind, t_end=1.0, stationarity_tol=0.0)
        with pytest.raises(sf.BlowUpError) as exc:
            sf.evolve(u, c, cfg)
        assert exc.value.node == self.NODE
        assert exc.value.state.field.values.shape == (3,) + g.shape

    # max_steps = 0: the initial iterate is the last one, which the stepping
    # loop yields unchecked
    @pytest.mark.parametrize("max_steps", [10, 0])
    def test_relax(self, max_steps):
        g, c, u = self.planted()
        with pytest.raises(sf.BlowUpError) as exc:
            sf.relax(u, c, tol=1e-8, max_steps=max_steps)
        err = exc.value
        assert err.node == self.NODE
        # the same contract as evolve: the last valid state, its step and t
        cfg = sf.FlowConfig(dt_policy="fixed", dt=sf.cfl_dt(g, c, DEFAULT_SAFETY),
                            t_end=1.0, stationarity_tol=0.0)
        with pytest.raises(sf.BlowUpError) as ref:
            sf.evolve(u, c, cfg)
        assert (err.step, err.t) == (ref.value.step, ref.value.t) == (0, 0.0)
        assert np.array_equal(err.state.field.values, u.values)
        assert (err.state.step, err.state.t) == (0, 0.0)

    def test_renormalization(self):
        # the projection guard reads the bounds of the norms of each half of
        # the x-rows, and then the component-major norms for the node
        w = np.ones((3, 24, 20))
        w[2][self.NODE] = np.nan
        norms = np.sqrt(_dot(w, w))
        bounds = np.array([[h.min(), h.max()] for h in (norms[:12], norms[12:])])
        assert _project_unit(w[:, :12], 0.0, 0, bounds[:1], norms[:12]) is not None
        with pytest.raises(sf.BlowUpError, match="renormalization failed") as exc:
            _project_unit(w, 0.0, 0, bounds, norms)
        assert exc.value.node == self.NODE
