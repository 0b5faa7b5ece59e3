"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines and
measured values.  The long Landau-Lifshitz run (criteria 1 and 2) is shared
through a module fixture.
"""

import math
import time

import numpy as np
import pytest

import spinflow as sf
from spinflow.field import SphereField, normalize

from conftest import blob_field, cosine_coupling, rotation_matrix, unit_coupling

LL_STEPS = 10_000


def report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, detail


@pytest.fixture(scope="module")
def ll_main_run():
    """10,000 LL steps on 128^2 from bubble data at CFL safety 0.25, with a
    per-step unit-norm audit and per-step diagnostics."""
    g = sf.make_grid(128, 128, 1.0, 1.0)
    c = cosine_coupling(g)
    u0 = sf.bubble_field(g, (0.7, 0.5), 0.1)
    dt = sf.cfl_dt(g, c, 0.25)
    cfg = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="fixed", dt=dt,
                        t_end=LL_STEPS * dt, diagnostic_every=1, snapshot_every=1,
                        stationarity_tol=0.0)
    worst = {"dev": 0.0}

    def audit(state):
        worst["dev"] = max(worst["dev"], state.field.max_norm_deviation)

    t0 = time.perf_counter()
    out = sf.evolve(u0, c, cfg, snapshot_sink=audit)
    elapsed = time.perf_counter() - t0
    return {"grid": g, "coupling": c, "initial": u0, "dt": dt, "out": out,
            "max_dev": worst["dev"], "elapsed": elapsed}


class TestCriterion1UnitNorm:
    def test_unit_norm_preserved_over_long_run(self, ll_main_run):
        out = ll_main_run["out"]
        assert out.state.step == LL_STEPS
        dev = ll_main_run["max_dev"]
        elapsed = ll_main_run["elapsed"]
        # runtime target is under a minute; allow slack for loaded machines
        assert elapsed < 120.0
        report(1, dev <= 1e-12,
               f"max | |u|-1 | = {dev:.3e} over {LL_STEPS} steps, "
               f"runtime {elapsed:.1f}s (target < 60s)")


class TestCriterion2Dissipation:
    def test_energy_monotone_and_identity(self, ll_main_run):
        out = ll_main_run["out"]
        dt = ll_main_run["dt"]
        e = out.ledger.column("e_f")
        v = out.ledger.column("v_norm_sq")
        worst_rise = float(np.diff(e).max())
        monotone_ok = worst_rise <= 1e-8 * e[0]

        c_flow = sf.dissipation_coefficient("landau_lifshitz")
        err_full = abs((e[0] - e[-1]) - c_flow * v[:-1].sum() * dt) / e[0]

        # rerun the same number of steps at halved dt: first-order improvement
        cfg_half = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="fixed",
                                 dt=dt / 2, t_end=LL_STEPS * dt / 2,
                                 diagnostic_every=1, stationarity_tol=0.0)
        out_half = sf.evolve(ll_main_run["initial"], ll_main_run["coupling"], cfg_half)
        e2 = out_half.ledger.column("e_f")
        v2 = out_half.ledger.column("v_norm_sq")
        err_half = abs((e2[0] - e2[-1]) - c_flow * v2[:-1].sum() * (dt / 2)) / e2[0]

        ok = monotone_ok and err_full <= 0.02 and err_half < err_full
        report(2, ok,
               f"worst per-step rise {worst_rise:.2e} (allowed {1e-8 * e[0]:.2e}); "
               f"identity error {err_full:.2e} <= 2%; halved-dt error {err_half:.2e}")


class TestCriterion3GradientCheck:
    def test_fd_matches_defect_pairing(self):
        # h = 1/128 with the base frequencies set by an 8x8 torus; three
        # smooth reference fields x five random tangent directions
        L, n = 8.0, 1024
        g = sf.make_grid(n, n, L, L)
        assert g.hx == pytest.approx(1 / 128)
        c = cosine_coupling(g)
        fields = {
            "great-circle-x": sf.great_circle_field(g),
            "great-circle-y": sf.great_circle_field(g, axis="y", phase=0.7),
            "blob": blob_field(g),
        }
        s = 1e-5
        worst = 0.0
        for name, u in fields.items():
            F = sf.ps_residual(u, c).values
            for seed in range(5):
                rng = np.random.default_rng(seed)
                w = np.moveaxis(rng.standard_normal(g.shape + (3,)), -1, 0)
                w -= np.einsum("kij,kij->ij", w, u.values) * u.values
                xi = w / np.sqrt(np.einsum("ijk,ijk->", w, w) * g.cell_area)
                e_plus = sf.energy(SphereField(g, normalize(u.values + s * xi)), c)
                e_minus = sf.energy(SphereField(g, normalize(u.values - s * xi)), c)
                fd = (e_plus - e_minus) / (2 * s)
                pair = -2.0 * float(np.einsum("ijk,ijk->", F, xi)) * g.cell_area
                rel = abs(fd - pair) / max(abs(fd), abs(pair))
                worst = max(worst, rel)
        report(3, worst <= 1e-4,
               f"worst relative error {worst:.3e} over 3 fields x 5 directions "
               f"at s = 1e-5, h = 1/128")


class TestCriterion4VariationFormula:
    CUTOFF = dict(center=(0.375, 0.4375), a=0.08, b_prime=9 / 64, b=14 / 64,
                  delta=0.1, direction=(1.0, 0.0))

    def fields(self, g):
        return {"great-circle": sf.great_circle_field(g, phase=0.3),
                "bubble": sf.bubble_field(g, (0.52, 0.5), 0.2)}

    def test_orders_and_frozen_bound(self):
        details = []
        ok = True
        for name in ("great-circle", "bubble"):
            errs = []
            for n in (64, 128, 256):
                g = sf.make_grid(n, n, 1.0, 1.0)
                c = cosine_coupling(g)
                cut = sf.make_cutoff(g, **self.CUTOFF)
                u = self.fields(g)[name]
                s = 0.5 * g.hx
                lhs = sf.variation_lhs(u, c, cut, s)
                rhs = sf.variation_rhs(u, c, cut)
                err = abs(lhs - rhs)
                errs.append(err)
                assert err <= 200.0 * s * s + 160.0 * g.hx ** 2
            ratios = [errs[i] / errs[i + 1] for i in range(2)]
            ok &= all(3.0 <= r <= 5.0 for r in ratios)
            details.append(f"{name}: ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
        report(4, ok, "; ".join(details) + " (band 4 +- 25%)")

    def test_translation_invariance(self):
        g = sf.make_grid(128, 128, 1.0, 1.0)
        f1 = unit_coupling(g)
        X = sf.UniformVectorField((1.0, 0.0))
        worst = 0.0
        for u in self.fields(g).values():
            lhs = sf.variation_lhs(u, f1, X, 0.5 * g.hx)
            worst = max(worst, abs(lhs) / sf.energy(u, f1))
        report("4 (translation)", worst <= 1e-8,
               f"|lhs| / E_f = {worst:.2e} for constant X with unit coupling")


class TestCriterion5HopfIdentity:
    def test_residual_second_order(self):
        errs = []
        T = 0.01
        for n in (32, 64, 128):
            g = sf.make_grid(n, n, 1.0, 1.0)
            f1 = unit_coupling(g)
            dt0 = sf.cfl_dt(g, f1, 0.5)
            steps = int(round(T / dt0))
            cfg = sf.FlowConfig(flow_kind="gradient", dt_policy="fixed", dt=T / steps,
                                t_end=T, stationarity_tol=0.0,
                                diagnostic_every=10 ** 9)
            relaxed = sf.evolve(blob_field(g), f1, cfg).state.field
            errs.append(sf.hopf_residual(relaxed, f1))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        report(5, min(orders) >= 1.7,
               f"residuals {errs[0]:.3e} -> {errs[1]:.3e} -> {errs[2]:.3e}, "
               f"orders {orders[0]:.2f}, {orders[1]:.2f} (need >= 1.7)")


class TestCriterion6Relaxation:
    def test_perturbed_constant_relaxes_to_constant(self):
        g = sf.make_grid(32, 32, 1.0, 1.0)
        f1 = unit_coupling(g)
        u0 = sf.perturb(sf.constant_field(g, (0, 0, 1)), 0.05, 11)
        res = sf.relax(u0, f1, tol=1e-10, max_steps=100_000)
        e = sf.energy(res.field, f1)
        ok = res.converged and res.history[-1] < 1e-10 and e < 1e-12
        report("6 (flat)", ok,
               f"converged in {res.steps} steps, ps_norm {res.history[-1]:.2e}, "
               f"final E_f {e:.2e}")

    def test_great_circle_relaxes_to_geodesic(self):
        g = sf.make_grid(128, 128, 1.0, 1.0)
        f1 = unit_coupling(g)
        res = sf.relax(sf.great_circle_field(g), f1, tol=1e-10, max_steps=10_000)
        e = sf.energy(res.field, f1)
        target = (2 * math.pi) ** 2
        ok = res.converged and abs(e - target) / target < 0.01
        report("6 (geodesic)", ok,
               f"E_f = {e:.4f} vs (2 pi)^2 = {target:.4f} "
               f"({(e - target) / target:+.2%}), ps_norm {res.history[-1]:.2e}")


class TestCriterion7ConcentrationDrift:
    GRID = 128
    RADII = (0.15, 0.1, 0.06)
    EPS_CONC = 6.0
    T_END = 0.02

    def run(self, seed_point):
        g = sf.make_grid(self.GRID, self.GRID, 1.0, 1.0)
        c = cosine_coupling(g)
        u0 = sf.bubble_field(g, seed_point, 0.05)
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="cfl", safety=0.25,
                            t_end=self.T_END, diagnostic_every=50, stationarity_tol=0.0)
        peak = {"value": 0.0}

        def collapsed(row):
            peak["value"] = max(peak["value"], row.max_density)
            return row.max_density < 0.5 * peak["value"]

        out = sf.evolve(u0, c, cfg, radii=self.RADII, stop_when=collapsed)
        rep = sf.detect_concentration(out.ledger, out.state.field, c,
                                      self.RADII, self.EPS_CONC)
        return g, out, rep

    def test_offset_bubble_drifts_toward_minimum(self):
        # seeded 0.2 * lx from the coupling minimum at (0.5, 0.5)
        t0 = time.perf_counter()
        g, out, rep = self.run((0.7, 0.5))
        elapsed = time.perf_counter() - t0
        first, last = out.ledger.rows[0], out.ledger.rows[-1]
        ok = rep.detected and last.dist_to_crit < first.dist_to_crit
        report("7 (a,b)", ok,
               f"detected = {rep.detected}; distance to critical point "
               f"{first.dist_to_crit:.4f} -> {last.dist_to_crit:.4f} "
               f"(stop: {out.reason}, runtime {elapsed:.0f}s)")

    def test_pinned_bubble_stays(self):
        g, out, rep = self.run((0.5, 0.5))
        xs = out.ledger.column("argmax_x")
        ys = out.ledger.column("argmax_y")
        drift = np.hypot(g.wrap_dx(xs - 0.5), g.wrap_dy(ys - 0.5)).max()
        ok = rep.detected and drift <= 2 * g.hx
        report("7 (c)", ok,
               f"max drift {drift / g.hx:.2f} cells (allowed 2) with the bubble "
               f"seeded at the minimum; detected = {rep.detected}")


class TestCriterion8Degenerate:
    def test_constant_noop_exact(self):
        g = sf.make_grid(32, 32, 1.0, 1.0)
        u = sf.constant_field(g, (0.2, -0.5, 1.0))
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", t_end=0.01, safety=0.5)
        out = sf.evolve(u, cosine_coupling(g), cfg)
        ok = out.state.field.values is u.values
        report("8 (no-op)", ok, "constant field evolves bitwise-identically")

    def test_rotation_equivariance(self):
        g = sf.make_grid(32, 32, 1.0, 1.0)
        c = cosine_coupling(g)
        u0 = sf.bubble_field(g, (0.6, 0.4), 0.12)
        R = rotation_matrix()
        dt = sf.cfl_dt(g, c, 0.25)
        worst = 0.0
        for kind in ("gradient", "landau_lifshitz"):
            cfg = sf.FlowConfig(flow_kind=kind, dt_policy="fixed", dt=dt,
                                t_end=20 * dt, stationarity_tol=0.0)
            a = sf.evolve(u0.rotated(R), c, cfg).state.field.values
            b = sf.evolve(u0, c, cfg).state.field.rotated(R).values
            worst = max(worst, float(np.abs(a - b).max()))
        report("8 (equivariance)", worst <= 1e-10,
               f"max deviation {worst:.2e} after 20 steps, both flows")

    def test_f_scaling_exact(self):
        g = sf.make_grid(32, 32, 1.0, 1.0)
        u = blob_field(g)
        e1 = sf.energy(u, unit_coupling(g))
        e2 = sf.energy(u, unit_coupling(g, value=2.0))
        report("8 (scaling)", e2 == 2.0 * e1, f"E(2f) = {e2!r} vs 2 E(f) = {2 * e1!r}")

    def test_ledger_byte_determinism(self):
        g = sf.make_grid(32, 32, 1.0, 1.0)
        c = cosine_coupling(g)
        u0 = sf.perturb(sf.bubble_field(g, (0.5, 0.5), 0.1), 0.01, 9)
        dt = sf.cfl_dt(g, c, 0.25)
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="fixed", dt=dt,
                            t_end=100 * dt, stationarity_tol=0.0)
        a = sf.evolve(u0, c, cfg, radii=(0.2, 0.1)).ledger.to_csv_text()
        b = sf.evolve(u0, c, cfg, radii=(0.2, 0.1)).ledger.to_csv_text()
        report("8 (determinism)", a == b,
               f"two identical runs produced byte-identical ledgers "
               f"({len(a)} bytes)")
