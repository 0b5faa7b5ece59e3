import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinflow as sf
from spinflow import diagnostics
from spinflow.diagnostics import DiagnosticsLedger, LedgerRow, measure_row, validate_radii
from spinflow.domain import _dot

from conftest import blob_field, cosine_coupling, rotation_matrix, unit_coupling


def reference_cutoff(grid):
    """Fixed continuum cutoff whose eta kinks sit on node or half-grid lines
    for every grid in the 64/128/256 family, so the piecewise-constant eta'
    carries no first-order quadrature error."""
    return sf.make_cutoff(grid, (0.375, 0.4375), a=0.08, b_prime=9 / 64,
                          b=14 / 64, delta=0.1, direction=(1.0, 0.0))


class TestEnergy:
    def test_constant_zero(self, grid32):
        assert sf.energy(sf.constant_field(grid32, (0, 0, 1)),
                         cosine_coupling(grid32)) == 0.0

    def test_great_circle_value(self):
        for n in (64, 128):
            g = sf.make_grid(n, n, 1.0, 1.0)
            e = sf.energy(sf.great_circle_field(g), unit_coupling(g))
            k = 2 * math.pi
            # discrete value is (sin(kh)/h)^2, relative error (kh)^2/3
            assert e == pytest.approx(k * k, rel=1.1 * (k * g.hx) ** 2 / 3)

    def test_doubling_coupling_doubles_exactly(self, grid32):
        u = blob_field(grid32)
        c1 = cosine_coupling(grid32, base=1.0, ax=0.25, ay=0.25)
        c2 = cosine_coupling(grid32, base=2.0, ax=0.5, ay=0.5)
        assert sf.energy(u, c2) == 2.0 * sf.energy(u, c1)

    def test_scaling_power_of_two_exact(self, grid32):
        u = blob_field(grid32)
        for c in (2.0, 0.5, 4.0):
            base = sf.make_coupling(grid32, "constant", {"value": 1.0})
            scaled = sf.make_coupling(grid32, "constant", {"value": c})
            assert sf.energy(u, scaled) == c * sf.energy(u, base)

    def test_scaling_general_close(self, grid32):
        u = blob_field(grid32)
        base = unit_coupling(grid32)
        scaled = unit_coupling(grid32, value=3.0)
        assert sf.energy(u, scaled) == pytest.approx(3.0 * sf.energy(u, base), rel=1e-14)


class TestEnergyDensity:
    def test_constant_zero(self, grid32):
        d = sf.energy_density(sf.constant_field(grid32, (0, 0, 1)),
                              cosine_coupling(grid32))
        assert np.all(d == 0.0)

    def test_sum_equals_energy(self, grid32):
        u = blob_field(grid32)
        c = cosine_coupling(grid32)
        d = sf.energy_density(u, c)
        assert float(d.sum() * grid32.cell_area) == pytest.approx(
            sf.energy(u, c), rel=1e-12)

    def test_bubble_max_at_center(self, grid64):
        u = sf.bubble_field(grid64, (0.25, 0.75), 0.05)
        d = sf.energy_density(u, unit_coupling(grid64))
        i, j = np.unravel_index(np.argmax(d), grid64.shape)
        assert grid64.distance(i * grid64.hx, j * grid64.hy, 0.25, 0.75) <= 1.5 * grid64.hx


class TestLocalEnergy:
    def test_full_cover_equals_total(self, grid64):
        u = blob_field(grid64)
        c = cosine_coupling(grid64)
        r = 0.75   # larger than the torus diameter sqrt(2)/2
        assert sf.local_energy(u, c, (0.3, 0.3), r) == pytest.approx(
            sf.energy(u, c), abs=1e-10)

    def test_constant_zero(self, grid64):
        u = sf.constant_field(grid64, (0, 0, 1))
        assert sf.local_energy(u, cosine_coupling(grid64), (0.5, 0.5), 0.2) == 0.0

    def test_below_resolution_rejected(self, grid64):
        u = blob_field(grid64)
        with pytest.raises(ValueError):
            sf.local_energy(u, unit_coupling(grid64), (0.5, 0.5), 1.5 * grid64.hx)

    def test_bubble_concentration(self):
        g = sf.make_grid(256, 256, 1.0, 1.0)
        u = sf.bubble_field(g, (0.5, 0.5), 0.05)
        f1 = unit_coupling(g)
        assert sf.local_energy(u, f1, (0.5, 0.5), 0.25) >= 0.9 * sf.energy(u, f1)

    @settings(max_examples=20, deadline=None)
    @given(px=st.floats(0.0, 1.0), py=st.floats(0.0, 1.0),
           r1=st.floats(0.05, 0.4), r2=st.floats(0.05, 0.4))
    def test_monotone_in_radius(self, px, py, r1, r2):
        g = sf.make_grid(48, 48, 1.0, 1.0)
        u = sf.bubble_field(g, (0.5, 0.5), 0.12)
        c = cosine_coupling(g)
        lo, hi = sorted((r1, r2))
        assert sf.local_energy(u, c, (px, py), lo) <= \
            sf.local_energy(u, c, (px, py), hi) + 1e-12


#: worst relative difference of a window sum from the full-grid reference,
#: fixed before the first run: the two sums differ only in summation order
WINDOW_REL = 1e-12


def reference_local_energies(grid, density, p, radii):
    """Full-grid oracle: the coverage weight of every node for the periodic
    distance field to p itself, summed against the density."""
    x, y = grid.mesh()
    d = np.hypot(grid.wrap_dx(x - p[0]), grid.wrap_dy(y - p[1]))
    return [float((density * diagnostics._disc_coverage(grid, x, y, d, p, r)).sum()
                  * grid.cell_area) for r in radii]


class TestDiscWindow:
    # radii run up to and beyond half the short side (and past the torus
    # diameter) so the discs wrap onto themselves
    CASES = [
        ((24, 20, 1.2, 0.8), (1.0, 0.5, 0.4, 0.3, 0.11)),
        ((64, 64, 1.0, 1.0), (0.75, 0.5, 0.45, 0.2, 0.04)),
        ((256, 256, 1.0, 1.0), (0.2, 0.15, 0.1, 0.06, 0.03)),   # observed radii
    ]

    @pytest.mark.parametrize("shape, radii", CASES, ids=["24x20", "64x64", "256x256"])
    def test_node_centres_match_full_grid_reference(self, shape, radii):
        nx, ny, lx, ly = shape
        g = sf.make_grid(nx, ny, lx, ly)
        rng = np.random.default_rng(nx * ny)
        density = rng.random(g.shape)
        nodes = [(0, 0), (nx - 1, ny - 1), (nx // 2, 0), (0, ny - 1)]
        nodes += [tuple(int(k) for k in rng.integers(0, (nx, ny))) for _ in range(4)]
        for i, j in nodes:
            p = (i * g.hx, j * g.hy)
            assert diagnostics._node_at(g, p) == (i, j)   # the window path runs
            got = diagnostics._local_energies(g, density, p, radii)
            ref = reference_local_energies(g, density, p, radii)
            for r, a, b in zip(radii, got, ref):
                assert abs(a - b) <= WINDOW_REL * abs(b), (shape, (i, j), r, a, b)

    def test_disc_past_the_torus_diameter_covers_every_node_once(self, grid64):
        di, dj, w = diagnostics._disc_window(grid64, 0.75)
        assert np.all(w == 1.0)
        assert len(set(zip(di.tolist(), dj.tolist()))) == di.size == 64 * 64

    def test_off_node_centres_take_the_full_grid_path(self, grid64):
        density = np.random.default_rng(1).random(grid64.shape)
        for p in [(0.3, 0.3), (0.5 + 0.25 * grid64.hx, 0.5), (math.nan, 0.5), (1e308, 0.5)]:
            assert diagnostics._node_at(grid64, p) is None
            np.testing.assert_array_equal(
                diagnostics._local_energies(grid64, density, p, (0.2, 0.1)),
                reference_local_energies(grid64, density, p, (0.2, 0.1)))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_density_matches_full_grid_path(self, grid64, bad):
        # a non-finite value outside the disc makes the full-grid sum nan
        # (inf * 0); the window would skip that node
        density = np.random.default_rng(2).random(grid64.shape)
        density[40, 40] = bad
        p = (10 * grid64.hx, 12 * grid64.hy)
        with np.errstate(invalid="ignore"):
            got = diagnostics._local_energies(grid64, density, p, (0.2, 0.1))
            ref = reference_local_energies(grid64, density, p, (0.2, 0.1))
        np.testing.assert_array_equal(got, ref)
        assert all(math.isnan(e) for e in got)

    def test_coverage_runs_once_per_radius_per_run(self, monkeypatch):
        g = sf.make_grid(40, 40, 1.0, 1.0)
        calls = []
        real = diagnostics._disc_coverage

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "_disc_coverage", counting)
        diagnostics._disc_window.cache_clear()
        radii = (0.3, 0.2, 0.1)
        c = cosine_coupling(g)
        u = sf.bubble_field(g, (0.7, 0.5), 0.1)
        cfg = sf.FlowConfig(dt_policy="fixed", dt=sf.cfl_dt(g, c, 0.5), t_end=5e-4,
                            diagnostic_every=1, stationarity_tol=0.0)
        out = sf.evolve(u, c, cfg, radii=radii)
        sf.detect_concentration(out.ledger, out.state.field, c, radii, eps_conc=1.0)
        assert len(out.ledger) == out.state.step + 1 > 5
        assert sorted(calls) == sorted(radii)


class TestHopf:
    def test_constant_zero(self, grid32):
        psi = sf.hopf(sf.constant_field(grid32, (0, 0, 1)))
        assert np.all(psi == 0.0)

    def test_great_circle_real_positive(self, grid64):
        psi = sf.hopf(sf.great_circle_field(grid64))
        assert np.all(psi.real > 0.0)
        assert np.abs(psi.imag).max() <= 1e-12
        ux, _ = sf.grad(sf.great_circle_field(grid64))
        assert np.allclose(psi.real, _dot(ux, ux), rtol=1e-12)

    def test_bubble_core_conformality(self):
        # the profile is conformal, so |Psi| in the core decays at O(h^2)
        maxima = []
        for n in (128, 256):
            g = sf.make_grid(n, n, 1.0, 1.0)
            u = sf.bubble_field(g, (0.5, 0.5), 0.1)
            psi = sf.hopf(u)
            x, y = g.mesh()
            core = g.distance(x, y, 0.5, 0.5) < 0.2
            maxima.append(np.abs(psi[core]).max())
        assert maxima[0] / maxima[1] == pytest.approx(4.0, rel=0.5)


class TestHopfResidual:
    def test_constant_zero(self, grid32):
        assert sf.hopf_residual(sf.constant_field(grid32, (0, 0, 1)),
                                cosine_coupling(grid32)) == 0.0

    def test_generic_field_second_order(self):
        # the defect term absorbs the non-stationarity, so the identity closes
        # at O(h^2) on arbitrary smooth fields
        errs = []
        for n in (32, 64, 128):
            g = sf.make_grid(n, n, 1.0, 1.0)
            errs.append(sf.hopf_residual(blob_field(g), cosine_coupling(g)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.7

    def test_relaxed_harmonic_second_order(self):
        # heat-flow snapshot at fixed physical time, unit coupling
        errs = []
        for n in (32, 64):
            g = sf.make_grid(n, n, 1.0, 1.0)
            f1 = unit_coupling(g)
            dt = sf.cfl_dt(g, f1, 0.5)
            steps = int(round(0.01 / dt))
            cfg = sf.FlowConfig(flow_kind="gradient", dt_policy="fixed", dt=0.01 / steps,
                                t_end=0.01, stationarity_tol=0.0,
                                diagnostic_every=10 ** 9)
            out = sf.evolve(blob_field(g), f1, cfg)
            errs.append(sf.hopf_residual(out.state.field, f1))
        assert math.log2(errs[0] / errs[1]) >= 1.7


class TestVariation:
    def test_zero_field_gives_zero(self, grid64):
        u = blob_field(grid64)
        c = cosine_coupling(grid64)
        zero = sf.UniformVectorField((0.0, 0.0))
        assert sf.variation_rhs(u, c, zero) == 0.0
        assert sf.variation_lhs(u, c, zero, 0.5 * grid64.hx) == pytest.approx(0.0, abs=1e-12)

    def test_constant_field_gives_zero(self, grid64):
        u = sf.constant_field(grid64, (0, 0, 1))
        c = cosine_coupling(grid64)
        cut = reference_cutoff(grid64)
        assert sf.variation_rhs(u, c, cut) == 0.0
        assert sf.variation_lhs(u, c, cut, 0.5 * grid64.hx) == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariance(self, grid64):
        for u in (sf.great_circle_field(grid64, phase=0.3),
                  sf.bubble_field(grid64, (0.52, 0.5), 0.2)):
            f1 = unit_coupling(grid64)
            X = sf.UniformVectorField((1.0, 0.0))
            assert sf.variation_rhs(u, f1, X) == 0.0
            lhs = sf.variation_lhs(u, f1, X, 0.5 * grid64.hx)
            assert abs(lhs) <= 1e-8 * sf.energy(u, f1)

    def test_step_size_validated(self, grid64):
        u = blob_field(grid64)
        c = cosine_coupling(grid64)
        with pytest.raises(ValueError):
            sf.variation_lhs(u, c, reference_cutoff(grid64), 2.5 * grid64.hx)

    def test_lhs_matches_rhs_within_frozen_bound(self, grid64):
        # calibrated on the great-circle and bubble references:
        # |lhs - rhs| <= C1 s^2 + C2 h^2 with C1 = 200, C2 = 160
        c = cosine_coupling(grid64)
        cut = reference_cutoff(grid64)
        s = 0.5 * grid64.hx
        bound = 200.0 * s * s + 160.0 * grid64.hx ** 2
        for u in (sf.great_circle_field(grid64, phase=0.3),
                  sf.bubble_field(grid64, (0.52, 0.5), 0.2)):
            lhs = sf.variation_lhs(u, c, cut, s)
            rhs = sf.variation_rhs(u, c, cut)
            assert abs(lhs - rhs) <= bound

    def test_weak_form_consistency(self):
        # variation_rhs equals -<F, du(X)> up to O(h^2) (the 1/2-convention
        # pairing constant is -1, fixed by the operators-module oracle)
        errs = []
        for n in (64, 128):
            g = sf.make_grid(n, n, 1.0, 1.0)
            c = cosine_coupling(g)
            u = blob_field(g)
            cut = reference_cutoff(g)
            rhs = sf.variation_rhs(u, c, cut)
            x, y = g.mesh()
            X, _, _ = cut.evaluate(x, y)
            ux, uy = sf.grad(u)
            duX = X[..., 0] * ux + X[..., 1] * uy
            F = sf.ps_residual(u, c).values
            pairing = -float(np.einsum("ijk,ijk->", F, duX)) * g.cell_area
            errs.append(abs(rhs - pairing))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)
        assert errs[1] <= 2e-3


class TestPsNorm:
    def test_constant_zero(self, grid32):
        assert sf.ps_norm(sf.constant_field(grid32, (0, 0, 1)),
                          cosine_coupling(grid32)) == 0.0

    def test_trajectory_square_integrable(self, grid32):
        # gradient flow: sum ps^2 dt = (E0 - E_end)/2 <= E0/2 up to
        # discretization slack, on grid-resolved initial data (a white-noise
        # start spends energy in the checkerboard mode, which the
        # central-difference energy cannot see)
        c = cosine_coupling(grid32)
        dt = sf.cfl_dt(grid32, c, 0.25)
        for u0 in (blob_field(grid32), sf.bubble_field(grid32, (0.5, 0.5), 0.12)):
            cfg = sf.FlowConfig(flow_kind="gradient", dt_policy="fixed", dt=dt,
                                t_end=2000 * dt, stationarity_tol=0.0)
            out = sf.evolve(u0, c, cfg)
            ps = out.ledger.column("ps_norm")
            e0 = out.ledger.rows[0].e_f
            assert (ps[:-1] ** 2).sum() * dt <= 0.55 * e0

    def test_relaxed_below_tolerance(self, grid32):
        f1 = unit_coupling(grid32)
        u0 = sf.perturb(sf.constant_field(grid32, (0, 0, 1)), 0.02, 5)
        res = sf.relax(u0, f1, tol=1e-9, max_steps=100000)
        assert res.converged
        assert sf.ps_norm(res.field, f1) < 1e-9


class TestLedger:
    def row(self, t=0.0, e=1.0, local=()):
        return LedgerRow(t=t, e_f=e, v_norm_sq=0.1, ps_norm=0.2, max_density=2.0,
                         argmax_x=0.1, argmax_y=0.2, local_e=local)

    def test_append_time_order(self):
        led = DiagnosticsLedger()
        led.append(self.row(t=0.0))
        led.append(self.row(t=1.0))
        with pytest.raises(ValueError):
            led.append(self.row(t=0.5))

    def test_negative_energy_rejected(self):
        led = DiagnosticsLedger()
        with pytest.raises(ValueError):
            led.append(self.row(e=-1.0))

    def test_local_exceeding_total_rejected(self):
        led = DiagnosticsLedger(radii=(0.2,))
        with pytest.raises(ValueError):
            led.append(self.row(e=1.0, local=(1.5,)))

    def test_nan_local_energy_with_a_finite_total_rejected(self):
        # NaN > e_f + 1e-10 is false, so the bound above alone lets it in
        led = DiagnosticsLedger(radii=(0.2, 0.1))
        with pytest.raises(ValueError, match="NaN"):
            led.append(self.row(e=1.0, local=(0.5, math.nan)))
        assert len(led) == 0

    def test_nan_local_energy_with_an_overflowed_total_is_kept(self):
        # the partial ledger of an overflowed run (exit 4) keeps its rows
        led = DiagnosticsLedger(radii=(0.2,))
        led.append(self.row(e=math.inf, local=(math.nan,)))
        assert len(led) == 1

    def test_radii_count_must_match(self):
        led = DiagnosticsLedger(radii=(0.2, 0.1))
        with pytest.raises(ValueError):
            led.append(self.row(local=(0.5,)))

    def test_radii_sorted(self):
        with pytest.raises(ValueError):
            DiagnosticsLedger(radii=(0.1, 0.2))

    def test_csv_layout(self):
        led = DiagnosticsLedger(radii=(0.2, 0.1))
        led.append(self.row(local=(0.5, 0.25)))
        text = led.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == ("t,E_f,v_norm_sq,ps_norm,max_density,argmax_x,argmax_y,"
                            "local_E_r1,local_E_r2,dist_to_crit")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 10
        assert "nan" in lines[1]   # no critical distance recorded

    def test_measure_row_consistency(self, grid64):
        u = sf.bubble_field(grid64, (0.7, 0.5), 0.1)
        c = cosine_coupling(grid64)
        crit = sf.critical_points(c)
        gsq = sf.grad_squared(u)
        row = measure_row(grid64, c, gsq, t=0.0, v_norm_sq=0.0, ps_norm=0.0,
                          radii=(0.2, 0.1), crit=crit)
        assert row.e_f == pytest.approx(sf.energy(u, c), rel=1e-12)
        for r, le in zip((0.2, 0.1), row.local_e):
            assert le == sf.local_energy(u, c, (row.argmax_x, row.argmax_y), r)
        assert row.dist_to_crit == pytest.approx(
            crit.distance_to(row.argmax_x, row.argmax_y, grid64))


class TestDetectConcentration:
    def test_constant_field_not_detected(self, grid64):
        u = sf.constant_field(grid64, (0, 0, 1))
        c = unit_coupling(grid64)
        report = sf.detect_concentration(None, u, c, (0.2, 0.1), eps_conc=1.0)
        assert not report.detected
        assert report.drift == ()
        assert report.everywhere_critical
        assert report.distance_to_critical is None
        assert "critical_set = everywhere" in report.to_text()
        assert "distance_to_critical" not in report.to_text()

    def test_fresh_bubble_detected_at_center(self, grid64):
        c = cosine_coupling(grid64)
        u = sf.bubble_field(grid64, (0.7, 0.5), 0.05)
        report = sf.detect_concentration(None, u, c, (0.2, 0.1), eps_conc=5.0)
        assert report.detected
        assert grid64.distance(report.location[0], report.location[1], 0.7, 0.5) \
            <= 1.5 * grid64.hx
        # seeded offset from the nearest critical point (the minimum)
        assert report.distance_to_critical == pytest.approx(0.2, abs=2 * grid64.hx)
        assert report.nearest_critical == (0.5, 0.5)
        assert report.nearest_critical_kind == "min"

    def test_critical_lines_report_their_distance(self, grid32):
        # ay = 0: the critical set is the lines x = 0 and x = 1/2
        c = cosine_coupling(grid32, ax=0.25, ay=0.0)
        u = sf.bubble_field(grid32, (0.7, 0.5), 0.05)
        report = sf.detect_concentration(None, u, c, (0.2, 0.1), eps_conc=5.0)
        assert report.distance_to_critical == 0.1875
        text = report.to_text()
        assert "critical_set = lines\ndistance_to_critical = 0.1875\n" in text
        assert "nearest_critical" not in text

    def test_threshold_controls_flag(self, grid64):
        c = cosine_coupling(grid64)
        u = sf.bubble_field(grid64, (0.7, 0.5), 0.05)
        hi = sf.detect_concentration(None, u, c, (0.2, 0.1), eps_conc=1e9)
        assert not hi.detected

    def test_rotation_invariance(self, grid64):
        c = cosine_coupling(grid64)
        u = sf.bubble_field(grid64, (0.7, 0.5), 0.05)
        R = rotation_matrix()
        a = sf.detect_concentration(None, u, c, (0.2, 0.1), eps_conc=5.0)
        b = sf.detect_concentration(None, u.rotated(R), c, (0.2, 0.1), eps_conc=5.0)
        assert a.detected == b.detected
        assert a.location == b.location
        for (r1, e1), (r2, e2) in zip(a.radius_profile, b.radius_profile):
            assert r1 == r2 and e1 == pytest.approx(e2, rel=1e-10)

    def test_radii_validation(self, grid64):
        u = blob_field(grid64)
        c = cosine_coupling(grid64)
        with pytest.raises(ValueError):
            sf.detect_concentration(None, u, c, (0.1, 0.2), eps_conc=1.0)
        with pytest.raises(ValueError):
            sf.detect_concentration(None, u, c, (0.2, grid64.hx), eps_conc=1.0)

    def test_drift_and_limiting_from_ledger(self, grid64):
        c = cosine_coupling(grid64)
        u0 = sf.bubble_field(grid64, (0.7, 0.5), 0.1)
        dt = sf.cfl_dt(grid64, c, 0.25)
        cfg = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="fixed", dt=dt,
                            t_end=200 * dt, diagnostic_every=50, stationarity_tol=0.0)
        out = sf.evolve(u0, c, cfg, radii=(0.2, 0.1))
        report = sf.detect_concentration(out.ledger, out.state.field, c,
                                         (0.2, 0.1), eps_conc=5.0)
        assert len(report.drift) == len(out.ledger)
        assert report.limiting_local_energy is not None
        window = out.ledger.rows[-max(1, len(out.ledger) // 4):]
        assert report.limiting_local_energy == pytest.approx(
            min(r.local_e[-1] for r in window))
        text = report.to_text()
        assert "drift_t = " in text and "limiting_local_energy" in text

    # every way a run ends: |v|^2 falls through 552.25 first at step 10, off
    # the 7-step cadence, and the stop fires at the first cadence row past 10 dt
    @pytest.mark.parametrize("kind, tol, stop_after, reason, steps", [
        ("gradient", 0.0, None, "t_end", 30),
        ("landau_lifshitz", 0.0, None, "t_end", 30),
        ("gradient", 23.5, None, "stationary", 10),
        ("landau_lifshitz", 0.0, 10, "stopped", 14),
    ], ids=["gradient", "landau_lifshitz", "stationary", "stopped"])
    def test_matches_terminal_ledger_row(self, grid64, kind, tol, stop_after, reason, steps):
        c = cosine_coupling(grid64)
        u0 = sf.bubble_field(grid64, (0.7, 0.5), 0.1)
        dt = sf.cfl_dt(grid64, c, 0.25)
        radii = (0.2, 0.1, 0.05)
        cfg = sf.FlowConfig(flow_kind=kind, dt_policy="fixed", dt=dt, t_end=30 * dt,
                            diagnostic_every=7, stationarity_tol=tol)
        stop_when = None if stop_after is None else (lambda row: row.t > stop_after * dt)
        out = sf.evolve(u0, c, cfg, radii=radii, stop_when=stop_when)
        assert (out.reason, out.state.step) == (reason, steps)
        last = out.ledger.rows[-1]
        assert last.t == out.state.t
        report = sf.detect_concentration(out.ledger, out.state.field, c, radii,
                                         eps_conc=5.0)
        assert report.location == (last.argmax_x, last.argmax_y)
        assert report.radius_profile == tuple(zip(radii, last.local_e))
        # the verdict on the closing row is the whole report on the final field
        assert sf.judge_row(out.ledger, last, grid64, sf.critical_points(c), radii,
                            5.0) == report

    def test_judge_row_needs_one_local_energy_per_radius(self, grid64):
        c = cosine_coupling(grid64)
        u = sf.bubble_field(grid64, (0.7, 0.5), 0.05)
        crit = sf.critical_points(c)
        row = measure_row(grid64, c, sf.grad_squared(u), t=0.0, v_norm_sq=0.0, ps_norm=0.0,
                          radii=(0.2, 0.1), crit=crit)
        for radii in ((), (0.2,), (0.2, 0.1, 0.05)):
            with pytest.raises(ValueError, match="one local energy per probe radius"):
                sf.judge_row(None, row, grid64, crit, radii, 5.0)

    def test_validate_radii_helper(self, grid64):
        assert validate_radii(grid64, (0.2, 0.1)) == (0.2, 0.1)
        with pytest.raises(ValueError):
            validate_radii(grid64, (0.2, 0.2))
