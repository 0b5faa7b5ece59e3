
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import spinflow as sf
from spinflow import checks, cli, diagnostics, snapshots

NOOP = """\
grid.nx = 32
grid.ny = 32
grid.lx = 1.0
grid.ly = 1.0
coupling.kind = constant
initial.kind = constant
flow.kind = gradient
flow.t_end = 0.0
output.dir = out
"""

BUBBLE_LL = """\
grid.nx = 32
grid.ny = 32
grid.lx = 1.0
grid.ly = 1.0
coupling.kind = cosine-product
coupling.ax = 0.25
coupling.ay = 0.25
initial.kind = bubble
initial.px = 0.7
initial.py = 0.5
initial.scale = 0.12
flow.kind = landau-lifshitz
flow.dt_policy = cfl
flow.safety = 0.25
flow.t_end = 0.0015
flow.diagnostic_every = 10
flow.stationarity_tol = 0.0
diagnostics.radii = 0.2, 0.1
diagnostics.eps_conc = 4.0
output.dir = out
"""

# f = 1e308 overflows the initial energy without taking a step
OVERFLOWED_ENERGY = NOOP.replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 16\ngrid.ny = 16") \
                        .replace("coupling.kind = constant",
                                 "coupling.kind = constant\ncoupling.value = 1e308") \
                        .replace("initial.kind = constant",
                                 "initial.kind = bubble\ninitial.scale = 0.1")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_noop_exits_zero_with_one_row(self, tmp_path):
        cfgpath = write_config(tmp_path, NOOP)
        code = cli.main(["run", cfgpath, "-o", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        ledger = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")
        assert len(ledger) == 2   # header + single row
        assert (tmp_path / "out" / "snapshot_final.bin").exists()
        assert (tmp_path / "out" / "report.txt").exists()
        assert (tmp_path / "out" / "density_final.pgm").exists()

    def test_bubble_ll_energy_non_increasing(self, tmp_path):
        cfgpath = write_config(tmp_path, BUBBLE_LL)
        out = str(tmp_path / "out")
        code = cli.main(["run", cfgpath, "-o", out])
        assert code == cli.EXIT_OK
        rows = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")[1:]
        e = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(e) <= 1e-8 * e[0])

    def test_huge_dt_exits_blowup_with_partial_ledger(self, tmp_path):
        text = BUBBLE_LL.replace("flow.dt_policy = cfl", "flow.dt_policy = fixed") \
                        .replace("flow.safety = 0.25", "flow.dt = 1e306") \
                        .replace("flow.diagnostic_every = 10", "flow.diagnostic_every = 1")
        cfgpath = write_config(tmp_path, text)
        for command in ("run", "blowup-experiment"):
            out = tmp_path / command
            assert cli.main([command, cfgpath, "-o", str(out)]) == cli.EXIT_BLOWUP, command
            ledger = (out / "ledger.csv").read_text().strip().split("\n")
            assert len(ledger) >= 2, command   # header plus the pre-failure row

    @pytest.mark.parametrize("command", ["run", "blowup-experiment"])
    def test_nonfinite_energy_exits_nonfinite_with_ledger(self, tmp_path, command):
        cfgpath = write_config(tmp_path, OVERFLOWED_ENERGY)
        out = tmp_path / "out"
        assert cli.main([command, cfgpath, "-o", str(out)]) == cli.EXIT_NONFINITE
        # header plus the initial-state row; the local energy is nan because
        # the disc weights of 0 meet inf densities outside the disc
        assert (out / "ledger.csv").read_text() == (
            "t,E_f,v_norm_sq,ps_norm,max_density,argmax_x,argmax_y,local_E_r1,dist_to_crit\n"
            "0.0,inf,nan,nan,inf,0.0,0.4375,nan,nan\n")
        assert not (out / "report.txt").exists()
        assert not (out / "density_final.pgm").exists()

    @pytest.mark.parametrize("command", ["run", "blowup-experiment"])
    def test_nonfinite_energy_prints_only_the_error(self, tmp_path, command):
        # the overflow and the nan it makes are reported by the exit code and
        # the ledger, not by numpy warnings
        cfgpath = write_config(tmp_path, OVERFLOWED_ENERGY)
        src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = src
        proc = subprocess.run([sys.executable, "-m", "spinflow.cli", command, cfgpath,
                               "-o", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == cli.EXIT_NONFINITE
        assert proc.stderr == "error: non-finite energy in the ledger\n"

    @pytest.mark.parametrize("command", ["run", "blowup-experiment"])
    def test_underflowed_step_exits_config(self, tmp_path, command):
        # f = 1e308 makes the CFL step 0.0; stepping to t_end would never end
        text = NOOP.replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 16\ngrid.ny = 16") \
                   .replace("coupling.kind = constant",
                            "coupling.kind = constant\ncoupling.value = 1e308") \
                   .replace("initial.kind = constant", "initial.kind = great-circle") \
                   .replace("flow.t_end = 0.0", "flow.t_end = 1e-3")
        cfgpath = write_config(tmp_path, text)
        assert cli.main([command, cfgpath, "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG

    def test_config_error_exit(self, tmp_path):
        cfgpath = write_config(tmp_path, NOOP + "urknown.key = 1\n")
        assert cli.main(["run", cfgpath]) == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "none.cfg")]) == cli.EXIT_CONFIG

    def test_non_finite_number_exits_config(self, tmp_path):
        text = NOOP.replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 16\ngrid.ny = 16") \
                   .replace("initial.kind = constant",
                            "initial.kind = bubble\ninitial.scale = 0.1\ninitial.px = nan")
        cfgpath = write_config(tmp_path, text)
        assert cli.main(["run", cfgpath, "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows", [
        ["1.0," * 15 + "1.0"] * 15 + ["1.0," * 15 + "one"],
        ["1.0," * 15 + "1.0"] * 15,
    ], ids=["non-numeric-cell", "15x16-on-16x16"])
    def test_malformed_coupling_file_exits_config(self, tmp_path, rows):
        (tmp_path / "f.csv").write_text("\n".join(rows) + "\n")
        text = NOOP.replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 16\ngrid.ny = 16") \
                   .replace("coupling.kind = constant",
                            "coupling.kind = custom-sampled\ncoupling.file = f.csv")
        cfgpath = write_config(tmp_path, text)
        assert cli.main(["run", cfgpath, "-o", str(tmp_path / "out")]) == cli.EXIT_CONFIG

    def test_determinism_byte_identical_ledgers(self, tmp_path):
        text = BUBBLE_LL.replace(
            "initial.kind = bubble\ninitial.px = 0.7\ninitial.py = 0.5\n"
            "initial.scale = 0.12",
            "initial.kind = perturbed\ninitial.amplitude = 0.05\ninitial.seed = 4") \
            .replace("flow.t_end = 0.0015", "flow.t_end = 0.0005")
        cfgpath = write_config(tmp_path, text)
        cli.main(["run", cfgpath, "-o", str(tmp_path / "a")])
        cli.main(["run", cfgpath, "-o", str(tmp_path / "b")])
        assert (tmp_path / "a" / "ledger.csv").read_bytes() \
            == (tmp_path / "b" / "ledger.csv").read_bytes()

    def test_measures_each_state_once(self, tmp_path, monkeypatch):
        # the report judges the closing ledger row instead of measuring the
        # final state again
        calls = []
        local_energies = diagnostics._local_energies

        def counted(*args, **kwargs):
            calls.append(1)
            return local_energies(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "_local_energies", counted)
        cfgpath = write_config(tmp_path, BUBBLE_LL)
        assert cli.main(["run", cfgpath, "-o", str(tmp_path / "out")]) == cli.EXIT_OK
        rows = (tmp_path / "out" / "ledger.csv").read_text().strip().split("\n")[1:]
        assert len(calls) == len(rows) > 1

    def test_snapshot_cadence_files(self, tmp_path):
        text = BUBBLE_LL.replace("flow.t_end = 0.0015", "flow.t_end = 0.0004") \
                        + "flow.snapshot_every = 3\n"
        cfgpath = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", cfgpath, "-o", str(out)]) == cli.EXIT_OK
        snaps = sorted(p.name for p in out.glob("snapshot_0*.bin"))
        assert snaps   # cadence snapshots written alongside the final one
        field = snapshots.read_snapshot(out / snaps[0])
        assert field.grid.nx == 32


class TestRelaxCommand:
    def test_perturbed_relax_converges(self, tmp_path):
        text = NOOP.replace("initial.kind = constant",
                            "initial.kind = perturbed\ninitial.amplitude = 0.02") \
                   + "relax.tol = 1e-8\n"
        cfgpath = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["relax", cfgpath, "-o", str(out)]) == cli.EXIT_OK
        history = (out / "relax_history.csv").read_text().strip().split("\n")
        assert history[0] == "step,ps_norm"
        assert float(history[-1].split(",")[1]) < 1e-8
        assert (out / "snapshot_final.bin").exists()

    def test_not_converged_exit(self, tmp_path):
        text = NOOP.replace("initial.kind = constant",
                            "initial.kind = great-circle") \
                   .replace("coupling.kind = constant",
                            "coupling.kind = cosine\ncoupling.ax = 0.25") \
                   + "relax.tol = 1e-13\nrelax.max_steps = 5\n"
        cfgpath = write_config(tmp_path, text)
        assert cli.main(["relax", cfgpath, "-o", str(tmp_path / "out")]) \
            == cli.EXIT_NOT_CONVERGED

    # max_steps = 0 makes the initial iterate the last one
    @pytest.mark.parametrize("max_steps", ["", "relax.max_steps = 0\n"],
                             ids=["default", "max_steps_0"])
    def test_nonfinite_defect_exits_blowup(self, tmp_path, capsys, max_steps):
        # f = 1e308 overflows the initial defect: a blow-up, not a slow relaxation
        text = NOOP.replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 16\ngrid.ny = 16") \
                   .replace("coupling.kind = constant",
                            "coupling.kind = constant\ncoupling.value = 1e308") \
                   .replace("initial.kind = constant",
                            "initial.kind = bubble\ninitial.scale = 0.1") + max_steps
        cfgpath = write_config(tmp_path, text)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["relax", cfgpath, "-o", str(out)]) == cli.EXIT_BLOWUP
        assert caught == []
        assert capsys.readouterr().err == ("error: blow-up under-resolved: non-finite "
                                           "velocity at node (0, 5), t = 0.0, step = 0\n")
        assert not (out / "snapshot_final.bin").exists()


class TestCheckCommand:
    def test_constant_setup_passes(self, tmp_path):
        cfgpath = write_config(tmp_path, NOOP)
        assert cli.main(["check", cfgpath, "-o", str(tmp_path / "out")]) == cli.EXIT_OK
        table = (tmp_path / "out" / "check_report.txt").read_text()
        for name in ("unit-norm", "gradient-check", "variation-formula",
                     "hopf-identity", "dissipation-identity"):
            assert name in table

    def test_great_circle_setup_passes(self, tmp_path):
        text = NOOP.replace("initial.kind = constant", "initial.kind = great-circle") \
                   .replace("grid.nx = 32", "grid.nx = 64") \
                   .replace("grid.ny = 32", "grid.ny = 64") \
                   .replace("coupling.kind = constant",
                            "coupling.kind = cosine\ncoupling.ax = 0.25\ncoupling.ay = 0.25")
        cfgpath = write_config(tmp_path, text)
        assert cli.main(["check", cfgpath, "-o", str(tmp_path / "out")]) == cli.EXIT_OK

    def test_corrupted_coupling_gradient_fails_gradient_row(self, grid64):
        # fault injection: a wrong stored gradient must trip the fd-vs-pairing row
        good = sf.make_coupling(grid64, "cosine-product",
                                {"base": 1.0, "ax": 0.25, "ay": 0.25})
        corrupted = sf.Coupling(grid64, "custom-sampled", good.values,
                                1.5 * good.grad_x + 0.3, good.grad_y)
        field = sf.great_circle_field(grid64, phase=0.3)
        results = checks.run_identity_checks(grid64, corrupted, field)
        by_name = {r.name: r for r in results}
        assert not by_name["gradient-check"].passed


class TestBlowupExperiment:
    def test_fresh_bubble_detected(self, tmp_path):
        cfgpath = write_config(tmp_path, BUBBLE_LL.replace("flow.t_end = 0.0015",
                                                           "flow.t_end = 0.0004"))
        out = tmp_path / "out"
        assert cli.main(["blowup-experiment", cfgpath, "-o", str(out)]) == cli.EXIT_OK
        report = (out / "report.txt").read_text()
        assert "detected = true" in report
        assert "initial_distance" in report and "final_distance" in report
        assert "drift_t" in report

    def test_collapse_stop_judges_the_peak_row(self, tmp_path):
        # the gradient flow shrinks a small bubble through the 48^2 grid: the
        # run stops on the collapse, whose closing row (t ~ 0.0154) no longer
        # holds the bubble energy, so the verdict is taken at the density
        # peak, the last resolved state (t ~ 0.0136)
        text = BUBBLE_LL.replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 48\ngrid.ny = 48") \
                        .replace("initial.scale = 0.12", "initial.scale = 0.05") \
                        .replace("flow.kind = landau-lifshitz", "flow.kind = gradient") \
                        .replace("flow.t_end = 0.0015", "flow.t_end = 0.1") \
                        .replace("flow.diagnostic_every = 10", "flow.diagnostic_every = 50") \
                        .replace("radii = 0.2, 0.1", "radii = 0.15, 0.1, 0.06") \
                        .replace("diagnostics.eps_conc = 4.0", "diagnostics.eps_conc = 6.0")
        cfgpath = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["blowup-experiment", cfgpath, "-o", str(out)]) == cli.EXIT_OK
        report = dict(line.split(" = ") for line in
                      (out / "report.txt").read_text().strip().split("\n"))
        assert report["stop_reason"] == "stopped"
        assert report["detected"] == "true"
        lines = (out / "ledger.csv").read_text().strip().split("\n")
        ledger = [dict(zip(lines[0].split(","), map(float, r.split(",")))) for r in lines[1:]]
        peak = max(ledger, key=lambda r: r["max_density"])
        assert peak is not ledger[-1]
        assert float(report["location_x"]) == peak["argmax_x"]
        assert float(report["location_y"]) == peak["argmax_y"]
        for k in (1, 2, 3):
            assert float(report[f"local_energy_{k}"]) == peak[f"local_E_r{k}"]
        # the closing row, the state after the collapse, still gives the final distance
        assert float(report["final_distance"]) == ledger[-1]["dist_to_crit"]

    def test_no_concentration_is_inconclusive(self, tmp_path):
        text = BUBBLE_LL.replace(
            "initial.kind = bubble\ninitial.px = 0.7\ninitial.py = 0.5\n"
            "initial.scale = 0.12",
            "initial.kind = constant") \
            .replace("flow.t_end = 0.0015", "flow.t_end = 0.0002")
        cfgpath = write_config(tmp_path, text)
        code = cli.main(["blowup-experiment", cfgpath, "-o", str(tmp_path / "out")])
        assert code == cli.EXIT_INCONCLUSIVE
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "detected = false" in report

    def test_constant_coupling_notes_everywhere_critical(self, tmp_path):
        text = BUBBLE_LL.replace("coupling.kind = cosine-product", "coupling.kind = constant") \
                        .replace("coupling.ax = 0.25\ncoupling.ay = 0.25\n", "") \
                        .replace("flow.t_end = 0.0015", "flow.t_end = 0.0002")
        cfgpath = write_config(tmp_path, text)
        code = cli.main(["blowup-experiment", cfgpath, "-o", str(tmp_path / "out")])
        assert code == cli.EXIT_OK
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "critical_set = everywhere" in report
        assert "initial_distance" not in report


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--version"])
        assert "spinflow" in capsys.readouterr().out
