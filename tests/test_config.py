import numpy as np
import pytest

from spinflow.config import ConfigError, parse_config

MINIMAL = """\
# minimal no-op run
grid.nx = 32
grid.ny = 32
grid.lx = 1.0
grid.ly = 1.0
coupling.kind = constant
initial.kind = constant
flow.kind = gradient
flow.t_end = 0.0
"""


class TestParsing:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.nx == 32
        assert cfg.coupling.is_constant
        assert cfg.flow.t_end == 0.0
        u = cfg.build_initial()
        assert np.all(u.values[..., 2] == 1.0)

    def test_comments_and_blanks(self):
        cfg = parse_config(MINIMAL + "\n# trailing comment\n\n")
        assert cfg.grid.ny == 32

    def test_inline_comment(self):
        cfg = parse_config(MINIMAL.replace("flow.t_end = 0.0",
                                           "flow.t_end = 0.5  # seconds"))
        assert cfg.flow.t_end == 0.5

    def test_unknown_key_names_line(self):
        bad = MINIMAL + "flow.speed = 3\n"
        with pytest.raises(ConfigError, match=r"line 10: unknown key 'flow.speed'"):
            parse_config(bad)

    def test_duplicate_key_cites_both_lines(self):
        bad = MINIMAL + "grid.nx = 64\n"
        with pytest.raises(ConfigError, match=r"line 10: duplicate key 'grid.nx' "
                                               r"\(first assigned at line 2\)"):
            parse_config(bad)

    def test_missing_section(self):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith("coupling"))
        with pytest.raises(ConfigError, match="missing required section 'coupling'"):
            parse_config(text)

    def test_missing_required_key(self):
        text = MINIMAL.replace("flow.t_end = 0.0", "flow.diagnostic_every = 2")
        with pytest.raises(ConfigError, match="missing required key 'flow.t_end'"):
            parse_config(text)

    def test_bad_value_type(self):
        bad = MINIMAL.replace("grid.nx = 32", "grid.nx = thirty")
        with pytest.raises(ConfigError, match="line 2: grid.nx"):
            parse_config(bad)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("grid nx 32\n")


class TestDomainValidation:
    def test_cosine_positivity_surfaces_at_parse_time(self):
        bad = MINIMAL.replace("coupling.kind = constant",
                              "coupling.kind = cosine\ncoupling.ax = 0.6\ncoupling.ay = 0.6")
        with pytest.raises(ConfigError, match="min f"):
            parse_config(bad)

    def test_grid_too_small(self):
        bad = MINIMAL.replace("grid.nx = 32", "grid.nx = 4")
        with pytest.raises(ConfigError, match="node counts"):
            parse_config(bad)

    def test_bubble_requires_scale(self):
        bad = MINIMAL.replace("initial.kind = constant", "initial.kind = bubble")
        with pytest.raises(ConfigError, match="initial.scale"):
            parse_config(bad)

    def test_bubble_scale_range(self):
        bad = MINIMAL.replace("initial.kind = constant",
                              "initial.kind = bubble\ninitial.scale = 0.4")
        with pytest.raises(ConfigError, match="initial.scale"):
            parse_config(bad)

    def test_unknown_initial_kind(self):
        bad = MINIMAL.replace("initial.kind = constant", "initial.kind = vortex")
        with pytest.raises(ConfigError, match="initial.kind"):
            parse_config(bad)

    def test_flow_validation_surfaces(self):
        bad = MINIMAL.replace("flow.kind = gradient",
                              "flow.kind = gradient\nflow.dt_policy = fixed")
        with pytest.raises(ConfigError, match="flow"):
            parse_config(bad)

    def test_underflowed_step_refused(self):
        # max f = 1e308 makes the CFL step 0.0, which never reaches t_end
        bad = MINIMAL.replace("coupling.kind = constant",
                              "coupling.kind = constant\ncoupling.value = 1e308") \
                     .replace("initial.kind = constant", "initial.kind = great-circle") \
                     .replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 16\ngrid.ny = 16") \
                     .replace("flow.t_end = 0.0", "flow.t_end = 1e-3")
        with pytest.raises(ConfigError, match="flow.t_end"):
            parse_config(bad)
        # with t_end = 0 no step is taken, so the run still reports the energy
        parse_config(bad.replace("flow.t_end = 1e-3", "flow.t_end = 0.0"))

    def test_radii_validated(self):
        bad = MINIMAL + "diagnostics.radii = 0.1, 0.2\n"
        with pytest.raises(ConfigError, match="diagnostics.radii"):
            parse_config(bad)

    def test_sampled_coupling_from_file(self, tmp_path):
        values = 1.0 + 0.2 * np.random.default_rng(0).random((32, 32))
        path = tmp_path / "f.csv"
        np.savetxt(path, values, delimiter=",")
        text = MINIMAL.replace("coupling.kind = constant",
                               "coupling.kind = custom-sampled\ncoupling.file = f.csv")
        cfg = parse_config(text, base_dir=str(tmp_path))
        assert cfg.coupling.kind == "custom-sampled"
        assert cfg.coupling.min_value > 1.0

    def test_sampled_requires_file(self):
        bad = MINIMAL.replace("coupling.kind = constant",
                              "coupling.kind = custom-sampled")
        with pytest.raises(ConfigError, match="coupling.file"):
            parse_config(bad)

    def test_missing_file(self, tmp_path):
        text = MINIMAL.replace("coupling.kind = constant",
                               "coupling.kind = custom-sampled\ncoupling.file = nope.csv")
        with pytest.raises(ConfigError, match="coupling.file"):
            parse_config(text, base_dir=str(tmp_path))

    def test_inapplicable_keys_rejected(self):
        cases = (
            ("coupling.kind = constant", "coupling.kind = constant\ncoupling.ax = 0.2"),
            ("initial.kind = constant", "initial.kind = constant\ninitial.scale = 0.1"),
            ("initial.kind = constant",
             "initial.kind = great-circle\ninitial.vx = 1.0"),
            ("flow.kind = gradient", "flow.kind = gradient\nflow.dt = 1e-5"),
        )
        for old, new in cases:
            with pytest.raises(ConfigError, match="not applicable"):
                parse_config(MINIMAL.replace(old, new))


class TestDefaults:
    def test_default_radii_above_resolution(self):
        cfg = parse_config(MINIMAL)
        floor = 2 * max(cfg.grid.hx, cfg.grid.hy)
        assert all(r > floor for r in cfg.radii)
        assert list(cfg.radii) == sorted(cfg.radii, reverse=True)

    def test_default_eps_conc(self):
        cfg = parse_config(MINIMAL)
        assert cfg.eps_conc == pytest.approx(0.3 * 8 * np.pi)

    def test_initial_kinds_build(self):
        for extra, check in (
            ("initial.kind = great-circle", None),
            ("initial.kind = perturbed\ninitial.amplitude = 0.01\ninitial.seed = 3", None),
            ("initial.kind = bubble\ninitial.scale = 0.1\ninitial.px = 0.7\ninitial.py = 0.5",
             None),
        ):
            text = MINIMAL.replace("initial.kind = constant", extra)
            cfg = parse_config(text)
            u = cfg.build_initial()
            assert u.max_norm_deviation <= 1e-12

    def test_build_initial_deterministic(self):
        text = MINIMAL.replace("initial.kind = constant",
                               "initial.kind = perturbed\ninitial.seed = 5")
        a = parse_config(text).build_initial()
        b = parse_config(text).build_initial()
        assert np.array_equal(a.values, b.values)
