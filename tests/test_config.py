import re
from pathlib import Path

import numpy as np
import pytest

from spinflow.config import _ALIASES, _KIND_KEYS, _SCHEMA, ConfigError, parse_config

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
        assert np.all(u.values[2] == 1.0)

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
        with pytest.raises(ConfigError, match="line 2: grid.nx: must be >= 8, got 4"):
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


#: the contract of the kind selectors, written out independently of the
#: parser: selector -> {kind: {key the kind takes: a valid value}}.
#: initial.seed is in no list: every initial kind accepts it.
TAKES = {
    "coupling.kind": {
        "constant": {"coupling.value": "1.5"},
        "cosine-product": {"coupling.base": "1.0", "coupling.ax": "0.2", "coupling.ay": "0.1"},
        "custom-sampled": {"coupling.file": "f.csv"},
    },
    "initial.kind": {
        "constant": {"initial.vx": "0.0", "initial.vy": "1.0", "initial.vz": "1.0"},
        "perturbed": {"initial.vx": "0.0", "initial.vy": "1.0", "initial.vz": "1.0",
                      "initial.amplitude": "0.02"},
        "great-circle": {"initial.windings": "2", "initial.axis": "y", "initial.phase": "0.3"},
        "bubble": {"initial.vx": "0.0", "initial.vy": "0.0", "initial.vz": "-1.0",
                   "initial.px": "0.4", "initial.py": "0.6", "initial.scale": "0.1"},
    },
    "flow.dt_policy": {"cfl": {"flow.safety": "0.4"}, "fixed": {"flow.dt": "1e-5"}},
}
#: keys a kind cannot do without
NEEDS = {("coupling.kind", "custom-sampled"): ("coupling.file",),
         ("initial.kind", "bubble"): ("initial.scale",),
         ("flow.dt_policy", "fixed"): ("flow.dt",)}
ALIASES = {"cosine": "cosine-product", "sampled": "custom-sampled"}

BASE = {"grid.nx": "32", "grid.ny": "32", "grid.lx": "1.0", "grid.ly": "1.0",
        "coupling.kind": "constant", "initial.kind": "constant", "flow.kind": "gradient",
        "flow.t_end": "0.0"}


def _selected(selector, kind):
    """BASE with `kind` selected, plus the keys that kind needs."""
    canonical = ALIASES.get(kind, kind)
    assignments = dict(BASE, **{selector: kind})
    for key in NEEDS.get((selector, canonical), ()):
        assignments[key] = TAKES[selector][canonical][key]
    return assignments


def _render(assignments):
    return "".join(f"{key} = {value}\n" for key, value in assignments.items())


@pytest.fixture
def sampled_dir(tmp_path):
    np.savetxt(tmp_path / "f.csv", 1.0 + 0.2 * np.random.default_rng(0).random((32, 32)),
               delimiter=",")
    return str(tmp_path)


def _kinds(selector):
    kinds = list(TAKES[selector])
    if selector == "coupling.kind":
        kinds += list(ALIASES)
    return kinds


def _foreign_cases():
    for selector, kinds in TAKES.items():
        for kind in _kinds(selector):
            own = TAKES[selector][ALIASES.get(kind, kind)]
            foreign = {k: v for other in kinds.values() for k, v in other.items()
                       if k not in own}
            for key, value in foreign.items():
                yield selector, kind, key, value


class TestApplicability:
    @pytest.mark.parametrize("selector,kind,key,value", list(_foreign_cases()))
    def test_key_of_another_kind_rejected(self, sampled_dir, selector, kind, key, value):
        assignments = _selected(selector, kind)
        assignments[key] = value
        lineno = len(assignments)
        with pytest.raises(ConfigError,
                           match=rf"^line {lineno}: {re.escape(key)}: not applicable"):
            parse_config(_render(assignments), base_dir=sampled_dir)

    @pytest.mark.parametrize("selector,kind",
                             [(s, k) for s in TAKES for k in _kinds(s)])
    def test_keys_of_the_selected_kind_accepted(self, sampled_dir, selector, kind):
        assignments = _selected(selector, kind)
        assignments.update(TAKES[selector][ALIASES.get(kind, kind)])
        if selector == "initial.kind":
            assignments["initial.seed"] = "3"
        cfg = parse_config(_render(assignments), base_dir=sampled_dir)
        assert cfg.build_initial().max_norm_deviation <= 1e-12

    @pytest.mark.parametrize("selector", list(TAKES))
    def test_unknown_kind_names_selector_and_line(self, selector):
        assignments = dict(BASE)
        assignments[selector] = "vortex"
        lineno = list(assignments).index(selector) + 1
        with pytest.raises(ConfigError, match=rf"line {lineno}: .*{re.escape(selector)}"
                                              r".*'vortex'"):
            parse_config(_render(assignments))


class TestMalformedCouplingFile:
    @pytest.mark.parametrize("write", [
        lambda path: path.write_text("\n".join(",".join(["1.0"] * 16) for _ in range(15))
                                     + "\n" + ",".join(["1.0"] * 15 + ["one"]) + "\n"),
        lambda path: np.savetxt(path, np.ones((15, 16)), delimiter=","),
        lambda path: np.savetxt(path, np.ones((16, 1)), delimiter=","),
    ], ids=["non-numeric-cell", "15x16-on-16x16", "16x1-on-16x16"])
    def test_config_error(self, tmp_path, write):
        write(tmp_path / "f.csv")
        assignments = dict(BASE, **{"grid.nx": "16", "grid.ny": "16",
                                    "coupling.kind": "custom-sampled",
                                    "coupling.file": "f.csv"})
        with pytest.raises(ConfigError, match=r"line \d+: coupling\.(file|kind): "):
            parse_config(_render(assignments), base_dir=str(tmp_path))


#: coupling assignments whose values make_coupling refuses, and the key the
#: error must name: the kind's own key set in the file, with its line
COUPLING_ERRORS = [
    ({"coupling.value": "0.0"}, "coupling.value"),
    ({"coupling.value": "-1.0"}, "coupling.value"),
    ({"coupling.kind": "cosine", "coupling.ax": "0.6", "coupling.ay": "0.6"}, "coupling.ax"),
    ({"coupling.kind": "custom-sampled", "coupling.file": "zero.csv"}, "coupling.file"),
]


@pytest.mark.parametrize("coupling,key", COUPLING_ERRORS,
                         ids=["constant-0", "constant-minus-1", "cosine-over-amplitude",
                              "sampled-zero-cell"])
def test_coupling_error_names_the_kinds_own_key(tmp_path, coupling, key):
    values = np.ones((16, 16))
    values[3, 5] = 0.0
    np.savetxt(tmp_path / "zero.csv", values, delimiter=",")
    assignments = dict(BASE, **{"grid.nx": "16", "grid.ny": "16"}, **coupling)
    lineno = list(assignments).index(key) + 1
    with pytest.raises(ConfigError, match=rf"^line {lineno}: {re.escape(key)}: "):
        parse_config(_render(assignments), base_dir=str(tmp_path))


#: (selector line, key, non-finite value) on a 16^2 grid
NON_FINITE = [
    ("initial.kind = bubble\ninitial.scale = 0.1", "initial.px", "nan"),
    ("initial.kind = bubble\ninitial.scale = 0.1", "initial.px", "inf"),
    ("initial.kind = perturbed", "initial.amplitude", "nan"),
    ("initial.kind = great-circle", "initial.phase", "inf"),
    ("initial.kind = constant", "diagnostics.radii", "nan"),
    ("initial.kind = constant", "diagnostics.eps_conc", "nan"),
]


class TestNonFinite:
    @pytest.mark.parametrize("initial,key,value", NON_FINITE,
                             ids=[f"{k}={v}" for _, k, v in NON_FINITE])
    def test_rejected_with_line_and_key(self, initial, key, value):
        text = MINIMAL.replace("grid.nx = 32\ngrid.ny = 32", "grid.nx = 16\ngrid.ny = 16") \
                      .replace("initial.kind = constant", initial) + f"{key} = {value}\n"
        lineno = len(text.splitlines())
        with pytest.raises(ConfigError,
                           match=rf"^line {lineno}: {re.escape(key)}: .*finite"):
            parse_config(text)


def _readme_configuration_rows():
    """The (Key, Meaning) cells of each row of the README configuration table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return [row.split("|")[1:3] for row in section.splitlines() if row.startswith("| `")]


def test_readme_configuration_table_names_every_key():
    keys = set()
    for key_cell, _ in _readme_configuration_rows():
        keys.update(re.findall(r"`([a-z]+\.[a-z_]+)`", key_cell))
    assert keys == set(_SCHEMA)


def test_readme_configuration_table_names_every_choice():
    # the backticked values without a dot in a selector's Meaning column are
    # its kinds and their aliases
    meanings = {key.strip(" `"): meaning for key, meaning in _readme_configuration_rows()}
    for selector, kinds in _KIND_KEYS.items():
        aliases = _ALIASES.get(selector, {})
        values = [v for v in re.findall(r"`([^`]+)`", meanings[selector]) if "." not in v]
        assert {aliases.get(v, v) for v in values} == set(kinds), selector


@pytest.mark.parametrize("key, value, choices", [
    ("flow.kind", "foo", "('gradient', 'landau_lifshitz')"),
])
def test_flow_choice_error_names_line_key_and_value(key, value, choices):
    assignments = dict(BASE, **{key: value})
    lineno = list(assignments).index(key) + 1
    with pytest.raises(ConfigError, match=rf"^line {lineno}: {re.escape(key)}: must be one of "
                                          rf"{re.escape(choices)}, got '{value}'$"):
        parse_config(_render(assignments))


def test_removed_integrator_key_is_unknown():
    # forward Euler is the only integrator, so the key that chose one is gone
    assignments = dict(BASE, **{"flow.integrator": "euler"})
    with pytest.raises(ConfigError, match=rf"^line {len(assignments)}: "
                                          r"unknown key 'flow.integrator'$"):
        parse_config(_render(assignments))


#: (key, value, the value as the error shows it, other keys the case sets)
FLOW_RANGE = [
    ("flow.safety", "2", "2.0", {}),
    ("flow.dt", "0", "0.0", {"flow.dt_policy": "fixed"}),
    ("flow.t_end", "-1", "-1.0", {}),
    ("flow.snapshot_every", "-1", "-1", {}),
    ("flow.diagnostic_every", "0", "0", {}),
    ("flow.stationarity_tol", "-1e-3", "-0.001", {}),
]


@pytest.mark.parametrize("key, value, shown, extra", FLOW_RANGE,
                         ids=[f"{k}={v}" for k, v, _, _ in FLOW_RANGE])
def test_flow_range_error_names_line_key_and_value(key, value, shown, extra):
    assignments = dict(BASE, **extra, **{key: value})
    lineno = list(assignments).index(key) + 1
    with pytest.raises(ConfigError, match=rf"^line {lineno}: {re.escape(key)}: must [^:]*, "
                                          rf"got {re.escape(shown)}$"):
        parse_config(_render(assignments))


#: (key, value, the value as the error shows it, other keys the case sets)
RANGE = [
    ("grid.nx", "4", "4", {}),
    ("grid.ny", "7", "7", {}),
    ("grid.lx", "-1", "-1.0", {}),
    ("grid.ly", "0", "0.0", {}),
    ("relax.tol", "0", "0.0", {}),
    ("relax.max_steps", "-1", "-1", {}),
    ("relax.safety", "2", "2.0", {}),
    ("experiment.collapse_fraction", "1", "1.0", {}),
    ("diagnostics.eps_conc", "-1", "-1.0", {}),
    ("initial.amplitude", "-0.5", "-0.5", {"initial.kind": "perturbed"}),
    ("initial.axis", "z", "'z'", {"initial.kind": "great-circle"}),
]


@pytest.mark.parametrize("key, value, shown, extra", RANGE,
                         ids=[f"{k}={v}" for k, v, _, _ in RANGE])
def test_range_error_names_line_key_and_value(key, value, shown, extra):
    assignments = dict(BASE, **extra, **{key: value})
    lineno = list(assignments).index(key) + 1
    with pytest.raises(ConfigError, match=rf"^line {lineno}: {re.escape(key)}: must [^:]*, "
                                          rf"got {re.escape(shown)}$"):
        parse_config(_render(assignments))
