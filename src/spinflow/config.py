"""Strict line-based run configuration.

Format: one `section.key = value` assignment per line; `#` starts a comment;
blank lines are ignored.  Unknown keys, duplicate keys, missing required
sections and out-of-range values are all hard errors that name the offending
line and key, so a typo cannot silently change an experiment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import diagnostics
from .domain import _KIND_ALIASES, Coupling, Grid, make_coupling, make_grid
from .field import SphereField, bubble_field, constant_field, great_circle_field, perturb
from .flow import _FLOW_KIND_ALIASES, FLOW_KINDS, FlowConfig, _step_budget, resolve_dt
from .relax import DEFAULT_SAFETY

REQUIRED_SECTIONS = ("grid", "coupling", "initial", "flow")


class ConfigError(ValueError):
    pass


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}")


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}")
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(_parse_float(p) for p in parts)


# key -> (parser, default); _REQUIRED means the key must be present
_REQUIRED = object()

_SCHEMA = {
    "grid.nx": (_parse_int, _REQUIRED),
    "grid.ny": (_parse_int, _REQUIRED),
    "grid.lx": (_parse_float, _REQUIRED),
    "grid.ly": (_parse_float, _REQUIRED),
    "coupling.kind": (str, _REQUIRED),
    "coupling.base": (_parse_float, 1.0),
    "coupling.ax": (_parse_float, 0.0),
    "coupling.ay": (_parse_float, 0.0),
    "coupling.value": (_parse_float, 1.0),
    "coupling.file": (str, None),
    "initial.kind": (str, _REQUIRED),
    "initial.vx": (_parse_float, 0.0),
    "initial.vy": (_parse_float, 0.0),
    "initial.vz": (_parse_float, 1.0),
    "initial.px": (_parse_float, None),
    "initial.py": (_parse_float, None),
    "initial.scale": (_parse_float, None),
    "initial.amplitude": (_parse_float, 0.01),
    "initial.seed": (_parse_int, 0),
    "initial.windings": (_parse_int, 1),
    "initial.axis": (str, "x"),
    "initial.phase": (_parse_float, 0.0),
    "flow.kind": (str, _REQUIRED),
    "flow.dt_policy": (str, "cfl"),
    "flow.dt": (_parse_float, None),
    "flow.safety": (_parse_float, 0.5),
    "flow.t_end": (_parse_float, _REQUIRED),
    "flow.snapshot_every": (_parse_int, 0),
    "flow.diagnostic_every": (_parse_int, 1),
    "flow.stationarity_tol": (_parse_float, None),
    "diagnostics.radii": (_parse_float_list, None),
    "diagnostics.eps_conc": (_parse_float, None),
    "relax.tol": (_parse_float, 1e-8),
    "relax.max_steps": (_parse_int, 200_000),
    "relax.safety": (_parse_float, DEFAULT_SAFETY),
    "experiment.collapse_fraction": (_parse_float, 0.5),
    "output.dir": (str, "out"),
    "output.field_csv": (_parse_bool, False),
    "output.heatmaps": (_parse_bool, True),
}

#: selector key -> {kind: the keys of the selector's section that it takes}.
#: A key that one kind takes is an error with any other kind; initial.seed is
#: in no list, so every initial kind accepts it.  The coupling keys are the
#: params of make_coupling, with `file` read into `values`.  A kind is looked
#: up under its canonical name (_ALIASES).
_KIND_KEYS = {
    "coupling.kind": {
        "constant": ("value",),
        "cosine-product": ("base", "ax", "ay"),
        "custom-sampled": ("file",),
    },
    "initial.kind": {
        "constant": ("vx", "vy", "vz"),
        "perturbed": ("vx", "vy", "vz", "amplitude"),
        "great-circle": ("windings", "axis", "phase"),
        "bubble": ("vx", "vy", "vz", "px", "py", "scale"),
    },
    "flow.dt_policy": {"cfl": ("safety",), "fixed": ("dt",)},
    "flow.kind": dict.fromkeys(FLOW_KINDS, ()),
}
_ALIASES = {"coupling.kind": _KIND_ALIASES, "flow.kind": _FLOW_KIND_ALIASES}

#: default probe radii as fractions of min(lx, ly)
_DEFAULT_RADII_FRACTIONS = (0.25, 0.125, 0.0625)


@dataclass
class RunConfig:
    """Validated run configuration with pre-built grid and coupling."""

    values: dict
    grid: Grid
    coupling: Coupling
    flow: FlowConfig
    radii: tuple[float, ...]
    eps_conc: float
    base_dir: str = "."
    lines: dict = dc_field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def build_initial(self) -> SphereField:
        """Construct the configured initial field."""
        v = self.values
        kind = v["initial.kind"]
        background = (v["initial.vx"], v["initial.vy"], v["initial.vz"])
        if kind == "constant":
            return constant_field(self.grid, background)
        if kind == "perturbed":
            base = constant_field(self.grid, background)
            return perturb(base, v["initial.amplitude"], v["initial.seed"])
        if kind == "great-circle":
            return great_circle_field(self.grid, windings=v["initial.windings"],
                                      axis=v["initial.axis"], phase=v["initial.phase"])
        # bubble: unless set explicitly, the background is the profile's own
        # far-field limit, which keeps the blend seamless
        if not any(k in self.lines for k in ("initial.vx", "initial.vy", "initial.vz")):
            background = (0.0, 0.0, -1.0)
        px = v["initial.px"] if v["initial.px"] is not None else self.grid.lx / 2.0
        py = v["initial.py"] if v["initial.py"] is not None else self.grid.ly / 2.0
        return bubble_field(self.grid, (px, py), v["initial.scale"], background)


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and validate configuration text; raise ConfigError on any defect."""
    assignments: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assignments:
            first_line = assignments[key][1]
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"(first assigned at line {first_line})")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        assignments[key] = (value, lineno)

    present_sections = {k.split(".", 1)[0] for k in assignments}
    for section in REQUIRED_SECTIONS:
        if section not in present_sections:
            raise ConfigError(f"missing required section {section!r}")

    values: dict = {}
    lines: dict[str, int] = {}
    for key, (parser, default) in _SCHEMA.items():
        if key in assignments:
            raw_value, lineno = assignments[key]
            lines[key] = lineno
            try:
                values[key] = parser(raw_value)
            except ValueError as err:
                raise ConfigError(f"line {lineno}: {key}: {err}")
        else:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default

    def fail(key: str, message: str):
        where = f"line {lines[key]}: " if key in lines else ""
        raise ConfigError(f"{where}{key}: {message}")

    for selector, kinds in _KIND_KEYS.items():
        kind = values[selector]
        takes = kinds.get(_ALIASES.get(selector, {}).get(kind, kind))
        if takes is None:
            fail(selector, f"must be one of {tuple(kinds)}, got {kind!r}")
        section = selector.split(".")[0]
        for name in (name for other in kinds.values() for name in other):
            if f"{section}.{name}" in lines and name not in takes:
                fail(f"{section}.{name}", f"not applicable with {selector} = {kind}")

    # grid
    try:
        grid = make_grid(values["grid.nx"], values["grid.ny"],
                         values["grid.lx"], values["grid.ly"])
    except ValueError as err:
        # a Grid error starts with the name of its field
        name, _, message = str(err).partition(" ")
        fail(f"grid.{name}", message)

    # coupling
    kind = values["coupling.kind"]
    names = _KIND_KEYS["coupling.kind"][_KIND_ALIASES[kind]]
    params = {name: values[f"coupling.{name}"] for name in names}
    if "file" in params:
        path = params.pop("file")
        if path is None:
            fail("coupling.kind", "custom-sampled coupling requires coupling.file")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        try:
            params["values"] = np.loadtxt(full, delimiter=",", ndmin=2)
        except (OSError, ValueError) as err:    # unreadable, or a cell is not a number
            fail("coupling.file", str(err))
    try:
        coupling = make_coupling(grid, kind, params)
    except ValueError as err:
        # under the first of the kind's keys that the file sets
        set_keys = [f"coupling.{name}" for name in names if f"coupling.{name}" in lines]
        fail((set_keys or ["coupling.kind"])[0], str(err))

    # initial data preconditions
    ikind = values["initial.kind"]
    background = np.array([values["initial.vx"], values["initial.vy"], values["initial.vz"]])
    if "vx" in _KIND_KEYS["initial.kind"][ikind] and not np.linalg.norm(background) > 0:
        fail("initial.kind", "background vector (vx, vy, vz) must be nonzero")
    if ikind == "bubble":
        scale = values["initial.scale"]
        if scale is None:
            fail("initial.kind", "bubble initial data requires initial.scale")
        lmin = min(grid.lx, grid.ly)
        if not 0 < scale < lmin / 4:
            fail("initial.scale", f"must lie in (0, {lmin / 4}), got {scale}")
    if values["initial.amplitude"] < 0:
        fail("initial.amplitude", f"must be >= 0, got {values['initial.amplitude']}")
    if values["initial.axis"] not in ("x", "y"):
        fail("initial.axis", f"must be 'x' or 'y', got {values['initial.axis']!r}")

    # flow
    try:
        # every other flow.<name> key is the FlowConfig field of that name
        flow = FlowConfig(flow_kind=values["flow.kind"],
                          **{key[len("flow."):]: value for key, value in values.items()
                             if key.startswith("flow.") and key != "flow.kind"})
    except ValueError as err:
        # a FlowConfig error starts with the name of its field; a bad
        # selector (flow.kind, flow.dt_policy) was reported above
        name, _, message = str(err).partition(" ")
        fail(f"flow.{name}", message)
    try:
        # a CFL step that underflows to 0 (a huge max f) would never reach t_end
        _step_budget(flow.t_end, resolve_dt(grid, coupling, flow))
    except ValueError as err:
        fail("flow.t_end", str(err))

    # diagnostics
    radii = values["diagnostics.radii"]
    if radii is None:
        lmin = min(grid.lx, grid.ly)
        floor = diagnostics.min_resolvable_radius(grid)
        radii = tuple(fr * lmin for fr in _DEFAULT_RADII_FRACTIONS if fr * lmin > 1.02 * floor)
        if not radii:
            radii = (0.45 * lmin,)
    try:
        radii = diagnostics.validate_radii(grid, radii)
    except ValueError as err:
        fail("diagnostics.radii", str(err))
    eps_conc = values["diagnostics.eps_conc"]
    if eps_conc is None:
        eps_conc = diagnostics.DEFAULT_EPS_CONC_FRACTION * diagnostics.BUBBLE_ENERGY
    elif eps_conc <= 0:
        fail("diagnostics.eps_conc", f"must be positive, got {eps_conc}")

    if not values["relax.tol"] > 0:
        fail("relax.tol", f"must be positive, got {values['relax.tol']}")
    if values["relax.max_steps"] < 0:
        fail("relax.max_steps", f"must be >= 0, got {values['relax.max_steps']}")
    if not 0 < values["relax.safety"] <= 1:
        fail("relax.safety", f"must lie in (0, 1], got {values['relax.safety']}")
    if not 0 < values["experiment.collapse_fraction"] < 1:
        fail("experiment.collapse_fraction",
             f"must lie in (0, 1), got {values['experiment.collapse_fraction']}")

    return RunConfig(values=values, grid=grid, coupling=coupling, flow=flow,
                     radii=radii, eps_conc=float(eps_conc), base_dir=base_dir,
                     lines=lines)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    return parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
