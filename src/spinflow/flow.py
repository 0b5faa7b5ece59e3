"""Time integration of the weighted flows with sphere-constraint projection.

Explicit stepping (forward Euler by default, classical Runge-Kutta as a
variant) followed by nodewise renormalization.  The time step either is fixed
or follows the explicit-diffusion stability bound for the dominant diffusion
term, dt = safety * min(hx, hy)^2 / (4 max f).

Along both flows the weighted energy E = sum f |grad u|^2 dA dissipates; the
discrete dissipation identity  E(t1) - E(t2) ~ c * int |du/dt|^2 dt  holds
with c = 2 for the gradient flow and c = 1 for the Landau-Lifshitz flow
(the velocity of the latter satisfies |v|^2 = 2 |F|^2).

Inside the stepping loops the field is a component-major (3, nx, ny) array
(the layout of the operators kernel); it is converted once on entry and back
to a node-major SphereField only where one leaves the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .domain import Coupling, Grid, critical_points
from .field import SphereField
from .operators import FLOW_KINDS, TangentField, _dot, _node_major, _rhs_arrays

DT_POLICIES = ("fixed", "cfl")
INTEGRATORS = ("euler", "rk4")

#: default stationarity threshold is this factor times the domain area
STATIONARITY_FACTOR = 1e-8

_FLOW_KIND_ALIASES = {
    "gradient": "gradient",
    "landau_lifshitz": "landau_lifshitz",
    "landau-lifshitz": "landau_lifshitz",
    "ll": "landau_lifshitz",
}


class BlowUpError(RuntimeError):
    """Velocity became non-finite: the concentration is no longer resolved
    by the grid.  Carries the offending node and any partial results."""

    def __init__(self, message: str, node: tuple[int, int] | None = None,
                 t: float = 0.0, step: int = 0, ledger=None, state=None):
        super().__init__(message)
        self.node = node
        self.t = t
        self.step = step
        self.ledger = ledger
        self.state = state


@dataclass(frozen=True)
class FlowConfig:
    flow_kind: str = "gradient"
    dt_policy: str = "cfl"
    dt: float | None = None                 # required for dt_policy == "fixed"
    safety: float | None = 0.5              # required for dt_policy == "cfl"
    t_end: float = 0.0
    snapshot_every: int = 0                 # 0 disables snapshots
    diagnostic_every: int = 1
    integrator: str = "euler"
    stationarity_tol: float | None = None   # None: STATIONARITY_FACTOR * area

    def __post_init__(self):
        kind = _FLOW_KIND_ALIASES.get(self.flow_kind)
        if kind is None:
            raise ValueError(f"flow_kind must be one of {FLOW_KINDS}, got {self.flow_kind!r}")
        object.__setattr__(self, "flow_kind", kind)
        if self.dt_policy not in DT_POLICIES:
            raise ValueError(f"dt_policy must be one of {DT_POLICIES}, got {self.dt_policy!r}")
        if self.dt_policy == "fixed":
            if self.dt is None or not self.dt > 0:
                raise ValueError(f"fixed dt policy requires dt > 0, got {self.dt}")
        else:
            if self.safety is None or not 0.0 < self.safety <= 1.0:
                raise ValueError(f"cfl safety must lie in (0, 1], got {self.safety}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.snapshot_every < 0 or self.diagnostic_every < 1:
            raise ValueError("snapshot_every must be >= 0 and diagnostic_every >= 1")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if self.stationarity_tol is not None and self.stationarity_tol < 0:
            raise ValueError("stationarity_tol must be >= 0")


@dataclass(frozen=True)
class FlowState:
    field: SphereField
    t: float = 0.0
    step: int = 0
    last_velocity: TangentField | None = None


@dataclass(frozen=True)
class EvolveResult:
    state: FlowState
    ledger: "diagnostics.DiagnosticsLedger"
    reason: str        # "t_end" | "stationary" | "stopped"


def cfl_dt(grid: Grid, coupling: Coupling, safety: float) -> float:
    """Stable explicit time step safety * min(hx, hy)^2 / (4 max f)."""
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"cfl safety must lie in (0, 1], got {safety}")
    h = min(grid.hx, grid.hy)
    return safety * h * h / (4.0 * coupling.max_value)


def resolve_dt(grid: Grid, coupling: Coupling, config: FlowConfig) -> float:
    if config.dt_policy == "fixed":
        return float(config.dt)
    return cfl_dt(grid, coupling, config.safety)


def stationarity_tol(grid: Grid, config: FlowConfig) -> float:
    if config.stationarity_tol is not None:
        return float(config.stationarity_tol)
    return STATIONARITY_FACTOR * grid.area


def dissipation_coefficient(flow_kind: str) -> float:
    """c in E(t1) - E(t2) = c * int |du/dt|^2_{L2} dt (convention E = int f|grad u|^2)."""
    kind = _FLOW_KIND_ALIASES.get(flow_kind)
    if kind == "gradient":
        return 2.0
    if kind == "landau_lifshitz":
        return 1.0
    raise ValueError(f"unknown flow kind {flow_kind!r}")


def _component_major(field: SphereField) -> np.ndarray:
    return np.ascontiguousarray(field.values.transpose(2, 0, 1))


def _sphere_field(grid: Grid, u: np.ndarray) -> SphereField:
    return SphereField(grid, u.transpose(1, 2, 0))


def _raise_blowup(bad_values: np.ndarray, what: str, t: float, nstep: int):
    """Raise BlowUpError at the first non-finite (i, j) node of a
    component-major array."""
    bad = ~np.isfinite(bad_values)
    if bad.ndim == 3:
        bad = bad.any(axis=0)
    node = tuple(int(k) for k in np.argwhere(bad)[0]) if bad.any() else None
    raise BlowUpError(
        f"blow-up under-resolved: non-finite {what} at node {node}, t = {t}, step = {nstep}",
        node=node, t=t, step=nstep)


def _project_unit(w: np.ndarray, t: float, nstep: int) -> np.ndarray:
    """Normalise each node of the component-major w in place and return it."""
    norms = np.sqrt(_dot(w, w))
    if not (norms.min() > 0.0 and math.isfinite(norms.max())):   # NaN fails both
        ok = np.isfinite(norms) & (norms > 0.0)
        node = tuple(int(k) for k in np.argwhere(~ok)[0])
        raise BlowUpError(
            f"blow-up under-resolved: renormalization failed at node {node}, "
            f"t = {t}, step = {nstep}", node=node, t=t, step=nstep)
    w /= norms
    return w


def _start_of_step(u: np.ndarray, grid: Grid, coupling: Coupling,
                   config: FlowConfig, t: float, nstep: int):
    """Velocity, defect, |grad u|^2 and int |v|^2 at the step start, with the
    non-finite-velocity blow-up check.  A non-finite entry makes the sum
    non-finite, so the nodewise scan runs only when the sum is."""
    v, F, gsq = _rhs_arrays(u, grid.hx, grid.hy, coupling, config.flow_kind)
    v_sq = float(np.einsum("ijk,ijk->", v, v) * grid.cell_area)
    if not math.isfinite(v_sq) and not np.all(np.isfinite(v)):
        _raise_blowup(v, "velocity", t, nstep)
    return v, F, gsq, v_sq


def _apply_step(u: np.ndarray, v: np.ndarray, dt: float, grid: Grid,
                coupling: Coupling, config: FlowConfig, t: float, nstep: int) -> np.ndarray:
    """Apply one accepted step from the precomputed start velocity."""
    hx, hy = grid.hx, grid.hy
    if config.integrator == "euler":
        incr = v
    else:
        k2, _, _ = _rhs_arrays(u + (0.5 * dt) * v, hx, hy, coupling, config.flow_kind)
        k3, _, _ = _rhs_arrays(u + (0.5 * dt) * k2, hx, hy, coupling, config.flow_kind)
        k4, _, _ = _rhs_arrays(u + dt * k3, hx, hy, coupling, config.flow_kind)
        incr = (v + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not np.all(np.isfinite(incr)):
            _raise_blowup(incr, "velocity", t, nstep)
    if not incr.any():
        # exact stationary point: keep the state bitwise unchanged
        return u
    with np.errstate(over="ignore", invalid="ignore"):
        # overflow here is the under-resolved blow-up signature; the
        # projection guard below turns it into a structured error
        return _project_unit(u + dt * incr, t, nstep)


def step(state: FlowState, coupling: Coupling, config: FlowConfig) -> FlowState:
    """Advance one explicit step u <- Pi(u + dt v) with nodewise renormalization.

    Raises BlowUpError carrying the offending node if the velocity is
    non-finite (the configured motion is no longer resolved by the grid).
    """
    grid = state.field.grid
    dt = resolve_dt(grid, coupling, config)
    u = _component_major(state.field)
    try:
        v, _, _, _ = _start_of_step(u, grid, coupling, config, state.t, state.step)
        u_new = _apply_step(u, v, dt, grid, coupling, config, state.t, state.step)
    except BlowUpError as err:
        err.state = state
        raise
    field = state.field if u_new is u else _sphere_field(grid, u_new)
    return FlowState(field=field, t=state.t + dt, step=state.step + 1,
                     last_velocity=TangentField(grid, _node_major(v)))


def evolve(initial: SphereField, coupling: Coupling, config: FlowConfig, *,
           radii: tuple[float, ...] = (),
           snapshot_sink=None, diagnostic_sink=None, stop_when=None) -> EvolveResult:
    """Run the configured flow from `initial` until t_end, stationarity
    (|v|_{L2} below the configured tolerance), or a stop callback.

    A diagnostics row is recorded every diagnostic_every steps, measured
    before the step it precedes so the recorded velocity is the one that
    advances the state; a final row for the terminal state closes the ledger.
    t_end = 0 performs no steps and returns the initial state with its one
    row, the same row a longer run records first.  On blow-up the raised
    BlowUpError carries the partial ledger and last valid state.
    """
    grid = initial.grid
    dt = resolve_dt(grid, coupling, config)
    tol = stationarity_tol(grid, config)
    crit = critical_points(coupling)
    ledger = diagnostics.DiagnosticsLedger(radii=tuple(radii))
    u = _component_major(initial)
    moved = False    # a flag, so that no copy of the initial array stays alive
    t = 0.0
    nstep = 0
    reason = "t_end"

    def record_row(v_sq: float, F: np.ndarray, gsq: np.ndarray):
        ps = float(np.sqrt(np.einsum("ijk,ijk->", F, F) * grid.cell_area))
        row = diagnostics.measure_row(grid, coupling, gsq, t=t, v_norm_sq=v_sq,
                                      ps_norm=ps, radii=ledger.radii, crit=crit)
        ledger.append(row)
        if diagnostic_sink is not None:
            diagnostic_sink(row)
        return row

    while t < config.t_end:
        try:
            v, F, gsq, v_sq = _start_of_step(u, grid, coupling, config, t, nstep)
            if nstep % config.diagnostic_every == 0:
                row = record_row(v_sq, F, gsq)
                if stop_when is not None and stop_when(row):
                    reason = "stopped"
                    break
            if v_sq < tol * tol:
                reason = "stationary"
                break
            u_next = _apply_step(u, v, dt, grid, coupling, config, t, nstep)
            moved = moved or u_next is not u
            u = u_next
        except BlowUpError as err:
            err.ledger = ledger
            err.state = FlowState(_sphere_field(grid, u), t=t, step=nstep)
            raise
        t += dt
        nstep += 1
        if config.snapshot_every and nstep % config.snapshot_every == 0 and snapshot_sink:
            snapshot_sink(FlowState(_sphere_field(grid, u), t=t, step=nstep))

    if not ledger.rows or ledger.rows[-1].t < t:
        # close the ledger with the terminal state
        v, F, gsq = _rhs_arrays(u, grid.hx, grid.hy, coupling, config.flow_kind)
        v_sq = float(np.einsum("ijk,ijk->", v, v) * grid.cell_area)
        record_row(v_sq, F, gsq)
    field = _sphere_field(grid, u) if moved else initial
    return EvolveResult(state=FlowState(field=field, t=t, step=nstep), ledger=ledger,
                        reason=reason)
