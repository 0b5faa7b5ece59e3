"""Time integration of the weighted flows with sphere-constraint projection.

Explicit forward Euler stepping followed by nodewise renormalization.  The
time step either is fixed or follows the explicit-diffusion stability bound
for the dominant diffusion term, dt = safety * min(hx, hy)^2 / (4 max f).

Along both flows the weighted energy E = sum f |grad u|^2 dA dissipates; the
discrete dissipation identity  E(t1) - E(t2) ~ c * int |du/dt|^2 dt  holds
with c = 2 for the gradient flow and c = 1 for the Landau-Lifshitz flow
(the velocity of the latter satisfies |v|^2 = 2 |F|^2).

`step`, `evolve` and `relax` share one stepping loop on an integer step
budget, t = t0 + n dt.  Inside it the field is the bare (3, nx, ny) array
of SphereField values, wrapped as a SphereField only where one leaves the
loop.  Each run makes one workspace, which records the array operations of
the right-hand side and of the Euler update when it is made and holds the
run's dt; every step replays them, forming |grad u|^2 only for a ledger
row.  The initial values are copied once into one of two padded state
buffers, and the states alternate between the two.

A run of more than one step on a grid of at least operators.TEAM_NODES
nodes, in a process with one thread and two CPUs in its affinity mask, is
stepped by two processes: the workspace lives in shared memory, the main
process replays the first half of the x-rows of each plan and a worker
forked for the run the second half, each renormalising its own rows.  The
main process alone forms int |v|^2, scans for a blow-up, checks the norms,
tests for an exact stationary point and measures every ledger row, on the
whole arrays once both halves are written.  The worker is killed when the
run ends.  `taskset -c 0` (one CPU) gives a run of one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .domain import Coupling, Grid, critical_points
from .field import SphereField
from .operators import TangentField, _rhs_arrays, _team_size, _Workspace

DT_POLICIES = ("fixed", "cfl")

#: default stationarity threshold is this factor times the domain area
STATIONARITY_FACTOR = 1e-8

_FLOW_KIND_ALIASES = {
    "gradient": "gradient",
    "landau_lifshitz": "landau_lifshitz",
    "landau-lifshitz": "landau_lifshitz",
    "ll": "landau_lifshitz",
}

#: flow kind -> c of its dissipation identity (see the module docstring)
_DISSIPATION = {"gradient": 2.0, "landau_lifshitz": 1.0}

FLOW_KINDS = tuple(_DISSIPATION)


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
    stationarity_tol: float | None = None   # None: STATIONARITY_FACTOR * area

    def __post_init__(self):
        # every error starts with its field's name: config reports it under that key
        kind = _FLOW_KIND_ALIASES.get(self.flow_kind)
        if kind is None:
            raise ValueError(f"flow_kind must be one of {FLOW_KINDS}, got {self.flow_kind!r}")
        object.__setattr__(self, "flow_kind", kind)
        if self.dt_policy not in DT_POLICIES:
            raise ValueError(f"dt_policy must be one of {DT_POLICIES}, got {self.dt_policy!r}")
        if self.dt_policy == "fixed":
            if self.dt is None or not self.dt > 0:
                raise ValueError(f"dt must be > 0 with dt_policy fixed, got {self.dt}")
        elif self.safety is None or not 0.0 < self.safety <= 1.0:
            raise ValueError(f"safety must lie in (0, 1], got {self.safety}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.snapshot_every < 0:
            raise ValueError(f"snapshot_every must be >= 0, got {self.snapshot_every}")
        if self.diagnostic_every < 1:
            raise ValueError(f"diagnostic_every must be >= 1, got {self.diagnostic_every}")
        if self.stationarity_tol is not None and self.stationarity_tol < 0:
            raise ValueError(f"stationarity_tol must be >= 0, got {self.stationarity_tol}")


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


def dissipation_coefficient(flow_kind: str) -> float:
    """c in E(t1) - E(t2) = c * int |du/dt|^2_{L2} dt (convention E = int f|grad u|^2)."""
    c = _DISSIPATION.get(_FLOW_KIND_ALIASES.get(flow_kind))
    if c is None:
        raise ValueError(f"unknown flow kind {flow_kind!r}")
    return c


def _sphere_field(like: SphereField, u: np.ndarray) -> SphereField:
    """u as a SphereField on the grid of `like`; `like` itself while u still
    holds its values (no step moved the state)."""
    if np.array_equal(u, like.values):
        return like
    return SphereField(like.grid, u)


def _raise_blowup(bad: np.ndarray, failure: str, t: float, nstep: int):
    """Raise BlowUpError for `failure` at the first (i, j) node set in the mask `bad`."""
    node = tuple(int(k) for k in np.argwhere(bad)[0])
    raise BlowUpError(
        f"blow-up under-resolved: {failure} at node {node}, t = {t}, step = {nstep}",
        node=node, t=t, step=nstep)


def _check_velocity(v: np.ndarray, v_sq: float, t: float, nstep: int) -> None:
    """Raise BlowUpError at the first node where v is not finite; v_sq =
    int |v|^2 is then not finite either, so only then are the nodes scanned."""
    if not math.isfinite(v_sq) and not np.all(np.isfinite(v)):
        _raise_blowup(~np.isfinite(v).all(axis=0), "non-finite velocity", t, nstep)


def _project_unit(w: np.ndarray, t: float, nstep: int, norms: np.ndarray) -> np.ndarray:
    """Check the norms |w| in `norms` by which the step divided each node of
    w, and return w: a norm that is zero or not finite is a blow-up."""
    if not (norms.min() > 0.0 and math.isfinite(norms.max())):   # NaN fails both
        _raise_blowup(~(np.isfinite(norms) & (norms > 0.0)), "renormalization failed", t, nstep)
    return w


def _apply_step(u: np.ndarray, v_sq: float, t: float, nstep: int, ws: _Workspace) -> np.ndarray:
    """Apply one Euler step u + dt v with the velocity v of the last
    evaluation in `ws` and v_sq = int |v|^2, and return the new state: u
    itself at an exact stationary point, else the state buffer of `ws` that
    does not hold u, so u stays the last valid state if this fails.  The
    parts of the step plan each renormalise their own x-rows; the norms
    are checked here, on all of them."""
    # v_sq > 0 already shows that v is not zero
    if not v_sq > 0 and not ws.velocity.any():
        # exact stationary point: keep the state bitwise unchanged
        return u
    i = ws.index(u)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # overflow here is the under-resolved blow-up signature; the
        # projection guard turns it into a structured error
        ws.team.run(ws.step[i])
    return _project_unit(ws.states[1 - i], t, nstep, ws.d)


def _step_budget(t_end: float, dt: float) -> int:
    """The smallest n with n * dt >= t_end, so a run ends less than dt past t_end."""
    if t_end <= 0:
        return 0
    if not dt > 0 or not math.isfinite(t_end / dt):
        raise ValueError(f"t_end = {t_end} cannot be reached in steps of dt = {dt}")
    n = math.ceil(t_end / dt)     # the quotient is rounded: n may be one off either way
    while n * dt < t_end:
        n += 1
    while (n - 1) * dt >= t_end:
        n -= 1
    return n


def _steps(field: SphereField, coupling: Coupling, config: FlowConfig, dt: float,
           budget: int, t0: float = 0.0, n0: int = 0, snapshot_sink=None,
           row_every: int = 0, terminal_rhs: bool = True):
    """The one stepping loop from `field` at step n0, time t0: t = t0 + n dt.

    Yields (n, t, u, v, F, grad_sq, int |v|^2) at the start of each step
    n < budget once v has passed the blow-up check, then for the terminal
    state n = budget unchecked, or unevaluated with None for v, F, grad_sq
    and int |v|^2 if terminal_rhs is false; the caller stops early by
    leaving the loop.  grad_sq() is |grad u|^2 of u, written by the row
    variant of the evaluation if n % row_every == 0 or n = budget
    (row_every > 0), else replayed on u when called.  snapshot_sink gets a
    copy of each snapshot_every-th new state before its check.  A
    BlowUpError carries the last valid state.

    The yielded arrays belong to the loop's workspace: v, F and |grad u|^2
    are overwritten when the loop resumes, and u (a view of a padded state
    buffer) by the step after next.  A caller that needs one longer copies it.

    Where _team_size allows a team of two, the workspace's plans have two
    parts, and a forked worker replays the second for the whole run; it is
    killed when the loop ends, however it ends.
    """
    grid = field.grid
    ws = _Workspace(grid, coupling, config.flow_kind, _team_size(grid, budget))
    ws.dt[...] = dt
    u = ws.states[0]
    np.copyto(u, field.values)

    def grad_sq() -> np.ndarray:
        return _rhs_arrays(u, ws, True)[2] if gsq is None else gsq

    if len(ws.parts) == 2:
        ws.team.start()
    try:
        for n in range(budget + 1):
            t = t0 + n * dt
            if n and snapshot_sink and config.snapshot_every and n % config.snapshot_every == 0:
                snapshot_sink(FlowState(_sphere_field(field, u.copy()), t=t, step=n0 + n))
            if n == budget and not terminal_rhs:
                yield n, t, u, None, None, None, None
                return
            try:
                rows = row_every > 0 and (n % row_every == 0 or n == budget)
                v, F, gsq = _rhs_arrays(u, ws, rows)
                # einsum, not the 2-5x faster np.dot: its bits vary with OPENBLAS_NUM_THREADS
                v_sq = float(np.einsum("ijk,ijk->", v, v) * grid.cell_area)
                if n < budget:
                    _check_velocity(v, v_sq, t, n0 + n)
                yield n, t, u, v, F, grad_sq, v_sq
                if n < budget:
                    u = _apply_step(u, v_sq, t, n0 + n, ws)
            except BlowUpError as err:
                err.state = FlowState(_sphere_field(field, u), t=t, step=n0 + n)
                raise
    finally:
        ws.team.close()


def step(state: FlowState, coupling: Coupling, config: FlowConfig) -> FlowState:
    """Advance one explicit step u <- Pi(u + dt v) with nodewise renormalization
    (the stepping loop with a budget of one step).

    Raises BlowUpError carrying the offending node if the velocity is
    non-finite (the configured motion is no longer resolved by the grid).
    """
    grid = state.field.grid
    dt = resolve_dt(grid, coupling, config)
    try:
        for n, _, u, v, _, _, _ in _steps(state.field, coupling, config, dt, 1,
                                          t0=state.t, n0=state.step, terminal_rhs=False):
            if n == 0:
                velocity = v     # no later evaluation writes v
    except BlowUpError as err:
        err.state = state
        raise
    return FlowState(field=_sphere_field(state.field, u), t=state.t + dt,
                     step=state.step + 1, last_velocity=TangentField(grid, velocity))


def evolve(initial: SphereField, coupling: Coupling, config: FlowConfig, *,
           radii: tuple[float, ...] = (),
           snapshot_sink=None, stop_when=None) -> EvolveResult:
    """Run the configured flow from `initial` for the smallest n steps with
    n dt >= t_end (the clock reads t = step * dt), or until stationarity
    (|v|_{L2} below the configured tolerance) or a stop callback.

    A diagnostics row is recorded every diagnostic_every steps, measured
    before the step it precedes so the recorded velocity is the one that
    advances the state; stop_when sees these rows.  A final row for the
    terminal state closes the ledger.  t_end = 0 performs no steps and
    returns the initial state with its one row, the same row a longer run
    records first.  On blow-up the raised BlowUpError carries the partial
    ledger and last valid state.
    """
    grid = initial.grid
    dt = resolve_dt(grid, coupling, config)
    budget = _step_budget(config.t_end, dt)
    tol = config.stationarity_tol
    if tol is None:
        tol = STATIONARITY_FACTOR * grid.area
    crit = critical_points(coupling)
    ledger = diagnostics.DiagnosticsLedger(radii=diagnostics.validate_radii(grid, radii))
    for r in ledger.radii:   # built here, the windows do not add to the loop's peak memory
        diagnostics._disc_window(grid, r)
    reason = "t_end"
    try:
        for n, t, u, v, F, grad_sq, v_sq in _steps(initial, coupling, config, dt, budget,
                                                   snapshot_sink=snapshot_sink,
                                                   row_every=config.diagnostic_every):
            cadence = n % config.diagnostic_every == 0
            stationary = v_sq < tol * tol
            if cadence or stationary or n == budget:   # a terminal state closes the ledger
                # on the gradient flow F is v, so |F|_{L2} is the root of v_sq
                ps = (math.sqrt(v_sq) if F is v else
                      float(np.sqrt(np.einsum("ijk,ijk->", F, F) * grid.cell_area)))
                row = diagnostics.measure_row(grid, coupling, grad_sq(), t=t, v_norm_sq=v_sq,
                                              ps_norm=ps, radii=ledger.radii, crit=crit)
                ledger.append(row)
            if n == budget:
                break
            if cadence and stop_when is not None and stop_when(row):
                reason = "stopped"
                break
            if stationary:
                reason = "stationary"
                break
    except BlowUpError as err:
        err.ledger = ledger
        raise
    del v, F, grad_sq      # grad_sq holds the workspace: free it before u is copied
    return EvolveResult(state=FlowState(field=_sphere_field(initial, u), t=t, step=n),
                        ledger=ledger, reason=reason)
