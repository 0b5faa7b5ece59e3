"""Discrete stationary maps by running the gradient flow to stationarity.

The gradient flow and the Landau-Lifshitz flow share their stationary points
(the combined velocity F + u x F vanishes exactly when F does), but the
gradient flow is the steepest-descent path, so relaxation uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Coupling
from .field import SphereField
from .flow import BlowUpError, FlowConfig, FlowState, _check_velocity, _sphere_field, _steps, cfl_dt
from .flow import _project_unit  # noqa: F401  (wrapped by name in perfbench/child.py)
from .operators import _rhs_arrays  # noqa: F401  (wrapped by name in perfbench/child.py)

DEFAULT_SAFETY = 0.8


@dataclass(frozen=True)
class RelaxResult:
    field: SphereField
    history: tuple[float, ...]   # defect norm per iterate, including the initial one
    converged: bool
    steps: int


def relax(initial: SphereField, coupling: Coupling, tol: float,
          max_steps: int, safety: float = DEFAULT_SAFETY) -> RelaxResult:
    """Run the stepping loop of `evolve` on the gradient flow, with
    dt = cfl_dt(safety), until the defect norm drops below tol.

    Returns the relaxed field and the recorded defect-norm history.  If
    max_steps is exhausted first, the best iterate seen is returned flagged
    not converged.  A non-finite defect (its norm is then NaN or inf) raises
    BlowUpError carrying the first offending node and the last valid state.
    """
    if not tol > 0:
        raise ValueError(f"relax tolerance must be positive, got {tol}")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    dt = cfl_dt(initial.grid, coupling, safety)
    config = FlowConfig(flow_kind="gradient", safety=safety)
    history = []
    for n, t, u, v, _, _, v_sq in _steps(initial, coupling, config, dt, max_steps):
        if n == max_steps:     # _steps leaves its terminal iterate unchecked
            try:
                _check_velocity(v, v_sq, t, n)
            except BlowUpError as err:
                err.state = FlowState(_sphere_field(initial, u), t=t, step=n)
                raise
        ps = math.sqrt(v_sq)     # on the gradient flow the velocity is the defect
        history.append(ps)
        if n == 0 or ps < best_ps:
            best_u, best_ps, held = u, ps, False
        elif not held:
            # the loop's next step overwrites the buffer of the best iterate
            best_u, held = best_u.copy(), True
        if ps < tol:
            break
    converged = ps < tol
    return RelaxResult(field=_sphere_field(initial, u if converged else best_u),
                       history=tuple(history), converged=converged, steps=n)
