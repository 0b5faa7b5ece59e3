"""Discrete stationary maps by running the gradient flow to stationarity.

The gradient flow and the Landau-Lifshitz flow share their stationary points
(the combined velocity F + u x F vanishes exactly when F does), but the
gradient flow is the steepest-descent path, so relaxation uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Coupling
from .field import SphereField
from .flow import _component_major, _project_unit, _raise_blowup, _sphere_field, cfl_dt
from .operators import _rhs_arrays

DEFAULT_SAFETY = 0.8


@dataclass(frozen=True)
class RelaxResult:
    field: SphereField
    history: tuple[float, ...]   # defect norm per iterate, including the initial one
    converged: bool
    steps: int


def relax(initial: SphereField, coupling: Coupling, tol: float,
          max_steps: int, safety: float = DEFAULT_SAFETY) -> RelaxResult:
    """Evolve the gradient flow until the defect norm drops below tol.

    Returns the relaxed field and the recorded defect-norm history.  If
    max_steps is exhausted first, the best iterate seen is returned flagged
    not converged.  A non-finite defect (its norm is then NaN or inf) raises
    BlowUpError carrying the first offending node.
    """
    if not tol > 0:
        raise ValueError(f"relax tolerance must be positive, got {tol}")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    grid = initial.grid
    dt = cfl_dt(grid, coupling, safety)
    cell = grid.cell_area

    def defect(values):
        _, F, _ = _rhs_arrays(values, grid.hx, grid.hy, coupling, "gradient")
        return F, float(np.sqrt(np.einsum("ijk,ijk->", F, F) * cell))

    u = u0 = _component_major(initial)
    F, ps = defect(u)
    history = [ps]
    best_u, best_ps = u, ps
    nstep = 0
    while not ps < tol and nstep < max_steps:
        if not math.isfinite(ps) and not np.all(np.isfinite(F)):
            _raise_blowup(F, "defect", nstep * dt, nstep)
        u = _project_unit(u + dt * F, nstep * dt, nstep)
        nstep += 1
        F, ps = defect(u)
        history.append(ps)
        if ps < best_ps:
            best_u, best_ps = u, ps
    converged = ps < tol
    final = u if converged else best_u
    field = initial if final is u0 else _sphere_field(grid, final)
    return RelaxResult(field=field, history=tuple(history), converged=converged,
                       steps=nstep)
