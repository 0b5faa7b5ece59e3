"""Invariant suite behind the `check` command.

Each check measures one identity on the configured setup and compares the
residual against a frozen threshold.  The thresholds were calibrated once on
the smooth reference setups (constant, great-circle and bubble data on unit
tori up to 128^2) with a safety margin; they scale with the obvious powers of
the grid spacing and the finite-difference step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .domain import Coupling, Grid, _dot, _grad_arrays, make_cutoff
from .field import SphereField, normalize
from .flow import FlowConfig, cfl_dt, dissipation_coefficient, evolve
from .operators import _laplacian, ps_residual

#: floor and stencil-gap margin for the energy-gradient check (fd step 1e-5)
GRADIENT_RTOL_FLOOR = 1e-4
GRADIENT_GAP_MARGIN = 1.5

#: second-order identity budgets, scaled by the measured third-derivative
#: norm |grad lap u|_{L2}: the h^2 truncation constants of every identity
#: here track that quantity (fitted 0.2-1.5 for the variation pair and
#: 88-95 for the Hopf identity across great-circle and bubble references
#: at 64^2..256^2; frozen with roughly 2x margin over the worst case)
VARIATION_C = 3.0
HOPF_C = 200.0

#: dissipation identity error over a short run, relative to E_f(0)
DISSIPATION_RTOL = 0.05
DISSIPATION_STEPS = 200

FD_STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""


def _tangent_direction(field: SphereField, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = field.values
    # drawn node by node, so a seed keeps the direction it always gave
    w = np.moveaxis(rng.standard_normal(field.grid.shape + (3,)), -1, 0)
    w -= _dot(w, u) * u
    n = math.sqrt(float(np.einsum("ijk,ijk->", w, w)) * field.grid.cell_area)
    return w / max(n, 1e-300)


def gradient_pairing_error(field: SphereField, coupling: Coupling, seed: int = 0):
    """Centered finite difference of E against the defect pairing -2 <F, xi>.

    Returns (fd, pairing, stencil gap).  The gap is the difference between
    the exact discrete-adjoint pairing and the 5-point defect pairing, both
    re-derived from the coupling *values* alone; it quantifies how far the
    two pinned stencils legitimately disagree in the direction xi, without
    trusting the stored coupling gradient.
    """
    grid = field.grid
    hx, hy = grid.hx, grid.hy
    cell = grid.cell_area
    xi = _tangent_direction(field, seed)
    u = field.values

    def e_of(s: float) -> float:
        shifted = SphereField(grid, normalize(u + s * xi))
        return diagnostics.energy(shifted, coupling)

    fd = (e_of(FD_STEP) - e_of(-FD_STEP)) / (2.0 * FD_STEP)
    F = ps_residual(field, coupling).values
    pairing = -2.0 * float(np.einsum("ijk,ijk->", F, xi)) * cell

    # exact gradient of the discrete energy (summation by parts is exact for
    # periodic central differences)
    f = coupling.values
    ux, uy = _grad_arrays(u, hx, hy)
    g_exact = _grad_arrays(f * ux, hx, hy)[0] + _grad_arrays(f * uy, hx, hy)[1]
    pair_exact = -2.0 * float(np.einsum("ijk,ijk->", g_exact, xi)) * cell
    # 5-point defect with the coupling gradient re-derived from the values
    fx, fy = _grad_arrays(f, hx, hy)
    f_values = f * _laplacian(u, hx, hy) + fx * ux + fy * uy
    pair_values = -2.0 * float(np.einsum("ijk,ijk->", f_values, xi)) * cell
    gap = pair_exact - pair_values
    return fd, pairing, gap


def _check_cutoff(grid: Grid):
    """Axis-aligned cutoff sized to the domain, with the ramp kinks placed on
    cell boundaries so the piecewise-constant eta' does not inject first-order
    quadrature error."""
    lmin = min(grid.lx, grid.ly)
    h = grid.hx

    def snap(target: float) -> float:
        return (math.floor(target / h) + 0.5) * h

    b_prime = snap(0.14 * lmin)
    b = snap(0.21 * lmin)
    a = 0.6 * b_prime
    delta = 0.1 * lmin
    center = (grid.lx * 0.5, grid.ly * 0.5)
    return make_cutoff(grid, center, a, b_prime, b, delta, (1.0, 0.0))


def _third_derivative_scale(field: SphereField) -> float:
    """L2 norm of the central-difference gradient of the 5-point Laplacian;
    the common magnitude behind the h^2 truncation terms of the identities."""
    g = field.grid
    dlx, dly = _grad_arrays(_laplacian(field.values, g.hx, g.hy), g.hx, g.hy)
    total = float(np.einsum("ijk,ijk->", dlx, dlx) + np.einsum("ijk,ijk->", dly, dly))
    return math.sqrt(total * g.cell_area)


def run_identity_checks(grid: Grid, coupling: Coupling, field: SphereField,
                        flow_kind: str = "gradient", seed: int = 0) -> list[CheckResult]:
    """Measure the core identities on the given setup and threshold them.

    Second-order residual budgets scale with the field's measured
    third-derivative norm, so a sharply concentrated field is allowed the
    residual its own roughness implies while a smooth field is held to a
    tight budget.
    """
    results: list[CheckResult] = []
    h = max(grid.hx, grid.hy)
    e_f = diagnostics.energy(field, coupling)
    d3 = _third_derivative_scale(field)

    dev = field.max_norm_deviation
    results.append(CheckResult("unit-norm", dev, 1e-12, dev <= 1e-12,
                               "max | |u| - 1 | over nodes"))

    fd, pairing, gap = gradient_pairing_error(field, coupling, seed=seed)
    scale = max(abs(fd), abs(pairing), 1e-12)
    err = abs(fd - pairing)
    tol = GRADIENT_RTOL_FLOOR * scale + GRADIENT_GAP_MARGIN * abs(gap)
    results.append(CheckResult("gradient-check", err, tol, err <= tol,
                               f"fd = {fd:.6e}, pairing = {pairing:.6e}, "
                               f"stencil gap = {gap:.3e}"))

    cutoff = _check_cutoff(grid)
    s = 0.5 * h
    lhs = diagnostics.variation_lhs(field, coupling, cutoff, s)
    rhs = diagnostics.variation_rhs(field, coupling, cutoff)
    bound = VARIATION_C * h * h * d3 * coupling.max_value + 1e-9 * (1.0 + e_f)
    err = abs(lhs - rhs)
    results.append(CheckResult("variation-formula", err, bound, err <= bound,
                               f"lhs = {lhs:.6e}, rhs = {rhs:.6e}"))

    hopf_res = diagnostics.hopf_residual(field, coupling)
    hopf_bound = HOPF_C * h * h * d3 + 1e-9 * (1.0 + e_f)
    results.append(CheckResult("hopf-identity", hopf_res, hopf_bound,
                               hopf_res <= hopf_bound, "L2 residual of the Psi identity"))

    dt = cfl_dt(grid, coupling, 0.25)
    cfg = FlowConfig(flow_kind=flow_kind, dt_policy="fixed", dt=dt,
                     t_end=DISSIPATION_STEPS * dt, stationarity_tol=0.0)
    out = evolve(field, coupling, cfg)
    e_col = out.ledger.column("e_f")
    v_col = out.ledger.column("v_norm_sq")
    drop = float(e_col[0] - e_col[-1])
    c = dissipation_coefficient(flow_kind)
    integral = c * float(v_col[:-1].sum()) * dt
    scale = max(float(e_col[0]), 1e-12)
    diss_err = abs(drop - integral) / scale
    results.append(CheckResult("dissipation-identity", diss_err, DISSIPATION_RTOL,
                               diss_err <= DISSIPATION_RTOL,
                               f"dE = {drop:.6e}, c*sum|v|^2 dt = {integral:.6e}"))
    return results


def format_table(results: list[CheckResult]) -> str:
    lines = [f"{'check':<22} {'measured':>13} {'threshold':>13}  result"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<22} {r.measured:>13.6e} {r.threshold:>13.6e}  {status}")
    return "\n".join(lines)
