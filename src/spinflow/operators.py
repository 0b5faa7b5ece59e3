"""Discrete differential operators and flow right-hand sides.

Everything is second order: central first differences with periodic wrap for
the gradient, the 5-point stencil for the Laplacian.  Fields returned as
TangentField are re-projected onto the tangent plane of the paired sphere
field, so the per-node orthogonality invariant holds at machine precision
rather than merely at stencil order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Coupling, Grid, _grad_arrays, _readonly, _stencil
from .field import SphereField

TANGENCY_TOL = 1e-10

FLOW_KINDS = ("gradient", "landau_lifshitz")


@dataclass(frozen=True)
class TangentField:
    """Per-node 3-vector field tangent to the sphere along a paired field."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape + (3,):
            raise ValueError(f"tangent field shape {v.shape} does not match grid")
        object.__setattr__(self, "values", _readonly(v))

    def l2_norm(self) -> float:
        """sqrt of the grid integral of |w|^2."""
        return float(np.sqrt(np.einsum("ijk,ijk->", self.values, self.values)
                             * self.grid.cell_area))

    def max_tangency_defect(self, field: SphereField) -> float:
        """max over nodes of |<w, u>| / max(|w|, tiny)."""
        inner = np.abs(np.einsum("ijk,ijk->ij", self.values, field.values))
        norms = np.sqrt(np.einsum("ijk,ijk->ij", self.values, self.values))
        return float((inner / np.maximum(norms, 1e-300)).max(initial=0.0))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,ijk->ij", a, b)


def _project(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tangential projection w - <w, u> u (assumes |u| = 1)."""
    return w - _dot(w, u)[..., None] * u


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def grad(field: SphereField) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference partials (u_x, u_y), each of shape (nx, ny, 3)."""
    return _grad_arrays(field.values, field.grid.hx, field.grid.hy)


def grad_squared(field: SphereField) -> np.ndarray:
    """|grad u|^2 = |u_x|^2 + |u_y|^2 per node, from the same stencil as grad."""
    ux, uy = grad(field)
    return _dot(ux, ux) + _dot(uy, uy)


def laplacian(field: SphereField) -> np.ndarray:
    """5-point periodic Laplacian."""
    return _stencil(field.values, field.grid.hx, field.grid.hy)[2]


def _rhs_arrays(u: np.ndarray, hx: float, hy: float, coupling: Coupling,
                kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared core: flow velocity v, defect F = f*tau + grad f . grad u, and
    |grad u|^2, all from one stencil evaluation.  `u` need not be exactly
    unit-norm (intermediate Runge-Kutta stages are not)."""
    ux, uy, lap = _stencil(u, hx, hy)
    gsq = _dot(ux, ux) + _dot(uy, uy)
    tau = lap + gsq[..., None] * u
    tau = _project(tau, u)
    F = coupling.values[..., None] * tau \
        + coupling.grad_x[..., None] * ux + coupling.grad_y[..., None] * uy
    F = _project(F, u)
    if kind == "gradient":
        v = F
    elif kind == "landau_lifshitz":
        v = F + _cross(u, F)
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    return v, F, gsq


def tension(field: SphereField) -> TangentField:
    """Tension field tau(u) = lap u + |grad u|^2 u, tangentially projected.

    The continuum tension is automatically tangent; the discrete one is not,
    so the normal component is removed to keep downstream identities exact.
    """
    u = field.values
    tau = laplacian(field) + grad_squared(field)[..., None] * u
    return TangentField(field.grid, _project(tau, u))


def ps_residual(field: SphereField, coupling: Coupling) -> TangentField:
    """Palais-Smale defect f*tau(u) + grad f . grad u, tangentially projected.

    Vanishes exactly when u is a discrete stationary point of the weighted
    energy; along the gradient flow it doubles as the flow velocity.
    """
    _check_same_grid(field, coupling)
    _, F, _ = _rhs_arrays(field.values, field.grid.hx, field.grid.hy, coupling, "gradient")
    return TangentField(field.grid, F)


def ll_velocity(field: SphereField, coupling: Coupling) -> TangentField:
    """Landau-Lifshitz velocity F + u x F with F = f*tau(u) + grad f . grad u.

    Since F is tangent and |u| = 1, the dissipative and precessional parts
    are orthogonal and |v|^2 = 2 |F|^2 per node.
    """
    _check_same_grid(field, coupling)
    v, _, _ = _rhs_arrays(field.values, field.grid.hx, field.grid.hy, coupling,
                          "landau_lifshitz")
    return TangentField(field.grid, v)


def _check_same_grid(field: SphereField, coupling: Coupling) -> None:
    if coupling.values.shape != field.grid.shape:
        raise ValueError("field and coupling live on different grids")
