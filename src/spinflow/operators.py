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

from .domain import Coupling, Grid, _dot, _grad_arrays, _readonly, _stencil
from .field import SphereField


@dataclass(frozen=True)
class TangentField:
    """Per-node 3-vector field tangent to the sphere along a paired field."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (3,) + self.grid.shape:
            raise ValueError(f"tangent field shape {v.shape} does not match grid")
        object.__setattr__(self, "values", _readonly(v))

    def l2_norm(self) -> float:
        """sqrt of the grid integral of |w|^2."""
        return float(np.sqrt(np.einsum("ijk,ijk->", self.values, self.values)
                             * self.grid.cell_area))

    def max_tangency_defect(self, field: SphereField) -> float:
        """max over nodes of |<w, u>| / max(|w|, tiny)."""
        inner = np.abs(_dot(self.values, field.values))
        norms = np.sqrt(_dot(self.values, self.values))
        return float((inner / np.maximum(norms, 1e-300)).max(initial=0.0))


def _project(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Tangential projection w - <w, u> u in place (assumes |u| = 1)."""
    d = _dot(w, u)
    for k in range(3):
        w[k] -= d * u[k]
    return w


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a x b of component-major arrays, written into `out`."""
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[k])
        out[k] -= a[j] * b[i]
    return out


def grad(field: SphereField) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference partials (u_x, u_y), each of shape (3, nx, ny)."""
    return _grad_arrays(field.values, field.grid.hx, field.grid.hy)


def grad_squared(field: SphereField) -> np.ndarray:
    """|grad u|^2 = |u_x|^2 + |u_y|^2 per node, from the same stencil as grad."""
    ux, uy = grad(field)
    return _dot(ux, ux) + _dot(uy, uy)


def laplacian(field: SphereField) -> np.ndarray:
    """5-point periodic Laplacian."""
    return _stencil(field.values, field.grid.hx, field.grid.hy)[2]


def _tension_arrays(u: np.ndarray, hx: float, hy: float):
    """(tau, u_x, u_y, |grad u|^2) of a component-major u from one stencil
    evaluation, tau = lap u + |grad u|^2 u tangentially projected."""
    ux, uy, tau = _stencil(u, hx, hy)
    gsq = _dot(ux, ux)
    gsq += _dot(uy, uy)
    for k in range(3):
        tau[k] += gsq * u[k]
    return _project(tau, u), ux, uy, gsq


def _rhs_arrays(u: np.ndarray, hx: float, hy: float, coupling: Coupling,
                kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared core: flow velocity v, defect F = f*tau + grad f . grad u, and
    |grad u|^2, all from one stencil evaluation, for a component-major
    (3, nx, ny) u.  `u` need not be exactly unit-norm (intermediate
    Runge-Kutta stages are not).  The arithmetic runs in place in the
    stencil's arrays; for the gradient flow v is F.  `kind` is canonical:
    FlowConfig checks it, and any other kind gives the LL velocity."""
    F, ux, uy, gsq = _tension_arrays(u, hx, hy)
    F *= coupling.values
    ux *= coupling.grad_x
    F += ux
    uy *= coupling.grad_y
    F += uy
    _project(F, u)
    if kind == "gradient":
        return F, F, gsq
    v = _cross(u, F, out=ux)
    v += F
    return v, F, gsq


def tension(field: SphereField) -> TangentField:
    """Tension field tau(u) = lap u + |grad u|^2 u, tangentially projected.

    The continuum tension is automatically tangent; the discrete one is not,
    so the normal component is removed to keep downstream identities exact.
    """
    g = field.grid
    return TangentField(g, _tension_arrays(field.values, g.hx, g.hy)[0])


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
