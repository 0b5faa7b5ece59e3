"""Sphere-valued field states on the grid and initial-data generators.

A SphereField stores one unit 3-vector per node.  Generators cover the
experiment designs used by the flows: constant maps, great-circle wrap maps,
concentrated degree-1 "bubble" profiles, and reproducible tangent
perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Grid, _dot, _readonly

UNIT_NORM_TOL = 1e-12

# the bubble profile is blended to the background over [BLEND_START, BLEND_END]
# in units of min(lx, ly): untouched inside min(lx, ly)/4, exactly the
# background beyond BLEND_END (which must stay below 1/2 so the periodic
# representative is unambiguous)
BLEND_START = 0.25
BLEND_END = 0.49

# fraction of the blend annulus occupied by each C^2 boundary layer of the
# blend-weight warp
_BLEND_LAYER = 0.08


@dataclass(frozen=True)
class SphereField:
    """Unit-vector field u: grid -> S^2, stored as a (3, nx, ny) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (3,) + self.grid.shape:
            raise ValueError(f"field shape {v.shape} does not match grid {self.grid.shape}")
        dev = self.max_norm_deviation_of(v)
        if not dev <= UNIT_NORM_TOL:
            raise ValueError(f"field is not unit-norm: max | |u| - 1 | = {dev}")
        object.__setattr__(self, "values", _readonly(v))

    @staticmethod
    def max_norm_deviation_of(values: np.ndarray) -> float:
        norms = np.sqrt(_dot(values, values))
        return float(np.abs(norms - 1.0).max())

    @property
    def max_norm_deviation(self) -> float:
        return self.max_norm_deviation_of(self.values)

    def rotated(self, rotation: np.ndarray) -> "SphereField":
        """Apply a fixed rotation of the target sphere to every node."""
        rotation = np.asarray(rotation, dtype=np.float64)
        if rotation.shape != (3, 3):
            raise ValueError("rotation must be a 3x3 matrix")
        return SphereField(self.grid, np.tensordot(rotation, self.values, 1))


def normalize(values: np.ndarray) -> np.ndarray:
    """Nodewise projection to the unit sphere; rejects zero vectors."""
    norms = np.sqrt(_dot(values, values))
    if not np.all(norms > 0.0):
        raise ValueError("cannot normalize: zero vector encountered")
    return values / norms


def constant_field(grid: Grid, v) -> SphereField:
    """Constant map with all nodes at v/|v|."""
    v = np.asarray(v, dtype=np.float64).reshape(3)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("constant field direction must be nonzero")
    values = np.broadcast_to((v / n)[:, None, None], (3,) + grid.shape).copy()
    return SphereField(grid, values)


def great_circle_field(grid: Grid, windings: int = 1, axis: str = "x",
                       phase: float = 0.0) -> SphereField:
    """Geodesic wrap map u = (sin theta, 0, cos theta), theta winding along one axis."""
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    x, y = grid.mesh()
    coord, length = (x, grid.lx) if axis == "x" else (y, grid.ly)
    theta = 2.0 * np.pi * windings * coord / length + phase
    values = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)])
    return SphereField(grid, normalize(values))


def bubble_profile(a, b):
    """Inverse stereographic degree-1 profile on the plane.

    m(a, b) = (2a, 2b, 1 - a^2 - b^2) / (1 + a^2 + b^2); m(0, 0) is the north
    pole and m tends to the south pole at infinity.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    rho2 = a * a + b * b
    den = 1.0 + rho2
    return np.stack([2.0 * a / den, 2.0 * b / den, (1.0 - rho2) / den])


def _smoothstep_integral(x):
    """Integral of the quintic smoothstep from 0 to x (for x in [0, 1])."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 4 * (2.5 + x * (x - 3.0))


def _layered_ramp(s, beta=_BLEND_LAYER):
    """C^2 reparametrization of [0, 1]: identity except in boundary layers of
    width beta, where it flattens (zero first and second derivative at both
    ends).  Keeps an interior profile composed with it close to itself."""
    s = np.clip(s, 0.0, 1.0)
    raw = np.where(
        s <= beta, beta * _smoothstep_integral(s / beta),
        np.where(s >= 1.0 - beta,
                 1.0 - beta - beta * _smoothstep_integral((1.0 - s) / beta),
                 s - 0.5 * beta))
    return raw / (1.0 - beta)


def bubble_field(grid: Grid, center: tuple[float, float], scale: float,
                 background=(0.0, 0.0, -1.0)) -> SphereField:
    """Degree-1 bubble of width `scale` at `center`, blended to `background`.

    The stereographic profile is evaluated on the shortest periodic
    displacement from the center; outside radius min(lx, ly)/4 it is blended
    to the constant background with a C^2 radial weight and renormalized
    nodewise, reaching the background exactly before the half-domain seam.
    The weight follows (r1^2 - r^2)/(r1^2 - r0^2), the cheapest radial
    transition profile for the far-field tail (the energy overhead of the
    blend is within 3 percent of the profile energy for scale = lmin/20),
    flattened to second order at both ends of the annulus.  The background
    defaults to the profile's own far-field limit, which keeps the blend
    nearly seamless.
    """
    lmin = min(grid.lx, grid.ly)
    scale = float(scale)
    if not 0.0 < scale < lmin / 4.0:
        raise ValueError(f"bubble scale must lie in (0, {lmin / 4.0}), got {scale}")
    v = np.asarray(background, dtype=np.float64).reshape(3)
    vn = float(np.linalg.norm(v))
    if vn == 0.0:
        raise ValueError("background must be nonzero")
    v = v / vn

    x, y = grid.mesh()
    dx = grid.wrap_dx(x - center[0])
    dy = grid.wrap_dy(y - center[1])
    m = bubble_profile(dx / scale, dy / scale)

    r = np.hypot(dx, dy)
    r0 = BLEND_START * lmin
    r1 = BLEND_END * lmin
    rho = r0 + (r1 - r0) * _layered_ramp((r - r0) / (r1 - r0))
    w = (r1 * r1 - rho * rho) / (r1 * r1 - r0 * r0)
    blended = w * m + (1.0 - w) * v[:, None, None]
    norms = np.sqrt(_dot(blended, blended))
    if float(norms.min()) < 1e-8:
        raise ValueError("bubble blend degenerates: background is antipodal to the "
                         "profile inside the blend annulus")
    return SphereField(grid, blended / norms)


def perturb(field: SphereField, amplitude: float, seed: int) -> SphereField:
    """Reproducible tangent perturbation with per-node magnitude <= amplitude.

    The perturbation direction is drawn per node, projected to the tangent
    plane and normalized; its magnitude is uniform on [0, amplitude].  The
    perturbed field is renormalized.  amplitude = 0 returns the input values
    unchanged (bitwise).
    """
    if amplitude < 0:
        raise ValueError("perturbation amplitude must be >= 0")
    if amplitude == 0.0:
        return SphereField(field.grid, field.values)
    rng = np.random.default_rng(seed)
    u = field.values
    # drawn node by node, so a seed keeps the perturbation it always gave
    w = np.moveaxis(rng.uniform(-1.0, 1.0, size=field.grid.shape + (3,)), -1, 0)
    w -= _dot(w, u) * u
    norms = np.sqrt(_dot(w, w))
    safe = np.maximum(norms, 1e-300)
    magnitude = amplitude * rng.uniform(0.0, 1.0, size=norms.shape)
    xi = np.where(norms > 1e-12, w / safe * magnitude, 0.0)
    return SphereField(field.grid, normalize(u + xi))
