"""Flat periodic 2D domain, coupling weights and cutoff vector fields.

The domain is a rectangle with periodic boundary in both directions (a flat
torus) sampled on a uniform node grid.  The coupling is a strictly positive
scalar weight f defined on the nodes; for analytic kinds its gradient is
stored in closed form, for sampled data it is precomputed with central
differences.  Cutoff fields are compactly supported vector fields used by the
domain-variation diagnostics.  The periodic pads and central differences
behind every other module also live here; the 5-point Laplacian, a weighted
sum of neighbour differences, is operators._weighted_differences.

Layout: the stencil differentiates along the last two axes of its input,
which index the node (i, j).  Scalars are (nx, ny); vector fields (the
values of SphereField and TangentField, gradients, Laplacians and flow
velocities) are stored component-major, (3, nx, ny), one contiguous plane
per component, and per-node algebra runs plane by plane (`_dot`).  Only the
snapshot and field-CSV files list the components node by node.  Inside the
stepping loop a state is a (3, nx, ny) view of a padded buffer (see _Pad
and operators._Workspace), whose planes are contiguous but lie two halo
x-rows apart; SphereField.values stays a contiguous (3, nx, ny) copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MIN_NODES = 8

_KIND_ALIASES = {
    "constant": "constant",
    "cosine": "cosine-product",
    "cosine-product": "cosine-product",
    "sampled": "custom-sampled",
    "custom-sampled": "custom-sampled",
}

COUPLING_KINDS = tuple(dict.fromkeys(_KIND_ALIASES.values()))


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only contiguous float64 view of a; the caller's array stays
    writeable, and no copy is made when a already has that layout."""
    a = np.ascontiguousarray(a, dtype=np.float64).view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid: node (i, j) sits at (i*hx, j*hy)."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        # every error starts with its field's name: config reports it under that key
        for name, value in (("nx", self.nx), ("ny", self.ny)):
            if value < MIN_NODES:
                raise ValueError(f"{name} must be >= {MIN_NODES}, got {value}")
        for name, value in (("lx", self.lx), ("ly", self.ly)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def area(self) -> float:
        return self.lx * self.ly

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @cached_property
    def xs(self) -> np.ndarray:
        return _readonly(np.arange(self.nx) * self.hx)

    @cached_property
    def ys(self) -> np.ndarray:
        return _readonly(np.arange(self.ny) * self.hy)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinates as two (nx, ny) arrays."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def wrap_dx(self, dx):
        """Shortest periodic x-displacement, representative in [-lx/2, lx/2]."""
        return dx - self.lx * np.round(np.asarray(dx, dtype=np.float64) / self.lx)

    def wrap_dy(self, dy):
        return dy - self.ly * np.round(np.asarray(dy, dtype=np.float64) / self.ly)

    def distance(self, x0, y0, x1, y1):
        """Periodic (torus) distance between points."""
        return np.hypot(self.wrap_dx(x1 - x0), self.wrap_dy(y1 - y0))

    def nearest_node(self, x: float, y: float) -> tuple[int, int]:
        i = int(np.round(x / self.hx)) % self.nx
        j = int(np.round(y / self.hy)) % self.ny
        return i, j


def make_grid(nx: int, ny: int, lx: float, ly: float) -> Grid:
    """Build a periodic grid; rejects counts < 8 and non-positive sizes."""
    return Grid(int(nx), int(ny), float(lx), float(ly))


@dataclass(frozen=True)
class Coupling:
    """Positive weight f on the grid together with its spatial gradient."""

    grid: Grid
    kind: str
    values: np.ndarray        # (nx, ny), strictly positive
    grad_x: np.ndarray        # df/dx at nodes
    grad_y: np.ndarray        # df/dy at nodes
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        shape = self.grid.shape
        for name in ("values", "grad_x", "grad_y"):
            a = getattr(self, name)
            if a.shape != shape:
                raise ValueError(f"coupling {name} has shape {a.shape}, expected {shape}")
            object.__setattr__(self, name, _readonly(a))
        if self.kind not in COUPLING_KINDS:
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("coupling values must be finite")
        if float(self.values.min()) <= 0.0:
            raise ValueError(f"coupling must be positive everywhere, min f = {self.values.min()}")

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"


def make_coupling(grid: Grid, kind: str, params: dict | None = None) -> Coupling:
    """Build a coupling of the given kind.

    Kinds:
      constant       params: value (default 1.0)
      cosine-product params: base (default 1.0), ax, ay (default 0.0); gives
                     f = base + ax*cos(2*pi*x/lx) + ay*cos(2*pi*y/ly)
      custom-sampled params: values, an (nx, ny) array of positive samples

    Coupling rejects values that are not finite and positive at a node; for
    the cosine kind the analytic minimum base - |ax| - |ay| is checked too,
    so a parameterization that dips to zero anywhere on the continuum is
    rejected even if the grid misses the minimizer.
    """
    params = dict(params or {})
    try:
        norm_kind = _KIND_ALIASES[kind]
    except KeyError:
        raise ValueError(f"unknown coupling kind {kind!r}; expected one of {sorted(_KIND_ALIASES)}")

    shape = grid.shape
    if norm_kind == "constant":
        value = float(params.pop("value", 1.0))
        if params:
            raise ValueError(f"unexpected constant-coupling params: {sorted(params)}")
        zeros = np.zeros(shape)
        return Coupling(grid, norm_kind, np.full(shape, value), zeros, zeros.copy(),
                        {"value": value})

    if norm_kind == "cosine-product":
        base = float(params.pop("base", 1.0))
        ax = float(params.pop("ax", 0.0))
        ay = float(params.pop("ay", 0.0))
        if params:
            raise ValueError(f"unexpected cosine-coupling params: {sorted(params)}")
        fmin = base - abs(ax) - abs(ay)
        if fmin <= 0:
            raise ValueError(
                f"cosine coupling reaches min f = {fmin} <= 0 (base={base}, ax={ax}, ay={ay})")
        x, y = grid.mesh()
        kx = 2.0 * math.pi / grid.lx
        ky = 2.0 * math.pi / grid.ly
        values = base + ax * np.cos(kx * x) + ay * np.cos(ky * y)
        gx = -ax * kx * np.sin(kx * x)
        gy = -ay * ky * np.sin(ky * y)
        return Coupling(grid, norm_kind, values, gx, gy, {"base": base, "ax": ax, "ay": ay})

    # custom-sampled
    try:
        values = np.asarray(params.pop("values"), dtype=np.float64)
    except KeyError:
        raise ValueError("custom-sampled coupling requires params['values']")
    if params:
        raise ValueError(f"unexpected sampled-coupling params: {sorted(params)}")
    if values.shape != shape:    # before the stencil, which needs the grid's shape
        raise ValueError(f"sampled values have shape {values.shape}, expected {shape}")
    gx, gy = _grad_arrays(values, grid.hx, grid.hy)
    return Coupling(grid, norm_kind, values, gx, gy, {})


# ---------------------------------------------------------------------------
# Critical points of the coupling


@dataclass(frozen=True)
class CriticalPoint:
    x: float
    y: float
    kind: str      # "min" | "max" | "saddle" | "degenerate"
    value: float


@dataclass(frozen=True)
class CriticalLine:
    """Degenerate critical set {axis == coordinate} crossing the full torus."""

    axis: str      # "x" or "y": the coordinate held fixed along the line
    coordinate: float
    kind: str
    value: float


@dataclass(frozen=True)
class CriticalSet:
    """Critical locus of the coupling: isolated points, lines, or everywhere.

    kind == "everywhere" is the sentinel for constant couplings, where the
    gradient vanishes identically and enumeration is meaningless.
    """

    kind: str                                    # "points" | "lines" | "everywhere"
    points: tuple[CriticalPoint, ...] = ()
    lines: tuple[CriticalLine, ...] = ()

    @property
    def everywhere(self) -> bool:
        return self.kind == "everywhere"

    def distance_to(self, x: float, y: float, grid: Grid) -> float:
        """Periodic distance from (x, y) to the nearest critical locus."""
        if self.everywhere:
            return 0.0
        best = math.inf
        for p in self.points:
            best = min(best, float(grid.distance(x, y, p.x, p.y)))
        for ln in self.lines:
            if ln.axis == "x":
                best = min(best, abs(float(grid.wrap_dx(x - ln.coordinate))))
            else:
                best = min(best, abs(float(grid.wrap_dy(y - ln.coordinate))))
        return best

    def nearest_point(self, x: float, y: float, grid: Grid) -> CriticalPoint | None:
        if not self.points:
            return None
        dists = [float(grid.distance(x, y, p.x, p.y)) for p in self.points]
        return self.points[int(np.argmin(dists))]


def _classify(hxx: float, hyy: float, hxy: float = 0.0) -> str:
    det = hxx * hyy - hxy * hxy
    if abs(det) < 1e-14 * max(1.0, hxx * hxx + hyy * hyy + hxy * hxy):
        return "degenerate"
    if det < 0:
        return "saddle"
    return "min" if hxx > 0 else "max"


def critical_points(coupling: Coupling) -> CriticalSet:
    """All zeros of grad f, classified by the Hessian sign pattern.

    Constant couplings return the "everywhere" sentinel.  A cosine coupling
    with a vanishing amplitude has degenerate critical lines instead of
    isolated points; those are returned as line-type sets.  Sampled couplings
    are scanned for sign changes of the discrete gradient in both axes and
    refined with per-axis quadratic interpolation.
    """
    grid = coupling.grid
    if coupling.kind == "constant":
        return CriticalSet("everywhere")

    if coupling.kind == "cosine-product":
        base = coupling.params["base"]
        ax = coupling.params["ax"]
        ay = coupling.params["ay"]
        if ax == 0.0 and ay == 0.0:
            return CriticalSet("everywhere")
        kx = 2.0 * math.pi / grid.lx
        ky = 2.0 * math.pi / grid.ly
        if ax != 0.0 and ay != 0.0:
            pts = []
            for xc in (0.0, grid.lx / 2.0):
                for yc in (0.0, grid.ly / 2.0):
                    fxx = -ax * kx * kx * math.cos(kx * xc)
                    fyy = -ay * ky * ky * math.cos(ky * yc)
                    val = base + ax * math.cos(kx * xc) + ay * math.cos(ky * yc)
                    pts.append(CriticalPoint(xc, yc, _classify(fxx, fyy), val))
            return CriticalSet("points", points=tuple(pts))
        # one amplitude vanishes: critical lines {axis = c} of the active axis
        axis, a, k, length = ("x", ax, kx, grid.lx) if ax != 0.0 else ("y", ay, ky, grid.ly)
        lines = []
        for c in (0.0, length / 2.0):
            fcc = -a * k * k * math.cos(k * c)
            lines.append(CriticalLine(axis, c, "min" if fcc > 0 else "max",
                                      base + a * math.cos(k * c)))
        return CriticalSet("lines", lines=tuple(lines))

    return _sampled_critical_points(coupling, grid)


def _periodic_min3(a: np.ndarray) -> np.ndarray:
    """Minimum of a 2D array over each node's periodic 3x3 neighbourhood,
    taken one axis at a time."""
    for axis in (0, 1):
        a = np.minimum(a, np.minimum(np.roll(a, 1, axis), np.roll(a, -1, axis)))
    return a


def _sampled_critical_points(coupling: Coupling, grid: Grid) -> CriticalSet:
    f = coupling.values
    gx, gy = coupling.grad_x, coupling.grad_y
    # sign change of the discrete gradient across the node, in both axes
    flip_x = np.roll(gx, 1, axis=0) * np.roll(gx, -1, axis=0) <= 0.0
    flip_y = np.roll(gy, 1, axis=1) * np.roll(gy, -1, axis=1) <= 0.0
    gnorm = gx * gx + gy * gy
    candidates = flip_x & flip_y
    # keep only local minima of |grad f|^2 among candidates (dedupe clusters)
    candidates &= gnorm <= _periodic_min3(gnorm)
    pts = []
    hx, hy = grid.hx, grid.hy
    for i, j in zip(*np.nonzero(candidates)):
        ip, im = (i + 1) % grid.nx, (i - 1) % grid.nx
        jp, jm = (j + 1) % grid.ny, (j - 1) % grid.ny
        fxx = (f[ip, j] - 2 * f[i, j] + f[im, j]) / hx**2
        fyy = (f[i, jp] - 2 * f[i, j] + f[i, jm]) / hy**2
        fxy = (f[ip, jp] - f[ip, jm] - f[im, jp] + f[im, jm]) / (4 * hx * hy)
        # parabola-vertex refinement per axis
        dx_off = 0.0 if fxx == 0 else float(np.clip(-gx[i, j] / fxx, -hx / 2, hx / 2))
        dy_off = 0.0 if fyy == 0 else float(np.clip(-gy[i, j] / fyy, -hy / 2, hy / 2))
        x = (i * hx + dx_off) % grid.lx
        y = (j * hy + dy_off) % grid.ly
        pts.append(CriticalPoint(x, y, _classify(fxx, fyy, fxy), float(f[i, j])))
    return CriticalSet("points", points=tuple(pts))


# ---------------------------------------------------------------------------
# Cutoff vector fields


def _smoothstep(s):
    """C^2 quintic ramp: 0 -> 1 on [0, 1] with vanishing first and second
    derivatives at both ends."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


def _smoothstep_prime(s):
    inside = (s > 0.0) & (s < 1.0)
    s = np.clip(s, 0.0, 1.0)
    return np.where(inside, 30.0 * s * s * (1.0 - s) * (1.0 - s), 0.0)


@dataclass(frozen=True)
class CutoffField:
    """Compactly supported field X = eta(xi1) * sigma(xi2) * direction.

    xi1/xi2 are coordinates along/across `direction`, relative to `center`
    (shortest periodic displacement).  eta is the piecewise-linear plateau
    profile (1 on [-b', b'], linear ramps down to 0 at +-b); sigma is a C^2
    bump equal to 1 on [-delta, delta] and 0 outside [-2 delta, 2 delta].
    X vanishes identically outside the rectangle [-b, b] x [-2 delta, 2 delta]
    in the (xi1, xi2) frame.
    """

    grid: Grid
    center: tuple[float, float]
    a: float
    b_prime: float
    b: float
    delta: float
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not (0.0 < self.a < self.b_prime < self.b):
            raise ValueError(
                f"cutoff radii must satisfy 0 < a < b' < b, got ({self.a}, {self.b_prime}, {self.b})")
        if not self.delta > 0:
            raise ValueError(f"cutoff delta must be positive, got {self.delta}")
        d = np.asarray(self.direction, dtype=np.float64)
        n = float(np.hypot(d[0], d[1]))
        if n == 0.0:
            raise ValueError("cutoff direction must be nonzero")
        d = d / n
        object.__setattr__(self, "direction", (float(d[0]), float(d[1])))
        # support bounding box must fit in half the domain so the periodic
        # representative is unambiguous
        bx = abs(d[0]) * self.b + abs(d[1]) * 2.0 * self.delta
        by = abs(d[1]) * self.b + abs(d[0]) * 2.0 * self.delta
        if bx >= self.grid.lx / 2 or by >= self.grid.ly / 2:
            raise ValueError("cutoff support does not fit inside half the domain")

    def eta(self, t):
        t = np.abs(np.asarray(t, dtype=np.float64))
        ramp = (self.b - t) / (self.b - self.b_prime)
        return np.where(t <= self.b_prime, 1.0, np.where(t <= self.b, np.maximum(ramp, 0.0), 0.0))

    def eta_prime(self, t):
        """One-sided-exact derivative of eta; the average of one-sided slopes
        at the four kink abscissae."""
        t = np.asarray(t, dtype=np.float64)
        slope = 1.0 / (self.b - self.b_prime)
        at = np.abs(t)
        inner = np.where((at > self.b_prime) & (at < self.b), -np.sign(t) * slope, 0.0)
        kink = (at == self.b_prime) | (at == self.b)
        return np.where(kink, -np.sign(t) * slope / 2.0, inner)

    def sigma(self, t):
        at = np.abs(np.asarray(t, dtype=np.float64))
        return np.where(at <= self.delta, 1.0,
                        np.where(at >= 2.0 * self.delta, 0.0,
                                 _smoothstep((2.0 * self.delta - at) / self.delta)))

    def sigma_prime(self, t):
        t = np.asarray(t, dtype=np.float64)
        at = np.abs(t)
        s = (2.0 * self.delta - at) / self.delta
        return np.where((at > self.delta) & (at < 2.0 * self.delta),
                        -np.sign(t) * _smoothstep_prime(s) / self.delta, 0.0)


    def evaluate(self, x, y):
        """(X, div X, grad X) at points; accepts scalars or arrays.

        Returns X with shape (..., 2), div X with shape (...), and the
        Jacobian dX_i/dx_j with shape (..., 2, 2).  div X = eta'(xi1) *
        sigma(xi2), using the kink-averaged eta'.
        """
        g = self.grid
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        dx = g.wrap_dx(x - self.center[0])
        dy = g.wrap_dy(y - self.center[1])
        d1, d2 = self.direction
        xi1 = dx * d1 + dy * d2
        xi2 = -dx * d2 + dy * d1

        eta = self.eta(xi1)
        etap = self.eta_prime(xi1)
        sig = self.sigma(xi2)
        sigp = self.sigma_prime(xi2)

        phi = eta * sig
        X = np.stack([phi * d1, phi * d2], axis=-1)
        div = etap * sig
        # Cartesian gradient of phi: d(phi)/dxi1 * e1 + d(phi)/dxi2 * e2
        dphi_x = etap * sig * d1 + eta * sigp * (-d2)
        dphi_y = etap * sig * d2 + eta * sigp * d1
        jac = np.empty(np.broadcast(x, y).shape + (2, 2))
        jac[..., 0, 0] = d1 * dphi_x
        jac[..., 0, 1] = d1 * dphi_y
        jac[..., 1, 0] = d2 * dphi_x
        jac[..., 1, 1] = d2 * dphi_y
        return X, div, jac


@dataclass(frozen=True)
class UniformVectorField:
    """Constant vector field; the degenerate variation generator whose
    divergence and Jacobian vanish identically (rigid translation)."""

    vector: tuple[float, float]

    def evaluate(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        shape = np.broadcast(x, y).shape
        X = np.empty(shape + (2,))
        X[..., 0] = self.vector[0]
        X[..., 1] = self.vector[1]
        return X, np.zeros(shape), np.zeros(shape + (2, 2))


def make_cutoff(grid: Grid, center: tuple[float, float], a: float, b_prime: float,
                b: float, delta: float, direction: tuple[float, float] = (1.0, 0.0)) -> CutoffField:
    return CutoffField(grid, (float(center[0]), float(center[1])),
                       float(a), float(b_prime), float(b), float(delta),
                       (float(direction[0]), float(direction[1])))


# ---------------------------------------------------------------------------
# Periodic stencil: the pads every difference quotient of the package reads,
# and the central differences, along the last two axes (the 5-point sum over
# a pad is operators._weighted_differences).
#
# The kernel functions make every array operation as call(ufunc, *operands,
# out).  With `_eager` the call runs at once; the step workspace
# (operators._Workspace) passes a _Plan instead, which records the call with
# its views and scalars bound, once per run, and replays the list each step.


def _eager(ufunc, *args):
    """ufunc(*args) now; the last argument is the output (None allocates it)."""
    return ufunc(*args)


class _Plan(list):
    """A recorded list of (function, args) calls.  Calling the plan records
    a call and returns its last argument, the output of a ufunc call; run()
    makes the recorded calls in order."""

    def __call__(self, ufunc, *args):
        self.append((ufunc, args))
        return args[-1]

    def run(self) -> None:
        for ufunc, args in self:
            ufunc(*args)


class _Pad:
    """The views of a periodic pad: an array shaped lead + ((rows + 2) * ny,)
    that stores each plane of `rows` x-rows flat between a copy of the row
    before them and a copy of the row after them (wrapping round the torus),
    so node (i, j) has its x-neighbours ny elements away and its
    y-neighbours one element away.  Every view is made once: a view costs
    microseconds and a 64^2 step only a few hundred.

    `views` are the rows themselves and their periodic neighbours (x+1, x-1,
    y+1, y-1), shaped like the rows.  In the first and last column the
    y-neighbour falls into the adjacent row; `_y_columns` redoes those two
    columns from `columns`, the rows' columns 1, -1, 0 and -2.
    """

    def __init__(self, flat: np.ndarray, ny: int):
        n = flat.shape[-1] - 2 * ny
        shape = flat.shape[:-1] + (n // ny, ny)
        self.views = tuple(flat[..., ny + k:ny + k + n].reshape(shape)
                           for k in (0, ny, -ny, 1, -1))
        c = self.views[0]
        self.columns = (c[..., 1], c[..., -1], c[..., 0], c[..., -2])


def _pad_rows(a: np.ndarray, i0: int, i1: int, buf: np.ndarray | None = None) -> _Pad:
    """Copy the x-rows i0 <= i < i1 of `a`, with the rows before and after
    them, into a pad in the flat buffer `buf` (a new one in a's dtype when
    none is given) and return the pad."""
    lead, ny = a.shape[:-2], a.shape[-1]
    size = (i1 - i0 + 2) * ny
    flat = np.empty(lead + (size,), a.dtype) if buf is None else buf[:math.prod(lead) * size]
    rows = flat.reshape(lead + (i1 - i0 + 2, ny))
    rows[..., 1:-1, :] = a[..., i0:i1, :]
    rows[..., 0, :] = a[..., i0 - 1, :]
    rows[..., -1, :] = a[..., i1 % a.shape[-2], :]
    return _Pad(flat.reshape(lead + (size,)), ny)


def _y_columns(call, pad: _Pad, out: np.ndarray) -> None:
    """Redo the differences y+1 - y-1 in the first and last column of `out`
    with the periodic neighbours, which lie in the same row."""
    c1, c_1, c0, c_2 = pad.columns
    call(np.subtract, c1, c_1, out[..., 0])
    call(np.subtract, c0, c_2, out[..., -1])


def _grad_rows(call, pad: _Pad, hx: float, hy: float, ax: np.ndarray, ay: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Central differences (a_x, a_y) of the rows held by `pad`, computed as
    (xp - xm) * (0.5 / hx) and (yp - ym) * (0.5 / hy) in place in ax and ay;
    ay is written first."""
    _, xp, xm, yp, ym = pad.views
    call(np.subtract, yp, ym, ay)
    _y_columns(call, pad, ay)
    _scale(call, ay, 0.5 / hy, ay)
    call(np.subtract, xp, xm, ax)
    _scale(call, ax, 0.5 / hx, ax)
    return ax, ay


def _grad_arrays(a: np.ndarray, hx: float, hy: float) -> tuple[np.ndarray, np.ndarray]:
    """Periodic central differences (a_x, a_y) along the last two axes."""
    a = np.asarray(a)
    pad = _pad_rows(a, 0, a.shape[-2])
    return _grad_rows(_eager, pad, hx, hy, np.empty(a.shape, a.dtype), np.empty(a.shape, a.dtype))


def _scale(call, a: np.ndarray, c, out: np.ndarray) -> np.ndarray:
    """a * c for a scalar (or 0-d array) c, written into `out`: in one call
    where both are contiguous, else one plane of the last two axes at a
    time.  On a block of x-rows of a (3, nx, ny) array, which is not
    contiguous, numpy buffers a call with a scalar operand, allocating
    about 96 KiB; on a plane it runs its contiguous loop, faster: 3.0
    against 7.0 us for half of a 64^2 field."""
    if a.flags.c_contiguous and out.flags.c_contiguous:
        return call(np.multiply, a, c, out)
    for k in np.ndindex(a.shape[:-2]):
        call(np.multiply, a[k], c, out[k])
    return out


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
         tmp: np.ndarray | None = None, call=_eager) -> np.ndarray:
    """Per-node <a, b> of component-major arrays, summed as (0 + 2) + 1: the
    order np.einsum("ijk,ijk->ij") takes over contiguous node-major arrays
    on numpy 2.4, so the bits match the node-major kernel
    (tests/test_stencil_reference.py compares them).  Written into `out`,
    with `tmp` for the products, when they are given."""
    out = call(np.multiply, a[0], b[0], out)
    tmp = call(np.multiply, a[2], b[2], tmp)
    call(np.add, out, tmp, out)
    call(np.multiply, a[1], b[1], tmp)
    call(np.add, out, tmp, out)
    return out
