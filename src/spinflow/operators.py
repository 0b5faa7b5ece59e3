"""Discrete differential operators and flow right-hand sides.

Everything is second order: central first differences with periodic wrap for
the gradient, the 5-point stencil for the Laplacian.  Fields returned as
TangentField are re-projected onto the tangent plane of the paired sphere
field, so the per-node orthogonality invariant holds at machine precision
rather than merely at stencil order.

The flow right-hand side forms the defect as P_u(G), G = f lap u +
grad f . grad u = div(f grad u) in its 5-point form: one weighted sum of
neighbour differences, G = (1 / h^2) sum_k W_k (u_k - u) with
h = min(hx, hy), whose per-node weights W fold the coupling in once per run.
At |u| = 1, f*tau(u) differs from f lap u by the normal f |grad u|^2 u,
which the one projection removes.  Only its row variant forms |grad u|^2.
The Laplacian is the same sum with the weights of f = 1, and the tension
P_u(lap u), so tension(u) is ps_residual(u, f = 1) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (Coupling, Grid, _dot, _eager, _grad_arrays, _grad_rows, _Pad, _pad_rows,
                     _Plan, _readonly)
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


def _project(call, w: np.ndarray, u: np.ndarray, d: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Tangential projection w - <w, u> u in place (assumes |u| = 1), with
    <w, u> written into `d` and the products into `tmp`."""
    _dot(w, u, d, tmp, call)
    for k in range(3):
        call(np.multiply, d, u[k], tmp)
        call(np.subtract, w[k], tmp, w[k])
    return w


def _cross(call, a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a x b of component-major arrays, written into `out`."""
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        call(np.multiply, a[i], b[j], out[k])
        call(np.multiply, a[j], b[i], tmp)
        call(np.subtract, out[k], tmp, out[k])
    return out


def _weighted_differences(call, pad: _Pad, W: np.ndarray, scale: float, out: np.ndarray,
                          tmp: np.ndarray) -> np.ndarray:
    """scale * sum_k W[k] (a_k - a) over the x+1, x-1, y+1 and y-1
    neighbours a_k of the rows held by `pad`, summed in that order into
    `out`, with `tmp` for each term; each W[k] is shaped like the rows or is
    a scalar."""
    c, *neighbours = pad.views
    _, c_1, c0, _ = pad.columns
    call(np.subtract, neighbours[0], c, out)
    call(np.multiply, out, W[0], out)
    for k in (1, 2, 3):
        call(np.subtract, neighbours[k], c, tmp)
        if k == 2:      # y+1 of the last column is the row's first
            call(np.subtract, c0, c_1, tmp[..., -1])
        elif k == 3:    # y-1 of the first column is the row's last
            call(np.subtract, c_1, c0, tmp[..., 0])
        call(np.multiply, tmp, W[k], tmp)
        call(np.add, out, tmp, out)
    call(np.multiply, out, scale, out)
    return out


def _weight_scales(hx: float, hy: float) -> tuple[float, float, float, float, float]:
    """(ax, bx, ay, by, scale): per node, in units of h^2, h = min(hx, hy),
    a coupling f weighs the x+1 and x-1 neighbours ax f +- bx f_x and the y+1
    and y-1 ones ay f +- by f_y, so that f lap u + grad f . grad u =
    scale sum_k W_k (u_k - u), scale = 1 / h^2.  As ax, ay <= 1, no weight's
    f term exceeds f, whichever spacing is the larger."""
    h = min(hx, hy)
    return (h / hx) ** 2, 0.5 * h * (h / hx), (h / hy) ** 2, 0.5 * h * h / hy, 1.0 / (h * h)


def _laplacian(a: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """The periodic 5-point Laplacian of `a` along its last two axes: the
    weighted sum of the flow right-hand side with the weights of f = 1, read
    from one padded copy of `a`."""
    a = np.asarray(a)
    ax, _, ay, _, scale = _weight_scales(hx, hy)
    out, tmp = (np.empty(a.shape, a.dtype) for _ in range(2))
    return _weighted_differences(_eager, _pad_rows(a, 0, a.shape[-2]), (ax, ax, ay, ay), scale,
                                 out, tmp)


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of `shape` whose data starts on a
    64-byte (cache-line) boundary: a view of a buffer 64 bytes longer."""
    n = math.prod(shape)
    buf = np.empty(n + 8)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip:skip + n].reshape(shape)


#: x-rows are processed in blocks of at most this many nodes, so that the
#: planes one block touches stay near the 2 MiB L2 cache of a core: 64^2
#: and 128^2 run as one block, 256^2 as four.  On a 2-core Xeon, in
#: interleaved in-process rounds of the recorded rhs + step (two sets of
#: 12), the 128^2 LL step took a median 0.42-0.46 ms against 0.45-0.50 ms
#: in blocks of 8,192 nodes, and the 256^2 gradient step 1.79-1.85 ms
#: against 1.82-1.83 ms in 8,192 and 2.15-2.17 ms in 32,768.
BLOCK_NODES = 16_384


def _row_blocks(shape: tuple[int, int]) -> list[tuple[int, int]]:
    """(i0, i1) per block of x-rows i0 <= i < i1 of an (nx, ny) grid; the
    first block is the largest."""
    nx, ny = shape
    rows = max(1, min(nx, BLOCK_NODES // ny))
    return [(i0, min(i0 + rows, nx)) for i0 in range(0, nx, rows)]


class _Workspace:
    """Every array that one evaluation of the flow right-hand side and one
    Euler step of a run write, allocated for its grid, and the calls that
    write them, recorded as _Plans by the kernel functions of the eager
    operators when the workspace is made.

    The arrays are v, F and |grad u|^2, two per-node scratch planes d and
    tmp, and the read-only (4, nx, ny) stencil weights W of the run's
    coupling, in units of min(hx, hy)^2 (see _weight_scales), for the x+1,
    x-1, y+1 and y-1 neighbours.  `blocks` are
    the (i0, i1) of the blocks of x-rows i0 <= i < i1 that the right-hand
    side runs through.  `states` are two (3, nx, ny) views of padded buffers
    that store each plane flat between two halo x-rows, as a _Pad does, so
    the stencil reads its neighbours from the state itself.  `velocity` is
    F on the gradient flow and v (LL) on any other kind; on the gradient
    flow v is only the stencil's scratch, one block in size.  Per state
    buffer the workspace records, for the run's grid, coupling and flow
    kind, one plan in `rhs`, which refreshes the halo rows and writes v and
    F block by block, its row variant in `row_rhs`, which writes |grad u|^2
    too, and one in `step`, which writes u + dt velocity (dt: the 0-d array
    `dt`) into the other state buffer, its norms into d.

    Every array (and each padded buffer) starts on a 64-byte cache line,
    where numpy aligns only to 16 bytes: numpy's AVX-512 loops load 64 bytes
    at a time, and an array that starts off a line splits each such load
    across two lines.  On a 2-core AVX-512 Xeon the 128^2 LL rhs + step took
    a median 0.62-0.66 ms with arrays at 16, 32 or 48 mod 64 and 0.46-0.48
    ms aligned.

    Whoever holds the workspace owns these arrays: the next evaluation
    overwrites v, F and the scratch, and each step the other state buffer.
    """

    def __init__(self, grid: Grid, coupling: Coupling, kind: str):
        nx, ny = grid.shape
        self.blocks = _row_blocks(grid.shape)
        self.v = _aligned((3, self.blocks[0][1] if kind == "gradient" else nx, ny))
        self.F = _aligned((3, nx, ny))
        self.gsq, self.d, self.tmp = (_aligned((nx, ny)) for _ in range(3))
        self.W = self._weights(grid, coupling)
        self.dt = np.zeros(())
        self.velocity = self.F if kind == "gradient" else self.v
        pads = [_aligned((3, (nx + 2) * ny)) for _ in range(2)]
        self.states = tuple(p.reshape(3, nx + 2, ny)[:, 1:-1] for p in pads)
        self.rhs, self.row_rhs = ([self._record_rhs(p, grid, kind, rows) for p in pads]
                                  for rows in (False, True))
        self.step = [self._record_step(u, w) for u, w in zip(self.states, self.states[::-1])]

    def index(self, u: np.ndarray) -> int:
        """The index of the state buffer that holds u; a u that is no state
        buffer is copied into the first one."""
        if u is self.states[1]:
            return 1
        if u is not self.states[0]:
            np.copyto(self.states[0], u)
        return 0

    def _weights(self, grid: Grid, coupling: Coupling) -> np.ndarray:
        """The read-only stencil weights W, written in place (d holds ax f,
        then ay f), so no temporary is made."""
        ax, bx, ay, by, _ = _weight_scales(grid.hx, grid.hy)
        W = _aligned((4,) + grid.shape)
        for k, a, b, f_k in ((0, ax, bx, coupling.grad_x), (2, ay, by, coupling.grad_y)):
            np.multiply(coupling.values, a, self.d)
            np.multiply(f_k, b, W[k + 1])
            np.add(self.d, W[k + 1], W[k])
            np.subtract(self.d, W[k + 1], W[k + 1])
        return _readonly(W)

    def _record_rhs(self, pad: np.ndarray, grid: Grid, kind: str, rows: bool) -> _Plan:
        (nx, ny), hx, hy = grid.shape, grid.hx, grid.hy
        plan, padded = _Plan(), pad.reshape(3, nx + 2, ny)
        u = padded[:, 1:-1]
        plan(np.copyto, padded[:, 0], padded[:, nx])       # the halo rows: x-rows nx - 1 and 0
        plan(np.copyto, padded[:, nx + 1], padded[:, 1])
        for i0, i1 in self.blocks:
            ub, F = u[:, i0:i1], self.F[:, i0:i1]
            s = self.v[:, :i1 - i0] if kind == "gradient" else self.v[:, i0:i1]
            d, tmp = self.d[i0:i1], self.tmp[i0:i1]
            bpad = _Pad(pad[:, i0 * ny:(i1 + 2) * ny], ny)
            if rows:
                # u_y goes into F, which is free until the sum is formed
                ux, uy = _grad_rows(plan, bpad, hx, hy, s, F)
                gsq = _dot(ux, ux, self.gsq[i0:i1], tmp, plan)
                plan(np.add, gsq, _dot(uy, uy, d, tmp, plan), gsq)
            _weighted_differences(plan, bpad, self.W[:, i0:i1], _weight_scales(hx, hy)[4], F, s)
            _project(plan, F, ub, d, tmp)
            if kind != "gradient":
                # the block's LL velocity goes where the scratch was
                _cross(plan, ub, F, s, tmp)
                plan(np.add, s, F, s)
        return plan

    def _record_step(self, u: np.ndarray, w: np.ndarray) -> _Plan:
        plan = _Plan()
        plan(np.multiply, self.velocity, self.dt, w)
        plan(np.add, w, u, w)
        plan(np.sqrt, _dot(w, w, self.d, self.tmp, plan), self.d)
        return plan


def grad(field: SphereField) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference partials (u_x, u_y), each of shape (3, nx, ny)."""
    return _grad_arrays(field.values, field.grid.hx, field.grid.hy)


def grad_squared(field: SphereField) -> np.ndarray:
    """|grad u|^2 = |u_x|^2 + |u_y|^2 per node, from the same stencil as grad,
    block by block of x-rows, so no full-grid gradient is built."""
    u, g = field.values, field.grid
    gsq = np.empty(g.shape)
    blocks = _row_blocks(g.shape)
    rows = blocks[0][1]                             # the first block is the largest
    pad = np.empty(3 * (rows + 2) * g.ny)
    ux, uy = np.empty((2, 3, rows, g.ny))
    d, tmp = np.empty((2, rows, g.ny))
    for i0, i1 in blocks:
        b = i1 - i0
        bx, by = _grad_rows(_eager, _pad_rows(u, i0, i1, pad), g.hx, g.hy, ux[:, :b], uy[:, :b])
        _dot(bx, bx, gsq[i0:i1], tmp[:b])
        gsq[i0:i1] += _dot(by, by, d[:b], tmp[:b])
    return gsq


def laplacian(field: SphereField) -> np.ndarray:
    """5-point periodic Laplacian (the weighted sum of ps_residual at f = 1)."""
    return _laplacian(field.values, field.grid.hx, field.grid.hy)


def _rhs_arrays(u: np.ndarray, ws: _Workspace, rows: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Shared core: flow velocity v, defect F = P_u(f lap u + grad f . grad u)
    and, with `rows`, |grad u|^2 (else None), all from one pass over the
    blocks of x-rows, for a component-major (3, nx, ny) u, which need not be
    exactly unit-norm, under the grid, coupling and flow kind of `ws`; for
    the gradient flow v is F.

    The results are arrays of `ws`, written by replaying the right-hand-side
    plan (or with `rows` its row variant) of the state buffer of `ws` that
    holds u (u is copied into one first if it is none); nothing is
    allocated.  Overflow and invalid operations are not reported: a
    non-finite velocity is the blow-up signature the caller scans for.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (ws.row_rhs if rows else ws.rhs)[ws.index(u)].run()
    return ws.velocity, ws.F, ws.gsq if rows else None


def tension(field: SphereField) -> TangentField:
    """Tension field tau(u) = lap u + |grad u|^2 u, tangentially projected
    (formed as P_u(lap u), equal at |u| = 1): ps_residual with f = 1.

    The continuum tension is automatically tangent; the discrete one is not,
    so the normal component is removed to keep downstream identities exact.
    """
    g, u = field.grid, field.values
    tau = _laplacian(u, g.hx, g.hy)
    return TangentField(g, _project(_eager, tau, u, *np.empty((2,) + g.shape)))


def ps_residual(field: SphereField, coupling: Coupling) -> TangentField:
    """Palais-Smale defect f*tau(u) + grad f . grad u, tangentially projected
    (formed as P_u(f lap u + grad f . grad u), equal at |u| = 1).

    Vanishes exactly when u is a discrete stationary point of the weighted
    energy; along the gradient flow it doubles as the flow velocity.
    """
    _check_same_grid(field, coupling)
    _, F, _ = _rhs_arrays(field.values, _Workspace(field.grid, coupling, "gradient"))
    return TangentField(field.grid, F)


def ll_velocity(field: SphereField, coupling: Coupling) -> TangentField:
    """Landau-Lifshitz velocity F + u x F with F = f*tau(u) + grad f . grad u.

    Since F is tangent and |u| = 1, the dissipative and precessional parts
    are orthogonal and |v|^2 = 2 |F|^2 per node.
    """
    _check_same_grid(field, coupling)
    v, _, _ = _rhs_arrays(field.values, _Workspace(field.grid, coupling, "landau_lifshitz"))
    return TangentField(field.grid, v)


def _check_same_grid(field: SphereField, coupling: Coupling) -> None:
    if coupling.values.shape != field.grid.shape:
        raise ValueError("field and coupling live on different grids")
