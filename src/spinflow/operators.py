"""Discrete differential operators and flow right-hand sides.

Everything is second order: central first differences with periodic wrap for
the gradient, the 5-point stencil for the Laplacian.  Fields returned as
TangentField are re-projected onto the tangent plane of the paired sphere
field, so the per-node orthogonality invariant holds at machine precision
rather than merely at stencil order.

The flow right-hand side forms the defect as P_u(f lap u + grad f . grad u):
at |u| = 1, f*tau(u) differs from f lap u by the normal f |grad u|^2 u,
which the one projection removes.  Only its row variant forms |grad u|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (Coupling, Grid, _dot, _eager, _grad_arrays, _grad_rows, _Pad, _pad_rows,
                     _Plan, _readonly, _stencil, _stencil_rows)
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
#: interleaved in-process rounds of the recorded step on aligned arrays
#: (two sets), the 128^2 LL step took a median 0.57-0.64 ms against
#: 0.60-0.67 ms in blocks of 8,192 nodes and 0.81-0.85 ms in 4,096, and
#: the 256^2 gradient step 2.43-2.44 ms against 2.43-2.49 ms in 8,192 and
#: 2.85-2.91 ms in 32,768.
BLOCK_NODES = 16_384


def _row_blocks(shape: tuple[int, int], vectors: int) -> list[tuple]:
    """(i0, i1, *scratch) per block of x-rows i0 <= i < i1 of a (3, nx, ny)
    array: `vectors` vector scratch arrays shaped like the block's rows,
    views of buffers sized for the largest block."""
    nx, ny = shape
    rows = max(1, min(nx, BLOCK_NODES // ny))
    scratch = _aligned((vectors, 3 * rows * ny))
    blocks = []
    for i0 in range(0, nx, rows):
        i1 = min(i0 + rows, nx)
        blocks.append((i0, i1, *(a[:3 * (i1 - i0) * ny].reshape(3, i1 - i0, ny) for a in scratch)))
    return blocks


class _Workspace:
    """Every array that one evaluation of the flow right-hand side and one
    Euler step of a run write, allocated for its grid, and the calls that
    write them, recorded as _Plans by the kernel functions of the eager
    operators when the workspace is made.

    The arrays are v, F and |grad u|^2, two per-node scratch planes d and
    tmp, and `blocks`, (i0, i1, u_y scratch) per block of x-rows
    i0 <= i < i1.  `states` are two (3, nx, ny) views of padded buffers that
    store each plane flat between two halo x-rows, as a _Pad does, so the
    stencil reads its neighbours from the state itself.  `velocity` is F on
    the gradient flow and v (LL) on any other kind.  Per state buffer the
    workspace records, for the run's grid, coupling and flow kind, one plan
    in `rhs`, which refreshes the halo rows and writes v, F and the
    stencil's scratch block by block, its row variant in `row_rhs`, which
    writes |grad u|^2 too, and one in `step`, which writes u + dt velocity
    (dt: the 0-d array `dt`) into the other state buffer, its norms into d.

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
        self.v = _aligned((3, nx, ny))
        self.F = _aligned((3, nx, ny))
        self.gsq, self.d, self.tmp = (_aligned((nx, ny)) for _ in range(3))
        self.dt = np.zeros(())
        self.velocity = self.F if kind == "gradient" else self.v
        self.blocks = _row_blocks(grid.shape, 1)
        pads = [_aligned((3, (nx + 2) * ny)) for _ in range(2)]
        self.states = tuple(p.reshape(3, nx + 2, ny)[:, 1:-1] for p in pads)
        self.rhs, self.row_rhs = ([self._record_rhs(p, grid, coupling, kind, rows) for p in pads]
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

    def _record_rhs(self, pad: np.ndarray, grid: Grid, coupling: Coupling, kind: str,
                    rows: bool) -> _Plan:
        (nx, ny), hx, hy = grid.shape, grid.hx, grid.hy
        plan, padded = _Plan(), pad.reshape(3, nx + 2, ny)
        u = padded[:, 1:-1]
        plan(np.copyto, padded[:, 0], padded[:, nx])       # the halo rows: x-rows nx - 1 and 0
        plan(np.copyto, padded[:, nx + 1], padded[:, 1])
        for i0, i1, uy in self.blocks:
            ub, F, ux = u[:, i0:i1], self.F[:, i0:i1], self.v[:, i0:i1]
            d, tmp = self.d[i0:i1], self.tmp[i0:i1]
            _stencil_rows(plan, _Pad(pad[:, i0 * ny:(i1 + 2) * ny], ny), hx, hy, ux, uy, F)
            if rows:
                gsq = _dot(ux, ux, self.gsq[i0:i1], tmp, plan)
                plan(np.add, gsq, _dot(uy, uy, d, tmp, plan), gsq)
            plan(np.multiply, F, coupling.values[i0:i1], F)
            plan(np.multiply, ux, coupling.grad_x[i0:i1], ux)
            plan(np.add, F, ux, F)
            plan(np.multiply, uy, coupling.grad_y[i0:i1], uy)
            plan(np.add, F, uy, F)
            _project(plan, F, ub, d, tmp)
            if kind != "gradient":
                # the block's LL velocity goes where u_x was
                _cross(plan, ub, F, ux, tmp)
                plan(np.add, ux, F, ux)
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
    blocks = _row_blocks(g.shape, 2)
    rows = blocks[0][1]                             # the first block is the largest
    pad = np.empty(3 * (rows + 2) * g.ny)
    d, tmp = np.empty((2, rows, g.ny))
    for i0, i1, ux, uy in blocks:
        _grad_rows(_eager, _pad_rows(u, i0, i1, pad), g.hx, g.hy, ux, uy)
        b = i1 - i0
        _dot(ux, ux, gsq[i0:i1], tmp[:b])
        gsq[i0:i1] += _dot(uy, uy, d[:b], tmp[:b])
    return gsq


def laplacian(field: SphereField) -> np.ndarray:
    """5-point periodic Laplacian."""
    return _stencil(field.values, field.grid.hx, field.grid.hy)[2]


def _rhs_arrays(u: np.ndarray, ws: _Workspace, rows: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Shared core: flow velocity v, defect F = P_u(f lap u + grad f . grad u)
    and, with `rows`, |grad u|^2 (else None), all from one stencil
    evaluation, for a component-major (3, nx, ny) u, which need not be
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
    """Tension field tau(u) = lap u + |grad u|^2 u, tangentially projected.

    The continuum tension is automatically tangent; the discrete one is not,
    so the normal component is removed to keep downstream identities exact.
    """
    g, u = field.grid, field.values
    ux, uy, tau = _stencil(u, g.hx, g.hy)
    tau += (_dot(ux, ux) + _dot(uy, uy)) * u
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
