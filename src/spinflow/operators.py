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

from .domain import Coupling, Grid, _dot, _grad_arrays, _Pad, _readonly, _stencil
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


def _project(w: np.ndarray, u: np.ndarray, d: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """Tangential projection w - <w, u> u in place (assumes |u| = 1), with
    <w, u> written into `d` and the products into `tmp` when they are given."""
    d = _dot(w, u, d, tmp)
    for k in range(3):
        tmp = np.multiply(d, u[k], out=tmp)
        w[k] -= tmp
    return w


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray,
           tmp: np.ndarray | None = None) -> np.ndarray:
    """a x b of component-major arrays, written into `out`."""
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[i], b[j], out=out[k])
        tmp = np.multiply(a[j], b[i], out=tmp)
        out[k] -= tmp
    return out


#: x-rows are processed in blocks of at most this many nodes, so that the
#: planes one block touches stay near the 2 MiB L2 cache of a core: 64^2
#: and 128^2 run as one block, 256^2 as four.  On a 2-core Xeon, the LL
#: right-hand side at 128^2 took 1.13 ms in-process as one block against
#: 1.22 ms in two; the perfbench workload observed-grad-256 took a median
#: 7.01 s wall and 77.0 MB peak RSS in four blocks against 7.73 s and
#: 81.8 MB as one (10 alternating pairs, four blocks faster in all ten).
BLOCK_NODES = 16_384


def _row_blocks(shape: tuple[int, int], vectors: int) -> list[tuple]:
    """(i0, i1, pad, *scratch) per block of x-rows i0 <= i < i1 of a (3, nx,
    ny) array: the block's _Pad and `vectors` vector scratch arrays shaped
    like its rows, all views of buffers sized for the largest block."""
    nx, ny = shape
    rows = max(1, min(nx, BLOCK_NODES // ny))
    pad = np.empty(3 * (rows + 2) * ny)
    scratch = np.empty((vectors, 3 * rows * ny))
    blocks = []
    for i0 in range(0, nx, rows):
        i1 = min(i0 + rows, nx)
        blocks.append((i0, i1, _Pad((3,), i1 - i0, ny, pad),
                       *(a[:3 * (i1 - i0) * ny].reshape(3, i1 - i0, ny) for a in scratch)))
    return blocks


class _Workspace:
    """Every array one evaluation of the flow right-hand side and one step
    write, allocated once for a (nx, ny) grid: the outputs v, F and
    |grad u|^2, two per-node scratch planes d and tmp, two state buffers for
    the stepping loop, and the vector scratch of one block of x-rows.

    `blocks` lists (i0, i1, pad, u_y, tmp3) per block of x-rows
    i0 <= i < i1 (see _row_blocks).  Whoever holds the workspace owns these
    arrays: the next evaluation overwrites v, F, |grad u|^2 and the scratch,
    and each step the other state buffer.
    """

    def __init__(self, shape: tuple[int, int]):
        nx, ny = shape
        self.shape = (nx, ny)
        self.v = np.empty((3, nx, ny))
        self.F = np.empty((3, nx, ny))
        self.gsq, self.d, self.tmp = np.empty((3, nx, ny))
        self.blocks = _row_blocks(self.shape, 2)     # u_y and the stencil's tmp
        self._states = None

    def next_state(self, u: np.ndarray) -> np.ndarray:
        """The state buffer that does not hold u; both are made at the first call."""
        if self._states is None:
            self._states = (np.empty((3,) + self.shape), np.empty((3,) + self.shape))
        a, b = self._states
        return b if u is a else a


def grad(field: SphereField) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference partials (u_x, u_y), each of shape (3, nx, ny)."""
    return _grad_arrays(field.values, field.grid.hx, field.grid.hy)


def grad_squared(field: SphereField) -> np.ndarray:
    """|grad u|^2 = |u_x|^2 + |u_y|^2 per node, from the same stencil as grad,
    block by block of x-rows, so no full-grid gradient is built."""
    u, g = field.values, field.grid
    gsq = np.empty(g.shape)
    blocks = _row_blocks(g.shape, 2)
    d, tmp = np.empty((2, blocks[0][1], g.ny))     # planes for the first, largest block
    for i0, i1, pad, ux, uy in blocks:
        ux, uy = _grad_arrays(u, g.hx, g.hy, (i0, i1), (ux, uy), pad)
        b = i1 - i0
        _dot(ux, ux, gsq[i0:i1], tmp[:b])
        gsq[i0:i1] += _dot(uy, uy, d[:b], tmp[:b])
    return gsq


def laplacian(field: SphereField) -> np.ndarray:
    """5-point periodic Laplacian."""
    return _stencil(field.values, field.grid.hx, field.grid.hy)[2]


def _tension_arrays(u: np.ndarray, hx: float, hy: float,
                    rows: tuple[int, int] | None = None,
                    out: tuple[np.ndarray, ...] | None = None,
                    scratch: tuple | None = None):
    """(tau, u_x, u_y, |grad u|^2) of a component-major u at its x-rows
    i0 <= i < i1 (rows = (i0, i1), all rows by default) from one stencil
    evaluation, tau = lap u + |grad u|^2 u tangentially projected.

    The results are written into `out`, four arrays shaped like those rows
    in the order returned; `scratch` = (pad, tmp3, d, tmp) is the stencil's
    pad and vector scratch (see _stencil: u_x may be tmp3) and two per-node
    planes.  Without them the arrays are allocated.
    """
    ub = u if rows is None else u[:, rows[0]:rows[1]]
    tau, ux, uy, gsq = out or (None,) * 4
    pad, tmp3, d, tmp = scratch or (None,) * 4
    ux, uy, tau = _stencil(u, hx, hy, rows, out and (ux, uy, tau), pad, tmp3)
    gsq = _dot(ux, ux, gsq, tmp)
    gsq += _dot(uy, uy, d, tmp)
    for k in range(3):
        tmp = np.multiply(gsq, ub[k], out=tmp)
        tau[k] += tmp
    return _project(tau, ub, d, tmp), ux, uy, gsq


def _rhs_arrays(u: np.ndarray, hx: float, hy: float, coupling: Coupling, kind: str,
                ws: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared core: flow velocity v, defect F = f*tau + grad f . grad u, and
    |grad u|^2, all from one stencil evaluation, for a component-major
    (3, nx, ny) u.  `u` need not be exactly unit-norm (intermediate
    Runge-Kutta stages are not).  `kind` is canonical: FlowConfig checks it,
    and any other kind gives the LL velocity; for the gradient flow v is F.

    The results are the arrays of the workspace `ws` (a one-shot one when
    none is given), computed block by block of x-rows in the block's scratch
    and in the result arrays themselves; with a workspace nothing is
    allocated.  Overflow and invalid operations are not reported: a
    non-finite velocity is the blow-up signature the caller scans for.
    """
    if ws is None:
        ws = _Workspace(u.shape[1:])
    v, F, gsq = ws.v, ws.F, ws.gsq
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1, pad, uy, tmp3 in ws.blocks:
            ub, d, tmp = u[:, i0:i1], ws.d[i0:i1], ws.tmp[i0:i1]
            # u_x goes where the block's LL velocity is written last; the
            # gradient flow's v is F, so its u_x takes the stencil's scratch
            # and v is never touched
            ux = tmp3 if kind == "gradient" else v[:, i0:i1]
            Fb, ux, uy, _ = _tension_arrays(u, hx, hy, (i0, i1),
                                            (F[:, i0:i1], ux, uy, gsq[i0:i1]),
                                            (pad, tmp3, d, tmp))
            Fb *= coupling.values[i0:i1]
            ux *= coupling.grad_x[i0:i1]
            Fb += ux
            uy *= coupling.grad_y[i0:i1]
            Fb += uy
            _project(Fb, ub, d, tmp)
            if kind != "gradient":
                _cross(ub, Fb, out=ux, tmp=tmp)
                ux += Fb
    if kind == "gradient":
        return F, F, gsq
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
