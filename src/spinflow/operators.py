"""Discrete differential operators and flow right-hand sides.

Everything is second order: central first differences with periodic wrap for
the gradient, the 5-point stencil for the Laplacian.  Fields returned as
TangentField are re-projected onto the tangent plane of the paired sphere
field, so the per-node orthogonality invariant holds at machine precision
rather than merely at stencil order.

The flow right-hand side forms the defect as P_u(G), G = f lap u +
grad f . grad u = div(f grad u) in its 5-point form: one weighted sum of
neighbour differences, G = (1 / h^2) sum_k W_k (u_k - u) with
h = min(hx, hy), whose per-node weights W the coupling builds once.
At |u| = 1, f*tau(u) differs from f lap u by the normal f |grad u|^2 u,
which the one projection removes.  Only its row variant forms |grad u|^2.
The Laplacian is the same sum with the weights of f = 1, and the tension
P_u(lap u), so tension(u) is ps_residual(u, f = 1) bit for bit.

A run's stepping loop holds a _Workspace: its arrays and its recorded
calls (plans), one per part of the x-rows.  A run on two CPUs splits the
x-rows into two halves and keeps the arrays in one shared arena, and a
_Team of the main process and one forked worker replays the two parts of
each plan at once; every call is the same element-wise ufunc call on the
same rows, so the bits do not depend on who makes it; so are the
reductions of each half into slots that main reads.  ps_residual and
ll_velocity make the calls of one evaluation at once on one padded copy of
u, with no workspace.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .domain import (Coupling, Grid, _aligned, _dot, _eager, _grad_arrays, _grad_rows, _Pad,
                     _pad_rows, _Plan, _readonly, _scale, _weight_scales)
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


def _project(call, w: np.ndarray, u: np.ndarray, d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Tangential projection w - <w, u> u in place (assumes |u| = 1), with
    <w, u> written into `d` and the products into the 3-plane scratch `s`."""
    _dot(w, u, d, s[0], call)
    call(np.multiply, d, u, s)
    call(np.subtract, w, s, w)
    return w


def _sum_squares(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum a * a into the 0-d `out`; einsum, as np.dot's bits vary with OPENBLAS_NUM_THREADS."""
    return np.einsum("ijk,ijk->", a, a, out=out)


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
    return _scale(call, out, scale, out)


def _laplacian(a: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """The periodic 5-point Laplacian of `a` along its last two axes: the
    weighted sum of the flow right-hand side with the weights of f = 1, read
    from one padded copy of `a`."""
    a = np.asarray(a)
    ax, _, ay, _, scale = _weight_scales(hx, hy)
    out, tmp = (np.empty(a.shape, a.dtype) for _ in range(2))
    return _weighted_differences(_eager, _pad_rows(a, 0, a.shape[-2]), (ax, ax, ay, ay), scale,
                                 out, tmp)


def _arrays(shapes: list[tuple[int, ...]], shared: bool = False
            ) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """(arena, arrays): uninitialised float64 arrays of `shapes`, each
    starting on a 64-byte (cache-line) boundary.  If `shared` they are
    views of one arena, an anonymous shared mapping, which a forked process
    writes for its parent too; else each is its own numpy buffer (arena
    None), which can reuse heap memory that numpy freed: at 128^2 one
    fresh buffer for all of them raised a run's peak RSS by 1.4 MB."""
    if not shared:
        return None, [_aligned(s) for s in shapes]
    sizes = [-(-8 * math.prod(s) // 64) * 64 for s in shapes]
    arena = np.frombuffer(mmap.mmap(-1, sum(sizes)), np.uint8)
    out, start = [], 0
    for s, size in zip(shapes, sizes):
        out.append(arena[start:start + 8 * math.prod(s)].view(np.float64).reshape(s))
        start += size
    return arena, out


#: x-rows are processed in blocks of at most this many nodes, so that the
#: planes one block touches stay near the 2 MiB L2 cache of a core: 64^2
#: and 128^2 run as one block (per part), 256^2 as four (two per part of a
#: team of two).  On a 2-core Xeon, in
#: interleaved in-process rounds of the recorded rhs + step (two sets of
#: 12), the 128^2 LL step took a median 0.42-0.46 ms against 0.45-0.50 ms
#: in blocks of 8,192 nodes, and the 256^2 gradient step 1.79-1.85 ms
#: against 1.82-1.83 ms in 8,192 and 2.15-2.17 ms in 32,768.
BLOCK_NODES = 16_384


def _row_blocks(shape: tuple[int, int], i0: int = 0, i1: int | None = None
                ) -> list[tuple[int, int]]:
    """(a, b) per block of x-rows a <= i < b of the x-rows i0 <= i < i1
    (default: all) of an (nx, ny) grid; the first block is the largest."""
    nx, ny = shape
    i1 = nx if i1 is None else i1
    rows = max(1, min(i1 - i0, BLOCK_NODES // ny))
    return [(a, min(a + rows, i1)) for a in range(i0, i1, rows)]


def _rhs_block(call, pad: _Pad, W: np.ndarray, grid: Grid, F: np.ndarray, s: np.ndarray,
               d: np.ndarray, tmp: np.ndarray, gsq: np.ndarray | None, ll: bool) -> None:
    """The calls of the right-hand side on the block of x-rows u held by
    `pad` (pad.views[0]; W, F, s, d, tmp and gsq: the block's rows of
    each): with gsq, |grad u|^2 into gsq, then the defect into F and on LL
    (`ll`) the velocity u x F + F into s, which is scratch otherwise."""
    u = pad.views[0]
    if gsq is not None:
        # u_y goes into F, which is free until the sum is formed
        ux, uy = _grad_rows(call, pad, grid.hx, grid.hy, s, F)
        _dot(ux, ux, gsq, tmp, call)
        call(np.add, gsq, _dot(uy, uy, d, tmp, call), gsq)
    _weighted_differences(call, pad, W, _weight_scales(grid.hx, grid.hy)[4], F, s)
    _project(call, F, u, d, s)
    if ll:
        # the block's LL velocity goes where the scratch was
        _cross(call, u, F, s, tmp)
        call(np.add, s, F, s)


#: a run is stepped by a team of two only on a grid of at least this many
#: nodes.  On a 2-core Xeon VM, over 8 runs per team size that alternate in
#: one process, the team's step took a median 1.03 times the serial step at
#: 48^2 (gradient, 3,000 steps), 1.00 at 64^2 and 0.88 in relax at 64^2,
#: and 0.65 at 128^2 (LL); at 32^2 and 40^2 it took 82-100 us against 60-77.
TEAM_NODES = 4_096

#: the team's control words: main's command count and the command (the
#: index of a plan), then, on the next cache line, the worker's done count
_GO, _CMD, _DONE = 0, 1, 8

#: reads of a control word before each further read yields the CPU
_SPINS = 2_000

#: x86 stores become visible to other cores in program order, so a count
#: seen by one process implies the rows the other wrote before posting it
_ORDERED_STORES = os.uname().machine in ("x86_64", "AMD64", "i386", "i686")

#: prctl(2) option: the signal a process gets when its parent dies
_PR_SET_PDEATHSIG = 1


def _team_size(grid: Grid, budget: int) -> int:
    """2 if a run of `budget` steps on `grid` is stepped by the main process
    and one forked worker, else 1: the affinity mask must hold two CPUs,
    the process must run no other thread (fork copies only the calling
    one), the budget must be more than one step and the grid at least
    TEAM_NODES nodes.  relax's budget is max_steps + 1, one more than the
    steps it takes, so a relax of one step may fork."""
    can_fork = (_ORDERED_STORES and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                and threading.active_count() == 1)
    return 2 if (can_fork and budget > 1 and grid.nx * grid.ny >= TEAM_NODES
                 and len(os.sched_getaffinity(0)) >= 2) else 1


def _pin(cpus: set[int]) -> None:
    """Restrict the calling process to `cpus`, where the system lets it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _serve(ctl: memoryview, plans: list[_Plan], cpu: int, parent: int) -> None:
    """The life of a forked worker, pinned to `cpu`: replay plans[ctl[_CMD]]
    at every command count after the one it was forked at, then post that
    count as done, until the parent kills it or dies.  It ignores SIGINT,
    which a terminal sends the whole process group, and leaves only by
    os._exit, so it flushes no stdio buffer it inherited."""
    code = 1
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
        if os.getppid() != parent:          # the parent died before prctl
            code = 0
            return
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        np.seterr(all="ignore")
        _pin({cpu})
        seen = ctl[_DONE]
        while True:
            spins = 0
            while ctl[_GO] == seen:
                spins += 1
                if spins > _SPINS:
                    os.sched_yield()
            seen = ctl[_GO]
            plans[ctl[_CMD]].run()
            ctl[_DONE] = seen
    finally:
        os._exit(code)


class _Team:
    """Who replays the parts of the plans of a workspace: the main process
    alone, or, between start() and close(), main the first part and a
    forked worker the second, at the same time.

    The worker writes the shared arena of the workspace.  Each run(parts)
    is a spin barrier on the control words `ctl`: main posts the command
    and its count, replays part 0, and waits until the worker posts the
    count as done.  Both wait by reading the word _SPINS times and then
    yielding the CPU between reads, so a contended core slows the run
    rather than stalling it; main also checks that the worker still lives.
    While the worker lives, main and it are pinned to two CPUs of main's
    affinity mask, which close() restores.
    """

    def __init__(self, ctl: memoryview, plans: list[tuple[_Plan, ...]]):
        self.ctl, self.plans = ctl, plans
        self.index = {id(parts): k for k, parts in enumerate(plans)}
        self.pid = self.mask = None

    def start(self) -> None:
        """Fork the worker, which replays the second part of each plan, if
        the plans have two parts; if they have one, or the system refuses
        the fork, main goes on replaying every part."""
        if len(self.plans[0]) < 2:
            return
        cpus = sorted(os.sched_getaffinity(0))[:2]
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:
            return
        if pid == 0:
            _serve(self.ctl, [parts[-1] for parts in self.plans], cpus[-1], parent)
        self.pid, self.mask = pid, os.sched_getaffinity(0)
        _pin({cpus[0]})

    def run(self, parts: tuple[_Plan, ...]) -> None:
        """Replay every part of a plan of the workspace."""
        if self.pid is None:
            for plan in parts:
                plan.run()
            return
        ctl = self.ctl
        ctl[_CMD] = self.index[id(parts)]
        count = ctl[_GO] + 1
        ctl[_GO] = count
        parts[0].run()
        spins = 0
        while ctl[_DONE] != count:
            spins += 1
            if spins > _SPINS:
                os.sched_yield()
                pid, status = os.waitpid(self.pid, os.WNOHANG)
                if pid:
                    self.pid = None
                    raise RuntimeError(f"the step worker process died: exit code "
                                       f"{os.waitstatus_to_exitcode(status)}")

    def close(self) -> None:
        """Kill and reap the worker, if one lives, and restore main's mask."""
        if self.pid is not None:
            pid, self.pid = self.pid, None
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if self.mask is not None:
            _pin(self.mask)
            self.mask = None


class _Workspace:
    """Every array that one evaluation of the flow right-hand side and one
    Euler step of a run write (for a team of two in one shared `arena`,
    see _arrays), and the calls that write them, recorded as _Plans by the
    kernel functions of the eager operators when the workspace is made.

    The arrays are v and F, both (3, nx, ny), |grad u|^2, two per-node
    scratch planes d and tmp, the 0-d `dt`, the slots `sums` and `bounds`
    and the control words of the team; `W` is the coupling's
    Coupling._stencil_weights, which each process reads from its own
    memory.  The x-rows fall into two `halves`, rows [0, ceil(nx/2)) and
    the rest, and into one part per member of the team that will step the
    run (`team_size`): `parts` are (i0, i1) with i0 <= i < i1, all x-rows or
    the two halves; `blocks` are the blocks of x-rows of the parts, each
    part's in order.  `states` are two (3, nx, ny) views of padded buffers
    that store each plane flat between two halo x-rows, as a _Pad does, so
    the stencil reads its neighbours from the state itself; states[current]
    holds the run's state (0 until a step moves it, see flow._apply_step),
    and the other buffer is the next step's target.  `velocity` is F
    on the gradient flow and v (LL) on any other kind, where v is only the
    stencil's scratch.

    Per state buffer the workspace records, for the run's grid, coupling
    and flow kind, a tuple of one plan per part: in `rhs`, which write v
    and F block by block, in `row_rhs`, which write |grad u|^2 too, and in
    `step`, which write u + dt velocity into the other state buffer, its
    norms into d, and divide it by them.  Part 0 first refreshes the top
    halo row and the last part the bottom one; no part writes a row of
    another.  Each part ends by reducing each half h it holds (a team of
    one's both): an rhs plan sums |velocity|^2 into sums[h], a step plan
    takes the least and greatest norm into bounds[h].  `team` replays the
    parts (see _Team).

    Every array (each padded buffer and W too) starts on a 64-byte cache line,
    where numpy aligns only to 16 bytes: numpy's AVX-512 loops load 64 bytes
    at a time, and an array that starts off a line splits each such load
    across two lines.  On a 2-core AVX-512 Xeon the 128^2 LL rhs + step took
    a median 0.62-0.66 ms with arrays at 16, 32 or 48 mod 64 and 0.46-0.48
    ms aligned.

    Whoever holds the workspace owns these arrays: the next evaluation
    overwrites v, F, the scratch and `sums`, and each step the other state
    buffer and `bounds`; it loads the first state into states[0].
    """

    def __init__(self, grid: Grid, coupling: Coupling, kind: str, team_size: int = 1):
        _check_same_grid(grid, coupling)
        self.W = coupling._stencil_weights      # built before the arrays: its scratch is freed
        nx, ny = grid.shape
        half = (nx + 1) // 2
        self.halves = [(0, half), (half, nx)]
        self.parts = [(0, nx)] if team_size == 1 else self.halves
        self.blocks = [b for part in self.parts for b in _row_blocks(grid.shape, *part)]
        self.arena, arrays = _arrays([(3, nx, ny)] * 2 + [(nx, ny)] * 3 + [(), (2,), (2, 2), (16,)]
                                     + [(3, (nx + 2) * ny)] * 2, shared=team_size > 1)
        self.v, self.F, self.gsq, self.d, self.tmp, self.dt, *arrays = arrays
        self.sums, self.bounds, ctl, *pads = arrays
        self.velocity = self.F if kind == "gradient" else self.v
        self.states = tuple(p.reshape(3, nx + 2, ny)[:, 1:-1] for p in pads)
        self.current = 0
        self.rhs, self.row_rhs = ([tuple(self._record_rhs(p, grid, kind, rows, k)
                                         for k in range(team_size)) for p in pads]
                                  for rows in (False, True))
        self.step = [tuple(self._record_step(u, w, i0, i1) for i0, i1 in self.parts)
                     for u, w in zip(self.states, self.states[::-1])]
        ctl = ctl.view(np.int64)
        ctl[:] = 0
        self.team = _Team(memoryview(ctl), self.rhs + self.row_rhs + self.step)

    def _record_rhs(self, pad: np.ndarray, grid: Grid, kind: str, rows: bool, k: int) -> _Plan:
        (nx, ny), plan = grid.shape, _Plan()
        padded = pad.reshape(3, nx + 2, ny)
        if k == 0:
            plan(np.copyto, padded[:, 0], padded[:, nx])       # the top halo: x-row nx - 1
        if k == len(self.parts) - 1:
            plan(np.copyto, padded[:, nx + 1], padded[:, 1])   # the bottom one: x-row 0
        for i0, i1 in _row_blocks(grid.shape, *self.parts[k]):
            _rhs_block(plan, _Pad(pad[:, i0 * ny:(i1 + 2) * ny], ny), self.W[:, i0:i1], grid,
                       self.F[:, i0:i1], self.v[:, i0:i1], self.d[i0:i1], self.tmp[i0:i1],
                       self.gsq[i0:i1] if rows else None, kind != "gradient")
        for h, (a, b) in enumerate(self.halves):
            if self.parts[k][0] <= a < self.parts[k][1]:
                plan(_sum_squares, self.velocity[:, a:b], self.sums[h, ...])
        return plan

    def _record_step(self, u: np.ndarray, w: np.ndarray, i0: int, i1: int) -> _Plan:
        plan = _Plan()
        u, w, v, d = u[:, i0:i1], w[:, i0:i1], self.velocity[:, i0:i1], self.d[i0:i1]
        _scale(plan, v, self.dt, w)
        plan(np.add, w, u, w)
        plan(np.sqrt, _dot(w, w, d, self.tmp[i0:i1], plan), d)
        plan(np.divide, w, d, w)
        for h, (a, b) in enumerate(self.halves):
            if i0 <= a < i1:
                plan(np.minimum.reduce, self.d[a:b], None, None, self.bounds[h, 0, ...])
                plan(np.maximum.reduce, self.d[a:b], None, None, self.bounds[h, 1, ...])
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


def _rhs_arrays(ws: _Workspace, rows: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Shared core: flow velocity v, defect F = P_u(f lap u + grad f . grad u)
    and, with `rows`, |grad u|^2 (else None), all from one pass over the
    blocks of x-rows, for the run's state u = ws.states[ws.current], which
    need not be exactly unit-norm, under the grid, coupling and flow kind of
    `ws`; for the gradient flow v is F.

    The results are arrays of `ws`, written by the team of `ws` replaying
    the parts of the right-hand-side plan (or with `rows` its row variant)
    of the current state buffer; nothing is allocated.  Overflow and
    invalid operations are not reported: a non-finite velocity is the
    blow-up signature the caller scans for.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ws.team.run((ws.row_rhs if rows else ws.rhs)[ws.current])
    return ws.velocity, ws.F, ws.gsq if rows else None


def _one_shot(field: SphereField, coupling: Coupling, kind: str) -> np.ndarray:
    """The velocity of flow `kind` at `field` (F on the gradient flow), by
    the calls of the right-hand-side plan made at once on one padded copy
    of its values: no second state buffer, no plan and no team."""
    g = field.grid
    _check_same_grid(g, coupling)
    W = coupling._stencil_weights       # built before the arrays: its scratch is freed
    (nx, ny), blocks = g.shape, _row_blocks(g.shape)
    b = blocks[0][1]                                # the first block is the largest
    _, (out, other, pad, d, tmp) = _arrays([(3, nx, ny)] * 2 + [(3, (nx + 2) * ny)]
                                           + [(b, ny)] * 2)
    _pad_rows(field.values, 0, nx, pad)
    ll = kind != "gradient"
    F, s = (other, out) if ll else (out, other)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0, i1 in blocks:
            _rhs_block(_eager, _Pad(pad[:, i0 * ny:(i1 + 2) * ny], ny), W[:, i0:i1], g,
                       F[:, i0:i1], s[:, i0:i1], d[:i1 - i0], tmp[:i1 - i0], None, ll)
    return out


def tension(field: SphereField) -> TangentField:
    """Tension field tau(u) = lap u + |grad u|^2 u, tangentially projected
    (formed as P_u(lap u), equal at |u| = 1): ps_residual with f = 1.

    The continuum tension is automatically tangent; the discrete one is not,
    so the normal component is removed to keep downstream identities exact.
    """
    g, u = field.grid, field.values
    tau = _laplacian(u, g.hx, g.hy)
    return TangentField(g, _project(_eager, tau, u, np.empty(g.shape), np.empty(u.shape)))


def ps_residual(field: SphereField, coupling: Coupling) -> TangentField:
    """Palais-Smale defect f*tau(u) + grad f . grad u, tangentially projected
    (formed as P_u(f lap u + grad f . grad u), equal at |u| = 1).

    Vanishes exactly when u is a discrete stationary point of the weighted
    energy; along the gradient flow it doubles as the flow velocity.
    """
    return TangentField(field.grid, _one_shot(field, coupling, "gradient"))


def ll_velocity(field: SphereField, coupling: Coupling) -> TangentField:
    """Landau-Lifshitz velocity F + u x F with F = f*tau(u) + grad f . grad u.

    Since F is tangent and |u| = 1, the dissipative and precessional parts
    are orthogonal and |v|^2 = 2 |F|^2 per node.
    """
    return TangentField(field.grid, _one_shot(field, coupling, "landau_lifshitz"))


def _check_same_grid(grid: Grid, coupling: Coupling) -> None:
    """Refuse a coupling on another grid: its weights carry that grid's spacing."""
    if coupling.grid != grid:
        raise ValueError("field and coupling live on different grids")
