"""Ownership of the arrays of the stepping loop's workspace.

The loop reuses one set of arrays for the whole run: v, F and |grad u|^2
are overwritten at every evaluation, and the states alternate between two
buffers.  Whatever leaves the loop (snapshot-sink states, relax's best
iterate, step()'s result) must not change when the loop goes on.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import spinflow as sf
from spinflow import domain
from spinflow import flow as flow_module
from spinflow import operators
from spinflow.flow import FlowState
from spinflow.operators import _rhs_arrays, _Workspace
from spinflow.relax import DEFAULT_SAFETY

from conftest import blob_field, cosine_coupling
from test_stencil_reference import component_major, node_major, ref_dot, ref_euler, \
    ref_rhs_arrays, ref_stencil, ref_weights


def fixed(grid, coupling, nsteps, **kw):
    dt = sf.cfl_dt(grid, coupling, 0.5)
    return sf.FlowConfig(dt_policy="fixed", dt=dt, t_end=(nsteps - 0.5) * dt,
                         stationarity_tol=0.0, **kw)


def test_snapshot_sink_states_outlive_the_run(grid32):
    c = cosine_coupling(grid32)
    u0 = blob_field(grid32)
    cfg = fixed(grid32, c, 7, flow_kind="landau_lifshitz", snapshot_every=1)
    kept = []
    sf.evolve(u0, c, cfg, snapshot_sink=kept.append)
    copies = []
    sf.evolve(u0, c, cfg, snapshot_sink=lambda s: copies.append(np.array(s.field.values)))
    assert [s.step for s in kept] == list(range(1, 8))
    assert len({s.field.values.tobytes() for s in kept}) == 7
    for state, want in zip(kept, copies):
        assert np.array_equal(state.field.values, want), state.step


def relax_with_rising_defect(grid, monkeypatch, best):
    """relax for 8 steps with the velocity tripled from evaluation best + 2
    on, so the defect history rises after iterate `best`, which stays the
    best; the returned field must be that iterate bit for bit."""
    rhs = flow_module._rhs_arrays
    calls = []

    def rising_rhs(u, ws, *rest):
        v, F, gsq = rhs(u, ws, *rest)
        calls.append(1)
        if len(calls) > best + 1:
            v *= 3.0
            ws.sums *= 9.0      # the halves' sums of |v|^2 that the rhs plan wrote
        return v, F, gsq

    monkeypatch.setattr(flow_module, "_rhs_arrays", rising_rhs)
    c = cosine_coupling(grid)
    u0 = blob_field(grid)
    res = sf.relax(u0, c, tol=1e-30, max_steps=8)
    assert not res.converged and res.steps == 8
    assert int(np.argmin(res.history)) == best
    dt = sf.cfl_dt(grid, c, DEFAULT_SAFETY)
    want = ref_euler(node_major(u0.values), c, dt, "gradient", best)[0]
    assert np.array_equal(res.field.values, component_major(want))


def test_relax_returns_an_early_best_iterate_bit_for_bit(grid32, monkeypatch):
    relax_with_rising_defect(grid32, monkeypatch, 4)


def test_relax_returns_the_initial_iterate_when_it_stays_the_best(grid32, monkeypatch):
    # iterate 0 lives in the state buffer that step 1 overwrites
    relax_with_rising_defect(grid32, monkeypatch, 0)


def test_step_evaluates_the_right_hand_side_once(grid32, monkeypatch):
    # the terminal state of step()'s one-step budget is not evaluated, and
    # its one evaluation writes no |grad u|^2
    rhs = flow_module._rhs_arrays
    calls = []

    def counted(*args):
        calls.append(args[2:])
        return rhs(*args)

    monkeypatch.setattr(flow_module, "_rhs_arrays", counted)
    c = cosine_coupling(grid32)
    cfg = sf.FlowConfig(flow_kind="landau_lifshitz", t_end=1.0, safety=0.5)
    state = FlowState(field=blob_field(grid32))
    for _ in range(3):
        calls.clear()
        state = sf.step(state, c, cfg)
        assert calls == [(False,)]
    assert state.step == 3


def test_a_run_copies_its_initial_values_once(grid32, monkeypatch):
    copyto = np.copyto
    full = []

    def spy(dst, src, *args, **kwargs):
        if np.shape(dst) == (3,) + grid32.shape:
            full.append(np.shape(src))
        return copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", spy)
    c = cosine_coupling(grid32)
    out = sf.evolve(blob_field(grid32), c, fixed(grid32, c, 3, flow_kind="landau_lifshitz"))
    assert out.state.step == 3
    assert full == [(3,) + grid32.shape]


def test_rows_measure_the_state_they_belong_to(grid32, monkeypatch):
    # rows every 3 steps: cadence rows (0, 3, 6) and the terminal row (8) of
    # one run, the off-cadence stationary row (7) of another; each row's
    # E_f and peak density must be those of its own state, not of an
    # earlier evaluation's |grad u|^2
    c = cosine_coupling(grid32)
    u0 = sf.perturb(blob_field(grid32), 0.3, 5)
    norms = [math.sqrt(r.v_norm_sq) for r in sf.evolve(u0, c, fixed(grid32, c, 8)).ledger.rows]
    tol = 0.5 * (norms[6] + norms[7])
    assert min(norms[:7]) > tol
    rhs = flow_module._rhs_arrays
    rows = []

    def recorded(*args):
        rows.append(bool(args[2:] and args[2]))
        return rhs(*args)

    monkeypatch.setattr(flow_module, "_rhs_arrays", recorded)
    cadence = [True, False, False] * 2 + [True, False]
    for nsteps, stationarity_tol, reason in ((8, 0.0, "t_end"), (20, tol, "stationary")):
        kept = []
        rows.clear()
        cfg = dataclasses.replace(fixed(grid32, c, nsteps), diagnostic_every=3, snapshot_every=3,
                                  stationarity_tol=stationarity_tol)
        out = sf.evolve(u0, c, cfg, snapshot_sink=kept.append)
        assert out.reason == reason
        # only row steps form |grad u|^2: the terminal evaluation at once,
        # the stationary row by one more evaluation of state 7
        assert rows == cadence + [True]
        states = [u0] + [s.field for s in kept] + [out.state.field]
        steps = [0] + [s.step for s in kept] + [out.state.step]
        assert steps == [0, 3, 6, 8 if reason == "t_end" else 7]
        assert [row.t for row in out.ledger.rows] == [n * cfg.dt for n in steps]
        for row, state in zip(out.ledger.rows, states):
            assert row.e_f == sf.energy(state, c)
            assert row.max_density == sf.energy_density(state, c).max()


@pytest.mark.parametrize("n, kind, team, lean, rows", [
    (128, "landau_lifshitz", 1, [35], [52]), (128, "landau_lifshitz", 2, [35, 35], [56, 56]),
    (64, "gradient", 1, [25], [42]), (64, "gradient", 2, [25, 25], [46, 46]),
    (256, "gradient", 1, [96], [180]), (256, "gradient", 2, [48, 48], [90, 90])])
def test_plans_leave_out_the_normal_term(n, kind, team, lean, rows):
    # two halo copies (one per part in a team of two), then per block of
    # x-rows the weighted difference sum (12 calls and the two wrapped
    # columns: 14), one projection (7: the dot, then d u and its difference
    # from F as one broadcast call each) and on LL u x F + F (10); the row
    # variant adds u_x and u_y (6), their two dots and the dots' sum (11)
    # per block.  A scaling by a scalar of a block that is not contiguous
    # (a block of x-rows of a (3, nx, ny) array, unless it is all of them)
    # runs plane by plane (domain._scale): 3 calls, not 1, for the sum's
    # scale and on row plans for u_y and u_x, which goes into v.  The stencil
    # and the coupling terms took 21 calls where the sum takes 14; the
    # tension's |grad u|^2 u term and second projection took 28 more per
    # block.  Each part's step plan scales the velocity by dt into the
    # padded state (3), adds u (1), forms the norms (6) and divides (1).
    # Then each part reduces each half of the x-rows it holds, a team of
    # one both: the rhs plans sum |v|^2 over it (1), the step plans take
    # the least and the greatest norm (2), so main makes no full-grid call
    g = sf.make_grid(n, n, 1.0, 1.0)
    ws = _Workspace(g, cosine_coupling(g), kind, team)
    halves = 2 // team
    for i in range(2):
        assert [len(p) for p in ws.rhs[i]] == lean
        assert [len(p) for p in ws.row_rhs[i]] == rows
        assert [len(p) for p in ws.step[i]] == [11 + 2 * halves] * team
        for parts in (ws.rhs[i], ws.row_rhs[i]):
            assert [[call[0] for call in p[-halves:]] for p in parts] == \
                [[operators._sum_squares] * halves] * team
        assert [[call[0] for call in p[-2 * halves:]] for p in ws.step[i]] == \
            [[np.minimum.reduce, np.maximum.reduce] * halves] * team


def test_step_results_do_not_change_on_the_next_step(grid32):
    c = cosine_coupling(grid32)
    cfg = sf.FlowConfig(flow_kind="landau_lifshitz", t_end=1.0, safety=0.5)
    first = sf.step(FlowState(field=blob_field(grid32)), c, cfg)
    velocity = np.array(first.last_velocity.values)
    values = np.array(first.field.values)
    second = sf.step(first, c, cfg)
    assert not np.array_equal(second.last_velocity.values, velocity)
    assert np.array_equal(first.last_velocity.values, velocity)
    assert np.array_equal(first.field.values, values)


def test_euler_steps_allocate_no_state_sized_array(monkeypatch):
    # steps 2..N reuse the workspace made before the first step
    g = sf.make_grid(128, 128, 1.0, 1.0)
    c = cosine_coupling(g)
    cfg = fixed(g, c, 12, flow_kind="landau_lifshitz", diagnostic_every=100)
    u0 = sf.bubble_field(g, (0.7, 0.5), 0.05)
    apply_step = flow_module._apply_step
    seen = []

    def measured(*args):
        seen.append(tracemalloc.get_traced_memory()[0])
        if len(seen) == 2:
            tracemalloc.reset_peak()
        out = apply_step(*args)
        if len(seen) == 12:
            seen.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(flow_module, "_apply_step", measured)
    tracemalloc.start()
    try:
        sf.evolve(u0, c, cfg)
    finally:
        tracemalloc.stop()
    assert len(seen) == 13
    state_bytes = u0.values.nbytes
    assert seen[-1] - seen[1] < state_bytes / 4   # the peak over steps 2..N


# 160 x-rows of 130 nodes run as two blocks of x-rows, 126 and then 34, so
# the second block has its own halo rows and wraps round to row 0
UNEVEN = (160, 130, 1.0, 1.0)


def test_uneven_grid_runs_as_two_blocks():
    g = sf.make_grid(*UNEVEN)
    ws = _Workspace(g, cosine_coupling(g), "gradient")
    assert ws.blocks == [(0, 126), (126, 160)]
    assert ws.v.shape == (3, 160, 130)      # v has the layout of F on either flow


@pytest.mark.parametrize("team", [1, 2])
@pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
@pytest.mark.parametrize("spec", [(64, 64, 1.0, 1.0), (128, 128, 1.0, 1.0),
                                  (256, 256, 1.0, 1.0), UNEVEN],
                         ids=["64x64", "128x128", "256x256", "160x130"])
def test_workspace_arrays_start_on_a_cache_line(spec, kind, team):
    # numpy aligns array data to 16 bytes only; an AVX-512 loop loads 64
    # bytes at a time, so an array that starts off a cache line splits every
    # load across two lines.  Where ny % 8 == 0 every plane, state view and
    # block of x-rows starts on a cache line too.  The weights W are the
    # coupling's
    g = sf.make_grid(*spec)
    ws = _Workspace(g, cosine_coupling(g), kind, team)
    planes = (ws.gsq, ws.d, ws.tmp) + tuple(ws.W)
    vectors = (ws.v, ws.F) + ws.states
    starts = [a.ctypes.data for a in (ws.v, ws.F, ws.W) + planes]
    starts += [u.ctypes.data - u.strides[1] for u in ws.states]   # each buffer's first halo row
    if g.ny % 8 == 0:
        starts += [a[k].ctypes.data for a in vectors for k in range(3)]
        starts += [a[..., i0:i1, :].ctypes.data for i0, i1 in ws.blocks for a in vectors + planes]
    assert [s % 64 for s in starts] == [0] * len(starts)


@pytest.mark.parametrize("team", [1, 2])
def test_workspace_allocates_at_most_a_cache_line_per_array_beyond_its_arrays(team):
    # at 256^2: v, F, gsq, d, tmp, dt, the slots sums and bounds, the
    # team's control words and two padded buffers; the alignment costs at
    # most 64 B each.  A team of one allocates them from numpy, a team of
    # two as one shared arena, outside numpy.  The weights W are the
    # coupling's, built before, not the workspace's
    g = sf.make_grid(256, 256, 1.0, 1.0)
    c = cosine_coupling(g)
    c._stencil_weights      # built here, so only the workspace's own arrays are counted
    data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(data)
        ws = _Workspace(g, c, "gradient", team)
        after = tracemalloc.take_snapshot().filter_traces(data)
    finally:
        tracemalloc.stop()
    allocated = sum(s.size_diff for s in after.compare_to(before, "filename"))
    assert ws.v.shape == ws.F.shape == (3, 256, 256)
    assert ws.W is c._stencil_weights
    arrays = [ws.v, ws.F, ws.gsq, ws.d, ws.tmp, ws.dt, ws.sums, ws.bounds]
    pads = 2 * 3 * (g.nx + 2) * g.ny * 8
    control = 16 * 8
    bound = sum(a.nbytes for a in arrays) + pads + control + 64 * (len(arrays) + 3)
    if team == 1:
        assert ws.arena is None and allocated <= bound
    else:
        assert ws.arena.nbytes <= bound and allocated < 1024


def test_weights_are_read_only():
    g = sf.make_grid(*UNEVEN)
    W = cosine_coupling(g)._stencil_weights
    assert W.shape == (4,) + g.shape and not W.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        W[0, 0, 0] = 1.0


@pytest.mark.parametrize("spec", [(64, 64, 1.0, 1.0), UNEVEN, (16, 32, 1.0, 1.0)],
                         ids=["64x64", "160x130", "16x32"])
def test_weights_of_a_huge_coupling_make_no_warning(spec):
    # the weights are kept in units of min(hx, hy)^2, so f = 1e308 does not
    # overflow them, also where hx > hy (16x32); f / h^2 would, at every node
    g = sf.make_grid(*spec)
    zeros = np.zeros(g.shape)
    c = sf.Coupling(g, "custom-sampled", np.full(g.shape, 1e308), zeros, zeros)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W = c._stencil_weights
    assert np.all(np.isfinite(W))


def test_weights_are_one_aligned_array_per_coupling_built_once(monkeypatch):
    # hx != hy: the weights carry the coupling's own spacing
    g = sf.make_grid(40, 24, 1.3, 0.7)
    c = cosine_coupling(g)
    aligned, built = domain._aligned, []

    def counted(shape):
        built.append(shape)
        return aligned(shape)

    monkeypatch.setattr(domain, "_aligned", counted)
    W = c._stencil_weights
    assert c._stencil_weights is W and built == [(4,) + g.shape]
    assert W.ctypes.data % 64 == 0 and W.flags.c_contiguous and not W.flags.writeable
    want = ref_weights(c.values, c.grad_x, c.grad_y, g.hx, g.hy)
    assert all(np.array_equal(w, r) for w, r in zip(W, want))
    u = blob_field(g)
    for kind in ("gradient", "landau_lifshitz"):
        _Workspace(g, c, kind)
        sf.evolve(u, c, fixed(g, c, 2, flow_kind=kind))
    sf.relax(u, c, tol=1e-30, max_steps=2)
    sf.ps_residual(u, c)
    sf.ll_velocity(u, c)
    assert built == [(4,) + g.shape]


def test_every_evaluation_on_a_coupling_reads_its_weights(monkeypatch):
    # the workspaces of runs (a team of two at 64^2 where two CPUs are
    # free), of either team size made directly and the one-shot operators
    # all read the coupling's one array; a team's shared arena holds none
    # of it, so each process reads the weights from its own memory
    g = sf.make_grid(64, 64, 1.0, 1.0)
    c = cosine_coupling(g)
    W = c._stencil_weights
    seen, rhs = [], flow_module._rhs_arrays

    def spy(u, ws, *args):
        seen.append(ws)
        return rhs(u, ws, *args)

    monkeypatch.setattr(flow_module, "_rhs_arrays", spy)
    u = blob_field(g)
    sf.evolve(u, c, fixed(g, c, 3, flow_kind="landau_lifshitz"))
    sf.relax(u, c, tol=1e-30, max_steps=3)
    sf.step(FlowState(field=u), c, fixed(g, c, 1))
    runs = {id(ws): ws for ws in seen}.values()
    assert len(runs) == 3
    made = [_Workspace(g, c, kind, team) for kind in ("gradient", "landau_lifshitz")
            for team in (1, 2)]
    for ws in list(runs) + made:
        assert ws.W is W
        if ws.arena is not None:
            lo, hi = ws.arena.ctypes.data, ws.arena.ctypes.data + ws.arena.nbytes
            assert W.ctypes.data + W.nbytes <= lo or hi <= W.ctypes.data
    assert [ws.arena is None for ws in made] == [True, False] * 2
    block, blocks = operators._rhs_block, []

    def read(call, pad, w, *args):
        blocks.append(w)
        return block(call, pad, w, *args)

    monkeypatch.setattr(operators, "_rhs_block", read)
    sf.ps_residual(u, c)
    sf.ll_velocity(u, c)
    assert len(blocks) == 2
    for w in blocks:
        assert w.ctypes.data == W.ctypes.data and w.strides == W.strides
        assert w.shape == W.shape


@pytest.mark.parametrize("entry", ["evolve", "relax", "step", "ps_residual", "ll_velocity"])
@pytest.mark.parametrize("spec", [(64, 64, 2.0, 2.0), (128, 64, 1.0, 1.0)],
                         ids=["64x64-on-2x2", "128x64"])
def test_a_coupling_from_another_grid_is_refused(entry, spec):
    # the weights carry the coupling's shape and spacing: under a field on
    # the 64x64 unit torus a coupling of the same shape on the 2x2 torus
    # would step with the wrong spacing, a taller one on its first rows
    g = sf.make_grid(64, 64, 1.0, 1.0)
    c = cosine_coupling(sf.make_grid(*spec))
    u = blob_field(g)
    cfg = sf.FlowConfig(dt_policy="fixed", dt=1e-6, t_end=1e-5)
    call = {"evolve": lambda: sf.evolve(u, c, cfg),
            "relax": lambda: sf.relax(u, c, tol=1e-30, max_steps=10),
            "step": lambda: sf.step(FlowState(field=u), c, cfg),
            "ps_residual": lambda: sf.ps_residual(u, c),
            "ll_velocity": lambda: sf.ll_velocity(u, c)}[entry]
    with pytest.raises(ValueError, match="^field and coupling live on different grids$"):
        call()


def test_constant_field_is_stationary_bit_for_bit_on_an_uneven_grid():
    # hx != hy and a cosine coupling: every difference u_k - u is 0, so the
    # weighted sum is 0 whatever the weights
    g = sf.make_grid(40, 24, 1.3, 0.7)
    assert g.hx != g.hy
    c = cosine_coupling(g)
    u = sf.constant_field(g, (0.1, 0.7, 0.3))
    for kind in ("gradient", "landau_lifshitz"):
        v, F, _ = _rhs_arrays(u.values, _Workspace(g, c, kind))
        assert not F.any() and not v.any()
        out = sf.evolve(u, c, sf.FlowConfig(flow_kind=kind, t_end=1.0, safety=0.5))
        assert out.reason == "stationary"
        assert out.state.field.values is u.values


@pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
def test_blocks_match_the_reference_kernel(kind):
    g = sf.make_grid(*UNEVEN)
    c = cosine_coupling(g)
    u0 = sf.perturb(blob_field(g), 0.3, 5)
    ref = ref_rhs_arrays(node_major(u0.values), g.hx, g.hy, c, kind)
    v, F, gsq = _rhs_arrays(u0.values, _Workspace(g, c, kind), True)
    assert np.array_equal(v, component_major(ref[0]))
    assert np.array_equal(F, component_major(ref[1]))
    assert np.array_equal(gsq, ref[2])
    cfg = fixed(g, c, 4, flow_kind=kind)
    out = sf.evolve(u0, c, cfg)
    assert out.state.step == 4
    want = ref_euler(node_major(u0.values), c, cfg.dt, kind, 4)[0]
    assert np.array_equal(out.state.field.values, component_major(want))


@pytest.mark.parametrize("f, failure", [(1e308, "non-finite velocity"),
                                        (1e300, "renormalization failed")])
def test_blow_up_in_the_second_block_names_its_node(f, failure):
    # a huge f at one node of the second block overflows the defect there
    # (1e308) or, one step later, the renormalisation (1e300)
    g = sf.make_grid(*UNEVEN)
    values = np.ones(g.shape)
    values[140, 7] = f
    zeros = np.zeros(g.shape)
    c = sf.Coupling(g, "custom-sampled", values, zeros, zeros)
    u0 = sf.perturb(blob_field(g), 0.3, 5)
    cfg = sf.FlowConfig(flow_kind="landau_lifshitz", dt_policy="fixed", dt=1e-6)
    with pytest.raises(sf.BlowUpError, match=failure) as err:
        for _ in flow_module._steps(u0, c, cfg, cfg.dt, 10):
            pass
    assert err.value.node == (140, 7) and err.value.step == 0
    assert err.value.state.field is u0


def test_grad_squared_in_two_blocks_matches_the_reference_kernel():
    g = sf.make_grid(*UNEVEN)
    u = sf.perturb(blob_field(g), 0.3, 5)
    ux, uy = ref_stencil(node_major(u.values), g.hx, g.hy)[:2]
    assert np.array_equal(sf.grad_squared(u), ref_dot(ux, ux) + ref_dot(uy, uy))


def test_energy_density_builds_no_full_grid_gradient():
    # at 256^2 (four blocks) the density allocates its result, |grad u|^2
    # and one block's scratch, about 1.3 vector fields' worth; the full-grid
    # u_x, u_y, pad and products took 4.0
    g = sf.make_grid(256, 256, 1.0, 1.0)
    u = blob_field(g)
    c = cosine_coupling(g)
    tracemalloc.start()
    try:
        sf.energy_density(u, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * u.values.nbytes


def test_relax_steps_allocate_no_state_sized_array(monkeypatch):
    # the great circle's defect falls at every step, so relax never copies a
    # best iterate; steps 2..N replay the calls recorded at the first one
    g = sf.make_grid(64, 64, 1.0, 1.0)
    c = cosine_coupling(g)
    u0 = sf.great_circle_field(g, phase=0.3)
    apply_step = flow_module._apply_step
    seen = []

    def measured(*args):
        seen.append(tracemalloc.get_traced_memory()[0])
        if len(seen) == 2:
            tracemalloc.reset_peak()
        out = apply_step(*args)
        if len(seen) == 12:
            seen.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(flow_module, "_apply_step", measured)
    tracemalloc.start()
    try:
        res = sf.relax(u0, c, tol=1e-30, max_steps=12)
    finally:
        tracemalloc.stop()
    assert len(seen) == 13 and res.steps == 12
    assert np.all(np.diff(res.history) < 0)
    # the peak over steps 2..N; each ufunc call with a broadcast operand
    # (a weight W_k times a difference u_k - u) takes numpy's 64 KiB iterator
    # buffer, 2/3 of a 64^2 state, so the bound is one state, not a quarter
    assert seen[-1] - seen[1] < u0.values.nbytes


# the smallest grid, one block, and a grid whose second block is one x-row
EDGE_GRIDS = [((8, 8, 1.0, 1.0), [(0, 8)]), ((9, 2048, 1.0, 1.0), [(0, 8), (8, 9)])]


@pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
@pytest.mark.parametrize("spec, blocks", EDGE_GRIDS, ids=["8x8", "9x2048"])
def test_recorded_step_matches_the_reference_kernel_on_edge_grids(spec, blocks, kind):
    g = sf.make_grid(*spec)
    c = cosine_coupling(g)
    u0 = sf.perturb(blob_field(g), 0.3, 5)
    ws = _Workspace(g, c, kind)
    assert ws.blocks == blocks
    ref = ref_rhs_arrays(node_major(u0.values), g.hx, g.hy, c, kind)
    for got, want in zip(_rhs_arrays(u0.values, ws, True), ref):
        assert np.array_equal(got, want if want.ndim == 2 else component_major(want))
    cfg = fixed(g, c, 5, flow_kind=kind)
    out = sf.evolve(u0, c, cfg)
    assert out.state.step == 5
    want = ref_euler(node_major(u0.values), c, cfg.dt, kind, 5)[0]
    assert np.array_equal(out.state.field.values, component_major(want))
    assert out.state.field.values.flags.c_contiguous


@pytest.mark.parametrize("run", ["evolve", "relax", "step"])
def test_each_run_makes_one_workspace(grid32, monkeypatch, run):
    made = []
    init = _Workspace.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(_Workspace, "__init__", counted)
    c = cosine_coupling(grid32)
    u0 = blob_field(grid32)
    cfg = fixed(grid32, c, 3, flow_kind="landau_lifshitz")
    {"evolve": lambda: sf.evolve(u0, c, cfg),
     "relax": lambda: sf.relax(u0, c, tol=1e-30, max_steps=3),
     "step": lambda: sf.step(FlowState(field=u0), c, cfg)}[run]()
    assert len(made) == 1
