"""The step team: a run whose plans have two parts is stepped by the main
process and one forked worker (operators._Team).

Every output must be the same bit for bit whichever team steps the run, and
no worker may outlive its run, however the run ends.  The team size is
forced here by patching flow._team_size; the last tests use the real rule.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest

import spinflow as sf
from spinflow import flow as flow_module
from spinflow.operators import _rhs_arrays, _team_size, _Workspace
from spinflow.relax import DEFAULT_SAFETY

from conftest import blob_field, cosine_coupling
from test_stencil_reference import component_major, node_major, ref_euler, ref_rhs_arrays

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))

needs_fork = pytest.mark.skipif(not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")),
                                reason="the step team forks and pins (Linux)")
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a team of two needs two CPUs in the affinity mask")


def alive(pid: int) -> bool:
    """Whether process `pid` runs: it exists and is no zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs; on teardown
    every one of them must be reaped already."""
    pids = []
    fork = getattr(os, "fork", None)

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy, raising=False)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture(params=[1, 2], ids=["team1", "team2"])
def team(request, monkeypatch, forks):
    """Force the team size of every run; returns (size, forked pids)."""
    if request.param == 2 and not hasattr(os, "sched_getaffinity"):
        pytest.skip("the step team forks and pins (Linux)")
    monkeypatch.setattr(flow_module, "_team_size", lambda grid, budget: request.param)
    return request.param, forks


def fixed(grid, coupling, nsteps, **kw):
    dt = sf.cfl_dt(grid, coupling, 0.5)
    return sf.FlowConfig(dt_policy="fixed", dt=dt, t_end=(nsteps - 0.5) * dt,
                         stationarity_tol=0.0, **kw)


# (spec, parts' blocks): the smallest grid; an odd nx, whose parts differ in
# size; parts whose blocks are uneven down to one x-row; two blocks per
# part; hx != hy
EDGE_GRIDS = [
    ((8, 8, 1.0, 1.0), [[(0, 4)], [(4, 8)]]),
    ((49, 64, 1.0, 1.0), [[(0, 25)], [(25, 49)]]),
    ((9, 2048, 1.0, 1.0), [[(0, 5)], [(5, 9)]]),
    ((9, 5000, 1.0, 1.0), [[(0, 3), (3, 5)], [(5, 8), (8, 9)]]),
    ((256, 256, 1.0, 1.0), [[(0, 64), (64, 128)], [(128, 192), (192, 256)]]),
    ((40, 24, 1.3, 0.7), [[(0, 20)], [(20, 40)]]),
]
EDGE_IDS = ["8x8", "49x64", "9x2048", "9x5000", "256x256", "40x24-hx-ne-hy"]


@needs_fork
@pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
@pytest.mark.parametrize("spec, blocks", EDGE_GRIDS, ids=EDGE_IDS)
def test_parts_match_the_reference_kernel(spec, blocks, kind):
    # the plans of a team of two, replayed by main alone and by a started
    # team, write the reference kernel's v, F and |grad u|^2
    g = sf.make_grid(*spec)
    c = cosine_coupling(g)
    u0 = sf.perturb(blob_field(g), 0.3, 5)
    ref = ref_rhs_arrays(node_major(u0.values), g.hx, g.hy, c, kind)
    ws = _Workspace(g, c, kind, 2)
    assert ws.blocks == blocks[0] + blocks[1]
    assert ws.parts == [(blocks[0][0][0], blocks[0][-1][1]), (blocks[1][0][0], blocks[1][-1][1])]
    for start in (False, True):
        if start:
            ws.team.start()
        try:
            for rows in (False, True):
                v, F, gsq = _rhs_arrays(u0.values, ws, rows)
                assert np.array_equal(v, component_major(ref[0]))
                assert np.array_equal(F, component_major(ref[1]))
                assert gsq is None if not rows else np.array_equal(gsq, ref[2])
                ws.F.fill(np.nan)
                ws.v.fill(np.nan)
        finally:
            ws.team.close()
        assert ws.team.pid is None


@pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
@pytest.mark.parametrize("row_every", [1, 10**6], ids=["row-plans", "plain-plans"])
@pytest.mark.parametrize("spec, blocks", EDGE_GRIDS, ids=EDGE_IDS)
def test_run_matches_the_reference_kernel(spec, blocks, kind, row_every, team):
    size, forks = team
    g = sf.make_grid(*spec)
    c = cosine_coupling(g)
    u0 = sf.perturb(blob_field(g), 0.3, 5)
    cfg = fixed(g, c, 5, flow_kind=kind, diagnostic_every=row_every)
    out = sf.evolve(u0, c, cfg)
    assert len(forks) == size - 1
    assert out.state.step == 5
    want, v_sq, _ = ref_euler(node_major(u0.values), c, cfg.dt, kind, 5)
    assert np.array_equal(out.state.field.values, component_major(want))
    assert out.ledger.rows[-1].v_norm_sq == pytest.approx(v_sq[-1], rel=1e-12)


@pytest.mark.parametrize("spec", [spec for spec, _ in EDGE_GRIDS], ids=EDGE_IDS)
def test_relax_matches_the_reference_kernel(spec, team):
    size, forks = team
    g = sf.make_grid(*spec)
    c = cosine_coupling(g)
    u0 = sf.perturb(blob_field(g), 0.3, 5)
    res = sf.relax(u0, c, tol=1e-30, max_steps=6)
    assert len(forks) == size - 1
    assert res.steps == 6
    dt = sf.cfl_dt(g, c, DEFAULT_SAFETY)
    best = int(np.argmin(res.history))
    want = ref_euler(node_major(u0.values), c, dt, "gradient", best)[0]
    assert np.array_equal(res.field.values, component_major(want))


@pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
def test_exact_stationary_state_keeps_its_bits(kind, team):
    # v = 0 at every node: the step is skipped, in a team of two as well
    size, forks = team
    g = sf.make_grid(40, 24, 1.3, 0.7)
    c = cosine_coupling(g)
    u = sf.constant_field(g, (0.1, 0.7, 0.3))
    out = sf.evolve(u, c, fixed(g, c, 5, flow_kind=kind))
    assert len(forks) == size - 1
    assert out.reason == "t_end" and out.state.step == 5
    assert out.state.field is u


UNEVEN = (160, 130, 1.0, 1.0)


@pytest.mark.parametrize("f, failure", [(1e308, "non-finite velocity"),
                                        (1e300, "renormalization failed")])
def test_blow_up_in_the_second_part_names_its_node(f, failure, team):
    # node (140, 7) lies in the x-rows the worker steps, 80 <= i < 160
    size, forks = team
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
    assert len(forks) == size - 1
    assert err.value.node == (140, 7) and err.value.step == 0
    assert err.value.state.field is u0


@needs_fork
def test_a_dead_worker_is_reported_not_waited_for():
    g = sf.make_grid(64, 64, 1.0, 1.0)
    u0 = blob_field(g)
    ws = _Workspace(g, cosine_coupling(g), "gradient", 2)
    ws.team.start()
    try:
        pid = ws.team.pid
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match="worker process died: exit code -9"):
            _rhs_arrays(u0.values, ws)
        assert ws.team.pid is None
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    finally:
        ws.team.close()


@needs_fork
def test_a_refused_fork_leaves_main_replaying_both_parts(monkeypatch):
    tries = []

    def refused():
        tries.append(1)
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(flow_module, "_team_size", lambda grid, budget: 2)
    monkeypatch.setattr(os, "fork", refused)
    g = sf.make_grid(49, 64, 1.0, 1.0)
    c = cosine_coupling(g)
    u0 = sf.perturb(blob_field(g), 0.3, 5)
    cfg = fixed(g, c, 5, flow_kind="landau_lifshitz")
    out = sf.evolve(u0, c, cfg)
    want = ref_euler(node_major(u0.values), c, cfg.dt, "landau_lifshitz", 5)[0]
    assert np.array_equal(out.state.field.values, component_major(want))
    assert tries == [1]


# -- no worker outlives its run ---------------------------------------------

def grid64_run(**kw):
    g = sf.make_grid(64, 64, 1.0, 1.0)
    c = cosine_coupling(g)
    return g, c, sf.bubble_field(g, (0.7, 0.5), 0.1), fixed(g, c, 40, **kw)


@needs_fork
@needs_two_cpus
class TestNoWorkerOutlivesItsRun:
    """With the real team rule: each run at 64^2 forks one worker, and the
    `forks` fixture checks that it was reaped when the run returned."""

    def test_normal_end(self, forks):
        mask = os.sched_getaffinity(0)
        g, c, u0, cfg = grid64_run(diagnostic_every=7)
        assert sf.evolve(u0, c, cfg).state.step == 40
        assert len(forks) == 1
        assert os.sched_getaffinity(0) == mask        # main's mask is restored

    def test_stop_when(self, forks):
        g, c, u0, cfg = grid64_run()
        out = sf.evolve(u0, c, cfg, stop_when=lambda row: row.t > 3 * cfg.dt)
        assert out.reason == "stopped" and out.state.step == 4
        assert len(forks) == 1

    def test_exception_in_stop_when(self, forks):
        g, c, u0, cfg = grid64_run()

        def stop_when(row):
            if row.t > 0:
                raise KeyError("stop")
            return False

        with pytest.raises(KeyError):
            sf.evolve(u0, c, cfg, stop_when=stop_when)
        assert len(forks) == 1

    def test_relax_that_converges(self, forks):
        g = sf.make_grid(64, 64, 1.0, 1.0)
        c = cosine_coupling(g)
        # the great circle's defect falls from 6.97 to 3.75 in 500 steps
        res = sf.relax(sf.great_circle_field(g, phase=0.3), c, tol=4.0, max_steps=10_000)
        assert res.converged and 1 < res.steps < 10_000
        assert len(forks) == 1

    def test_blow_up(self, forks):
        g, c, u0, _ = grid64_run()
        cfg = sf.FlowConfig(dt_policy="fixed", dt=1e306, t_end=5e306, stationarity_tol=0.0)
        with pytest.raises(sf.BlowUpError):
            sf.evolve(u0, c, cfg)
        assert len(forks) == 1

    def test_generator_closed_early(self, forks):
        g, c, u0, cfg = grid64_run()
        steps = flow_module._steps(u0, c, cfg, cfg.dt, 40)
        next(steps)
        assert len(forks) == 1 and alive(forks[0])
        steps.close()


CLI_CONFIG = """\
grid.nx = 64
grid.ny = 64
grid.lx = 1.0
grid.ly = 1.0
coupling.kind = cosine-product
initial.kind = bubble
initial.px = 0.7
initial.py = 0.5
initial.scale = 0.1
flow.kind = landau-lifshitz
flow.safety = 0.25
flow.t_end = 0.0005
flow.diagnostic_every = 20
diagnostics.radii = 0.2, 0.1
output.dir = out
"""

# runs the CLI with os.fork spied on: each forked pid is written to argv[1]
# at once; with argv[2] == "exit" the process leaves by os._exit(0) at its
# first evaluation, as the benchmark's set-up probe does
CLI_SCRIPT = textwrap.dedent("""\
    import os, sys
    from spinflow import cli, flow
    fork = os.fork
    def spy():
        pid = fork()
        if pid:
            with open(sys.argv[1], "a") as fh:
                fh.write(f"{pid}\\n")
        return pid
    os.fork = spy
    if sys.argv[2] == "exit":
        flow._rhs_arrays = lambda *args: os._exit(0)
    if sys.argv[2] == "one-cpu":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.exit(cli.main(sys.argv[3:]))
""")


def run_cli_script(tmp_path, mode, command="run"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLI_CONFIG)
    pids = tmp_path / "pids"
    pids.write_text("")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", CLI_SCRIPT, str(pids), mode, command, str(cfg),
                           "-o", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc, [int(p) for p in pids.read_text().split()]


@needs_fork
@needs_two_cpus
def test_cli_run_leaves_no_worker(tmp_path):
    proc, pids = run_cli_script(tmp_path, "run")
    assert proc.returncode == 0, proc.stderr
    assert len(pids) == 1
    assert not alive(pids[0])


@needs_fork
@needs_two_cpus
def test_os_exit_at_the_first_evaluation_leaves_no_worker(tmp_path):
    # the parent-death signal kills the worker with the process that forked it
    proc, pids = run_cli_script(tmp_path, "exit")
    assert proc.returncode == 0, proc.stderr
    assert len(pids) == 1
    deadline = time.monotonic() + 1.0
    while alive(pids[0]) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not alive(pids[0])


@needs_fork
def test_one_cpu_affinity_forks_nothing(tmp_path):
    proc, pids = run_cli_script(tmp_path, "one-cpu", "blowup-experiment")
    assert proc.returncode == 0, proc.stderr
    assert pids == []


@needs_fork
@needs_two_cpus
def test_team_size_rule(monkeypatch):
    big, small = sf.make_grid(64, 64, 1.0, 1.0), sf.make_grid(32, 32, 1.0, 1.0)
    assert _team_size(big, 2) == 2
    assert _team_size(big, 1) == 1                 # a budget of one step
    assert _team_size(small, 1000) == 1            # below TEAM_NODES
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _team_size(big, 1000) == 1          # fork copies only the calling thread
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _team_size(big, 1000) == 1


@pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
@pytest.mark.parametrize("spec", [(64, 64, 1.0, 1.0), (160, 130, 1.0, 1.0), (256, 256, 1.0, 1.0)],
                         ids=["64x64", "160x130", "256x256"])
def test_one_shot_operators_build_no_workspace(spec, kind, monkeypatch):
    # ps_residual and ll_velocity pad u once and run the right-hand side's
    # calls at once: no workspace, no plans, no fork, and the stepping
    # plan's bits
    g = sf.make_grid(*spec)
    c = cosine_coupling(g)
    u = sf.perturb(blob_field(g), 0.3, 5)
    v, F, _ = (np.array(a) if a is not None else None
               for a in _rhs_arrays(u.values, _Workspace(g, c, kind)))

    def refused(*args, **kwargs):
        raise AssertionError("a one-shot operator made a workspace or forked")

    monkeypatch.setattr(_Workspace, "__init__", refused)
    monkeypatch.setattr(os, "fork", refused)
    got = (sf.ps_residual if kind == "gradient" else sf.ll_velocity)(u, c).values
    assert np.array_equal(got, F if kind == "gradient" else v)


def test_one_shot_operators_allocate_less_than_a_workspace():
    # at 128^2: the result, one padded copy of u, the weights, d, one block
    # of tmp and F (LL) or one block of scratch: about 15 planes, where a
    # workspace holds 19 and its plans
    g = sf.make_grid(128, 128, 1.0, 1.0)
    c = cosine_coupling(g)
    u = sf.perturb(blob_field(g), 0.3, 5)
    plane = 128 * 128 * 8
    for op in (sf.ps_residual, sf.ll_velocity):
        tracemalloc.start()
        try:
            op(u, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * plane, op.__name__
