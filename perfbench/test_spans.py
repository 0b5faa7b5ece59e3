"""Tests of the benchmark's span arithmetic and of one traced instance.

    python3 -m pytest perfbench -q
"""

import time

import pytest

import run as bench
import spans as sp
from workloads import Workload

_TINY_COUPLING = """grid.nx = 32
grid.ny = 32
grid.lx = 1.0
grid.ly = 1.0
coupling.kind = cosine-product
coupling.ax = 0.25
coupling.ay = 0.25
"""

TINY = {
    "run": _TINY_COUPLING + """initial.kind = bubble
initial.px = 0.7
initial.py = 0.5
initial.scale = 0.1
flow.kind = gradient
flow.t_end = 0.004
flow.snapshot_every = 10
diagnostics.radii = 0.3, 0.2, 0.1
output.field_csv = true
""",
    "relax": _TINY_COUPLING + """initial.kind = great-circle
flow.kind = gradient
flow.t_end = 0.01
relax.tol = 1e-6
""",
}


def test_self_time_subtracts_covered_child_time():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 3.0, 0), ("b", 2.0, 4.0, 0),   # overlapping children
             ("c", 5.0, 6.0, 0), ("d", 5.5, 5.8, 3)]
    assert sp.self_times(spans) == pytest.approx([6.0, 2.0, 2.0, 0.7, 0.3])
    nested = [("root", 0.0, 10.0, -1), ("a", 1.0, 3.0, 0),
              ("c", 5.0, 6.0, 0), ("d", 5.5, 5.8, 2)]
    assert sum(sp.self_times(nested)) == pytest.approx(10.0)


def test_total_counts_nested_same_name_once_and_filters_by_parent():
    spans = [("main", 0.0, 10.0, -1),
             ("csv", 1.0, 4.0, 0), ("csv", 1.5, 3.5, 1),
             ("relax", 5.0, 9.0, 0), ("rhs", 5.0, 6.0, 3), ("rhs", 9.0, 9.5, 0)]
    assert sp.total(spans, "csv") == pytest.approx(3.0)
    assert sp.total(spans, "rhs") == pytest.approx(1.5)
    assert sp.total(spans, "rhs", parent="relax") == pytest.approx(1.0)
    assert sp.count(spans, "csv") == 2


def test_percentiles_need_enough_samples():
    assert sp.percentile(list(range(sp.MIN_PERCENTILE_SAMPLES - 1)), 0.5) is None
    samples = list(range(100, 0, -1))
    assert sp.percentile(samples, 0.50) == 50
    assert sp.percentile(samples, 0.99) == 99


@pytest.mark.parametrize("command", sorted(TINY))
def test_layer_self_times_add_up_to_traced_wall(tmp_path, command):
    tiny = Workload("tiny", (command,), 32, "gradient",
                    lambda seed: TINY[command], lambda outdir, logs: [])
    inst = bench.run_instance(tiny, TINY[command], str(tmp_path / "inst"), traced=True,
                              check_ref=False, deadline=time.monotonic() + 120.0)
    assert inst.failures == []
    selfs = sp.self_by_name(inst.spans)
    metrics = bench.layer_metrics(tiny, inst)
    assert metrics["flow.loop_self_s"][0] == selfs.get("flow.evolve", 0.0)
    assert metrics["operators.rhs_calls"][0] > inst.steps
    assert abs(sum(selfs.values()) - inst.wall_s) <= sp.sum_tolerance(inst.wall_s)
