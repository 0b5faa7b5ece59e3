"""The benchmark child (perfbench/child.py) wraps package functions by module
and name.  A refactor that drops or renames one of them makes every benchmark
process die with AttributeError, so the names are pinned here."""

import collections
import functools
import importlib
import importlib.util
import os

import pytest

import spinflow as sf

from conftest import cosine_coupling

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "child.py")


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for target, _, _ in module.TARGETS:
        importlib.import_module(target.partition(":")[0])
    return module


def test_every_target_resolves_to_a_callable(child):
    for spec, attr, name in child.TARGETS:
        assert callable(getattr(child._owner(spec), attr, None)), (spec, attr, name)


def test_step_hooks_count_every_step(child, monkeypatch):
    grid16 = sf.make_grid(16, 16, 1.0, 1.0)
    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counting

    for spec, attr, name in child.TARGETS:
        if name in child.STEP_SPANS:
            owner = child._owner(spec)
            monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))

    c = cosine_coupling(grid16)
    u0 = sf.great_circle_field(grid16, phase=0.3)
    cfg = sf.FlowConfig(dt_policy="fixed", dt=sf.cfl_dt(grid16, c, 0.5), t_end=1e-3,
                        stationarity_tol=0.0)
    # child.py reports the sum over STEP_SPANS as `steps`; relax steps through
    # the loop of evolve, so both count on flow.apply, once per step
    out = sf.evolve(u0, c, cfg)
    assert out.state.step > 0
    assert sum(calls[name] for name in child.STEP_SPANS) == out.state.step
    calls.clear()
    res = sf.relax(u0, c, tol=1e-6, max_steps=30)
    assert res.steps > 0
    assert sum(calls[name] for name in child.STEP_SPANS) == res.steps


def test_relax_keeps_only_aliases_for_the_child():
    # spinflow.relax re-exports these two names for child.py alone; they must
    # stay the flow and operators functions, not grow back into copies
    relax_module = importlib.import_module("spinflow.relax")
    flow = importlib.import_module("spinflow.flow")
    operators = importlib.import_module("spinflow.operators")
    assert relax_module._project_unit is flow._project_unit
    assert relax_module._rhs_arrays is operators._rhs_arrays
