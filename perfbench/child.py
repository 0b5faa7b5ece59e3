"""One CLI command of a benchmark workload, in a fresh process.

    python3 child.py RESULT TRACE PROBE POST COMMAND CONFIG OUTDIR

runs ``spinflow.cli.main([COMMAND, CONFIG, "-o", OUTDIR])`` and writes a JSON
result to RESULT: the exit code, ``time.monotonic()`` stamps of the first step
and of the end of ``main``, the step count, the peak RSS and, with TRACE=1, the
recorded spans.  PROBE=1 stops the process at the first step, which times
set-up alone.  POST=1 recomputes the final energy and its argmax node from
``snapshot_final.bin`` after the timed part, for the reference check.

Spans wrap the layer entry points from outside; nothing in the package
changes.  Without TRACE the process carries only a one-shot hook that stamps
the first step and two call counters for the step count.
"""

import time

T0 = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: (module[:class], attribute, span name) of every entry point the CLI drivers
#: reach.  A function imported by name is wrapped in each importing module;
#: `spinflow.relax` is looked up in sys.modules because the package attribute
#: of that name is the function.
TARGETS = (
    ("spinflow.cli", "load_config", "config.load"),
    ("spinflow.config:RunConfig", "build_initial", "config.build_initial"),
    ("spinflow.cli", "critical_points", "domain.critical_points"),
    ("spinflow.flow", "critical_points", "domain.critical_points"),
    ("spinflow.diagnostics", "critical_points", "domain.critical_points"),
    ("spinflow.cli", "evolve", "flow.evolve"),
    ("spinflow.checks", "evolve", "flow.evolve"),
    ("spinflow.flow", "_rhs_arrays", "operators.rhs"),
    ("spinflow.flow", "_apply_step", "flow.apply"),
    ("spinflow.diagnostics", "measure_row", "diagnostics.row"),
    ("spinflow.diagnostics", "_disc_coverage", "diagnostics.disc_coverage"),
    ("spinflow.diagnostics", "detect_concentration", "diagnostics.detect"),
    ("spinflow.diagnostics:DiagnosticsLedger", "to_csv", "diagnostics.ledger_csv"),
    ("spinflow.snapshots", "write_snapshot", "snapshots.snapshot"),
    ("spinflow.snapshots", "write_density_pgm", "snapshots.pgm"),
    ("spinflow.snapshots", "write_field_csv", "snapshots.field_csv"),
    ("spinflow.cli", "relax", "relax.run"),
    ("spinflow.relax", "_rhs_arrays", "operators.rhs"),
    ("spinflow.relax", "_project_unit", "relax.project"),
    ("spinflow.checks", "run_identity_checks", "checks.run"),
)

#: span names whose calls are the time steps of evolve and relax
STEP_SPANS = ("flow.apply", "relax.project")


class Tracer:
    """Spans held in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic() if start is None else start, 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _install_counters(result: dict, probe: bool, result_path: str) -> None:
    """Untraced hooks: stamp the first step once, count the steps."""
    rhs_sites = [(_owner(spec), attr) for spec, attr, name in TARGETS
                 if name == "operators.rhs"]
    originals = [getattr(owner, attr) for owner, attr in rhs_sites]

    def first_step(fn):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            result["t_first_step"] = time.monotonic()
            if probe:
                _write(result_path, result)
                os._exit(0)
            for (owner, attr), orig in zip(rhs_sites, originals):
                setattr(owner, attr, orig)
            return fn(*args, **kwargs)
        return stamped

    for (owner, attr), orig in zip(rhs_sites, originals):
        setattr(owner, attr, first_step(orig))

    def counted(fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            result["steps"] += 1
            return fn(*args, **kwargs)
        return counting

    for spec, attr, name in TARGETS:
        if name in STEP_SPANS:
            owner = _owner(spec)
            setattr(owner, attr, counted(getattr(owner, attr)))


def _post(config: str, outdir: str) -> dict:
    import numpy as np
    from spinflow import diagnostics, snapshots
    from spinflow.config import load_config

    coupling = load_config(config).coupling
    field = snapshots.read_snapshot(os.path.join(outdir, "snapshot_final.bin"))
    density = diagnostics.energy_density(field, coupling)
    node = np.unravel_index(int(np.argmax(density)), density.shape)
    return {"e_f": diagnostics.energy(field, coupling), "argmax_node": [int(k) for k in node]}


def main(argv) -> int:
    result_path, trace, probe, post, command, config, outdir = argv[1:8]
    trace, probe, post = trace == "1", probe == "1", post == "1"
    result = {"t_first_step": None, "t_main_end": None, "rc": None, "steps": 0,
              "maxrss_kb": None, "spans": None, "post": None}

    tracer = Tracer() if trace else None
    import_span = tracer.open("cli.import", start=T0) if tracer else None
    import spinflow.cli
    if tracer:
        tracer.close(import_span)
    if os.path.dirname(os.path.dirname(os.path.abspath(spinflow.cli.__file__))) != SRC:
        print(f"error: spinflow imported from {spinflow.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 3

    if tracer:
        for spec, attr, name in TARGETS:
            owner = _owner(spec)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    else:
        _install_counters(result, probe, result_path)

    main_span = tracer.open("cli.main") if tracer else None
    try:
        result["rc"] = spinflow.cli.main([command, config, "-o", outdir])
    except Exception:
        traceback.print_exc()
        result["rc"] = "exception"
    result["t_main_end"] = time.monotonic()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.close(main_span)
        spans = tracer.spans
        result["spans"] = spans
        rhs = [s for s in spans if s[0] == "operators.rhs"]
        result["t_first_step"] = rhs[0][1] if rhs else None
        result["steps"] = sum(1 for s in spans if s[0] in STEP_SPANS)
    if post and result["rc"] == 0:
        result["post"] = _post(config, outdir)
    _write(result_path, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
