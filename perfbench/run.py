"""Time-to-solution benchmark of the spinflow CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each instance of a workload runs its CLI
commands through `spinflow.cli.main`, each in a fresh single-threaded child
process, one at a time (a closed loop with one client).  Instances repeat
until the next one would end after S seconds; there is always at least one.

--trace 0 reports the end-to-end metrics.  Before the instances it times
PROBES extra set-ups (a child stopped at its first step); setup_s is the
median over those and the instances.

--trace 1 alternates untraced and traced instances and reports the per-layer
metrics of the traced ones; trace.overhead_pct compares the two walls.

Every instance passes the workload's correctness gate or counts as failed.
Human-readable lines go first; the last line of stdout is one JSON object.
Outputs, logs, spans and a result.json are kept under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans as sp
from workloads import (DEFAULT_SEED, UNIT_NORM_TOL, WORKLOADS, Workload, check_reference,
                       rhs_counts, unit_norm_deviation)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

PROBES = 9
#: no child is started, and none may run, past this many seconds of a run
DEADLINE_S = 170.0

SINK_FILE = re.compile(r"^(snapshot_.*\.bin|density_.*\.pgm|field_.*\.csv)$")


@dataclass
class Instance:
    traced: bool
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float | None = None
    steps: int = 0
    peak_rss_mb: float = 0.0
    sink_bytes: int = 0
    final: dict | None = None        # final E_f and argmax node, for the reference
    spans: list = field(default_factory=list)


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(run_dir: str, tag: str, command: str, config: str, outdir: str, *,
           trace: bool, probe: bool, post: bool, deadline: float):
    """Run one child to completion; returns (t_spawn, t_end, result, log text).
    Without a result file the result is {"rc": <reason>}."""
    result_path = os.path.join(run_dir, f"{tag}.json")
    log_path = os.path.join(run_dir, f"{tag}.log")
    argv = [sys.executable, CHILD, result_path, str(int(trace)), str(int(probe)),
            str(int(post)), command, config, outdir]
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=run_dir)
        try:
            code = proc.wait(timeout=max(deadline - t_spawn, 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
        t_end = time.monotonic()
    result = None
    if code == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    with open(log_path, encoding="utf-8") as fh:
        text = fh.read()
    if result is None:
        result = {"rc": code if code != 0 else "no result written"}
    return t_spawn, t_end, result, text


def probe_setup(workload: Workload, config_text: str, run_dir: str, deadline: float):
    """Set-up time of the first command, stopped at its first step; None on failure."""
    os.makedirs(run_dir)
    config = os.path.join(run_dir, "config.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    t_spawn, _, res, _ = _spawn(run_dir, "probe", workload.commands[0], config,
                                os.path.join(run_dir, "out"), trace=False, probe=True,
                                post=False, deadline=deadline)
    shutil.rmtree(run_dir)
    first = res.get("t_first_step")
    return None if first is None else first - t_spawn


def run_instance(workload: Workload, config_text: str, run_dir: str, *, traced: bool,
                 check_ref: bool, deadline: float) -> Instance:
    """Run the workload's commands once, then apply its correctness gate."""
    inst = Instance(traced=traced)
    os.makedirs(run_dir)
    config = os.path.join(run_dir, "config.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(config_text)
    outdir = os.path.join(run_dir, "out")
    logs = {}
    for k, command in enumerate(workload.commands):
        t_spawn, t_end, res, logs[command] = _spawn(
            run_dir, f"{k}-{command}", command, config, outdir, trace=traced,
            probe=False, post=k == 0, deadline=deadline)
        if res["rc"] != 0:
            inst.failures.append(f"{command}: exit {res['rc']}")
            inst.wall_s += t_end - t_spawn
            break
        inst.wall_s += res["t_main_end"] - t_spawn
        inst.peak_rss_mb = max(inst.peak_rss_mb, res["maxrss_kb"] / 1024.0)
        if k == 0:
            if res["t_first_step"] is not None:
                inst.setup_s = res["t_first_step"] - t_spawn
            inst.steps, inst.final = res["steps"], res["post"]
            printed = re.search(r"steps = (\d+)", logs[command])
            if printed and int(printed.group(1)) != inst.steps:
                inst.failures.append(f"{command} printed steps = {printed.group(1)}, "
                                     f"counted {inst.steps}")
        if traced:
            offset = len(inst.spans)
            inst.spans += [(n, s, e, p + offset if p >= 0 else -1)
                           for n, s, e, p in res["spans"]]
    if not inst.failures:
        inst.failures += _gate(workload, config_text, outdir, logs, inst.final, check_ref)
        inst.sink_bytes = sum(os.path.getsize(os.path.join(outdir, name))
                              for name in os.listdir(outdir) if SINK_FILE.match(name))
    if inst.steps < 1 and not inst.failures:
        inst.failures.append("no time steps were taken")
    shutil.rmtree(outdir, ignore_errors=True)
    return inst


def _gate(workload, config_text, outdir, logs, post, check_ref) -> list[str]:
    try:
        failures = []
        dev = unit_norm_deviation(os.path.join(outdir, "snapshot_final.bin"))
        if not dev <= UNIT_NORM_TOL:
            failures.append(f"max | |u| - 1 | = {dev:.3e} exceeds {UNIT_NORM_TOL}")
        failures += workload.check(outdir, logs)
        if check_ref:
            failures += check_reference(workload, config_text, post)
        return failures
    except (OSError, ValueError, KeyError) as err:
        return [f"unreadable output: {err!r}"]


def layer_metrics(workload: Workload, inst: Instance) -> dict:
    """Per-layer metrics of one traced instance: name -> (value, unit).
    Percentiles below spans.MIN_PERCENTILE_SAMPLES samples are left out."""
    spans = inst.spans
    selfs = sp.self_by_name(spans)
    rhs = sp.durations(spans, "operators.rhs")
    rhs_s = sp.total(spans, "operators.rhs")
    rows = sp.durations(spans, "diagnostics.row")
    apply_ = sp.durations(spans, "flow.apply")
    counts = rhs_counts(workload)

    def ms(samples, q):
        value = sp.percentile(samples, q)
        return None if value is None else value * 1e3

    out = {
        "operators.rhs_calls": (len(rhs), "count"),
        "operators.rhs_s": (rhs_s, "s"),
        "operators.rhs_ms_p50": (ms(rhs, 0.50), "ms"),
        "operators.rhs_ms_p99": (ms(rhs, 0.99), "ms"),
        "operators.rhs_node_evals_per_s": (len(rhs) * workload.nodes / rhs_s if rhs_s else 0.0,
                                           "1/s"),
        "operators.rhs_bytes_computed": (counts["rhs_bytes_computed"], "B"),
        "operators.rhs_flops_computed": (counts["rhs_flops_computed"], "count"),
        "flow.apply_calls": (len(apply_), "count"),
        "flow.apply_self_s": (selfs.get("flow.apply", 0.0), "s"),
        "flow.apply_ms_p50": (ms(apply_, 0.50), "ms"),
        "flow.loop_self_s": (selfs.get("flow.evolve", 0.0), "s"),
        "diagnostics.rows": (len(rows), "count"),
        "diagnostics.row_s": (sp.total(spans, "diagnostics.row"), "s"),
        "diagnostics.row_ms_p50": (ms(rows, 0.50), "ms"),
        "diagnostics.row_ms_p99": (ms(rows, 0.99), "ms"),
        "diagnostics.disc_coverage_calls": (sp.count(spans, "diagnostics.disc_coverage"),
                                            "count"),
        "diagnostics.disc_coverage_s": (sp.total(spans, "diagnostics.disc_coverage"), "s"),
        "diagnostics.detect_s": (sp.total(spans, "diagnostics.detect"), "s"),
        "diagnostics.ledger_csv_s": (sp.total(spans, "diagnostics.ledger_csv"), "s"),
        "snapshots.files": (sum(sp.count(spans, n) for n in
                                ("snapshots.snapshot", "snapshots.pgm", "snapshots.field_csv")),
                            "count"),
        "snapshots.bytes": (inst.sink_bytes, "B"),
        "snapshots.snapshot_s": (sp.total(spans, "snapshots.snapshot"), "s"),
        "snapshots.pgm_s": (sp.total(spans, "snapshots.pgm"), "s"),
        "snapshots.field_csv_s": (sp.total(spans, "snapshots.field_csv"), "s"),
        "relax.steps": (sp.count(spans, "relax.project"), "count"),
        "relax.defect_s": (sp.total(spans, "operators.rhs", parent="relax.run"), "s"),
        "relax.project_s": (sp.total(spans, "relax.project"), "s"),
        "relax.self_s": (selfs.get("relax.run", 0.0), "s"),
        "checks.run_s": (sp.total(spans, "checks.run"), "s"),
        "config.load_s": (sp.total(spans, "config.load"), "s"),
        "config.build_initial_s": (sp.total(spans, "config.build_initial"), "s"),
        "domain.critical_points_s": (sp.total(spans, "domain.critical_points"), "s"),
        "cli.import_s": (sp.total(spans, "cli.import"), "s"),
        "cli.self_s": (selfs.get("cli.main", 0.0), "s"),
    }
    return {name: m for name, m in out.items() if m[0] is not None}


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "spinflow", "cli.py")):
        print(f"error: no spinflow sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    config_text = workload.make_config(args.seed)
    check_ref = args.seed == DEFAULT_SEED
    run_root = os.path.join(OUT, f"{workload.name}-trace{args.trace}")
    shutil.rmtree(run_root, ignore_errors=True)
    os.makedirs(run_root)

    setups, attempted, failed = [], 0, 0
    if not args.trace:
        for k in range(PROBES):
            setup = probe_setup(workload, config_text, os.path.join(run_root, f"probe{k}"),
                                deadline)
            attempted += 1
            if setup is None:
                failed += 1
                print(f"probe {k}: set-up did not reach the first step")
            else:
                setups.append(setup)

    instances: list[Instance] = []
    t0 = time.monotonic()
    while time.monotonic() < deadline:
        traced = bool(args.trace) and len(instances) % 2 == 1
        inst = run_instance(workload, config_text,
                            os.path.join(run_root, f"inst{len(instances)}"),
                            traced=traced, check_ref=check_ref, deadline=deadline)
        instances.append(inst)
        attempted += 1
        if inst.failures:
            failed += 1
            print(f"instance {len(instances) - 1} FAILED: {'; '.join(inst.failures)}")
        elapsed = time.monotonic() - t0
        enough = not args.trace or any(i.traced for i in instances)
        if enough and elapsed + elapsed / len(instances) > args.seconds:
            break

    if not instances:
        print("error: the probes used up the time of the run", file=sys.stderr)
        return 1
    untraced = [i for i in instances if not i.traced]
    good = [i for i in untraced if not i.failures] or untraced
    walls = [i.wall_s for i in good]
    summary = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "config": config_text, "attempted": attempted, "failed": failed,
               "failed_fraction": failed / attempted,
               "kernel_counts_computed": rhs_counts(workload),
               "instances": [{k: v for k, v in vars(i).items() if k != "spans"}
                             for i in instances]}
    print(f"workload {workload.name}, seed {args.seed}, {workload.nodes} nodes, "
          f"commands {' + '.join(workload.commands)}")

    if not args.trace:
        setups += [i.setup_s for i in good if i.setup_s is not None]
        rates = [workload.nodes * i.steps / i.wall_s for i in good if i.wall_s > 0]
        samples = {
            "wall_s": (walls, "s"),
            "node_steps_per_s": (rates, "1/s"),
            "setup_s": (setups, "s"),
            "peak_rss_mb": ([i.peak_rss_mb for i in good], "MB"),
            "steps": ([i.steps for i in good], "count"),
        }
        metrics = {name: {"value": _median(vals), "unit": unit}
                   for name, (vals, unit) in samples.items()}
        for name, (vals, unit) in samples.items():
            print(f"{name} = {metrics[name]['value']:.6g} {unit} (median; {_spread(vals)})")
    else:
        traced = [i for i in instances if i.traced and not i.failures] or \
                 [i for i in instances if i.traced]
        if not traced:
            print("error: no traced instance finished before the deadline", file=sys.stderr)
            return 1
        per_instance = [layer_metrics(workload, i) for i in traced]
        metrics = {}
        for name, (_, unit) in per_instance[0].items():
            values = [m[name][0] for m in per_instance if name in m]
            metrics[name] = {"value": _median(values), "unit": unit}
        traced_wall = _median([i.wall_s for i in traced])
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_wall / _median(walls) - 1.0), "unit": "%"}
        attributed = [sum(sp.self_by_name(i.spans).values()) for i in traced]
        summary["attributed_s"] = attributed
        for name, m in metrics.items():
            share = f"  ({100 * m['value'] / traced_wall:.1f}% of traced wall)" \
                if m["unit"] == "s" and traced_wall else ""
            print(f"{name} = {m['value']:.6g} {m['unit']}{share}")
        print(f"spans cover {_median(attributed):.6g} s of the traced wall "
              f"{traced_wall:.6g} s (tolerance {sp.sum_tolerance(traced_wall):.3g} s)")
        with open(os.path.join(run_root, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([i.spans for i in traced], fh)

    print(f"failed_fraction = {summary['failed_fraction']:.6g} ({failed} of {attempted})")
    summary["metrics"] = metrics
    with open(os.path.join(run_root, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
