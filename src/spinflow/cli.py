"""Command-line drivers: run, relax, check, blowup-experiment.

Every command takes a config file and an optional output-directory override.
Exit codes: 0 success, 1 failed identity checks, 2 config error, 3 blow-up
under-resolved, 4 non-finite values outside the stepper, 5 relaxation did not
converge, 6 experiment inconclusive (no concentration detected).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__, checks, diagnostics, snapshots
from .config import ConfigError, RunConfig, load_config
from .domain import critical_points
from .flow import BlowUpError, evolve
from .relax import relax

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NONFINITE = 4
EXIT_NOT_CONVERGED = 5
EXIT_INCONCLUSIVE = 6


def _outdir(cfg: RunConfig, override: str | None) -> str:
    path = override if override is not None else os.path.join(cfg.base_dir,
                                                              cfg["output.dir"])
    os.makedirs(path, exist_ok=True)
    return path


def _write_state(cfg: RunConfig, outdir: str, field, tag: str) -> None:
    """Snapshot of a field plus, when enabled, its energy-density heatmap."""
    snapshots.write_snapshot(os.path.join(outdir, f"snapshot_{tag}.bin"), field)
    if cfg["output.heatmaps"]:
        density = diagnostics.energy_density(field, cfg.coupling)
        snapshots.write_density_pgm(os.path.join(outdir, f"density_{tag}.pgm"), density)


def _evolve_and_report(cfg: RunConfig, outdir: str, stop_when=None):
    """Shared body of run and blowup-experiment: evolve the configured flow,
    then write the ledger, the final state and the concentration report.
    The report judges the closing ledger row, or after a stop by stop_when (a
    collapse) the density-peak row, the last state the grid resolved.

    Returns (exit code, EvolveResult, ConcentrationReport); the last two are
    None unless the exit code is EXIT_OK.  A blow-up or a non-finite energy
    still leaves the ledger recorded so far.
    """
    ledger_path = os.path.join(outdir, "ledger.csv")

    def snapshot_sink(state):
        _write_state(cfg, outdir, state.field, f"{state.step:08d}")

    try:
        out = evolve(cfg.build_initial(), cfg.coupling, cfg.flow, radii=cfg.radii,
                     snapshot_sink=snapshot_sink, stop_when=stop_when)
    except BlowUpError as err:
        if err.ledger is not None:
            err.ledger.to_csv(ledger_path)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BLOWUP, None, None
    state, ledger = out.state, out.ledger
    ledger.to_csv(ledger_path)
    if not all(math.isfinite(r.e_f) for r in ledger.rows):
        print("error: non-finite energy in the ledger", file=sys.stderr)
        return EXIT_NONFINITE, None, None
    row = ledger.rows[-1]
    if out.reason == "stopped":      # max keeps the first peak of a tie
        row = max(ledger.rows, key=lambda r: r.max_density)
    report = diagnostics.judge_row(ledger, row, cfg.grid, critical_points(cfg.coupling),
                                   cfg.radii, cfg.eps_conc)
    _write_state(cfg, outdir, state.field, "final")
    if cfg["output.field_csv"]:
        snapshots.write_field_csv(os.path.join(outdir, "field_final.csv"), state.field)
    with open(os.path.join(outdir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    return EXIT_OK, out, report


def cmd_run(cfg: RunConfig, outdir: str) -> int:
    code, out, _ = _evolve_and_report(cfg, outdir)
    if code == EXIT_OK:
        print(f"finished: reason = {out.reason}, t = {out.state.t:.6g}, "
              f"steps = {out.state.step}, E_f = {out.ledger.rows[-1].e_f:.6g}")
    return code


def cmd_relax(cfg: RunConfig, outdir: str) -> int:
    initial = cfg.build_initial()
    try:
        result = relax(initial, cfg.coupling, tol=cfg["relax.tol"],
                       max_steps=cfg["relax.max_steps"], safety=cfg["relax.safety"])
    except BlowUpError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BLOWUP
    with open(os.path.join(outdir, "relax_history.csv"), "w", encoding="utf-8") as fh:
        fh.write("step,ps_norm\n")
        for k, value in enumerate(result.history):
            fh.write(f"{k},{value!r}\n")
    snapshots.write_snapshot(os.path.join(outdir, "snapshot_final.bin"), result.field)
    final_e = diagnostics.energy(result.field, cfg.coupling)
    print(f"relax: converged = {result.converged}, steps = {result.steps}, "
          f"ps_norm = {result.history[-1]:.6g}, E_f = {final_e:.6g}")
    if not result.converged:
        print("error: relaxation did not converge within max_steps", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_check(cfg: RunConfig, outdir: str) -> int:
    field = cfg.build_initial()
    results = checks.run_identity_checks(cfg.grid, cfg.coupling, field,
                                         flow_kind=cfg.flow.flow_kind,
                                         seed=cfg["initial.seed"])
    table = checks.format_table(results)
    print(table)
    with open(os.path.join(outdir, "check_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(table + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def cmd_blowup_experiment(cfg: RunConfig, outdir: str) -> int:
    """Canonical concentration experiment: evolve seeded data, stop at t_end
    or when the density peak collapses through the grid, then test the argmax
    of the last resolved row against the critical points of the coupling."""
    collapse_fraction = cfg["experiment.collapse_fraction"]
    peak = {"value": 0.0}

    def collapsed(row) -> bool:
        peak["value"] = max(peak["value"], row.max_density)
        return row.max_density < collapse_fraction * peak["value"]

    code, out, report = _evolve_and_report(cfg, outdir, stop_when=collapsed)
    if code != EXIT_OK:
        return code

    extra = [f"stop_reason = {out.reason}"]
    if not report.everywhere_critical:
        first, last = out.ledger.rows[0], out.ledger.rows[-1]
        extra.append(f"initial_distance = {first.dist_to_crit!r}")
        extra.append(f"final_distance = {last.dist_to_crit!r}")
    with open(os.path.join(outdir, "report.txt"), "a", encoding="utf-8") as fh:
        fh.write("\n".join(extra) + "\n")

    print(f"experiment: reason = {out.reason}, detected = {report.detected}")
    for line in extra:
        print(line)
    if not report.detected:
        print("error: no concentration detected (experiment inconclusive)",
              file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


#: command -> (function that runs it, help text)
_COMMANDS = {
    "run": (cmd_run, "evolve the configured flow and write ledger + snapshots"),
    "relax": (cmd_relax, "run the gradient flow to stationarity"),
    "check": (cmd_check, "measure the diagnostic identities and report pass/fail"),
    "blowup-experiment": (cmd_blowup_experiment,
                          "run the concentration experiment and report drift"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinflow",
        description="Weighted harmonic-map and Landau-Lifshitz flows on a periodic domain")
    parser.add_argument("--version", action="version", version=f"spinflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the run configuration file")
        p.add_argument("-o", "--output-dir", default=None,
                       help="override output.dir from the config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    return _COMMANDS[args.command][0](cfg, _outdir(cfg, args.output_dir))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
