"""Digest every output of the benchmark's workloads, so that two checkouts
can be shown to write the same bytes.

    python3 scripts/output_manifest.py [--src DIR] [--seeds 0,1,2] [--workloads NAME,...]

For each workload of perfbench/workloads.py and each seed, the workload's
config for that seed is written into a fresh temporary directory, and each
of its commands runs there as `spinflow.cli.main([command, "config.cfg",
"-o", "out"])` in a fresh Python process, one at a time, with DIR (default:
the src/ of this checkout) as PYTHONPATH, OPENBLAS_NUM_THREADS=1 (and the
other thread counts 1, as perfbench sets them), PYTHONHASHSEED=0 and no
bytecode written.  The commands of a workload share its output directory,
as in perfbench.

Printed, in order, per workload and seed:

    exit <code>  <workload>/<seed>/<command>          per command
    <sha256>  <workload>/<seed>/<command>.stdout       and its two streams
    <sha256>  <workload>/<seed>/<command>.stderr
    <sha256>  <workload>/<seed>/out/<path>             per output file
    <sha256>  <workload>/<seed>/out/<path>:<column>    per column of a .csv

A column's digest is that of its cells, the header's name first, one per
line, so a diff of two manifests names each column whose bytes moved.
Nothing is written outside the temporary directory, which is removed, and
no process is left running.  To compare a change with its parent:

    git archive PARENT | tar -x -C /tmp/parent
    python3 scripts/output_manifest.py --src /tmp/parent/src > parent.txt
    python3 scripts/output_manifest.py > change.txt
    diff parent.txt change.txt

Run it under `taskset -c 0` for runs of one process.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True      # no __pycache__ in perfbench/

from workloads import WORKLOADS  # noqa: E402

#: the child runs the CLI, or fails (exit 1) if spinflow comes from elsewhere
CHILD = """\
import os, sys
import spinflow.cli
if os.path.dirname(os.path.dirname(os.path.abspath(spinflow.cli.__file__))) != sys.argv[1]:
    sys.exit(f"spinflow imported from {spinflow.cli.__file__}, not from {sys.argv[1]}")
sys.exit(spinflow.cli.main(sys.argv[2:]))
"""


def _env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _columns(data: bytes) -> list[tuple[str, str]]:
    """(name, digest) per column of comma-separated `data`, whose first
    line is the header."""
    rows = [line.split(",") for line in data.decode("utf-8").splitlines()]
    return [(rows[0][k], _sha("\n".join(row[k] if k < len(row) else "" for row in rows).encode()))
            for k in range(len(rows[0]))] if rows else []


def manifest(name: str, seed: int, src: str, tmp: str) -> list[str]:
    """The manifest lines of one workload at one seed, run in `tmp`."""
    workload, tag = WORKLOADS[name], f"{name}/{seed}"
    run_dir = os.path.join(tmp, name, str(seed))
    os.makedirs(run_dir)
    with open(os.path.join(run_dir, "config.cfg"), "w", encoding="utf-8") as fh:
        fh.write(workload.make_config(seed))
    lines = []
    for command in workload.commands:
        proc = subprocess.run([sys.executable, "-c", CHILD, src, command, "config.cfg",
                               "-o", "out"], cwd=run_dir, env=_env(src), capture_output=True)
        lines += [f"exit {proc.returncode}  {tag}/{command}",
                  f"{_sha(proc.stdout)}  {tag}/{command}.stdout",
                  f"{_sha(proc.stderr)}  {tag}/{command}.stderr"]
    out = os.path.join(run_dir, "out")
    paths = sorted(os.path.relpath(os.path.join(top, f), out)
                   for top, _, files in os.walk(out) for f in files)
    for path in paths:
        with open(os.path.join(out, path), "rb") as fh:
            data = fh.read()
        lines.append(f"{_sha(data)}  {tag}/out/{path}")
        if path.endswith(".csv"):
            lines += [f"{digest}  {tag}/out/{path}:{column}" for column, digest in _columns(data)]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the package source to run (default: src/ of this checkout)")
    parser.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workload names")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    names = args.workloads.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}; expected some of {sorted(WORKLOADS)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="output-manifest-") as tmp:
        for name in names:
            for seed in seeds:
                print("\n".join(manifest(name, seed, src, tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
