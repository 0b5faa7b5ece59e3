"""Run the acceptance checks of a change in one command.

    python3 scripts/verify.py [--parent REV]

In order, each in a fresh process with this checkout's src/ as PYTHONPATH:

1. the tier-1 tests (tests/) with the real team rule;
2. the tier-1 tests under `taskset -c 0`, a run of one process, where
   `taskset` exists and the affinity mask holds at least two CPUs (else
   reported as skipped);
3. the benchmark's own tests (`python -m pytest perfbench`);
4. with --parent REV, the output manifests (scripts/output_manifest.py) of
   REV's src/ (a `git archive`, unpacked) and of this checkout, for every
   workload at seeds 0-2 and for the quick-start at seeds 0-2 under
   `taskset -c 0`; any line that differs is printed and fails the check.

pytest runs with `-p no:cacheprovider`, hypothesis keeps its database in
a temporary directory and no bytecode is written, so nothing is written
inside the checkout; the archive lives in a temporary directory too, and
each is removed.  Every process is waited for.  Exits 0 if every
check passed, else 1.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "scripts", "output_manifest.py")
QUICKSTART = "quickstart-ll-128"


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")


def _one_cpu() -> list[str] | None:
    """The `taskset -c 0` prefix, or None where it cannot make a run of one
    process out of a run of two."""
    if shutil.which("taskset") is None or not hasattr(os, "sched_getaffinity"):
        return None
    return ["taskset", "-c", "0"] if len(os.sched_getaffinity(0)) >= 2 else None


def _pytest(prefix: list[str], path: str) -> bool:
    cmd = prefix + [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", path]
    print(f"$ {' '.join(cmd)}", flush=True)
    with tempfile.TemporaryDirectory(prefix="verify-hypothesis-") as store:
        env = dict(_env(os.path.join(ROOT, "src")), HYPOTHESIS_STORAGE_DIRECTORY=store)
        return subprocess.run(cmd, cwd=ROOT, env=env).returncode == 0


def _manifest(prefix: list[str], src: str, workloads: str | None) -> list[str]:
    """The manifest of `src` for the comma-separated `workloads`, or of every
    workload if None."""
    cmd = prefix + [sys.executable, MANIFEST, "--src", src]
    if workloads:
        cmd += ["--workloads", workloads]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def _same_outputs(parent: str, prefix: list[str], workloads: str | None, label: str) -> bool:
    """Whether the manifests of the archived `parent` and of this checkout
    are equal; prints the diff if not."""
    with tempfile.TemporaryDirectory(prefix="verify-parent-") as tmp:
        archive = os.path.join(tmp, "src.tar")
        subprocess.run(["git", "archive", "--output", archive, parent, "src"], cwd=ROOT,
                       check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp, filter="data")
        old = _manifest(prefix, os.path.join(tmp, "src"), workloads)
    new = _manifest(prefix, os.path.join(ROOT, "src"), workloads)
    diff = list(difflib.unified_diff(old, new, f"{parent}:{label}", f"checkout:{label}",
                                     lineterm=""))
    print(f"manifest {label}: {len(new)} lines, {len(diff)} diff lines", flush=True)
    if diff:
        print("\n".join(diff), flush=True)
    return not diff and len(old) == len(new) > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", metavar="REV",
                        help="compare every output with that of this git revision")
    args = parser.parse_args(argv)
    one_cpu = _one_cpu()
    results = {"tier-1": _pytest([], "tests")}
    if one_cpu is None:
        print("tier-1 under taskset -c 0: skipped (no taskset, or fewer than two CPUs)")
    else:
        results["tier-1 under taskset -c 0"] = _pytest(one_cpu, "tests")
    results["perfbench tests"] = _pytest([], "perfbench")
    if args.parent:
        results["manifest"] = _same_outputs(args.parent, [], None, "all workloads")
        if one_cpu is not None:
            results["manifest under taskset -c 0"] = _same_outputs(
                args.parent, one_cpu, QUICKSTART, f"{QUICKSTART}, taskset -c 0")
    print()
    for name, ok in results.items():
        print(f"{'ok    ' if ok else 'FAILED'}  {name}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
