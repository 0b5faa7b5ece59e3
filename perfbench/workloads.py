"""The benchmark's workloads: seeded configs, commands and correctness gates.

Each workload is one physics question asked through the CLI.  The seed moves
the bubble centre (or the great-circle phase) by up to JITTER_CELLS cells from
the named position; the program receives only the generated config text.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
JITTER_CELLS = 2.0
UNIT_NORM_TOL = 1e-12
REFERENCE_RTOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: cache sizes of the measurement machine (lscpu); working sets are recorded
#: against them, and no bandwidth or roofline ratio is claimed
L2_BYTES = 4 * 2**20
L3_BYTES = 300 * 2**20


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]        # CLI subcommands, one fresh process each; the
                                     # first writes snapshot_final.bin and takes the steps
    n: int                           # nodes per side
    flow_kind: str                   # "gradient" or "landau_lifshitz"
    make_config: Callable[[int], str]
    check: Callable[[str, dict], list[str]]   # (outdir, logs) -> failures

    @property
    def nodes(self) -> int:
        return self.n * self.n


def _jitter(rng: random.Random, n: int) -> float:
    return (2.0 * rng.random() - 1.0) * JITTER_CELLS / n


_COUPLING = """\
grid.lx = 1.0
grid.ly = 1.0
coupling.kind = cosine-product
coupling.ax = 0.25
coupling.ay = 0.25
"""


def quickstart_config(seed: int) -> str:
    """The README quick-start, bubble near (0.7, 0.5)."""
    rng = random.Random(seed)
    px, py = 0.7 + _jitter(rng, 128), 0.5 + _jitter(rng, 128)
    return f"""grid.nx = 128
grid.ny = 128
{_COUPLING}initial.kind = bubble
initial.px = {px!r}
initial.py = {py!r}
initial.scale = 0.05
flow.kind = landau-lifshitz
flow.safety = 0.25
flow.t_end = 0.02
flow.diagnostic_every = 50
diagnostics.radii = 0.15, 0.1, 0.06
diagnostics.eps_conc = 6.0
"""


def observed_config(seed: int) -> str:
    """A watched gradient-flow run: a row every step, sinks every 10 steps."""
    rng = random.Random(seed)
    px, py = 0.7 + _jitter(rng, 256), 0.3 + _jitter(rng, 256)
    return f"""grid.nx = 256
grid.ny = 256
{_COUPLING}initial.kind = bubble
initial.px = {px!r}
initial.py = {py!r}
initial.scale = 0.04
flow.kind = gradient
flow.t_end = 0.001
flow.snapshot_every = 10
flow.diagnostic_every = 1
diagnostics.radii = 0.2, 0.15, 0.1, 0.06, 0.03
output.field_csv = true
output.heatmaps = true
"""


def relax_config(seed: int) -> str:
    """Relaxation of a great circle, phase shifted by up to JITTER_CELLS cells."""
    rng = random.Random(seed)
    phase = 2.0 * math.pi * _jitter(rng, 64)
    return f"""grid.nx = 64
grid.ny = 64
{_COUPLING}initial.kind = great-circle
initial.phase = {phase!r}
flow.kind = gradient
flow.t_end = 0.01
"""


def _report(outdir: str) -> dict:
    out = {}
    with open(os.path.join(outdir, "report.txt"), encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition(" = ")
            if sep:
                out[key] = value.strip()
    return out


def _check_quickstart(outdir: str, logs: dict) -> list[str]:
    report = _report(outdir)
    failures = []
    if report.get("detected") != "true":
        failures.append("concentration not detected")
    initial = float(report.get("initial_distance", "nan"))
    final = float(report.get("final_distance", "nan"))
    if not final < initial:
        failures.append(f"final dist_to_crit {final} is not below the initial {initial}")
    return failures


def _check_observed(outdir: str, logs: dict) -> list[str]:
    with open(os.path.join(outdir, "ledger.csv"), encoding="utf-8") as fh:
        e_f = [float(row["E_f"]) for row in csv.DictReader(fh)]
    bad = [k for k in range(1, len(e_f)) if e_f[k] > e_f[k - 1]]
    if len(e_f) < 2 or bad:
        return [f"ledger E_f increases at rows {bad[:5]} ({len(e_f)} rows)"]
    return []


def _check_relax(outdir: str, logs: dict) -> list[str]:
    failures = []
    if "converged = True" not in logs.get("relax", ""):
        failures.append("relax did not report convergence")
    with open(os.path.join(outdir, "check_report.txt"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    failing = [r.split()[0] for r in rows if not r.rstrip().endswith("pass")]
    if not rows or failing:
        failures.append(f"identity checks failed: {failing or 'none reported'}")
    return failures


WORKLOADS = {w.name: w for w in (
    Workload("quickstart-ll-128", ("blowup-experiment",), 128,
             "landau_lifshitz", quickstart_config, _check_quickstart),
    Workload("observed-grad-256", ("run",), 256, "gradient",
             observed_config, _check_observed),
    Workload("relax-grad-64", ("relax", "check"), 64, "gradient",
             relax_config, _check_relax),
)}


def unit_norm_deviation(path: str) -> float:
    """max | |u| - 1 | over the nodes of a field snapshot, read independently
    of the package (layout: magic, u32 version/nx/ny, f64 lx/ly, f64 data)."""
    header = struct.Struct("<8sIIIdd")
    with open(path, "rb") as fh:
        magic, _, nx, ny, _, _ = header.unpack(fh.read(header.size))
        values = np.frombuffer(fh.read(), dtype="<f8")
    if magic != b"SFLDSNAP" or values.size != nx * ny * 3:
        raise ValueError(f"{path} is not a complete field snapshot")
    return float(np.abs(np.sqrt((values.reshape(-1, 3) ** 2).sum(axis=1)) - 1.0).max())


def config_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_reference(workload: Workload, config_text: str, post: dict | None) -> list[str]:
    """Default seed only: final E_f and its argmax node against reference.json."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"].get(workload.name)
    if ref is None:
        return ["no committed reference for this workload"]
    if ref["config_sha256"] != config_digest(config_text):
        return ["generated config differs from the one the reference was made with"]
    if post is None:
        return ["no final-state values to compare"]
    failures = []
    if not abs(post["e_f"] - ref["e_f"]) <= REFERENCE_RTOL * abs(ref["e_f"]):
        failures.append(f"final E_f {post['e_f']!r} differs from reference {ref['e_f']!r}")
    if post["argmax_node"] != ref["argmax_node"]:
        failures.append(f"argmax node {post['argmax_node']} differs from "
                        f"reference {ref['argmax_node']}")
    return failures


# ---------------------------------------------------------------------------
# Computed kernel counts for one `_rhs_arrays` call.  These come from array
# sizes and the stencil formula, not from a measurement.

#: floating-point operations per node: central differences 12, 5-point
#: Laplacian 27, |grad u|^2 11, tension 6, two tangential projections 22,
#: weighted defect 15; Landau-Lifshitz adds u x F and the sum, 12
RHS_FLOPS_PER_NODE = {"gradient": 93, "landau_lifshitz": 105}

#: compulsory bytes per node: read u and (f, f_x, f_y); write F and |grad u|^2,
#: and v when it differs from F
RHS_BYTES_PER_NODE = {"gradient": 24 + 24 + 24 + 8, "landau_lifshitz": 24 + 24 + 48 + 8}


def rhs_counts(workload: Workload) -> dict:
    nbytes = RHS_BYTES_PER_NODE[workload.flow_kind] * workload.nodes
    return {
        "rhs_flops_computed": RHS_FLOPS_PER_NODE[workload.flow_kind] * workload.nodes,
        "rhs_bytes_computed": nbytes,
        "field_bytes": 24 * workload.nodes,
        "working_set_vs_l2": nbytes / L2_BYTES,
        "working_set_vs_l3": nbytes / L3_BYTES,
    }
