"""The four benchmark workloads: seed -> inputs, and one repetition each.

Every workload drives torusflow only through its public API
(``run_convergence``, ``bisect_critical_radius``, ``run_scenario``) or
its command line (``cli.main``, called in-process).  Sizes are the
benchmark's own, chosen so that one repetition takes a few seconds on a
2-core machine and every gate criterion the workload reproduces still
holds at that size (see README.md in this directory).

Seed 0 reproduces the gate's and the README's inputs.  Other seeds pick
one of a fixed table of jittered bisection endpoints or evolve tube
radii, within ranges that keep every check valid; ``pin.py`` pins the
outputs of every table entry, so every input a seed can give is checked
against pinned outputs.  The spatial and temporal ladders have no free
input and ignore the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

WORKLOADS = ("ladder", "fine-grid", "bisect", "evolve")

# The paper's critical tube radius, which the gate's bracket must contain.
GATE_CRITICAL_RADIUS = 0.6415
# Discrete critical radius of the bisect workload's grid (J = 256,
# dt = 2e-4) at the seed commit, bracketed to 1e-5 by pin.py.  Probes
# are kept out of the zone spanning both radii, so the final bracket
# contains both whatever the seed.
BENCH_CRITICAL_RADIUS = 0.64155
PROBE_EXCLUSION = (0.6405, 0.6426)

BISECT_JITTER = 0.002
EVOLVE_JITTER = 0.001
# jittered entries per table, besides the seed-0 defaults
VARIANTS = 8


@dataclass(frozen=True)
class LadderInputs:
    """Spatial ladders for CN and BDF2 on the forced drifting circle."""

    schemes: tuple = ("cn", "bdf2")
    levels: tuple = (32, 64, 128, 256, 512)
    t_end: float = 0.5
    steps: int = 500


@dataclass(frozen=True)
class FineGridInputs:
    """CN temporal ladder at a fixed large node count."""

    scheme: str = "cn"
    levels: tuple = (8, 16, 32)
    nodes: int = 50000
    t_end: float = 1.0


@dataclass(frozen=True)
class BisectInputs:
    """Critical-radius bisection on unforced torus circles."""

    lower: float = 0.5
    upper: float = 0.7
    tol: float = 0.01
    scheme: str = "cn"
    nodes: int = 256
    dt: float = 2e-4


@dataclass(frozen=True)
class EvolveInputs:
    """One ``torusflow evolve`` command with snapshots and OBJ export."""

    radius: float = 0.7
    scheme: str = "bdf2"
    nodes: int = 512
    dt: float = 4e-4
    t_end: float = 0.5
    snapshots: tuple = (0.0, 0.04, 0.08)

    @property
    def scenario(self) -> str:
        return f"torus:{self.radius:g}"

    def argv(self, out_dir) -> list:
        return [
            "evolve",
            "--scenario", self.scenario,
            "--scheme", self.scheme,
            "--nodes", str(self.nodes),
            "--dt", repr(self.dt),
            "--t-end", repr(self.t_end),
            "--snapshots", ",".join(f"{t:g}" for t in self.snapshots),
            "--out", str(out_dir),
            "--export-obj",
        ]


def bisection_probes(lower: float, upper: float, tol: float, critical: float) -> list:
    """Radii a bisection probes when everything below ``critical``
    collapses and everything above touches the axis."""
    probes = [lower, upper]
    while upper - lower > tol:
        mid = 0.5 * (lower + upper)
        probes.append(mid)
        if mid > critical:
            upper = mid
        else:
            lower = mid
    return probes


def _bisect_variant(k: int) -> BisectInputs:
    base = BisectInputs()
    rng = random.Random(f"bisect-{k}")
    lo_zone, hi_zone = PROBE_EXCLUSION
    while True:
        lower = round(base.lower + rng.uniform(-BISECT_JITTER, BISECT_JITTER), 5)
        upper = round(base.upper + rng.uniform(-BISECT_JITTER, BISECT_JITTER), 5)
        probes = bisection_probes(lower, upper, base.tol, BENCH_CRITICAL_RADIUS)
        if not any(lo_zone <= r <= hi_zone for r in probes):
            return BisectInputs(lower=lower, upper=upper)


def _evolve_variant(k: int) -> EvolveInputs:
    rng = random.Random(f"evolve-{k}")
    return EvolveInputs(radius=round(0.7 + rng.uniform(-EVOLVE_JITTER, EVOLVE_JITTER), 5))


def input_table(workload: str) -> list:
    """Every input ``make_inputs`` can give for ``workload``; entry 0 is
    the seed-0 defaults."""
    if workload == "ladder":
        return [LadderInputs()]
    if workload == "fine-grid":
        return [FineGridInputs()]
    if workload == "bisect":
        return [BisectInputs()] + [_bisect_variant(k) for k in range(1, VARIANTS + 1)]
    if workload == "evolve":
        return [EvolveInputs()] + [_evolve_variant(k) for k in range(1, VARIANTS + 1)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def as_json(inputs) -> dict:
    """``inputs`` as it reads back from references.json."""
    return json.loads(json.dumps(asdict(inputs)))


def make_inputs(workload: str, seed: int):
    """Inputs of ``workload`` for ``seed``; the same seed gives the same inputs."""
    table = input_table(workload)
    if seed == 0 or len(table) == 1:
        return table[0]
    return table[1 + random.Random(f"{workload}-seed-{seed}").randrange(len(table) - 1)]


@dataclass
class Outcome:
    """What one repetition produced, before any check.

    ``result`` is the workload's own result object; ``steps`` counts the
    time steps taken, summed over runs, and ``node_steps`` the same
    weighted by node count.
    """

    result: object
    steps: int
    node_steps: int


def run_once(tf, workload: str, inputs, out_root: Path) -> Outcome:
    """One timed repetition of ``workload`` through torusflow module ``tf``."""
    if workload == "ladder":
        studies = {
            scheme: tf.run_convergence(
                scheme, "spatial", inputs.levels, t_end=inputs.t_end, fixed_steps=inputs.steps
            )
            for scheme in inputs.schemes
        }
        steps = inputs.steps * len(inputs.levels) * len(inputs.schemes)
        node_steps = inputs.steps * sum(inputs.levels) * len(inputs.schemes)
        return Outcome(studies, steps, node_steps)
    if workload == "fine-grid":
        study = tf.run_convergence(
            inputs.scheme, "temporal", inputs.levels, t_end=inputs.t_end, fixed_nodes=inputs.nodes
        )
        steps = sum(inputs.levels)
        return Outcome(study, steps, steps * inputs.nodes)
    if workload == "bisect":
        result = tf.bisect_critical_radius(
            inputs.lower, inputs.upper, inputs.tol, inputs.scheme,
            node_count=inputs.nodes, dt=inputs.dt,
        )
        steps = sum(int(round(event.time / inputs.dt)) for _, event in result.probes)
        return Outcome(result, steps, steps * inputs.nodes)
    if workload == "evolve":
        return _run_evolve(tf, inputs, out_root)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class EvolveResult:
    exit_code: int
    directory: Path
    metadata: dict


def _run_evolve(tf, inputs: EvolveInputs, out_root: Path) -> Outcome:
    out_root.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="evolve-", dir=out_root))
    # the command's one-line summary would precede the benchmark's result
    with contextlib.redirect_stdout(io.StringIO()):
        code = tf.cli.main(inputs.argv(out_dir))
    meta_path = out_dir / "metadata.json"
    metadata = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    event_time = float(metadata.get("event", {}).get("time", 0.0))
    steps = int(round(event_time / inputs.dt))
    result = EvolveResult(code, out_dir, metadata)
    return Outcome(result, steps, steps * inputs.nodes)
