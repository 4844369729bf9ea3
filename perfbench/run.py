"""torusflow benchmark: one workload, timed for a fixed span, with checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; nothing is
installed.  The run repeats the workload as often as fits in
``--seconds`` (at least once), checks every repetition's outputs, and
prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, from untraced
repetitions; with ``--trace 1`` they are the per-layer ones, from
repetitions traced by ``tracing.py`` after a few untraced ones.
Times are scaled to a reference machine speed by ``calibrate.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EVOLVE_OUT = OUT / "evolve"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
# share of a traced run spent on untraced repetitions, the base of
# trace.overhead
UNTRACED_SHARE = 1.0 / 3.0


def cap_threads() -> None:
    """Keep BLAS and OpenMP thread pools within the CPUs this process may use.

    Must run before NumPy is imported; child processes inherit it.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cpus:
            os.environ[var] = str(cpus)


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds at reference speed, one per fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        took, slowdown = map(float, done.stdout.split())
        samples.append(took / slowdown)
    return samples


def import_torusflow():
    sys.path.insert(0, str(SRC))
    import torusflow
    import torusflow.cli  # noqa: F401  (evolve calls torusflow.cli.main)

    if not Path(torusflow.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"torusflow imported from {torusflow.__file__}, not from {SRC}")
    return torusflow


class Repeater:
    """Runs, times and checks repetitions of one workload."""

    def __init__(self, tf, workload: str, inputs, refs: dict):
        self.tf = tf
        self.workload = workload
        self.inputs = inputs
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.drift = 0.0
        self.bytes_written = []
        self.context = None
        if workload == "evolve":
            # the in-memory curves the evolve snapshots are read back against
            self.context = tf.run_scenario(
                inputs.scenario, inputs.scheme, inputs.nodes, inputs.dt, inputs.t_end,
                inputs.snapshots,
            )

    def once(self, on_slice=None):
        """One repetition: (Calibrated timing, Outcome or None)."""
        import calibrate
        import checks

        ops = len(checks.operations(self.workload, self.inputs))
        outcome = None
        try:
            with calibrate.Calibrated(on_slice) as timing:
                outcome = workloads.run_once(self.tf, self.workload, self.inputs, EVOLVE_OUT)
            verdict = checks.check(
                self.workload, self.inputs, outcome.result, self.refs, self.context
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += ops
            self.failed += ops
        else:
            self.attempted += verdict.attempted
            self.failed += verdict.failed
            self.drift = max(self.drift, verdict.drift)
            for op, messages in verdict.failures.items():
                print(f"check failed: {self.workload} {op}: {'; '.join(messages)}",
                      file=sys.stderr)
        finally:
            directory = getattr(getattr(outcome, "result", None), "directory", None)
            if directory is not None:
                self.bytes_written.append(
                    sum(p.stat().st_size for p in directory.iterdir() if p.is_file()))
                shutil.rmtree(directory, ignore_errors=True)
        return timing, outcome

    def repeat(self, seconds: float, on_slice=None) -> list:
        """At least one repetition, and as many more as fit in ``seconds``
        of wall time at the median pace so far."""
        reps = [self.once(on_slice)]
        walls = [reps[0][0].wall]
        while sum(walls) + statistics.median(walls) <= seconds:
            reps.append(self.once(on_slice))
            walls.append(reps[-1][0].wall)
        return reps


def end_to_end(rep: Repeater, seconds: float, setup: list) -> dict:
    reps = rep.repeat(seconds)
    times = [timing.ref_time for timing, _ in reps]
    rates = [(out.node_steps if out else 0) / timing.ref_time for timing, out in reps]
    return {
        "ref_wall_s": {"value": statistics.median(times), "unit": "s"},
        "ref_node_steps_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(rep: Repeater, seconds: float, workload: str) -> dict:
    import tracing

    untraced = rep.repeat(seconds * UNTRACED_SHARE)
    tracer = tracing.Tracer()
    with tracer:
        traced = rep.repeat(seconds * (1.0 - UNTRACED_SHARE), on_slice=tracer.exclude)
    steps = sum(out.steps for _, out in traced if out)
    base = statistics.median(timing.ref_time for timing, _ in untraced)
    extra = {
        "result_drift": rep.drift,
        "bytes_written": statistics.median(rep.bytes_written) if rep.bytes_written else 0,
        "overhead": statistics.median(timing.ref_time for timing, _ in traced) / base - 1.0,
        "raw_wall_s": statistics.median(timing.work for timing, _ in untraced),
        "slowdown": statistics.median(timing.slowdown for timing, _ in untraced + traced),
    }
    metrics, left_out = tracing.layer_metrics(tracer, len(traced), steps, extra)
    if tracer.missing:
        print(f"trace: missing {sorted(tracer.missing)}; not reported: {left_out}",
              file=sys.stderr)
    tracer.write(OUT / f"spans-{workload}.csv")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torusflow" / "__init__.py").is_file():
        print(f"error: no torusflow sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    shutil.rmtree(EVOLVE_OUT, ignore_errors=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    tf = import_torusflow()
    import checks

    inputs = workloads.make_inputs(args.workload, args.seed)
    rep = Repeater(tf, args.workload, inputs, checks.load_references())
    if args.trace:
        metrics = per_layer(rep, args.seconds, args.workload)
    else:
        metrics = end_to_end(rep, args.seconds, setup)
    print(json.dumps({
        "correct": rep.failed == 0,
        "attempted": rep.attempted,
        "failed": rep.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
