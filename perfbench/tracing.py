"""Per-layer tracing from outside the package.

The tracer replaces functions at the names their callers bind
(``stepping`` imports its callees by name, so wrapping them in
``assembly`` would not be seen) and records one span per call: name,
start, end, parent.  Spans stay in memory until the run ends.  A name
that no longer exists is reported as missing, together with the
metrics that depend on it, and tracing goes on without it.

Only a traced run imports this module; the end-to-end runs do not.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from pathlib import Path

# (module, attribute path, span name).  Each caller's binding is wrapped
# separately because each caller looks the name up in its own module.
SPAN_TARGETS = [
    ("torusflow.stepping", "weighted_mass_matrix", "assembly.mass"),
    ("torusflow.stepping", "weighted_stiffness_matrix", "assembly.stiffness"),
    ("torusflow.stepping", "radial_direction_load", "assembly.radial_load"),
    ("torusflow.stepping", "source_load", "assembly.source_load"),
    ("torusflow.assembly", "CyclicTridiagonal.matvec", "assembly.matvec"),
    ("torusflow.stepping", "solve_cyclic", "cyclic_solver.solve"),
    ("torusflow.stepping", "bdf1_step", "stepping.step"),
    ("torusflow.stepping", "cn_step", "stepping.step"),
    ("torusflow.stepping", "bdf2_step", "stepping.step"),
    ("torusflow.experiments", "run", "stepping.run"),
    ("torusflow.stepping", "l2_error", "diagnostics.l2"),
    ("torusflow.stepping", "h1_seminorm_error", "diagnostics.h1"),
    ("torusflow.stepping", "superconvergence_error", "diagnostics.superconv"),
    ("torusflow.stepping", "diameter", "diagnostics.diameter"),
    ("torusflow.stepping", "mesh_ratio", "diagnostics.mesh_ratio"),
    ("torusflow.stepping", "min_radial", "diagnostics.min_radial"),
    ("torusflow.experiments", "classify_radius", "experiments.probe"),
    ("torusflow.cli", "write_evolution_bundle", "cli.write_bundle"),
]
# Called too often for a span each; counted only.
COUNT_TARGETS = [
    ("torusflow.curves", "PeriodicCurve.__post_init__", "curves.PeriodicCurve"),
    ("torusflow.curves", "PeriodicCurve.edge_lengths", "curves.edge_lengths"),
]
# The step functions are also reached through this dispatch table.
STEP_TABLE = ("torusflow.stepping", "_STEPPERS", "stepping.step")
# Names read, not wrapped.
RESIDUAL_RTOL = ("torusflow.cyclic_solver", "RESIDUAL_RTOL")
CHECKPOINT_COUNT = ("torusflow.experiments", "CHECKPOINT_COUNT")


def _resolve(module: str, path: str):
    """(owner, attribute, value) for ``module`` + dotted ``path``, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans as [name, start, end, parent, raised] lists, in call order.

    Time the tracer spends on its own audits, and time passed to
    ``exclude``, is subtracted from its clock, so it appears in no span.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: set = set()
        self.solves = 0
        self.non_ok = 0
        self.residual_to_bound = 0.0
        self._stack: list = []
        self._excluded = 0.0
        self._restore: list = []
        self._residual_rtol = None
        self.checkpoint_count = 0

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    def exclude(self, seconds: float) -> None:
        """Hide ``seconds`` of work that is not the program's from every span."""
        self._excluded += seconds

    def span(self, name: str, fn, audit=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, False]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = tracer.clock()
                tracer._stack.pop()
            if audit is not None:
                t0 = time.perf_counter()
                audit(args, result)
                tracer.exclude(time.perf_counter() - t0)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _audit_solve(self, args, report) -> None:
        """Residual of a solve against the bound its status is judged by."""
        import numpy as np

        matrix, rhs = args[0], np.asarray(args[1], dtype=float)
        x = np.asarray(report.solution, dtype=float)
        self.solves += 1
        if getattr(report.status, "value", report.status) != "ok":
            self.non_ok += 1
        if self._residual_rtol is None or not np.all(np.isfinite(x)):
            return
        bound = self._residual_rtol * (
            float(np.abs(rhs).max()) + matrix.inf_norm() * float(np.abs(x).max())
        )
        if bound > 0.0:
            self.residual_to_bound = max(self.residual_to_bound, report.residual_norm / bound)

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        found = _resolve(*RESIDUAL_RTOL)
        if found is None:
            self.missing.add(".".join(RESIDUAL_RTOL))
        else:
            self._residual_rtol = float(found[2])
        found = _resolve(*CHECKPOINT_COUNT)
        if found is None:
            self.missing.add(".".join(CHECKPOINT_COUNT))
        else:
            self.checkpoint_count = int(found[2])
        wrapped = {}
        for module, path, name in SPAN_TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.add(f"{module}.{path}")
                continue
            owner, attr, fn = found
            audit = self._audit_solve if name == "cyclic_solver.solve" else None
            wrapper = self.span(name, fn, audit)
            wrapped[id(fn)] = wrapper
            self._replace(owner, attr, wrapper)
        for module, path, name in COUNT_TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.add(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self._replace(owner, attr, self.counter(name, fn))
        found = _resolve(*STEP_TABLE[:2])
        if found is None:
            self.missing.add(".".join(STEP_TABLE[:2]))
            return
        table = found[2]
        original = dict(table)
        self._restore.append((table, None, original))
        for key, fn in original.items():
            table[key] = wrapped.get(id(fn)) or self.span(STEP_TABLE[2], fn)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            if attr is None:
                owner.clear()
                owner.update(old)
            elif old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: Path) -> None:
        """Write the spans as CSV: id, parent, name, start, end, raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("id,parent,name,start_s,end_s,raised\n")
            for k, (name, start, end, parent, raised) in enumerate(self.spans):
                out.write(f"{k},{parent},{name},{start:.9f},{end:.9f},{int(raised)}\n")


_ABSENT = object()


def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its
    interval covered by its direct children."""
    children: dict = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for k, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(k, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolated q-th percentile (0..100); 0.0 for no values."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# metric -> (unit, span or counter names it needs)
LAYER_METRICS = {
    "curves.PeriodicCurve.per_step": ("1/step", ["curves.PeriodicCurve"]),
    "curves.edge_lengths.per_step": ("1/step", ["curves.edge_lengths"]),
    "assembly.mass.us_per_call": ("us", ["assembly.mass"]),
    "assembly.stiffness.us_per_call": ("us", ["assembly.stiffness"]),
    "assembly.radial_load.us_per_call": ("us", ["assembly.radial_load"]),
    "assembly.matvec.us_per_call": ("us", ["assembly.matvec"]),
    "assembly.matvec.per_step": ("1/step", ["assembly.matvec"]),
    "assembly.source_load.us_per_call": ("us", ["assembly.source_load"]),
    "assembly.source_load.per_step": ("1/step", ["assembly.source_load"]),
    "cyclic_solver.solve.us_per_call.p50": ("us", ["cyclic_solver.solve"]),
    "cyclic_solver.solve.us_per_call.p99": ("us", ["cyclic_solver.solve"]),
    "cyclic_solver.solve.per_step": ("1/step", ["cyclic_solver.solve"]),
    "cyclic_solver.non_ok_ratio": ("ratio", ["cyclic_solver.solve"]),
    "cyclic_solver.residual_to_bound.max": (
        "ratio", ["cyclic_solver.solve", "cyclic_solver.RESIDUAL_RTOL"]),
    "stepping.step.us.p50": ("us", ["stepping.step"]),
    "stepping.step.us.p99": ("us", ["stepping.step"]),
    "stepping.step.self_us": ("us", ["stepping.step"]),
    "stepping.run.self_us_per_step": ("us", ["stepping.run"]),
    "stepping.steps": ("count", ["stepping.step"]),
    "diagnostics.errors.us_per_step": (
        "us", ["diagnostics.l2", "diagnostics.h1", "diagnostics.superconv"]),
    "diagnostics.records_used_ratio": (
        "ratio", ["diagnostics.l2", "experiments.CHECKPOINT_COUNT"]),
    "diagnostics.diameter.us_per_call": ("us", ["diagnostics.diameter"]),
    "diagnostics.diameter.per_step": ("1/step", ["diagnostics.diameter"]),
    "diagnostics.mesh_ratio.us_per_call": ("us", ["diagnostics.mesh_ratio"]),
    "experiments.probes": ("count", ["experiments.probe"]),
    "experiments.steps_per_probe": ("count", ["experiments.probe"]),
    "experiments.level_s": ("s", ["stepping.run"]),
    "experiments.result_drift": ("ratio", []),
    "cli.write_bundle_s": ("s", ["cli.write_bundle"]),
    "cli.bytes_written": ("bytes", []),
    "trace.overhead": ("ratio", []),
    "run.raw_wall_s": ("s", []),
    "run.slowdown": ("ratio", []),
}


def missing_layers(missing_targets) -> set:
    """Span and counter names whose target could not be wrapped."""
    by_target = {f"{m}.{p}": n for m, p, n in SPAN_TARGETS + COUNT_TARGETS}
    for module, attr in (RESIDUAL_RTOL, CHECKPOINT_COUNT):
        by_target[f"{module}.{attr}"] = f"{module.rpartition('.')[2]}.{attr}"
    out = {by_target.get(t, t) for t in missing_targets}
    # step spans come from any step function or the dispatch table, so
    # they are missing only when every one of them is (a merged kernel
    # registered in the table is still traced)
    step_targets = [f"{m}.{p}" for m, p, n in SPAN_TARGETS if n == "stepping.step"]
    step_targets.append(".".join(STEP_TABLE[:2]))
    if not all(t in missing_targets for t in step_targets):
        out.discard("stepping.step")
    return out


def layer_metrics(tracer: Tracer, reps: int, steps: int, extra: dict) -> tuple:
    """Per-layer metrics of ``reps`` traced repetitions that took ``steps``
    time steps in all.

    ``extra`` supplies the values measured outside the spans:
    ``result_drift``, ``bytes_written`` (per repetition), ``overhead``,
    ``raw_wall_s`` (untraced, unscaled) and ``slowdown`` (of the machine
    against the calibration reference).  Returns (metrics, names left out
    because a layer they need was missing).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    durations: dict = {}
    self_by_name: dict = {}
    step_us, step_self_us = [], []
    error_runs = set()
    for (name, start, end, parent, raised), own in zip(spans, selfs):
        durations.setdefault(name, []).append(end - start)
        self_by_name.setdefault(name, []).append(own)
        if name == "stepping.step" and not raised:
            step_us.append(1e6 * (end - start))
            step_self_us.append(1e6 * own)
        elif name == "diagnostics.l2":
            error_runs.add(parent)
    per_step = max(steps, 1)
    us = 1e6

    def calls(name):
        return len(durations.get(name, ()))

    def median(name):
        return percentile(durations.get(name, []), 50)

    def median_us(name):
        return us * median(name)

    error_time = sum(sum(durations.get(n, ())) for n in
                     ("diagnostics.l2", "diagnostics.h1", "diagnostics.superconv"))
    probes = calls("experiments.probe")
    values = {
        "curves.PeriodicCurve.per_step": tracer.counts["curves.PeriodicCurve"] / per_step,
        "curves.edge_lengths.per_step": tracer.counts["curves.edge_lengths"] / per_step,
        "assembly.mass.us_per_call": median_us("assembly.mass"),
        "assembly.stiffness.us_per_call": median_us("assembly.stiffness"),
        "assembly.radial_load.us_per_call": median_us("assembly.radial_load"),
        "assembly.matvec.us_per_call": median_us("assembly.matvec"),
        "assembly.matvec.per_step": calls("assembly.matvec") / per_step,
        "assembly.source_load.us_per_call": median_us("assembly.source_load"),
        "assembly.source_load.per_step": calls("assembly.source_load") / per_step,
        "cyclic_solver.solve.us_per_call.p50": median_us("cyclic_solver.solve"),
        "cyclic_solver.solve.us_per_call.p99":
            us * percentile(durations.get("cyclic_solver.solve", []), 99),
        "cyclic_solver.solve.per_step": calls("cyclic_solver.solve") / per_step,
        "cyclic_solver.non_ok_ratio": tracer.non_ok / max(tracer.solves, 1),
        "cyclic_solver.residual_to_bound.max": tracer.residual_to_bound,
        "stepping.step.us.p50": percentile(step_us, 50),
        "stepping.step.us.p99": percentile(step_us, 99),
        "stepping.step.self_us": percentile(step_self_us, 50),
        "stepping.run.self_us_per_step": us * sum(self_by_name.get("stepping.run", ())) / per_step,
        "stepping.steps": len(step_us) / max(reps, 1),
        "diagnostics.errors.us_per_step": us * error_time / per_step,
        # no error records computed means none wasted
        "diagnostics.records_used_ratio": (
            tracer.checkpoint_count * len(error_runs) / calls("diagnostics.l2")
            if calls("diagnostics.l2") else 1.0),
        "diagnostics.diameter.us_per_call": median_us("diagnostics.diameter"),
        "diagnostics.diameter.per_step": calls("diagnostics.diameter") / per_step,
        "diagnostics.mesh_ratio.us_per_call": median_us("diagnostics.mesh_ratio"),
        "experiments.probes": probes / max(reps, 1),
        "experiments.steps_per_probe": steps / probes if probes else 0.0,
        "experiments.level_s": median("stepping.run"),
        "experiments.result_drift": extra["result_drift"],
        "cli.write_bundle_s": median("cli.write_bundle"),
        "cli.bytes_written": extra["bytes_written"],
        "trace.overhead": extra["overhead"],
        "run.raw_wall_s": extra["raw_wall_s"],
        "run.slowdown": extra["slowdown"],
    }
    gone = missing_layers(tracer.missing)
    metrics, left_out = {}, []
    for name, (unit, needs) in LAYER_METRICS.items():
        if gone.intersection(needs):
            left_out.append(name)
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, left_out
