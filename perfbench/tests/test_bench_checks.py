"""The reference checks accept the pinned outputs and flag perturbed ones."""

import copy
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace as NS

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_CRITICAL_RADIUS,
    as_json,
    bisection_probes,
    input_table,
    make_inputs,
)

REFS = checks.load_references()


def _study(table, levels):
    rows = []
    for k, level in enumerate(levels):
        l2 = table["err_l2"][str(level)]
        order = None
        if k:
            prev = rows[-1]
            order = checks.fitted_order([prev.resolution, level], [prev.err_l2, l2])
        rows.append(NS(resolution=level, err_l2=l2, err_h1=table["err_h1"][str(level)],
                       order_l2=order))
    return NS(rows=rows, superconv_h1=[table["superconv"][str(v)] for v in levels])


def _ladder(refs):
    inputs = make_inputs("ladder", 0)
    return inputs, {s: _study(refs["ladder"][s], inputs.levels) for s in inputs.schemes}


def _bisect_result(probes, lower, upper):
    events = [(r, NS(kind=NS(value=kind), time=t)) for r, kind, t in probes]
    return NS(probes=events, lower=lower, upper=upper)


def test_pinned_ladder_passes():
    inputs, studies = _ladder(REFS)
    verdict = checks.check("ladder", inputs, studies, REFS)
    assert verdict.attempted == 10
    assert verdict.failures == {}
    assert verdict.drift == 0.0


def test_ladder_entry_off_by_more_than_rel_tol_fails_only_its_level():
    refs = copy.deepcopy(REFS)
    refs["ladder"]["bdf2"]["err_l2"]["128"] *= 1.0 + 1e-4
    inputs, studies = _ladder(refs)
    verdict = checks.check("ladder", inputs, studies, REFS)
    assert list(verdict.failures) == [("bdf2", 128)]
    assert abs(verdict.drift - 1e-4) < 1e-9


def test_ladder_entry_far_from_gate_target_fails_gate_check():
    refs = copy.deepcopy(REFS)
    refs["ladder"]["cn"]["err_l2"]["64"] *= 1.4
    inputs, studies = _ladder(refs)
    verdict = checks.check("ladder", inputs, studies, refs)  # pinned to itself
    messages = " ".join(m for ms in verdict.failures.values() for m in ms)
    assert ("cn", 64) in verdict.failures
    assert "over gate target" in messages


def test_fine_grid_anchor_and_orders():
    inputs = make_inputs("fine-grid", 0)
    study = _study(REFS["fine-grid"], inputs.levels)
    assert checks.check("fine-grid", inputs, study, REFS).failures == {}
    refs = copy.deepcopy(REFS)
    refs["fine-grid"]["err_l2"]["32"] *= 1.3
    bad = _study(refs["fine-grid"], inputs.levels)
    verdict = checks.check("fine-grid", inputs, bad, refs)
    assert set(verdict.failures) == {32}


def _pinned_probes(inputs):
    """Plain bisection's probes for ``inputs``, with their pinned events."""
    events = {r: (kind, t) for r, kind, t in REFS["bisect"]["events"]}
    radii = bisection_probes(inputs.lower, inputs.upper, inputs.tol, BENCH_CRITICAL_RADIUS)
    return [[r, *events[r]] for r in radii]


def _bracket(probes):
    below = max(r for r, kind, _ in probes if kind == "curve_collapse")
    above = min(r for r, kind, _ in probes if kind == "axis_touch")
    return below, above


@pytest.mark.parametrize("inputs", input_table("bisect"))
def test_every_pinned_bisect_input_passes(inputs):
    probes = _pinned_probes(inputs)
    verdict = checks.check("bisect", inputs, _bisect_result(probes, *_bracket(probes)), REFS)
    assert verdict.attempted == len(probes) + 1 == 8
    assert verdict.failures == {}


def test_bisect_perturbations_fail_on_a_jittered_input():
    inputs = input_table("bisect")[3]
    probes = _pinned_probes(inputs)
    bracket = _bracket(probes)

    bad = copy.deepcopy(probes)
    bad[3][1] = "curve_collapse"  # an upper probe wrongly collapses
    verdict = checks.check("bisect", inputs, _bisect_result(bad, *bracket), REFS)
    assert ("probe", 3) in verdict.failures

    bad = copy.deepcopy(probes)
    bad[4][2] += 2 * inputs.dt  # event two steps late
    verdict = checks.check("bisect", inputs, _bisect_result(bad, *bracket), REFS)
    assert set(verdict.failures) == {("probe", 4)}

    wide = _bisect_result(probes, 0.6, 0.65)
    assert "bracket" in checks.check("bisect", inputs, wide, REFS).failures


def test_bisect_axis_touch_outside_the_gate_window_fails():
    inputs = make_inputs("bisect", 0)
    probes = _pinned_probes(inputs)
    probes[1][2] = 0.09  # r = 0.7: outside 0.081 +- 0.005
    verdict = checks.check("bisect", inputs, _bisect_result(probes, *_bracket(probes)), REFS)
    assert set(verdict.failures) == {("probe", 1)}


def test_bisect_counts_probes_from_the_result():
    # a k-section probes other radii: unpinned radii are held to the
    # pinned critical bracket only
    inputs = make_inputs("bisect", 0)
    crit_lo, crit_hi = REFS["bisect"]["critical_radius"]
    probes = [[0.5, "curve_collapse", 0.137], [0.7, "axis_touch", 0.082],
              [0.6400, "curve_collapse", 0.3], [0.6430, "axis_touch", 0.2]]
    verdict = checks.check("bisect", inputs, _bisect_result(probes, 0.6400, 0.6430), REFS)
    assert verdict.attempted == 5
    assert verdict.failures == {}
    probes[3][1] = "curve_collapse"
    verdict = checks.check("bisect", inputs, _bisect_result(probes, 0.6400, 0.6430), REFS)
    assert set(verdict.failures) == {("probe", 3)}


def test_unpinned_inputs_fail_every_operation():
    bis = replace(make_inputs("bisect", 0), lower=0.501)
    probes = _pinned_probes(make_inputs("bisect", 0))
    verdict = checks.check("bisect", bis, _bisect_result(probes, *_bracket(probes)), REFS)
    assert verdict.failed == verdict.attempted
    evo = replace(make_inputs("evolve", 0), radius=0.7003)
    verdict = checks.check("evolve", evo, NS(exit_code=0), REFS, context=None)
    assert verdict.failed == verdict.attempted == 1


def _bundle(directory, run, inputs):
    """An evolve output directory that matches the pinned ``run``."""
    diag = run["diagnostics"]
    names = list(diag)
    lines = [",".join(names)]
    for row in zip(*diag.values()):
        lines.append(",".join("" if v is None else repr(v) for v in row))
    (directory / "diagnostics.csv").write_text("\n".join(lines) + "\n")
    (directory / "metadata.json").write_text("{}")
    for t in inputs.snapshots:
        for ext in ("csv", "obj"):
            (directory / f"snapshot_t{t:g}.{ext}").write_text("")
    kind, time = run["event"]
    return NS(exit_code=0, directory=directory, metadata={"event": {"kind": kind, "time": time}})


def test_evolve_diagnostics_columns_are_compared_on_jittered_inputs(tmp_path):
    inputs = input_table("evolve")[2]
    run = next(r for r in REFS["evolve"]["runs"] if r["inputs"] == as_json(inputs))
    no_snapshots = NS(snapshots=[])
    result = _bundle(tmp_path, run, inputs)
    verdict = checks.check("evolve", inputs, result, REFS, context=no_snapshots)
    assert all("diagnostics" not in m for m in verdict.failures.get("evolve", []))

    bad = copy.deepcopy(run)
    bad["diagnostics"]["diameter"][50] *= 1.0 + 1e-4
    result = _bundle(tmp_path, bad, inputs)
    verdict = checks.check("evolve", inputs, result, REFS, context=no_snapshots)
    assert any("diagnostics.csv diameter[50]" in m for m in verdict.failures["evolve"])

    bad = copy.deepcopy(run)
    bad["event"][1] += inputs.dt
    result = _bundle(tmp_path, bad, inputs)
    verdict = checks.check("evolve", inputs, result, REFS, context=no_snapshots)
    assert any(m.startswith("event time") for m in verdict.failures["evolve"])


def test_failed_evolve_command_fails_its_operation():
    inputs = make_inputs("evolve", 0)
    result = NS(exit_code=1)
    verdict = checks.check("evolve", inputs, result, REFS, context=None)
    assert verdict.failed == verdict.attempted == 1
