"""Regenerate references.json: the outputs of the current program at the
benchmark's sizes, for every input a seed can give
(``workloads.input_table``).

Run from the root of a checkout of the commit whose outputs are to be
pinned (the pinned file names it):

    python3 perfbench/pin.py > perfbench/references.json

It takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import torusflow as tf  # noqa: E402
import workloads  # noqa: E402
from workloads import as_json  # noqa: E402
from machine import git_sha  # noqa: E402

# width of the bracket pinned around the discrete critical radius
CRITICAL_TOL = 1e-5


def _table(study) -> dict:
    return {
        "err_l2": {str(row.resolution): row.err_l2 for row in study.rows},
        "err_h1": {str(row.resolution): row.err_h1 for row in study.rows},
        "superconv": {str(row.resolution): s for row, s in zip(study.rows, study.superconv_h1)},
    }


def main() -> None:
    refs = {"commit": git_sha()}

    ladder = workloads.make_inputs("ladder", 0)
    refs["ladder"] = {
        scheme: _table(tf.run_convergence(scheme, "spatial", ladder.levels,
                                          t_end=ladder.t_end, fixed_steps=ladder.steps))
        for scheme in ladder.schemes
    }

    fine = workloads.make_inputs("fine-grid", 0)
    refs["fine-grid"] = _table(tf.run_convergence(fine.scheme, "temporal", fine.levels,
                                                  t_end=fine.t_end, fixed_nodes=fine.nodes))

    table = workloads.input_table("bisect")
    events = {}
    for bis in table:
        result = tf.bisect_critical_radius(bis.lower, bis.upper, bis.tol, bis.scheme,
                                           node_count=bis.nodes, dt=bis.dt)
        events.update((r, [e.kind.value, e.time]) for r, e in result.probes)
        if bis == table[0]:
            fine_bracket = tf.bisect_critical_radius(result.lower, result.upper, CRITICAL_TOL,
                                                     bis.scheme, node_count=bis.nodes, dt=bis.dt)
    refs["bisect"] = {
        "critical_radius": [fine_bracket.lower, fine_bracket.upper],
        "inputs": [as_json(bis) for bis in table],
        "events": [[r, *events[r]] for r in sorted(events)],
    }

    runs = []
    for evo in workloads.input_table("evolve"):
        scenario = tf.run_scenario(evo.scenario, evo.scheme, evo.nodes, evo.dt, evo.t_end,
                                   evo.snapshots)
        records = scenario.report.records
        runs.append({
            "inputs": as_json(evo),
            "event": [scenario.report.event.kind.value, scenario.report.event.time],
            "snapshot_min_r": [float(s.curve.r.min()) for s in scenario.snapshots],
            "diagnostics": {
                "m": [rec.step for rec in records],
                "t": [rec.time for rec in records],
                "mesh_ratio": [rec.mesh_ratio for rec in records],
                "min_r": [rec.min_radius for rec in records],
                "diameter": [rec.diameter for rec in records],
            },
        })
    refs["evolve"] = {"runs": runs}
    json.dump(refs, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
