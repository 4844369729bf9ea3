"""Seed -> input mapping of the benchmark workloads."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    BENCH_CRITICAL_RADIUS,
    GATE_CRITICAL_RADIUS,
    PROBE_EXCLUSION,
    as_json,
    bisection_probes,
    input_table,
    make_inputs,
)

SEEDS = range(1, 301)


def test_seed_zero_reproduces_gate_and_readme_inputs():
    bis = make_inputs("bisect", 0)
    assert (bis.lower, bis.upper, bis.tol, bis.scheme) == (0.5, 0.7, 0.01, "cn")
    argv = make_inputs("evolve", 0).argv("OUT")
    text = " ".join(argv)
    assert text.startswith("evolve --scenario torus:0.7 --scheme bdf2 --nodes 512 ")
    assert "--t-end 0.5 --snapshots 0,0.04,0.08 --out OUT --export-obj" in text
    assert make_inputs("ladder", 0).levels == (32, 64, 128, 256, 512)
    assert make_inputs("ladder", 0).schemes == ("cn", "bdf2")
    assert make_inputs("fine-grid", 0).nodes == 50000


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    for seed in (0, 1, 7, 123456):
        assert make_inputs(name, seed) == make_inputs(name, seed)


def test_ladders_ignore_the_seed():
    for name in ("ladder", "fine-grid"):
        assert len({make_inputs(name, s) for s in range(20)}) == 1


@pytest.mark.parametrize("name", ("bisect", "evolve"))
def test_other_seeds_pick_every_jittered_table_entry(name):
    table = input_table(name)
    assert len(set(table)) == len(table) == workloads.VARIANTS + 1
    picked = {make_inputs(name, s) for s in SEEDS}
    assert picked == set(table[1:])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_table_entry_is_pinned(name):
    refs = checks.load_references()
    pinned = {
        "bisect": refs["bisect"]["inputs"],
        "evolve": [run["inputs"] for run in refs["evolve"]["runs"]],
    }
    if name in pinned:
        assert [as_json(inputs) for inputs in input_table(name)] == pinned[name]


def test_jittered_bisection_keeps_the_checks_valid():
    lo_zone, hi_zone = PROBE_EXCLUSION
    assert lo_zone < GATE_CRITICAL_RADIUS < hi_zone
    assert lo_zone < BENCH_CRITICAL_RADIUS < hi_zone
    for bis in input_table("bisect")[1:]:
        assert abs(bis.lower - 0.5) <= workloads.BISECT_JITTER + 1e-12
        assert abs(bis.upper - 0.7) <= workloads.BISECT_JITTER + 1e-12
        probes = bisection_probes(bis.lower, bis.upper, bis.tol, BENCH_CRITICAL_RADIUS)
        assert len(probes) == 7
        assert not any(lo_zone <= r <= hi_zone for r in probes)
        below = max(r for r in probes if r < BENCH_CRITICAL_RADIUS)
        above = min(r for r in probes if r > BENCH_CRITICAL_RADIUS)
        assert above - below <= bis.tol
        assert below < GATE_CRITICAL_RADIUS < above


def test_jittered_evolve_radius_stays_near_the_readme_value():
    for evo in input_table("evolve")[1:]:
        assert abs(evo.radius - 0.7) <= workloads.EVOLVE_JITTER + 1e-12
        assert evo.scenario == f"torus:{evo.radius:g}"
        assert float(evo.scenario.partition(":")[2]) == evo.radius


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        make_inputs("nope", 0)
