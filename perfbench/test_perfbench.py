"""Tests of the benchmark itself, on shortened plans.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

REPEATING_COUNTERS = (
    "hilbert.simplices",
    "hilbert.unimodular_share",
    "polyhedra.lp_calls",
    "markov.fibers_checked",
    "markov.moves",
)


def traced(name: str, seed: int) -> dict:
    result = run.measure(name, seed, 0.001, True, workloads.SMALL)
    assert result["correct"], result
    return {k: m["value"] for k, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counters_repeat_exactly_at_a_fixed_seed(name):
    first, second = traced(name, 7), traced(name, 7)
    assert {k: first[k] for k in REPEATING_COUNTERS} == {k: second[k] for k in REPEATING_COUNTERS}


def test_counters_land_on_the_layers_each_workload_loads():
    tables, polytope, markov = (traced(name, 7) for name in ("tables", "polytope", "markov"))
    assert tables["hilbert.simplices"] > 0 and tables["polyhedra.lp_calls"] == 0
    assert polytope["polyhedra.lp_calls"] > 0 and polytope["hilbert.simplices"] == 0
    assert markov["markov.fibers_checked"] > 0 and markov["markov.moves"] > 0
    assert markov["hilbert.simplices"] == 0 and markov["polyhedra.lp_calls"] == 0


def test_a_corrupted_fixture_value_fails_the_run():
    thmc = workloads.import_thmc()
    expected = thmc.fixtures.load_tables()
    hb, fvec = expected["d"][5]
    expected["d"][5] = (hb + 1, fvec)
    workload = workloads._tables(workloads.Workload(thmc), 0, workloads.SMALL, expected)
    outcome = run.Outcome()
    outcome.run_passes(workload, 0)
    assert outcome.attempted == 6
    assert len(outcome.failures) == 1 and "d/T=5" in outcome.failures[0]


def test_a_failed_check_voids_the_timings(monkeypatch):
    def corrupt(w, seed, plan):
        thmc = w.thmc
        expected = thmc.fixtures.load_tables()
        expected["c"][4] = (expected["c"][4][0], (0,))
        return workloads._tables(w, seed, plan, expected)

    monkeypatch.setitem(workloads.WORKLOADS, "tables", corrupt)
    result = run.measure("tables", 0, 0.001, False, workloads.SMALL)
    assert result == {"correct": False, "attempted": 6, "failed": 1, "metrics": {}}


def test_the_tracer_restores_every_binding():
    thmc = workloads.import_thmc()
    modules = workloads.Workload(thmc).modules
    before = [dict(vars(m)) for m in modules]
    with tracer.Tracer(modules) as tr:
        assert thmc.hilbert.smith_normal_form is not thmc.intlinalg.smith_normal_form
        thmc.hilbert.hilbert_basis("d", 3, 4)
        assert tr.calls("intlinalg.smith_normal_form", "thmc.hilbert") > 0
    assert [dict(vars(m)) for m in modules] == before


def test_self_time_excludes_traced_children():
    thmc = workloads.import_thmc()
    with tracer.Tracer(workloads.Workload(thmc).modules) as tr:
        thmc.hilbert.hilbert_basis("c", 3, 4)
    inclusive = tr.total("hilbert.hilbert_basis")
    # both are called directly from hilbert_basis, so their spans do not overlap
    children = tr.total("design.distinct_columns") + tr.total("polyhedra.cone_facets")
    assert 0 < tr.self_time("hilbert.hilbert_basis") < inclusive - children + 1e-9


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER_UNITS


def test_refuses_a_thmc_from_outside_the_checkout(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "missing")
    assert run.main(["--workload", "markov", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
