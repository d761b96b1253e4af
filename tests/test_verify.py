"""The verification-suite plumbing itself."""

import time
from dataclasses import replace

import pytest

import thmc.fixtures
import thmc.hilbert
import thmc.markov
import thmc.polyhedra
import thmc.stategraph
import thmc.verify
from thmc.design import Model
from thmc.verify import ALL_CRITERIA, run_suite, snf_diagonal_via_lattice


def _run(name):
    [result] = run_suite([name])
    return result


def test_criterion_result_shape():
    result = _run("design-fixtures")
    assert result.passed and result.name == "design-fixtures"
    assert result.seconds >= 0


def test_criterion_seconds_survive_a_backward_wall_clock(monkeypatch):
    clock = iter(range(1000, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    assert _run("design-fixtures").seconds >= 0


def test_snf_lattice_route_values():
    assert snf_diagonal_via_lattice(Model.B, 2, 4) == (1, 1, 1, 3)
    assert snf_diagonal_via_lattice(Model.B, 4, 10) == tuple([1] * 15 + [9])
    assert snf_diagonal_via_lattice(Model.D, 3, 12) == (1, 1, 1, 1, 1, 11)


def test_run_suite_rejects_unknown(monkeypatch):
    ran = []
    monkeypatch.setitem(ALL_CRITERIA, "design-fixtures", lambda seed: ran.append(seed) or (True, ""))
    with pytest.raises(ValueError) as info:
        run_suite(["design-fixtures", "bogus"])
    assert not ran  # refused before the first criterion runs
    assert str(info.value).startswith("unknown criteria: bogus; known: design-fixtures, ") and "\n" not in str(info.value)


def test_run_suite_turns_a_crash_into_a_failure(monkeypatch):
    def crash(seed):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(ALL_CRITERIA, "design-fixtures", crash)
    result = _run("design-fixtures")
    assert not result.passed and result.details == "error: ZeroDivisionError('boom')"


def test_all_criteria_registered():
    assert len(ALL_CRITERIA) == 12


def test_suite_is_deterministic():
    a = run_suite(["lattice-lemmas"], seed=3)[0]
    b = run_suite(["lattice-lemmas"], seed=3)[0]
    assert a.details == b.details and a.passed and b.passed


def test_polytope_criterion_fails_without_a_facet(monkeypatch):
    # the cone side of the dilation identity is decided by the double description's H-rep
    real = thmc.polyhedra.cone_facets

    def one_facet_short(columns):
        hrep = real(columns)
        return replace(hrep, inequalities=hrep.inequalities[1:])

    monkeypatch.setattr(thmc.polyhedra, "cone_facets", one_facet_short)
    result = _run("polytope-structure")
    assert not result.passed and result.details.startswith("dilation counterexamples")


def test_polytope_criterion_fails_with_a_negated_dilation_lp(monkeypatch):
    real = thmc.polyhedra.linear_feasible

    def negated_dilation(columns, rhs, *, coefficient_sum=None):
        answer = real(columns, rhs, coefficient_sum=coefficient_sum)
        return answer if coefficient_sum is None else not answer

    monkeypatch.setattr(thmc.polyhedra, "linear_feasible", negated_dilation)
    assert thmc.polyhedra.verify_dilation_slice(4, 1, 30).agreements == 0
    result = _run("polytope-structure")
    assert not result.passed and result.details.startswith("integer points differ")


def test_polytope_criterion_fails_on_a_middle_class_vertex(monkeypatch):
    # the first vertex classified (T=13, p=6) is reported in class m=3, the middle range 3 <= m <= p-3
    real = thmc.stategraph.classify_Gmn
    calls = []

    def first_in_middle(graph):
        calls.append(graph)
        cls = real(graph)
        return replace(cls, m=3) if len(calls) == 1 else cls

    monkeypatch.setattr(thmc.stategraph, "classify_Gmn", first_in_middle)
    result = _run("polytope-structure")
    assert not result.passed and result.details.startswith("middle-class vertices found")


def _graph_drops_last_letter(monkeypatch):
    real = thmc.stategraph.graph_of_word
    monkeypatch.setattr(thmc.stategraph, "graph_of_word", lambda word, S: real(word[:-1], S))


def _euler_path_reversed(monkeypatch):
    real = thmc.stategraph.eulerian_path
    monkeypatch.setattr(thmc.stategraph, "eulerian_path", lambda graph: real(graph)[::-1])


@pytest.mark.parametrize("mutate", [_graph_drops_last_letter, _euler_path_reversed])
def test_euler_criterion_fails_on_a_broken_round_trip(monkeypatch, mutate):
    mutate(monkeypatch)
    result = _run("euler-roundtrip")
    assert not result.passed and result.details.startswith("round trip failed")


def test_design_criterion_fails_on_a_changed_fixture_entry(monkeypatch):
    real = thmc.fixtures.load_design_fixture

    def one_entry_up(model):
        fixture = real(model)
        if fixture.model is not Model.A:
            return fixture
        first, *rest = fixture.rows
        return replace(fixture, rows=((first[0] + 1, *first[1:]), *rest))

    monkeypatch.setattr(thmc.fixtures, "load_design_fixture", one_entry_up)
    result = _run("design-fixtures")
    assert not result.passed and result.details.startswith("a: entrywise=FAIL")


def test_design_verdict_fails_on_a_changed_row_label(monkeypatch, capsys):
    # the columns still match entrywise; criterion 1 and the CLI name the labels as the failed check
    from thmc.cli import main

    real = thmc.fixtures.load_design_fixture

    def relabeled(model):
        fixture = real(model)
        return replace(fixture, labels=("xx", *fixture.labels[1:])) if fixture.model is Model.A else fixture

    monkeypatch.setattr(thmc.fixtures, "load_design_fixture", relabeled)
    result = _run("design-fixtures")
    assert not result.passed and result.details.startswith("a: labels=FAIL; b: entrywise=OK")
    assert main(["design", "--model", "a", "--S", "2", "--T", "4", "--check-fixture"]) == 2
    assert capsys.readouterr().out == "fixture check model a: labels FAIL\n"


@pytest.mark.parametrize("name, details", [("snf-theorems", "generating subset reached factors"), ("lattice-lemmas", "disagreement")])
def test_lattice_criteria_fail_without_a_generating_word(monkeypatch, name, details):
    real = thmc.verify._generating_words_model_b
    monkeypatch.setattr(thmc.verify, "_generating_words_model_b", lambda S, T: real(S, T)[:-1])
    result = _run(name)
    assert not result.passed and details in result.details
    assert not result.details.startswith("error:")  # a refuted check, not a crashed criterion


@pytest.mark.parametrize("model", ["d", "c"])
def test_table_criterion_fails_on_a_changed_hilbert_basis_size(monkeypatch, model):
    real = thmc.fixtures.load_tables

    def one_count_up():
        tables = real()
        T = min(tables[model])
        hb, fv = tables[model][T]
        tables[model][T] = (hb + 1, fv)
        return tables

    monkeypatch.setattr(thmc.fixtures, "load_tables", one_count_up)
    T = min(real()[model])
    result = _run(f"table-{model}")
    assert not result.passed and f"T={T}:FAIL(hb=" in result.details
    assert result.details.count("FAIL") == 1


def test_markov_criterion_fails_without_a_degree_two_move(monkeypatch):
    real = thmc.markov.moves_up_to_degree

    def one_move_short(model, S, T, k):
        moves = real(model, S, T, k)
        drop = next(i for i, mv in enumerate(moves) if len(mv.positive) == 2)
        return moves[:drop] + moves[drop + 1:]

    monkeypatch.setattr(thmc.markov, "moves_up_to_degree", one_move_short)
    result = _run("markov-probe")
    assert not result.passed and result.details.startswith("d/S=3/T=4: 75 moves of degree <= 3 leave the fiber of b=")
    assert result.details.endswith("in 2 components") and len(result.details.splitlines()) == 1


def test_markov_criterion_fails_on_a_changed_move_count(monkeypatch):
    real = thmc.markov.minimal_connecting_degree

    def one_count_off(model, S, T, D, **kwargs):
        report = real(model, S, T, D, **kwargs)
        if (S, T) != (4, 3):
            return report
        return replace(report, moves_by_degree=report.moves_by_degree | {3: 95})

    monkeypatch.setattr(thmc.markov, "minimal_connecting_degree", one_count_off)
    result = _run("markov-probe")
    assert not result.passed and len(result.details.splitlines()) == 1
    assert result.details == "d/S=4/T=3/D=4: moves by degree {2: 42, 3: 95, 4: 6}, expected {2: 42, 3: 96, 4: 6}"


def test_stabilization_criterion_fails_on_a_changed_f_vector(monkeypatch):
    real = thmc.polyhedra.f_vector

    def f14_off(columns):
        fv = real(columns)
        if sum(columns[0]) != Model.D.column_sum(14):
            return fv
        *head, a, b = fv.counts
        return replace(fv, counts=(*head, a + 1, b + 1))  # the Euler relation still holds

    monkeypatch.setattr(thmc.polyhedra, "f_vector", f14_off)
    result = _run("fvector-stabilization")
    assert not result.passed and result.details.startswith("f(12)==f(14): False, f(11)==f(15): True")


def test_hilbert_oracle_criterion_fails_on_a_dropped_oracle_element(monkeypatch):
    real = thmc.hilbert.hilbert_basis_bruteforce_oracle
    monkeypatch.setattr(thmc.hilbert, "hilbert_basis_bruteforce_oracle", lambda *args: real(*args)[1:])
    result = _run("hilbert-oracle")
    assert not result.passed and result.details == "d T=4: main 20 vs oracle 19"
