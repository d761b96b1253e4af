"""State graphs, Euler paths, cycle decompositions, G_{m,n}."""

import functools
import re

import pytest
from hypothesis import given, strategies as st

from thmc.design import Model, column_of_word, compositions, distinct_columns, transition_pairs
from thmc.stategraph import (
    NoEulerianPath,
    StateGraph,
    classify_Gmn,
    cycle_decomposition,
    eulerian_path,
    graph_of_transition_vector,
    graph_of_word,
    start_states,
)
from thmc.words import iter_words


def test_graph_of_word_counts():
    g = graph_of_word((1, 2, 3, 1, 3, 1), 3)
    assert g.x == ((0, 1, 1), (0, 0, 1), (2, 0, 0))
    assert graph_of_word((2, 2, 1, 1, 1), 2).x == ((2, 0), (1, 1))  # loops count as edges
    with pytest.raises(ValueError, match=re.escape("invalid word (1, 4, 2) for S=3")):
        graph_of_word((1, 4, 2), 3)


def test_euler_two_cycle():
    g = StateGraph(S=3, x=((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert eulerian_path(g) == (1, 2, 1)


def test_euler_example_word():
    g = graph_of_word((1, 2, 3, 1, 3, 1), 3)
    w = eulerian_path(g)
    assert graph_of_word(w, 3) == g


def test_euler_roundtrip_all_columns_T6():
    for word in iter_words(3, 6, True):
        g = graph_of_word(word, 3)
        rebuilt = eulerian_path(g)
        assert column_of_word(Model.D, 3, rebuilt) == column_of_word(Model.D, 3, word)


def test_euler_rejects_imbalance():
    g = StateGraph(S=3, x=((0, 2, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(NoEulerianPath):
        eulerian_path(g)


def test_euler_roundtrip_words_with_loops_S4():
    for word in iter_words(4, 5, False):
        g = graph_of_word(word, 4)
        rebuilt = eulerian_path(g)
        assert graph_of_word(rebuilt, 4) == g


def test_euler_rejects_disjoint_loop_islands():
    g = StateGraph(S=2, x=((1, 0), (0, 1)))
    with pytest.raises(NoEulerianPath):
        eulerian_path(g)


@pytest.mark.parametrize("S", [2, 3])
@pytest.mark.parametrize("no_loops", [False, True])
def test_euler_rule_start_states_are_the_first_letters(S, no_loops):
    # every composition x of T-1, T <= 6: 2,607 vectors over the four cases
    model = Model.D if no_loops else Model.B  # columns are the transition vectors
    for T in range(2, 7):
        firsts: dict[tuple[int, ...], set[int]] = {}
        for w in iter_words(S, T, no_loops):
            firsts.setdefault(column_of_word(model, S, w), set()).add(w[0])
        for x in compositions(T - 1, len(transition_pairs(S, no_loops))):
            graph = graph_of_transition_vector(x, S, no_loops=no_loops)
            assert set(start_states(graph)) == firsts.get(x, set())


def test_euler_rule_rejects_two_unbalanced_pairs():
    # 1->2, 2->3, 3->2, 3->4: connected, but states 1 and 3 both have out-surplus +1
    g = StateGraph(S=4, x=((0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1), (0, 0, 0, 0)))
    assert start_states(g) == ()
    with pytest.raises(NoEulerianPath):
        eulerian_path(g)


def test_cycle_decomposition_examples():
    d = cycle_decomposition(graph_of_word((1, 2, 3, 1, 3, 1, 3, 1, 2), 3))
    assert (d.m, d.n) == (2, 1)
    d = cycle_decomposition(graph_of_word((1, 2, 1, 2, 1, 2, 1, 2, 3, 1, 2, 3, 1), 3))
    assert (d.m, d.n) == (3, 2)
    empty = StateGraph(S=3, x=((0, 0, 0), (0, 0, 0), (0, 0, 0)))
    d = cycle_decomposition(empty)
    assert (d.m, d.n) == (0, 0) and d.leftover.edge_count == 0


@given(st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_cycle_decomposition_conserves_edges(x):
    g = graph_of_transition_vector(x, 3)
    d = cycle_decomposition(g)
    assert 2 * d.m + 3 * d.n + d.leftover.edge_count == g.edge_count


def test_classify_examples():
    cls = classify_Gmn(graph_of_word((1, 2, 3, 1, 3, 1, 3, 1, 2), 3))
    assert cls.member_of_script_G and (cls.m, cls.n) == (2, 1)
    # two different two-cycle types
    g = graph_of_transition_vector((1, 1, 1, 0, 1, 0), 3)
    assert not classify_Gmn(g).member_of_script_G
    # opposite-orientation three-cycles force multiple two-cycle types
    g = graph_of_transition_vector((1, 1, 1, 1, 1, 1), 3)
    assert not classify_Gmn(g).member_of_script_G


@functools.cache
def _script_G_columns(T):
    # G_{m,f(m)} read off the model-d columns: class m -> the columns classify_Gmn puts in script G with class m
    by_class: dict[int, list[tuple[int, ...]]] = {}
    for x in distinct_columns(Model.D, 3, T):
        cls = classify_Gmn(graph_of_transition_vector(x, 3))
        if cls.member_of_script_G:
            by_class.setdefault(cls.m, []).append(x)
    return by_class


def test_f_T_values():
    # n = f(m) = (T-1-2m)//3 on every script-G column of class m
    for T, m, n in ((13, 3, 2), (10, 0, 3), (7, 3, 0)):
        for x in _script_G_columns(T)[m]:
            assert classify_Gmn(graph_of_transition_vector(x, 3)).n == n, (T, x)


def test_enumerate_Gmn_nonempty_in_range():
    # for 0 <= m <= p = (T-1)//2 the columns of class m are the paper's at-most-18 case constructions
    graphs = 0
    for T in range(3, 26):
        for m in range((T - 1) // 2 + 1):
            columns = _script_G_columns(T)[m]
            assert 0 < len(columns) <= 18, (T, m)
            for x in columns:
                g = graph_of_transition_vector(x, 3)
                assert g.edge_count == T - 1
                assert classify_Gmn(g).n == (T - 1 - 2 * m) // 3, (T, x)
            graphs += len(columns)
    assert graphs == 2038


def test_enumerate_Gmn_empty_beyond_range():
    assert 5 not in _script_G_columns(9)
    assert 2 not in _script_G_columns(4)
    for T in range(3, 26):
        assert sorted(_script_G_columns(T)) == list(range((T - 1) // 2 + 1)), T


def test_enumerate_Gmn_members_are_word_graphs():
    for T in (5, 8, 11):
        for columns in _script_G_columns(T).values():
            for x in columns:
                g = graph_of_transition_vector(x, 3)
                assert graph_of_word(eulerian_path(g), 3) == g
