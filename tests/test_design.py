"""Design matrix construction and sufficient statistics."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import thmc.design
from thmc.design import (
    LoopViolation,
    Model,
    SizeCapExceeded,
    build_design_matrix,
    column_of_word,
    distinct_columns,
    iter_columns,
    row_labels,
    sufficient,
    transition_pairs,
)
from thmc.words import InvalidDimension, iter_words


def test_column_examples():
    assert column_of_word(Model.A, 2, (2, 1, 2, 2)) == (0, 1, 0, 1, 1, 1)
    assert column_of_word(Model.D, 3, (1, 2, 1, 2)) == (2, 0, 1, 0, 0, 0)
    assert column_of_word(Model.B, 2, (1, 1, 1, 1)) == (3, 0, 0, 0)
    assert column_of_word(Model.C, 3, (1, 2, 1, 2)) == (1, 0, 0, 2, 0, 1, 0, 0, 0)


def test_loop_violation():
    with pytest.raises(LoopViolation):
        column_of_word(Model.D, 3, (1, 1, 2, 3))


@pytest.mark.parametrize("S", [3, 4])
@pytest.mark.parametrize("model", list(Model))
def test_column_of_word_counts_the_transition_pairs(model, S):
    for w in iter_words(S, 4, model.no_loops):
        head = tuple(int(w[0] == s) for s in range(1, S + 1)) if model.has_initial else ()
        steps = list(zip(w, w[1:]))
        assert column_of_word(model, S, w) == head + tuple(steps.count(pair) for pair in transition_pairs(S, model.no_loops))


@pytest.mark.parametrize("model", list(Model))
def test_column_of_word_rejects_an_invalid_word(model):
    for word, shown in [((1, 4, 2), "(1, 4, 2)"), ((0, 1), "(0, 1)"), ((), "()")]:
        with pytest.raises(ValueError, match=re.escape(f"invalid word {shown} for S=3")):
            column_of_word(model, 3, word)


@pytest.mark.parametrize("model", [Model.C, Model.D])
def test_column_of_word_rejects_a_looped_word(model):
    with pytest.raises(LoopViolation, match=re.escape(f"word (2, 3, 3, 1) has a self-loop under model {model.value}")):
        column_of_word(model, 3, (2, 3, 3, 1))


def test_row_label_order():
    labels = row_labels(Model.A, 2)
    assert labels == (("init", 1), ("init", 2), ("trans", 1, 1), ("trans", 1, 2), ("trans", 2, 1), ("trans", 2, 2))
    labels_d = row_labels(Model.D, 3)
    assert labels_d == tuple(("trans", i, j) for i, j in [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])


@pytest.mark.parametrize(
    "model,S,T,shape",
    [(Model.A, 2, 4, (6, 16)), (Model.B, 2, 4, (4, 16)), (Model.C, 3, 4, (9, 24)), (Model.D, 3, 4, (6, 24))],
)
def test_shapes(model, S, T, shape):
    matrix = build_design_matrix(model, S, T)
    assert (len(matrix.rows), len(matrix.columns)) == shape


@pytest.mark.parametrize("model,S,T", [(Model.A, 2, 4), (Model.B, 3, 4), (Model.C, 3, 5), (Model.D, 3, 6)])
def test_column_sum_invariant(model, S, T):
    matrix = build_design_matrix(model, S, T)
    expected = T if model.has_initial else T - 1
    assert all(sum(col) == expected for col in matrix.columns)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        build_design_matrix(Model.B, 4, 20)


def test_sufficient_statistic_examples():
    assert sufficient(Model.D, 3, [(1, 2, 1, 2)]) == (2, 0, 1, 0, 0, 0)
    assert sufficient(Model.B, 2, [(1, 1, 1, 1), (2, 2, 2, 2)]) == (3, 0, 0, 3)
    # hand count: 1212 has transitions 12,21,12; 2121 has 21,12,21
    assert sufficient(Model.D, 3, [(1, 2, 1, 2), (2, 1, 2, 1)]) == (3, 0, 3, 0, 0, 0)


@pytest.mark.parametrize("model", list(Model))
def test_sufficient_statistic_of_no_words_is_zero(model):
    # the marginal of the one element () of the b = 0 fiber
    assert sufficient(model, 3, ()) == (0,) * len(row_labels(model, 3))


def test_sufficient_statistic_linearity():
    W1 = [(1, 2, 1, 2)]
    W2 = [(2, 3, 2, 3), (1, 2, 1, 2)]
    combined = tuple(a + b for a, b in zip(sufficient(Model.D, 3, W1), sufficient(Model.D, 3, W2)))
    assert sufficient(Model.D, 3, W1 + W2) == combined


def test_probability_exponents_match_design_column():
    # the monomial exponent of each parameter equals the design-column entry
    S, T = 2, 4
    for w in iter_words(S, T, False):
        col = column_of_word(Model.A, S, w)
        labels = row_labels(Model.A, S)
        exponents = []
        for label in labels:
            if label[0] == "init":
                exponents.append(1 if w[0] == label[1] else 0)
            else:
                exponents.append(sum(1 for a, b in zip(w, w[1:]) if (a, b) == (label[1], label[2])))
        assert tuple(exponents) == col


@pytest.mark.parametrize(
    "model,S,T",
    # criterion 4's witnesses rest on these columns; its largest cases a/S=3/T=8 and b/S=3/T=8 (b/S=2/T=8 is in the S=2 range)
    [(Model.D, 3, 8), (Model.C, 3, 7), (Model.A, 3, 8), (Model.B, 3, 8)]
    + [(model, S, T) for model in Model for S, top in [(2, 9), (3, 6), (4, 5)] for T in range(1, top + 1)],
)
def test_distinct_columns_fast_path_matches_streaming(model, S, T):
    if T == 1:  # one-letter words are refused by both routes
        with pytest.raises(InvalidDimension):
            distinct_columns(model, S, T)
        with pytest.raises(InvalidDimension):
            next(iter_columns(model, S, T))
        return
    streamed = sorted({col for _, col in iter_columns(model, S, T)})
    assert list(distinct_columns(model, S, T)) == streamed


@pytest.mark.parametrize("model,T", [(Model.A, 4), (Model.A, 6), (Model.B, 5), (Model.B, 7)])
def test_distinct_columns_fast_path_with_loops_S2(model, T):
    streamed = sorted({col for _, col in iter_columns(model, 2, T)})
    assert list(distinct_columns(model, 2, T)) == streamed


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(Model)), st.integers(2, 4), st.integers(2, 7))
def test_state_walk_columns_match_word_streaming(model, S, T):
    streamed = sorted({col for _, col in iter_columns(model, S, T)})
    assert list(distinct_columns(model, S, T)) == streamed


def test_two_disjoint_loop_islands_are_not_a_column():
    # x11 = x22 = 1 with no edge between the states: balanced, but disconnected
    assert (1, 0, 0, 1) not in distinct_columns(Model.B, 2, 3)
    assert (1, 0, 1, 0, 0, 1) not in distinct_columns(Model.A, 2, 3)


def test_distinct_columns_beyond_the_word_cap():
    # 3^16 = 43M words would exceed the cap; the compositions do not
    cols = distinct_columns(Model.B, 3, 16)
    assert len(cols) == 39269
    assert all(sum(c) == 15 for c in cols)


def test_distinct_columns_size_guard_runs_before_the_walk(monkeypatch):
    # d/S=3/T=8: 384 words, 792 compositions of 7 into 6 parts
    expected = distinct_columns(Model.D, 3, 8)

    def work(*args):
        raise AssertionError("the walk started before the cap check")

    monkeypatch.setattr(thmc.design, "_rows", work)
    monkeypatch.setattr(thmc.design, "sufficient", work)
    # a/S=5/T=14: 5^14 words and comb(37, 24) compositions of 13, both over 10^7
    with pytest.raises(SizeCapExceeded):
        distinct_columns(Model.A, 5, 14)
    monkeypatch.setattr(thmc.design, "DEFAULT_COLUMN_CAP", 100)
    with pytest.raises(SizeCapExceeded):
        distinct_columns(Model.D, 3, 8)
    monkeypatch.undo()
    monkeypatch.setattr(thmc.design, "DEFAULT_COLUMN_CAP", 500)
    assert distinct_columns(Model.D, 3, 8) == expected
    monkeypatch.setattr(thmc.design, "DEFAULT_COLUMN_CAP", 100)
    with pytest.raises(SizeCapExceeded):
        distinct_columns(Model.D, 3, 8)


def test_csv_export_layout():
    matrix = build_design_matrix(Model.B, 2, 3)
    lines = matrix.to_csv().strip().splitlines()
    assert lines[0].startswith(",111,112,")
    assert lines[1].startswith("11,")
    assert len(lines) == 5
