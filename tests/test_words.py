"""Word enumeration and indexing."""

from itertools import product

import pytest

from thmc.words import (
    InvalidDimension,
    enumerate_words,
    format_word,
    iter_words,
    parse_word,
    word_count,
    word_index,
)


def brute_force_words(S, T, no_loops):
    """Independent oracle: filter the full product enumeration."""
    out = []
    for w in product(range(1, S + 1), repeat=T):
        if no_loops and any(a == b for a, b in zip(w, w[1:])):
            continue
        out.append(w)
    return out


def test_enumerate_2_2_with_loops():
    assert enumerate_words(2, 2, False) == ((1, 1), (1, 2), (2, 1), (2, 2))


def test_enumerate_3_4_no_loops_prefix_and_count():
    words = enumerate_words(3, 4, True)
    assert [format_word(w) for w in words[:4]] == ["1212", "1213", "1231", "1232"]
    assert len(words) == 24


def test_enumerate_3_6_no_loops_count():
    # brute-force oracle gives 96; the closed form S(S-1)^(T-1) agrees
    oracle = brute_force_words(3, 6, True)
    assert len(oracle) == 96
    assert enumerate_words(3, 6, True) == tuple(oracle)


@pytest.mark.parametrize("S", [2, 3, 4])
@pytest.mark.parametrize("T", range(2, 9))
def test_counting_formula_matches_brute_force(S, T):
    assert word_count(S, T, True) == len(brute_force_words(S, T, True))
    assert word_count(S, T, False) == S**T


@pytest.mark.parametrize("S,T,no_loops", [(2, 4, False), (3, 4, True), (3, 3, False), (4, 3, True)])
def test_enumeration_sorted_and_unique(S, T, no_loops):
    words = enumerate_words(S, T, no_loops)
    assert list(words) == sorted(set(words))


def test_invalid_dimensions():
    with pytest.raises(InvalidDimension):
        enumerate_words(1, 4, False)
    with pytest.raises(InvalidDimension):
        enumerate_words(3, 1, False)


@pytest.mark.parametrize("S,T,no_loops", [(2, 4, False), (3, 4, True), (4, 6, False), (4, 6, True), (2, 5, True), (5, 3, True)])
def test_index_is_lex_position(S, T, no_loops):
    for pos, w in enumerate(iter_words(S, T, no_loops)):
        assert word_index(w, S, no_loops) == pos


def test_word_formatting():
    assert format_word((1, 2, 1, 2)) == "1212"
    assert parse_word("1212") == (1, 2, 1, 2)
    assert format_word((1, 12)) == "1,12"
    assert parse_word("1,12") == (1, 12)
