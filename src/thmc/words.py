"""Words (state paths), their lexicographic enumeration and ranking.

A word is a tuple of states from 1..S of length T, optionally with no
self-loops (no two consecutive equal states). Lexicographic order of
words fixes the column order of every design matrix downstream.
"""

from __future__ import annotations

from itertools import accumulate, product
from typing import Iterator, Sequence

Word = tuple[int, ...]


class InvalidDimension(ValueError):
    """S or T outside the supported range."""


def _check_dims(S: int, T: int) -> None:
    if S < 2 or T < 2:
        raise InvalidDimension(f"need S >= 2 and T >= 2, got S={S}, T={T}")


def is_valid_word(word: Sequence[int], S: int, no_loops: bool) -> bool:
    if not word or any(s < 1 or s > S for s in word):
        return False
    if no_loops and any(a == b for a, b in zip(word, word[1:])):
        return False
    return True


def word_count(S: int, T: int, no_loops: bool) -> int:
    """S^T with loops, S(S-1)^(T-1) without."""
    _check_dims(S, T)
    return S * (S - 1) ** (T - 1) if no_loops else S**T


def iter_words(S: int, T: int, no_loops: bool) -> Iterator[Word]:
    """Yield all words in strict lexicographic order (streaming).

    Without loops, a word is its first state followed by T-1 step ranks
    in 1..S-1: rank r after state p is state r if r < p, else r + 1.
    That map is increasing in r, so the ranks in lexicographic order give
    the words in lexicographic order.
    """
    _check_dims(S, T)
    states = range(1, S + 1)
    if not no_loops:
        return product(states, repeat=T)
    return (tuple(accumulate(ranks, _step)) for ranks in product(states, *[range(1, S)] * (T - 1)))


def _step(prev: int, rank: int) -> int:
    """The state of step rank ``rank`` after state ``prev`` in a loop-free word."""
    return rank if rank < prev else rank + 1


def enumerate_words(S: int, T: int, no_loops: bool) -> tuple[Word, ...]:
    """All valid words, each exactly once, lexicographically sorted."""
    return tuple(iter_words(S, T, no_loops))


def word_index(word: Sequence[int], S: int, no_loops: bool) -> int:
    """Lexicographic rank of a word among its peers, in O(T).

    Horner's rule over the first state and then the steps, in base S (base
    S - 1 and the step ranks of :func:`iter_words` without loops).
    """
    if not is_valid_word(word, S, no_loops):
        raise ValueError(f"invalid word {word!r} for S={S}, no_loops={no_loops}")
    base = S - 1 if no_loops else S
    idx = word[0] - 1
    for prev, s in zip(word, word[1:]):
        idx = idx * base + s - 1 - (no_loops and s > prev)
    return idx


def format_word(word: Sequence[int]) -> str:
    """Concatenated digits for S <= 9, comma-separated otherwise."""
    if max(word) <= 9:
        return "".join(str(s) for s in word)
    return ",".join(str(s) for s in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if "," in text:
        return tuple(int(tok) for tok in text.split(","))
    return tuple(int(ch) for ch in text)
