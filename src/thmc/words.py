"""Words (state paths), their lexicographic enumeration, and data vectors.

A word is a tuple of states from 1..S of length T, optionally with no
self-loops (no two consecutive equal states). Lexicographic order of
words fixes the column order of every design matrix downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

Word = tuple[int, ...]


class InvalidDimension(ValueError):
    """S or T outside the supported range."""


class InconsistentWords(ValueError):
    """Words in one multiset disagree on S, T, or the loop policy."""


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
    """Yield all words in strict lexicographic order (streaming)."""
    _check_dims(S, T)
    word = [0] * T
    states = range(1, S + 1)

    def rec(pos: int) -> Iterator[Word]:
        if pos == T:
            yield tuple(word)
            return
        prev = word[pos - 1] if pos else None
        for s in states:
            if no_loops and s == prev:
                continue
            word[pos] = s
            yield from rec(pos + 1)

    return rec(0)


def enumerate_words(S: int, T: int, no_loops: bool) -> tuple[Word, ...]:
    """All valid words, each exactly once, lexicographically sorted."""
    return tuple(iter_words(S, T, no_loops))


def word_index(word: Sequence[int], S: int, no_loops: bool) -> int:
    """Lexicographic rank of a word among its peers, in O(T)."""
    T = len(word)
    if not is_valid_word(word, S, no_loops):
        raise ValueError(f"invalid word {word!r} for S={S}, no_loops={no_loops}")
    if not no_loops:
        idx = 0
        for s in word:
            idx = idx * S + (s - 1)
        return idx
    idx = (word[0] - 1) * (S - 1) ** (T - 1)
    for pos in range(1, T):
        prev, s = word[pos - 1], word[pos]
        rank = s - 1 - (1 if s > prev else 0)
        idx += rank * (S - 1) ** (T - 1 - pos)
    return idx


def word_from_index(index: int, S: int, T: int, no_loops: bool) -> Word:
    """Inverse of :func:`word_index`."""
    total = word_count(S, T, no_loops)
    if index < 0 or index >= total:
        raise ValueError(f"index {index} out of range 0..{total - 1}")
    if not no_loops:
        digits = []
        for _ in range(T):
            index, rem = divmod(index, S)
            digits.append(rem + 1)
        return tuple(reversed(digits))
    first, index = divmod(index, (S - 1) ** (T - 1))
    word = [first + 1]
    for pos in range(1, T):
        rank, index = divmod(index, (S - 1) ** (T - 1 - pos))
        s = rank + 1
        if s >= word[-1]:
            s += 1
        word.append(s)
    return tuple(word)


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


@dataclass(frozen=True)
class PathMultiset:
    """Multiset of words sharing S, T, and a loop policy."""

    S: int
    T: int
    no_loops: bool
    counts: Mapping[Word, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_dims(self.S, self.T)
        if not self.counts:
            raise InconsistentWords("multiset must contain at least one word")
        clean: dict[Word, int] = {}
        for word, mult in self.counts.items():
            w = tuple(int(s) for s in word)
            if len(w) != self.T or not is_valid_word(w, self.S, self.no_loops):
                raise InconsistentWords(f"word {w!r} invalid for S={self.S}, T={self.T}, no_loops={self.no_loops}")
            if int(mult) <= 0:
                raise InconsistentWords(f"multiplicity of {w!r} must be positive")
            clean[w] = int(mult)
        object.__setattr__(self, "counts", clean)

    @classmethod
    def of(cls, words: Iterable[Sequence[int]], S: int, no_loops: bool = False) -> "PathMultiset":
        counts: dict[Word, int] = {}
        T = None
        for word in words:
            w = tuple(int(s) for s in word)
            T = T if T is not None else len(w)
            counts[w] = counts.get(w, 0) + 1
        if T is None:
            raise InconsistentWords("multiset must contain at least one word")
        return cls(S=S, T=T, no_loops=no_loops, counts=counts)

    @property
    def size(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True)
class DataVector:
    """Word-indexed count vector in the lexicographic column order."""

    S: int
    T: int
    no_loops: bool
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = word_count(self.S, self.T, self.no_loops)
        if len(self.entries) != expected:
            raise InconsistentWords(f"data vector has length {len(self.entries)}, expected {expected}")
        if any(x < 0 for x in self.entries):
            raise InconsistentWords("data vector entries must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.entries)


def multiset_to_data_vector(multiset: PathMultiset) -> DataVector:
    """Counts of each word, laid out in lexicographic word order."""
    entries = [0] * word_count(multiset.S, multiset.T, multiset.no_loops)
    for word, mult in multiset.counts.items():
        entries[word_index(word, multiset.S, multiset.no_loops)] += mult
    return DataVector(S=multiset.S, T=multiset.T, no_loops=multiset.no_loops, entries=tuple(entries))
