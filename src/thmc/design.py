"""Design matrices of the four Markov chain model variants.

Model (a) is the full chain (initial-state rows plus transition rows),
(b) drops the initial rows, (c) forbids self-loops, and (d) does both.
Columns are indexed by words in lexicographic order; a column records
the initial state indicator (models a, c) and the transition counts of
its word, counted in one place, :func:`sufficient`. The distinct columns
come from a walk over the words that keeps only distinct running
counts, each column packed into one integer with a field per row.
Everything is exact integer arithmetic.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from operator import sub
from typing import Iterable, Iterator, Sequence

from .words import Word, format_word, is_valid_word, iter_words, word_count

DEFAULT_COLUMN_CAP = 10**7

RowLabel = tuple  # ("init", s) or ("trans", i, j)


class SizeCapExceeded(ValueError):
    """The requested enumeration is larger than its size guard allows."""


class LoopViolation(ValueError):
    """A word with a self-loop was fed to a loop-free model."""


class Model(enum.Enum):
    """The four model variants; value is the conventional letter."""

    A = "a"
    B = "b"
    C = "c"
    D = "d"

    def __init__(self, letter: str) -> None:
        # plain attributes, set once per member: sufficient reads them on every call
        self.has_initial = letter in ("a", "c")
        self.no_loops = letter in ("c", "d")

    def column_sum(self, T: int) -> int:
        """Common column sum: T for models a/c, T-1 for b/d."""
        return T if self.has_initial else T - 1

    @classmethod
    def parse(cls, token: "str | Model") -> "Model":
        if isinstance(token, Model):
            return token
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(f"unknown model {token!r}; expected one of a, b, c, d") from None


@lru_cache(maxsize=None)
def transition_pairs(S: int, no_loops: bool) -> tuple[tuple[int, int], ...]:
    """Transition coordinates (i, j) in lexicographic order."""
    return tuple((i, j) for i in range(1, S + 1) for j in range(1, S + 1) if not (no_loops and i == j))


def row_labels(model: Model, S: int) -> tuple[RowLabel, ...]:
    """Initial rows ascending (models a, c), then transition rows lex."""
    labels: list[RowLabel] = []
    if model.has_initial:
        labels.extend(("init", s) for s in range(1, S + 1))
    labels.extend(("trans", i, j) for i, j in transition_pairs(S, model.no_loops))
    return tuple(labels)


def format_row_label(label: RowLabel) -> str:
    if label[0] == "init":
        return str(label[1])
    return f"{label[1]}{label[2]}" if max(label[1], label[2]) <= 9 else f"{label[1]},{label[2]}"


@lru_cache(maxsize=None)
def _rows(model: Model, S: int) -> dict[tuple[int, int], int]:
    """Row of each counted pair: (0, s) for initial state s (models a, c), (i, j) for a transition."""
    return {(0, label[1]) if label[0] == "init" else label[1:]: r for r, label in enumerate(row_labels(model, S))}


def column_of_word(model: Model, S: int, word: Sequence[int]) -> tuple[int, ...]:
    """Design column of one word, without materializing the matrix."""
    return sufficient(model, S, (word,))


def sufficient(model: Model, S: int, words: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Summed design columns of the words: the marginal they share with their fiber.

    One count per row of :func:`row_labels`: 1 per pair of consecutive
    states, with a state 0 before each word of models a and c, so its
    initial state s is the pair (0, s). No words give the zero vector,
    the marginal of the one element ``()`` of the b = 0 fiber.
    """
    rows = _rows(model, S)
    start = (0,) if model.has_initial else ()
    counts = [0] * len(rows)
    for word in words:
        w = tuple(map(int, word))
        if not is_valid_word(w, S, False):
            raise ValueError(f"invalid word {w!r} for S={S}")
        v = start + w
        try:
            for pair in zip(v, v[1:]):
                counts[rows[pair]] += 1
        except KeyError:  # the states are valid, so a missing pair is a self-loop
            raise LoopViolation(f"word {w!r} has a self-loop under model {model.value}") from None
    return tuple(counts)


@dataclass(frozen=True)
class DesignMatrix:
    """Full design matrix with labeled rows and word-labeled columns."""

    model: Model
    S: int
    T: int
    rows: tuple[RowLabel, ...]
    words: tuple[Word, ...]
    columns: tuple[tuple[int, ...], ...]

    def as_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.columns))

    def to_csv(self) -> str:
        lines = ["," + ",".join(format_word(w) for w in self.words)]
        for label, row in zip(self.rows, self.as_rows()):
            lines.append(format_row_label(label) + "," + ",".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "model": self.model.value,
            "S": self.S,
            "T": self.T,
            "rows": [format_row_label(label) for label in self.rows],
            "columns": {format_word(w): list(col) for w, col in zip(self.words, self.columns)},
        }
        return json.dumps(payload, indent=1)


def build_design_matrix(model: Model | str, S: int, T: int) -> DesignMatrix:
    """Assemble the full matrix, columns in lexicographic word order.

    :class:`SizeCapExceeded` is raised before any work when the word
    count exceeds ``DEFAULT_COLUMN_CAP``.
    """
    model = Model.parse(model)
    count = word_count(S, T, model.no_loops)
    if count > DEFAULT_COLUMN_CAP:
        raise SizeCapExceeded(f"{count} columns exceed the cap of {DEFAULT_COLUMN_CAP}")
    words, columns = zip(*iter_columns(model, S, T))
    return DesignMatrix(model=model, S=S, T=T, rows=row_labels(model, S), words=words, columns=columns)


def iter_columns(model: Model | str, S: int, T: int) -> Iterator[tuple[Word, tuple[int, ...]]]:
    """Stream (word, column) pairs in lexicographic order without the cap."""
    model = Model.parse(model)
    for w in iter_words(S, T, model.no_loops):
        yield w, column_of_word(model, S, w)


# ---------------------------------------------------------------------------
# Distinct columns: a state walk over running transition counts

def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ``parts``-tuples of non-negative integers summing to ``total``, lexicographically.

    Stars and bars: the ``parts - 1`` bar positions, as a non-decreasing
    tuple c over 0..total, cut total into c_0, c_1 - c_0, ..., total - c_last.
    """
    end = (total,)
    for c in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, c + end, (0,) + c))


def distinct_columns(model: Model | str, S: int, T: int) -> tuple[tuple[int, ...], ...]:
    """Sorted distinct column vectors of the design matrix.

    Walks the words one letter at a time from the one-letter columns,
    but keeps, per last state, only the distinct running columns, so a
    column is reached once per way its word can end rather than once per
    word. A running column is one integer with a field of
    T.bit_length() bits per row, row 0 highest: no count exceeds T, so
    no field carries, a step is one integer add, and the integers sort
    as the columns do. They are decoded once, at the end.
    :class:`SizeCapExceeded` is raised before any work when both the
    word count and the compositions of T-1 exceed ``DEFAULT_COLUMN_CAP``.
    """
    model = Model.parse(model)
    pairs = transition_pairs(S, model.no_loops)
    words = word_count(S, T, model.no_loops)
    if min(words, comb(T - 2 + len(pairs), len(pairs) - 1)) > DEFAULT_COLUMN_CAP:
        raise SizeCapExceeded(f"{words} words and the compositions of T-1 both exceed the cap of {DEFAULT_COLUMN_CAP}")
    rows = _rows(model, S)
    width = T.bit_length()
    shifts = [width * (len(rows) - 1 - r) for r in range(len(rows))]
    steps = {i: [(j, 1 << shifts[rows[i, j]]) for j in range(1, S + 1) if (i, j) in rows] for i in range(1, S + 1)}
    states = {s: {sum(map(int.__lshift__, sufficient(model, S, [(s,)]), shifts))} for s in range(1, S + 1)}  # last state -> columns
    for _ in range(T - 1):
        grown: dict[int, set[int]] = {j: set() for j in states}
        for i, columns in states.items():
            for j, add in steps[i]:
                grown[j].update(map(add.__add__, columns))
        states = grown
    field = (1 << width) - 1
    return tuple(tuple(x >> shift & field for shift in shifts) for x in sorted(set().union(*states.values())))
