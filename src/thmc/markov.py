"""Fibers, a minimal Markov basis, and degree-capped connectivity probes.

A fiber is the set of word multisets sharing a marginal (sufficient
statistic); a move is an integer word-vector in the design-matrix
kernel. One pass over the distinct column sums of each degree
(:func:`_column_fibers`) finds each fiber's c components under "shares
a column"; a minimal Markov basis of the distinct-column matrix has
exactly c - 1 moves of that degree (Takemura-Aoki 2004). The probe
reports the counts and :func:`moves_up_to_degree` reads the basis off
the same pass. A word fiber is the word multisets one search finds
summing to its marginal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import le
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .design import Model, SizeCapExceeded, distinct_columns, iter_columns, row_labels, sufficient
from .intlinalg import DimensionMismatch, PackedNormals, identity_matrix
from .stategraph import components
from .words import Word, word_count, word_index

_DEFAULT_DEGREE_CAP = 4
_DEFAULT_WORD_CAP = 20000
_MOVES_WORD_CAP = 2000
_MULTISET_CAP = 10**6


class DegreeCapExceeded(ValueError):
    """Requested fiber or move degree beyond ``_DEFAULT_DEGREE_CAP``."""


def check_degree(kind: str, degree: int) -> None:
    """Raise ``ValueError`` for a degree below 1, :class:`DegreeCapExceeded` for one above ``_DEFAULT_DEGREE_CAP``."""
    if degree < 1:
        raise ValueError(f"{kind} degree {degree} is below 1")
    if degree > _DEFAULT_DEGREE_CAP:
        raise DegreeCapExceeded(f"{kind} degree {degree} exceeds cap {_DEFAULT_DEGREE_CAP}")


def _checked_columns(model: Model, S: int, T: int, D: int) -> tuple[tuple[int, ...], ...]:
    """The distinct columns, once the degree D and the multisets of 1..D of them are within their caps."""
    check_degree("fiber", D)
    columns = distinct_columns(model, S, T)
    count = sum(comb(len(columns) + d - 1, d) for d in range(1, D + 1))
    if count > _MULTISET_CAP:
        raise SizeCapExceeded(f"{count} multisets of up to {D} of {len(columns)} columns exceed the cap {_MULTISET_CAP}")
    return columns


Element = tuple[Word, ...]  # sorted words, with multiplicity


@dataclass(frozen=True)
class Fiber:
    elements: tuple[Element, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Move:
    """Kernel vector in word-multiset form: positive - negative."""

    S: int
    T: int
    model: Model
    positive: Element
    negative: Element

    def __post_init__(self) -> None:
        if list(self.positive) != sorted(self.positive) or list(self.negative) != sorted(self.negative):
            raise ValueError("move parts must list their words in sorted order")
        if not self.positive or len(self.positive) != len(self.negative):
            raise ValueError("move parts must be non-empty and balanced")
        if set(self.positive) & set(self.negative):
            raise ValueError("move parts must have disjoint supports")
        if any(len(w) != self.T for w in self.positive + self.negative):
            raise ValueError(f"move words must have length T={self.T}")
        pos = sufficient(self.model, self.S, self.positive)
        neg = sufficient(self.model, self.S, self.negative)
        if pos != neg:
            raise AssertionError("move is not in the design-matrix kernel")

    def as_vector(self) -> tuple[int, ...]:
        """Signed counts over the lexicographic word order."""
        vec = [0] * word_count(self.S, self.T, self.model.no_loops)
        for w in self.positive:
            vec[word_index(w, self.S, self.model.no_loops)] += 1
        for w in self.negative:
            vec[word_index(w, self.S, self.model.no_loops)] -= 1
        return tuple(vec)


def enumerate_fiber(
    model: Model | str,
    S: int,
    T: int,
    b: Sequence[int],
    *,
    word_cap: int = _DEFAULT_WORD_CAP,
) -> Fiber:
    """All word multisets with marginal b, in lexicographic order.

    Only words whose column is <= b in every coordinate can occur; the
    multisets of those columns that :func:`_fibers` finds summing to b
    are the fiber. With no such word the fiber is empty, except at b = 0, whose
    one element is the empty multiset. A b whose length is not the
    model's row count raises :class:`DimensionMismatch` before any word
    is streamed.
    """
    model = Model.parse(model)
    b = tuple(int(x) for x in b)
    rows = len(row_labels(model, S))
    if len(b) != rows:
        raise DimensionMismatch(f"marginal has {len(b)} entries, model {model.value} at S={S} has {rows} rows")
    degree, rest = divmod(sum(b), model.column_sum(T))
    if rest:
        raise ValueError("marginal total is not a multiple of the column sum")
    if degree:  # degree 0 needs no search: see the b = 0 case below
        check_degree("marginal", degree)
    m = word_count(S, T, model.no_loops)
    if m > word_cap:
        raise SizeCapExceeded(f"{m} words exceed the word cap {word_cap}")
    fitting = [(w, col) for w, col in iter_columns(model, S, T) if all(map(le, col, b))]
    if not fitting:
        return Fiber(elements=() if any(b) else ((),))
    words, cols = zip(*fitting)
    return Fiber(elements=tuple(tuple(words[i] for i in combo) for combo in _fibers(cols, degree, b)))


def moves_up_to_degree(model: Model | str, S: int, T: int, k: int) -> tuple[Move, ...]:
    """A minimal Markov basis: the moves of degree <= k that connect every fiber of degree <= k.

    Degree 1 pairs each distinct column's first word with each of its
    other words. A fiber of degree d >= 2 whose column classes form c
    components under "shares a column" needs c - 1 moves of degree d
    (Takemura-Aoki 2004). The pass of :func:`_column_fibers` over the
    sorted distinct columns the probe walks gives each component's lowest
    column; where c >= 2, each one's representative multiset is lifted to
    words by each column's first word, and the first component is linked
    to each of the others. Components share no column, so no move cancels. The word cap and the probe's caps are
    checked before any word is streamed; the words' columns must be the
    distinct columns.
    """
    model = Model.parse(model)
    m = word_count(S, T, model.no_loops)
    if m > _MOVES_WORD_CAP:
        raise SizeCapExceeded(f"{m} words exceed the word cap {_MOVES_WORD_CAP}")
    columns = _checked_columns(model, S, T, k)
    words_of: dict[tuple[int, ...], list[Word]] = {col: [] for col in columns}
    for w, col in iter_columns(model, S, T):
        words_of.setdefault(col, []).append(w)
    if len(words_of) > len(columns) or not all(words_of.values()):
        raise AssertionError("the columns of the words are not the distinct columns of the state walk")
    first = [words[0] for words in words_of.values()]
    moves = [Move(S=S, T=T, model=model, positive=(w0,), negative=(w,)) for w0, *rest in words_of.values() for w in rest]
    _, representative, fibers = _column_fibers(columns, k)
    for degree, s, _, lows in fibers:
        if len(lows) > 1:
            lifted = [tuple(sorted(first[c] for c in representative(s, low, degree))) for low in lows]
            moves += [Move(S=S, T=T, model=model, positive=lifted[0], negative=other) for other in lifted[1:]]
    return tuple(moves)


def _fibers(vectors: Sequence[tuple[int, ...]], size: int, bound: Sequence[int]) -> list[tuple[int, ...]]:
    """Each multiset of ``size`` indices into the non-negative ``vectors`` whose sum is ``bound``.

    One lexicographic depth-first search over non-decreasing index tuples,
    so the multisets come in the order of ``combinations_with_replacement``.
    Each vector is packed by :class:`PackedNormals` with one unit normal
    per coordinate, so a step of the search is one integer add. Its reach
    is the largest sum or bound entry, so ``room - grown`` keeps the guard
    bit of a field set exactly when that coordinate of the sum is within
    ``bound``; a prefix over the bound is not extended, which is exact
    because the vectors are non-negative, and a full multiset is kept when
    its packed sum is the bound's.
    """
    top = size * max(x for v in vectors for x in v)
    pack = PackedNormals(identity_matrix(len(vectors[0])), max(top, *bound))
    guard = pack.guard
    packed = [pack.value(v) - guard for v in vectors]
    room = pack.value(bound)
    n = len(packed)
    found: list[tuple[int, ...]] = []

    def extend(combo: tuple[int, ...], total: int, start: int) -> None:
        slack = room - total
        for i in range(start, n):
            if (slack - packed[i]) & guard == guard:
                if len(combo) + 1 < size:
                    extend(combo + (i,), total + packed[i], i)
                elif total + packed[i] + guard == room:
                    found.append(combo + (i,))

    extend((), 0, 0)
    del extend  # it names itself: dropping that name frees the search now, not at the next cyclic collection
    return found


def fiber_connected(fiber: Fiber, moves: Iterable[Move]) -> tuple[bool, tuple[tuple[Element, ...], ...]]:
    """Connectivity of the fiber graph with edges u -> u + z, z a move.

    A move applies to u exactly when its negative part is a sub-multiset
    of u. Each element lists its distinct sub-multisets (at most
    2^degree - 1), sorted because the element is, and only the moves
    whose (sorted) negative part is one of them are indexed. The result
    u - negative + positive is non-negative by construction, which is
    exactly the walk condition of the Markov-basis definition.
    """
    elements = fiber.elements
    index = {e: i for i, e in enumerate(elements)}
    splits = []  # per element: each distinct sub-multiset -> the positions it takes
    for e in elements:
        picks: dict[Element, tuple[int, ...]] = {}
        for size in range(1, len(e) + 1):
            for picked in combinations(range(len(e)), size):
                picks.setdefault(tuple(e[p] for p in picked), picked)
        splits.append(picks)
    wanted = set().union(*splits)
    positives_by_negative: dict[Element, list[Element]] = {}
    for mv in moves:
        if mv.negative in wanted:
            positives_by_negative.setdefault(mv.negative, []).append(mv.positive)

    def edges() -> Iterator[tuple[int, int]]:
        for i, (e, picks) in enumerate(zip(elements, splits)):
            for negative, picked in picks.items():
                positives = positives_by_negative.get(negative)
                if not positives:
                    continue
                rest = [w for p, w in enumerate(e) if p not in picked]
                for positive in positives:
                    j = index.get(tuple(sorted(rest + list(positive))))
                    if j is not None:
                        yield i, j

    by_root: dict[int, list[Element]] = {}
    for e, root in zip(elements, components(len(elements), edges())):
        by_root.setdefault(root, []).append(e)
    comps = tuple(tuple(sorted(c)) for c in sorted(by_root.values()))
    return len(comps) <= 1, comps


# ---------------------------------------------------------------------------
# Degree-capped connectivity probe on column-multiset classes

class FiberSummary(NamedTuple):
    b: tuple[int, ...]
    degree: int
    classes: int
    components: int  # under "shares a column": the fiber needs components - 1 moves of its degree


@dataclass(frozen=True)
class ConnectivityReport:
    model: Model
    S: int
    T: int
    fiber_degree_cap: int
    fibers_checked: int
    moves_by_degree: dict[int, int]  # degree -> moves a minimal Markov basis needs, for each degree that needs one
    interesting_fibers: tuple[FiberSummary, ...]

    @property
    def minimal_k(self) -> int:
        """The largest degree <= D with a move, or 1 if there is none."""
        return max(self.moves_by_degree, default=1)

    @property
    def disconnected_fibers(self) -> tuple[FiberSummary, ...]:
        """Always empty: the moves of degree <= D connect every fiber of degree <= D."""
        return ()

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model.value,
                "S": self.S,
                "T": self.T,
                "D": self.fiber_degree_cap,
                "minimal_k": self.minimal_k,
                "moves_by_degree": self.moves_by_degree,
                "fibers_checked": self.fibers_checked,
                "disconnected": list(self.disconnected_fibers),
                "fibers": [f._asdict() | {"b": list(f.b)} for f in self.interesting_fibers],
            }
        )


def minimal_connecting_degree(
    model: Model | str,
    S: int,
    T: int,
    D: int,
    *,
    report_limit: int = 50,
) -> ConnectivityReport:
    """The moves per degree <= D of a minimal Markov basis of the distinct columns, and the largest such degree.

    Works on column-multiset classes: elements sharing a column multiset
    connect by degree-1 word swaps, and distinct classes in one fiber
    differ in at least two columns. A fiber of degree d whose classes
    form c components under "shares a column" needs exactly c - 1 moves
    of degree d (Takemura-Aoki 2004); ``moves_by_degree`` sums them over
    every fiber, and ``minimal_k`` is the largest degree with a move, or
    1 if there is none. Degrees above D are not inspected. D above
    ``_DEFAULT_DEGREE_CAP``, or more column multisets than
    ``_MULTISET_CAP``, is refused before any work. The fibers are the
    packed sums of :func:`_column_fibers`, which counts each one's classes
    and components without listing them; only the first ``report_limit``
    multi-class fibers are decoded and reported.
    """
    model = Model.parse(model)
    columns = _checked_columns(model, S, T, D)
    moves_by_degree: dict[int, int] = {}
    fibers_checked = 0
    interesting: list[FiberSummary] = []
    decode, _, fibers = _column_fibers(columns, D)
    for degree, s, classes, lows in fibers:
        fibers_checked += 1
        if classes == 1:
            continue
        if len(lows) > 1:
            moves_by_degree[degree] = moves_by_degree.get(degree, 0) + len(lows) - 1
        if len(interesting) < report_limit:
            interesting.append(FiberSummary(decode(s), degree, classes, len(lows)))

    return ConnectivityReport(
        model=model,
        S=S,
        T=T,
        fiber_degree_cap=D,
        fibers_checked=fibers_checked,
        moves_by_degree=moves_by_degree,
        interesting_fibers=tuple(interesting),
    )


def _column_fibers(columns: Sequence[tuple[int, ...]], D: int) -> tuple[Callable, Callable, Iterator[tuple[int, int, int, list[int]]]]:
    """The one pass over the sums of 1..D of the non-negative ``columns``: (decode, representative, fibers).

    ``fibers`` yields (degree, s, classes, lows) per packed sum s, each
    degree's in colex order: ``classes`` column multisets sum to s, and
    ``lows`` has the lowest column (as a bit) of each of their components
    under "shares a column". A sum is little-endian byte fields, field r
    for coordinate r, as wide as D times the largest entry needs: no entry
    is negative, so no field carries and integer order is colex order;
    ``decode(s)`` is b, by one ``to_bytes``. Per degree a sum keeps its
    class count (a multiset of degree d with largest column c is one of
    degree d-1 over the columns up to c, plus c) and its column mask, the
    union of its classes' columns. Column c of b lies in exactly the
    classes of b - c plus c, so its neighbours are c and the mask of
    b - c; the floods of those are the components. Only
    :func:`moves_up_to_degree` calls ``representative(s, low, degree)``:
    the column of ``low``, then the lowest column of each rest, walked
    down the levels.
    """
    width = max(1, (D * max(map(max, columns))).bit_length() + 7 >> 3)
    size = len(columns[0]) * width
    packed = [int.from_bytes(b"".join(x.to_bytes(width, "little") for x in col), "little") for col in columns]
    levels: list[dict[int, list[int]]] = [{0: [1, 0]}] + [{} for _ in range(D)]  # sum -> [classes, column mask]
    for c, p in enumerate(packed):
        bit = 1 << c
        for below, level in zip(levels, levels[1:]):  # rising degree, so c may repeat
            get = level.get
            for s, (count, mask) in below.items():
                entry = get(s + p)
                if entry is None:
                    level[s + p] = [count, mask | bit]
                else:
                    entry[0] += count
                    entry[1] |= mask | bit

    def decode(s: int) -> tuple[int, ...]:
        raw = s.to_bytes(size, "little")
        return tuple(raw) if width == 1 else tuple(int.from_bytes(raw[i:i + width], "little") for i in range(0, size, width))

    def representative(s: int, low: int, degree: int) -> tuple[int, ...]:
        picked = []
        for level in levels[degree - 1::-1]:  # the column of low, then the lowest column of each rest
            picked.append(low.bit_length() - 1)
            s -= packed[picked[-1]]
            low = level[s][1] & -level[s][1]
        return tuple(sorted(picked))

    def fibers() -> Iterator[tuple[int, int, int, list[int]]]:
        for degree, (below, level) in enumerate(zip(levels, levels[1:]), 1):
            for s in sorted(level):
                classes, mask = level[s]
                lows = []
                while mask:  # one flood per component, from its lowest column
                    reach = todo = mask & -mask
                    lows.append(reach)
                    while todo:
                        bit = todo & -todo
                        todo ^= bit
                        near = below[s - packed[bit.bit_length() - 1]][1]
                        todo |= near & ~reach
                        reach |= near
                        if reach == mask:  # at once when one neighbourhood covers the rest
                            break
                    mask &= ~reach
                yield degree, s, classes, lows

    return decode, representative, fibers()


def moves_to_text(moves: Sequence[Move]) -> str:
    """One move per line, signed integers over the lexicographic word order."""
    return "\n".join(" ".join(str(x) for x in mv.as_vector()) for mv in moves) + "\n"
