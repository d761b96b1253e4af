"""Fibers, moves, and degree-capped Markov-basis connectivity probes.

A fiber is the set of word multisets sharing a marginal (sufficient
statistic); a move is an integer word-vector in the design-matrix
kernel. Every fiber, of words or of columns, is a group of one multiset
search by sum (:func:`_fibers`). The probe summarizes, per fiber up to
a marginal-degree cap, whether its column classes share columns; this
bounds the true Markov-basis degree from below and is reported as
evidence, never as a certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations, groupby
from math import comb
from operator import itemgetter, le
from typing import Iterable, Iterator, Sequence

from .design import Model, SizeCapExceeded, column_of_word, distinct_columns, iter_columns, sufficient
from .intlinalg import PackedNormals, identity_matrix
from .stategraph import components
from .words import Word, iter_words, word_count, word_index

_DEFAULT_DEGREE_CAP = 4
_DEFAULT_WORD_CAP = 20000
_MOVES_WORD_CAP = 2000
_MULTISET_CAP = 10**6
_PAIR_CAP = 10**5  # sum of C(|fiber|, 2): d/S=3/T=6/k=2 has 61,470 (2 s), T=5/k=3 643,149 (27 s)


class DegreeCapExceeded(ValueError):
    """Requested fiber or move degree beyond ``_DEFAULT_DEGREE_CAP``."""


def check_degree(kind: str, degree: int) -> None:
    """Raise ``ValueError`` for a degree below 1, :class:`DegreeCapExceeded` for one above ``_DEFAULT_DEGREE_CAP``."""
    if degree < 1:
        raise ValueError(f"{kind} degree {degree} is below 1")
    if degree > _DEFAULT_DEGREE_CAP:
        raise DegreeCapExceeded(f"{kind} degree {degree} exceeds cap {_DEFAULT_DEGREE_CAP}")


def _check_multisets(n: int, degree: int, kind: str) -> None:
    """Raise :class:`SizeCapExceeded` when the multisets of 1..degree of n items outnumber ``_MULTISET_CAP``."""
    count = sum(comb(n + d - 1, d) for d in range(1, degree + 1))
    if count > _MULTISET_CAP:
        raise SizeCapExceeded(f"{count} multisets of up to {degree} of {n} {kind} exceed the cap {_MULTISET_CAP}")


def check_move_caps(model: Model | str, S: int, T: int, k: int) -> None:
    """The degree, word and multiset caps of :func:`moves_up_to_degree`, which need no fiber."""
    model = Model.parse(model)
    check_degree("move", k)
    m = word_count(S, T, model.no_loops)
    if m > _MOVES_WORD_CAP:
        raise SizeCapExceeded(f"{m} words exceed the word cap {_MOVES_WORD_CAP}")
    _check_multisets(m, k, "words")


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
        if not self.positive or len(self.positive) != len(self.negative):
            raise ValueError("move parts must be non-empty and balanced")
        if set(self.positive) & set(self.negative):
            raise ValueError("move parts must have disjoint supports")
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
    group of b in :func:`_fibers` over those columns, bounded by b, is the
    fiber. With no such word the fiber is empty, except at b = 0, whose
    one element is the empty multiset.
    """
    model = Model.parse(model)
    b = tuple(int(x) for x in b)
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
    group = _fibers(cols, degree, b).get(b, ())
    return Fiber(elements=tuple(tuple(words[i] for i in combo) for combo in group))


def moves_up_to_degree(model: Model | str, S: int, T: int, k: int) -> tuple[Move, ...]:
    """All kernel moves with positive part of size <= k, each once up to sign.

    A move of degree d is a pair of word multisets in one degree-d fiber
    that share no word, ordered (smaller, larger). A pair that shares
    words cancels to such a pair in a fiber of lower degree, which that
    degree already yields (Diaconis-Sturmfels 1998), so nothing is
    cancelled or deduplicated. The degree, word and multiset caps are
    checked before any word is streamed; the pair cap, on the sum of
    C(|fiber|, 2) over all fibers, once the fibers are grouped and
    before any pair is built.
    """
    model = Model.parse(model)
    check_move_caps(model, S, T, k)
    words = list(iter_words(S, T, model.no_loops))
    columns = [column_of_word(model, S, w) for w in words]
    groups = [members for degree in range(1, k + 1) for members in _fibers(columns, degree).values()]
    candidates = sum(comb(len(members), 2) for members in groups)
    if candidates > _PAIR_CAP:
        raise SizeCapExceeded(f"{candidates} candidate move pairs exceed the cap {_PAIR_CAP}")
    pairs = []
    for members in groups:
        for a, u in enumerate(members):
            in_u = set(u)
            pairs.extend((u, v) for v in members[a + 1:] if in_u.isdisjoint(v))
    # index order is word order, so sorting the index pairs sorts the moves
    return tuple(
        Move(S=S, T=T, model=model, positive=tuple(words[i] for i in u), negative=tuple(words[i] for i in v))
        for u, v in sorted(pairs)
    )


def _fibers(vectors: Sequence[tuple[int, ...]], size: int, bound: Sequence[int] | None = None) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Each multiset of ``size`` >= 1 indices into ``vectors``, grouped by the sum of its vectors.

    A lexicographic depth-first search over non-decreasing index tuples,
    so each group is in the order of ``combinations_with_replacement``
    and the groups in order of first appearance. Each vector is packed
    by :class:`PackedNormals` with one unit normal per coordinate, so a
    step of the search is one integer add. Its reach is the largest sum
    or bound entry, so ``room - grown`` keeps the guard bit of a field
    set exactly when that coordinate of the sum is within ``bound``; a
    prefix over the bound is not extended, which is exact because the
    vectors (design columns) are non-negative. No bound is the bound
    that no sum of ``size`` vectors exceeds.
    """
    dim = len(vectors[0])
    top = size * max(abs(x) for v in vectors for x in v)
    if bound is None:
        bound = (top,) * dim
    pack = PackedNormals(identity_matrix(dim), max(top, *map(abs, bound)))
    guard = pack.guard
    packed = [pack.value(v) - guard for v in vectors]
    room = pack.value(bound)
    n = len(packed)
    groups: dict[int, list[tuple[int, ...]]] = {}

    def extend(combo: tuple[int, ...], total: int, start: int, left: int) -> None:
        slack = room - total
        if left > 1:
            for i in range(start, n):
                if (slack - packed[i]) & guard == guard:
                    extend(combo + (i,), total + packed[i], i, left - 1)
            return
        for i in range(start, n):
            if (slack - packed[i]) & guard == guard:
                groups.setdefault(total + packed[i], []).append(combo + (i,))

    extend((), 0, 0, size)
    del extend  # it names itself: dropping that name frees the groups now, not at the next cyclic collection
    return {tuple(pack.decode(key + guard)): members for key, members in groups.items()}


def fiber_connected(fiber: Fiber, moves: Iterable[Move]) -> tuple[bool, tuple[tuple[Element, ...], ...]]:
    """Connectivity of the fiber graph with edges u -> u + z, z a move.

    A move applies to u exactly when its negative part is a sub-multiset
    of u, so the moves are indexed by their sorted negative part and
    each element looks up its distinct sorted sub-multisets (at most
    2^degree - 1). The result u - negative + positive is non-negative by
    construction, which is exactly the walk condition of the
    Markov-basis definition.
    """
    elements = list(fiber.elements)
    index = {e: i for i, e in enumerate(elements)}
    positives_by_negative: dict[Element, list[Element]] = {}
    for mv in moves:
        positives_by_negative.setdefault(tuple(sorted(mv.negative)), []).append(mv.positive)

    def edges() -> Iterator[tuple[int, int]]:
        for i, e in enumerate(elements):
            applied = set()
            for size in range(1, len(e) + 1):
                for picked in combinations(range(len(e)), size):
                    negative = tuple(e[p] for p in picked)
                    positives = positives_by_negative.get(negative)
                    if not positives or negative in applied:
                        continue
                    applied.add(negative)
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

@dataclass(frozen=True)
class FiberSummary:
    b: tuple[int, ...]
    degree: int
    classes: int
    connected_at: int


@dataclass(frozen=True)
class ConnectivityReport:
    model: Model
    S: int
    T: int
    fiber_degree_cap: int
    fibers_checked: int
    minimal_k: int
    disconnected_fibers: tuple[FiberSummary, ...]
    interesting_fibers: tuple[FiberSummary, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "model": self.model.value,
                "S": self.S,
                "T": self.T,
                "D": self.fiber_degree_cap,
                "minimal_k": self.minimal_k,
                "fibers_checked": self.fibers_checked,
                "disconnected": [f.__dict__ | {"b": list(f.b)} for f in self.disconnected_fibers],
                "fibers": [f.__dict__ | {"b": list(f.b)} for f in self.interesting_fibers],
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
    """Degree-capped probe of the move degree the fibers of marginal degree <= D need.

    Works on column-multiset classes: elements sharing a column multiset
    connect by degree-1 word swaps, and distinct classes in one fiber
    differ in at least two columns. Each multi-class fiber of degree d
    is connected at 2 when its classes form one component under "shares
    a column" (:func:`_class_components`), and at d otherwise. That is
    not the word-level walk definition: two classes sharing a column
    still differ by a move of degree up to d-1. This is a lower-bound
    probe of the Markov-basis degree, reported as evidence: only
    marginals up to degree D are inspected, and D above
    ``_DEFAULT_DEGREE_CAP``, or more column multisets than
    ``_MULTISET_CAP``, is refused before any work.
    """
    model = Model.parse(model)
    check_degree("fiber", D)
    columns = distinct_columns(model, S, T)
    _check_multisets(len(columns), D, "columns")
    minimal_k = 1
    fibers_checked = 0
    disconnected: list[FiberSummary] = []
    interesting: list[FiberSummary] = []

    for degree in range(1, D + 1):
        for b, classes in _fibers(columns, degree).items():
            fibers_checked += 1
            if len(classes) == 1:
                continue
            connected_at = 2 if _class_components(classes) == 1 else degree
            summary = FiberSummary(b=b, degree=degree, classes=len(classes), connected_at=connected_at)
            minimal_k = max(minimal_k, connected_at)
            if connected_at > degree:
                disconnected.append(summary)
            elif len(interesting) < report_limit:
                interesting.append(summary)

    return ConnectivityReport(
        model=model,
        S=S,
        T=T,
        fiber_degree_cap=D,
        fibers_checked=fibers_checked,
        minimal_k=minimal_k,
        disconnected_fibers=tuple(disconnected),
        interesting_fibers=tuple(interesting),
    )


def _class_components(classes: Sequence[tuple[int, ...]]) -> int:
    """Number of components of the classes under "shares a column".

    The classes come in combination order, so each run with the same
    first column shares that column and is one set of columns; a block
    merges with every earlier set it meets, and those sets are disjoint.
    """
    merged: list[set[int]] = []
    for _, block in groupby(classes, itemgetter(0)):
        columns = set(chain.from_iterable(block))
        apart = []
        for other in merged:
            if columns.isdisjoint(other):
                apart.append(other)
            else:
                columns |= other
        apart.append(columns)
        merged = apart
    return len(merged)


def moves_to_text(moves: Sequence[Move]) -> str:
    """One move per line, signed integers over the lexicographic word order."""
    return "\n".join(" ".join(str(x) for x in mv.as_vector()) for mv in moves) + "\n"
