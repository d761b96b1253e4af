"""State graphs of words: Euler paths, pivot paths, cycle decompositions, G_{m,n}.

A state graph is a directed multigraph on the states 1..S whose edge
multiplicities are the transition counts of a word (or of a sum of
words: a transition vector). For three states the two-/three-cycle
decomposition classifies which transition vectors can be polytope
vertices. Which graphs come from a single word is decided by the Euler
rule, :func:`start_states`. The alternating pivot-path word pairs that
diagonalize the loop-free design matrices are checked here too, by the
difference of their columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .design import Model, column_of_word, transition_pairs
from .words import Word, is_valid_word

_PAIRS3 = ((1, 2), (1, 3), (2, 3))
_CW3 = ((1, 2), (2, 3), (3, 1))
_CCW3 = ((1, 3), (3, 2), (2, 1))


class NoEulerianPath(ValueError):
    """The multigraph violates the Euler-path preconditions."""


@dataclass(frozen=True)
class StateGraph:
    """Directed multigraph on 1..S; ``x[i-1][j-1]`` is the multiplicity of edge i -> j."""

    S: int
    x: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.x) != self.S or any(len(row) != self.S for row in self.x):
            raise ValueError("multiplicity matrix must be S x S")
        if any(v < 0 for row in self.x for v in row):
            raise ValueError("multiplicities must be non-negative")

    @property
    def edge_count(self) -> int:
        return sum(v for row in self.x for v in row)

    def has_self_loops(self) -> bool:
        return any(self.x[i][i] for i in range(self.S))


def graph_of_word(word: Sequence[int], S: int) -> StateGraph:
    """Transition-count multigraph of one word: its model (b) column, which counts every transition, loops included."""
    return graph_of_transition_vector(column_of_word(Model.B, S, word), S, no_loops=False)


def graph_of_transition_vector(x: Sequence[int], S: int = 3, *, no_loops: bool = True) -> StateGraph:
    """Rebuild a graph from a flat transition vector in lexicographic row order."""
    pairs = transition_pairs(S, no_loops)
    if len(x) != len(pairs):
        raise ValueError(f"expected {len(pairs)} entries, got {len(x)}")
    mat = [[0] * S for _ in range(S)]
    for (i, j), v in zip(pairs, x):
        mat[i - 1][j - 1] = int(v)
    return StateGraph(S=S, x=tuple(tuple(row) for row in mat))


def start_states(graph: StateGraph) -> tuple[int, ...]:
    """States from which one word realizes the edges of the graph.

    By Euler's theorem a word exists iff out- and in-degrees balance at
    every state except for at most one +1/-1 pair, and the edge support
    is connected: :func:`components` gives every edge the same root.
    The word starts at the +1 state when there is one, otherwise at any
    state with an outgoing edge. Empty when no word realizes the graph
    (also when it has no edges).
    """
    S, x = graph.S, graph.x
    surplus = [sum(x[i]) - sum(row[i] for row in x) for i in range(S)]  # out-degree minus in-degree
    if min(surplus) < -1 or max(surplus) > 1 or surplus.count(1) > 1:
        return ()
    edges = [(i, j) for i in range(S) for j in range(S) if x[i][j]]
    roots = components(S, edges)
    if len({roots[i] for i, _ in edges}) != 1:
        return ()
    if 1 in surplus:
        return (surplus.index(1) + 1,)
    return tuple(sorted({i + 1 for i, _ in edges}))


def components(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """Union-find: the component representative of each of n nodes once the edges are joined."""
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    return [find(i) for i in range(n)]


def eulerian_path(graph: StateGraph) -> Word:
    """A word consuming every edge exactly once, for any S, loops allowed.

    The Euler rule of :func:`start_states` decides whether such a
    word exists and where it starts: at the out-surplus state when the
    graph is unbalanced, otherwise at the lowest-numbered state with an
    edge. Hierholzer's walk then always takes the lowest-numbered next
    state, so the output word is deterministic.
    """
    starts = start_states(graph)
    if not starts:
        raise NoEulerianPath("graph has no edges, is unbalanced beyond one +1/-1 pair, or is disconnected")
    remaining = [list(row) for row in graph.x]
    stack = [starts[0]]
    finished: list[int] = []
    while stack:
        v = stack[-1]
        row = remaining[v - 1]
        nxt = next((j + 1 for j in range(graph.S) if row[j] > 0), None)
        if nxt is None:
            finished.append(stack.pop())
        else:
            row[nxt - 1] -= 1
            stack.append(nxt)
    return tuple(reversed(finished))


# ---------------------------------------------------------------------------
# Pivot-path pairs

@dataclass(frozen=True)
class PivotPathPair:
    """Pair of loop-free words whose transition counts differ by e_plus - e_minus.

    ``plus``/``minus`` name the transitions carrying +1/-1;
    :func:`pivot_paths` validates the pattern exactly and refuses to
    emit a wrong pair.
    """

    P: Word
    Q: Word
    plus: tuple[int, int]
    minus: tuple[int, int]


def pivot_paths(i: int, j: int, k: int, T: int, kind: str) -> PivotPathPair:
    """The alternating word pairs that realize a single +1/-1 transition swap.

    ``kind`` is ``"type1"`` (difference +1 at (j,i), -1 at (k,i)) or
    ``"type2"`` (difference +1 at (k,i), -1 at (k,j)). Both words have
    length T, no self-loops, and are checked against the contract before
    being returned.
    """
    if len({i, j, k}) != 3 or min(i, j, k) < 1:
        raise ValueError("i, j, k must be pairwise distinct states")
    if T < 4:
        raise ValueError("T must be at least 4")
    if kind not in ("type1", "type2"):
        raise ValueError(f"unknown kind {kind!r}")

    if kind == "type1":
        if T % 2 == 0:
            m = (T - 2) // 2
            P = (i, j) * m + (i, k)
            Q = (i, k) + (i, j) * m
        else:
            m = (T - 3) // 2
            P = (i, k) + (j, i) * m + (k,)
            Q = (i, k, i, k) + (j, i) * ((T - 5) // 2) + (j,)
        plus, minus = (j, i), (k, i)
    else:
        if T % 2 == 0:
            m = (T - 2) // 2
            P = (k,) + (i, j) * m + (i,)
            Q = (k,) + (j, i) * m + (j,)
        else:
            P = (k, i, k) + (j, i) * ((T - 3) // 2)
            Q = (k, j, i, k) + (j, i) * ((T - 5) // 2) + (j,)
        plus, minus = (k, i), (k, j)

    S = max(i, j, k)
    if len(P) != T or len(Q) != T:
        raise AssertionError(f"pivot paths have lengths {len(P)}, {len(Q)}, expected {T}")
    if not (is_valid_word(P, S, True) and is_valid_word(Q, S, True)):
        raise AssertionError("pivot path contains a self-loop")
    columns = zip(transition_pairs(S, False), column_of_word(Model.B, S, P), column_of_word(Model.B, S, Q))
    diff = {pair: p - q for pair, p, q in columns if p != q}
    if diff != {plus: 1, minus: -1}:
        raise AssertionError(f"pivot pair difference {diff} violates the +1/-1 contract")
    return PivotPathPair(P=P, Q=Q, plus=plus, minus=minus)


# ---------------------------------------------------------------------------
# Cycle decompositions and the G_{m,n} classification (S = 3)

@dataclass(frozen=True)
class CycleDecomposition:
    """Two-cycle count m, three-cycle count n, acyclic leftover."""

    m: int
    n: int
    leftover: StateGraph
    two_cycles_by_pair: tuple[int, int, int]  # pairs (1,2), (1,3), (2,3)
    three_cycles_cw: int
    three_cycles_ccw: int


def cycle_decomposition(graph: StateGraph) -> CycleDecomposition:
    """Peel all two-cycles (pairwise minima), then all three-cycles.

    The counts are canonical even though the edge-level decomposition is
    not: m is the unique maximal number of two-cycles, n the maximal
    number of three-cycles in the remainder.
    """
    if graph.S != 3 or graph.has_self_loops():
        raise ValueError("cycle decomposition is defined for loop-free graphs on 3 states")
    x = [list(row) for row in graph.x]

    def peel(cycle: Sequence[tuple[int, int]]) -> int:
        count = min(x[i - 1][j - 1] for i, j in cycle)
        for i, j in cycle:
            x[i - 1][j - 1] -= count
        return count

    per_pair = tuple(peel(((i, j), (j, i))) for i, j in _PAIRS3)
    cw, ccw = peel(_CW3), peel(_CCW3)
    leftover = StateGraph(S=3, x=tuple(map(tuple, x)))
    decomp = CycleDecomposition(
        m=sum(per_pair),
        n=cw + ccw,
        leftover=leftover,
        two_cycles_by_pair=per_pair,
        three_cycles_cw=cw,
        three_cycles_ccw=ccw,
    )
    if 2 * decomp.m + 3 * decomp.n + leftover.edge_count != graph.edge_count:
        raise AssertionError("cycle decomposition does not account for every edge")
    return decomp


def middle_class_decomposition(x: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Write a G_{q,f(q)} graph vector as (y+z)/2 with y, z three apart in q.

    Mirrors the finite-vertex proof: y swaps two three-cycles for three
    two-cycles, z does the reverse. Raises when the swap is impossible.
    """
    graph = graph_of_transition_vector(x, 3)
    decomp = cycle_decomposition(graph)
    if decomp.n < 2:
        raise ValueError("need at least two three-cycles to trade away")
    pair = next((pq for pq, cnt in zip(_PAIRS3, decomp.two_cycles_by_pair) if cnt >= 3), None)
    if pair is None:
        raise ValueError("need at least three two-cycles of one type to trade away")
    i, j = pair
    orientation = _CW3 if decomp.three_cycles_cw else _CCW3
    trade = [3 * (e in (pair, (j, i))) - 2 * (e in orientation) for e in transition_pairs(3, True)]
    y, z = (tuple(v + sign * t for v, t in zip(x, trade)) for sign in (1, -1))
    if min(y + z) < 0:
        raise ValueError("trade produced negative multiplicities")
    return y, z


@dataclass(frozen=True)
class GmnClass:
    m: int
    n: int
    member_of_script_G: bool


def classify_Gmn(graph: StateGraph) -> GmnClass:
    """Class (m, n) plus membership in the one-two-cycle-type family.

    Membership needs at most one unordered pair with opposite edges and
    a single three-cycle orientation (the latter is implied but checked
    anyway).
    """
    decomp = cycle_decomposition(graph)
    pair_types = sum(1 for c in decomp.two_cycles_by_pair if c > 0)
    orientations = (decomp.three_cycles_cw > 0) + (decomp.three_cycles_ccw > 0)
    member = pair_types <= 1 and orientations <= 1
    return GmnClass(m=decomp.m, n=decomp.n, member_of_script_G=member)
