"""Fibers, moves, connectivity, and the degree probe."""

import gc
import hashlib
import random
from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import thmc.markov
from thmc.design import Model, SizeCapExceeded, distinct_columns, row_labels
from thmc.intlinalg import DimensionMismatch
from thmc.markov import (
    DegreeCapExceeded,
    Fiber,
    Move,
    _column_fibers,
    _fibers,
    enumerate_fiber,
    fiber_connected,
    minimal_connecting_degree,
    moves_to_text,
    moves_up_to_degree,
    sufficient,
)
from thmc.stategraph import components, graph_of_word
from thmc.words import iter_words


def test_degree_one_fiber_is_euler_words():
    b = sufficient(Model.D, 3, [(1, 2, 3, 1)])
    fiber = enumerate_fiber(Model.D, 3, 4, b)
    expected = {
        (w,) for w in iter_words(3, 4, True) if graph_of_word(w, 3) == graph_of_word((1, 2, 3, 1), 3)
    }
    assert set(fiber.elements) == expected
    assert len(fiber.elements) == 3  # the three rotations of the triangle


def test_fiber_of_figure_example():
    W = [(1, 1, 2), (2, 2, 3), (3, 3, 1)]
    W_bar = [(1, 2, 2), (2, 3, 3), (3, 1, 1)]
    b = sufficient(Model.B, 3, W)
    fiber = enumerate_fiber(Model.B, 3, 3, b)
    assert tuple(sorted(W)) in fiber.elements
    assert tuple(sorted(W_bar)) in fiber.elements


def test_fiber_elements_hit_marginal():
    b = sufficient(Model.D, 3, [(1, 2, 1, 2), (2, 3, 2, 3)])
    fiber = enumerate_fiber(Model.D, 3, 4, b)
    for element in fiber.elements:
        assert sufficient(Model.D, 3, element) == b


def test_fiber_completeness_brute_force():
    """Every <= 2 word multiset with the right marginal appears."""
    words = list(iter_words(3, 3, True))
    target = sufficient(Model.B, 3, [(1, 2, 1), (2, 1, 2)])
    brute = {
        tuple(sorted(combo))
        for n in (1, 2)
        for combo in combinations_with_replacement(words, n)
        if sufficient(Model.B, 3, combo) == target
    }
    fiber = enumerate_fiber(Model.B, 3, 3, target)
    assert set(fiber.elements) == brute


def test_degree_cap():
    b = tuple(x * 5 for x in sufficient(Model.D, 3, [(1, 2, 1, 2)]))
    with pytest.raises(DegreeCapExceeded):
        enumerate_fiber(Model.D, 3, 4, b)


def test_move_degree_guard_runs_before_the_word_stream(monkeypatch):
    def no_words(*args):
        raise AssertionError("words streamed past the degree guard")

    monkeypatch.setattr(thmc.markov, "iter_columns", no_words)
    with pytest.raises(DegreeCapExceeded):
        moves_up_to_degree(Model.D, 3, 6, 5)


def _no_search(*args):
    raise AssertionError("multisets enumerated past the size guard")


def test_probe_multiset_guard_runs_before_the_search(monkeypatch):
    # 1,032 distinct columns: 4.77e10 multisets of degree <= 4
    monkeypatch.setattr(thmc.markov, "_column_fibers", _no_search)
    with pytest.raises(SizeCapExceeded, match="multisets"):
        minimal_connecting_degree(Model.D, 3, 20, 4)


def test_move_multiset_guard_runs_before_the_search(monkeypatch):
    # 1,536 words, under the word cap; 166 distinct columns, about 3.3e7 multisets of degree <= 4
    monkeypatch.setattr(thmc.markov, "_column_fibers", _no_search)
    monkeypatch.setattr(thmc.markov, "iter_columns", _no_search)
    with pytest.raises(SizeCapExceeded, match="multisets of up to 4 of 166 columns"):
        moves_up_to_degree(Model.D, 3, 10, 4)


def test_moves_are_kernel_vectors():
    moves = moves_up_to_degree(Model.D, 3, 4, 2)
    assert moves
    for mv in moves:
        assert sufficient(Model.D, 3, mv.positive) == sufficient(Model.D, 3, mv.negative)
        assert len(mv.positive) == len(mv.negative)
        assert len(mv.positive) <= 2
        vec = mv.as_vector()
        assert sum(x for x in vec if x > 0) == len(mv.positive)


def _word_fibers(model, S, T, k):
    """Reference: every word fiber of degree <= k, by grouping ``combinations_with_replacement`` by marginal."""
    groups = {}
    for n in range(1, k + 1):
        for combo in combinations_with_replacement(iter_words(S, T, model.no_loops), n):
            groups.setdefault(sufficient(model, S, combo), []).append(combo)
    return {b: Fiber(elements=tuple(members)) for b, members in groups.items()}


@pytest.mark.parametrize(
    "model, S, T, k, per_degree",
    [
        (Model.D, 3, 4, 3, {1: 4, 2: 72}),
        (Model.B, 2, 4, 3, {1: 4, 2: 24, 3: 4}),
        (Model.C, 3, 3, 3, {2: 3, 3: 1}),
        (Model.A, 2, 4, 3, {1: 2, 2: 29}),
    ],
    ids=["d-S3-T4-k3", "b-S2-T4-k3", "c-S3-T3-k3", "a-S2-T4-k3"],
)
def test_minimal_basis_connects_every_fiber_and_needs_every_move(model, S, T, k, per_degree):
    moves = moves_up_to_degree(model, S, T, k)
    assert Counter(len(mv.positive) for mv in moves) == per_degree
    fibers = _word_fibers(model, S, T, k)
    for b, fiber in fibers.items():
        assert fiber_connected(fiber, moves)[0], b
    for i, mv in enumerate(moves):
        fiber = fibers[sufficient(model, S, mv.positive)]
        assert not fiber_connected(fiber, moves[:i] + moves[i + 1:])[0], mv


@pytest.mark.parametrize(
    "model, S, T, k, per_degree",
    [
        (Model.D, 4, 3, 4, {1: 6, 2: 42, 3: 96, 4: 6}),
        (Model.D, 3, 6, 3, {1: 48, 2: 675}),
        (Model.D, 3, 8, 3, {1: 288, 2: 3444}),
        (Model.D, 3, 10, 3, {1: 1370, 2: 11556}),
    ],
    ids=["d-S4-T3-k4", "d-S3-T6-k3", "d-S3-T8-k3", "d-S3-T10-k3"],
)
def test_minimal_basis_counts_match_the_probe_components(model, S, T, k, per_degree):
    # the moves of each degree d >= 2 are the sum of components - 1 over the probe's fibers of degree d
    moves = moves_up_to_degree(model, S, T, k)
    assert Counter(len(mv.positive) for mv in moves) == per_degree
    report = minimal_connecting_degree(model, S, T, k, report_limit=10**9)
    needed = Counter()
    for f in report.interesting_fibers:
        needed[f.degree] += f.components - 1
    assert +needed == report.moves_by_degree == {d: n for d, n in per_degree.items() if d > 1}
    assert report.minimal_k == max(report.moves_by_degree)


def test_moves_deduplicated_up_to_sign():
    moves = moves_up_to_degree(Model.D, 3, 4, 2)
    seen = set()
    for mv in moves:
        assert (mv.negative, mv.positive) not in seen
        seen.add((mv.positive, mv.negative))


def test_move_constructor_rejects_non_kernel():
    with pytest.raises(AssertionError):
        Move(S=3, T=4, model=Model.D, positive=((1, 2, 1, 2),), negative=((1, 3, 1, 3),))


@pytest.mark.parametrize("T", [3, 5])
def test_move_constructor_rejects_words_of_another_length(T):
    # a T=4 move: its kernel check passes at any T, but as_vector would index a T=3 or T=5 word list
    mv = moves_up_to_degree(Model.D, 3, 4, 2)[0]
    with pytest.raises(ValueError, match=f"length T={T}"):
        Move(S=3, T=T, model=Model.D, positive=mv.positive, negative=mv.negative)


def test_move_constructor_rejects_unsorted_parts():
    mv = next(mv for mv in moves_up_to_degree(Model.D, 3, 4, 2) if len(set(mv.negative)) == 2)
    with pytest.raises(ValueError, match="sorted order") as raised:
        Move(S=3, T=4, model=Model.D, positive=mv.positive, negative=mv.negative[::-1])
    assert len(str(raised.value).splitlines()) == 1


def test_fiber_walk_ignores_the_order_of_the_moves():
    b = sufficient(Model.D, 3, [(1, 2, 3, 1), (1, 2, 3, 1), (2, 1, 2, 3)])
    fiber = enumerate_fiber(Model.D, 3, 4, b)
    for k in (1, 2):
        moves = list(moves_up_to_degree(Model.D, 3, 4, k))
        expected = fiber_connected(fiber, moves)
        for seed in range(3):
            random.Random(seed).shuffle(moves)
            assert fiber_connected(fiber, moves) == expected
        assert fiber_connected(fiber, reversed(moves)) == expected


def test_singleton_fiber_connected():
    b = sufficient(Model.D, 3, [(1, 2, 1, 2)])
    fiber = enumerate_fiber(Model.D, 3, 4, b)
    connected, comps = fiber_connected(fiber, [])
    assert len(fiber.elements) == 1 and connected and len(comps) == 1


def test_fiber_connected_with_own_differences():
    b = sufficient(Model.D, 3, [(1, 2, 3, 1), (1, 2, 3, 1)])
    fiber = enumerate_fiber(Model.D, 3, 4, b)
    assert len(fiber.elements) > 1
    moves = moves_up_to_degree(Model.D, 3, 4, 2)
    connected, _ = fiber_connected(fiber, moves)
    assert connected


def test_fiber_disconnected_without_moves():
    b = sufficient(Model.D, 3, [(1, 2, 3, 1), (1, 2, 3, 1)])
    fiber = enumerate_fiber(Model.D, 3, 4, b)
    connected, comps = fiber_connected(fiber, [])
    assert not connected and len(comps) == len(fiber.elements)


def test_probe_matches_word_level_small():
    """Class-level connectivity agrees with word-level fibers at T=4."""
    report = minimal_connecting_degree(Model.D, 3, 4, 2)
    assert report.minimal_k == 2
    moves = moves_up_to_degree(Model.D, 3, 4, report.minimal_k)
    words = list(iter_words(3, 4, True))
    for n in (1, 2):
        seen = set()
        for combo in combinations_with_replacement(words, n):
            b = sufficient(Model.D, 3, combo)
            if b in seen:
                continue
            seen.add(b)
            fiber = enumerate_fiber(Model.D, 3, 4, b)
            connected, _ = fiber_connected(fiber, moves)
            assert connected, b


@pytest.mark.parametrize(
    "model, S, T, D, minimal_k",
    [(Model.D, 3, 4, 1, 1), (Model.D, 3, 4, 4, 2), (Model.C, 3, 3, 3, 3), (Model.D, 4, 3, 4, 4), (Model.B, 2, 4, 3, 3)],
    ids=lambda v: v.value if isinstance(v, Model) else str(v),
)
def test_minimal_k_is_the_largest_degree_with_a_multi_component_fiber(model, S, T, D, minimal_k):
    report = minimal_connecting_degree(model, S, T, D, report_limit=10**9)
    assert report.minimal_k == minimal_k
    assert minimal_k == max((f.degree for f in report.interesting_fibers if f.components > 1), default=1)
    # the value the probe gave when a one-component multi-class fiber counted as connected at 2
    assert minimal_k == max((2 if f.components == 1 else f.degree for f in report.interesting_fibers), default=1)


def test_probe_reports():
    report = minimal_connecting_degree(Model.D, 3, 5, 3)
    assert report.minimal_k <= 3
    assert not report.disconnected_fibers
    payload = report.to_json()
    assert '"minimal_k"' in payload


def test_probe_and_word_stream_leave_no_reference_cycle():
    # a closure that names itself would keep every fiber group alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        minimal_connecting_degree(Model.D, 3, 4, 3)
        enumerate_fiber(Model.D, 3, 4, sufficient(Model.D, 3, [(1, 2, 3, 1), (2, 1, 2, 3), (3, 1, 3, 2)]))
        for _ in iter_words(3, 6, True):
            pass
        assert gc.collect() < 100
    finally:
        gc.enable()


def test_probe_wide_models():
    for S in (4, 5):
        report = minimal_connecting_degree(Model.D, S, 3, 2)
        assert report.minimal_k == max(report.moves_by_degree, default=1)
        assert not report.disconnected_fibers


def test_moves_text_export():
    moves = moves_up_to_degree(Model.D, 3, 4, 1)
    text = moves_to_text(moves)
    rows = text.strip().splitlines()
    assert len(rows) == len(moves)
    assert all(len(r.split()) == 24 for r in rows)


def test_connectivity_monotone_in_move_set():
    b = sufficient(Model.D, 3, [(1, 2, 3, 1), (1, 2, 3, 1)])
    fiber = enumerate_fiber(Model.D, 3, 4, b)
    k1 = moves_up_to_degree(Model.D, 3, 4, 1)
    k2 = moves_up_to_degree(Model.D, 3, 4, 2)
    assert set(k1) <= set(k2)
    conn1, comps1 = fiber_connected(fiber, k1)
    conn2, comps2 = fiber_connected(fiber, k2)
    assert len(comps2) <= len(comps1)
    assert conn2 or not conn1


def _fibers_by_combinations(vectors, size):
    """Reference: the index multisets of ``combinations_with_replacement``, grouped by sum, each group in that order."""
    groups = {}
    for combo in combinations_with_replacement(range(len(vectors)), size):
        groups.setdefault(tuple(sum(vectors[i][r] for i in combo) for r in range(len(vectors[0]))), []).append(combo)
    return groups


def _sum_of(vectors, picks, width):
    return [sum(vectors[i % len(vectors)][r] for i in picks) for r in range(width)]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=6),
    st.integers(1, 4),
    st.lists(st.integers(0, 9), min_size=4, max_size=4),
    st.lists(st.integers(0, 9), min_size=3, max_size=3),
    st.booleans(),
)
def test_multisets_by_sum_in_combination_order(vectors, size, picks, other, exact):
    # the bound prunes exactly only non-negative vectors, as design columns are; their sums need not be equal
    bound = _sum_of(vectors, picks[:size], 3) if exact else other
    assert _fibers(vectors, size, bound) == _fibers_by_combinations(vectors, size).get(tuple(bound), [])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 40), min_size=4, max_size=4), min_size=1, max_size=5),
    st.integers(1, 3),
    st.lists(st.integers(0, 9), min_size=3, max_size=3),
    st.lists(st.integers(0, 90), min_size=4, max_size=4),
    st.booleans(),
)
def test_fibers_of_wide_entries_and_bounds(vectors, size, picks, other, exact):
    # sums reach 120, so each packed field needs 9 bits
    bound = _sum_of(vectors, picks[:size], 4) if exact else other
    assert _fibers(vectors, size, bound) == _fibers_by_combinations(vectors, size).get(tuple(bound), [])


def _colex(groups):
    return sorted(groups.items(), key=lambda item: item[0][::-1])


def _column_fibers_by_search(columns, D):
    """Reference: the multisets of each sum, in colex order, with the union-find of their classes under "shares a column"."""
    for degree in range(1, D + 1):
        for b, classes in _colex(_fibers_by_combinations(columns, degree)):
            first_with = {}  # column -> first class containing it
            edges = [(first_with.setdefault(col, idx), idx) for idx, cls in enumerate(classes) for col in set(cls)]
            yield degree, b, len(classes), len(set(components(len(classes), edges)))


def _decoded_fibers(vectors, D):
    """(degree, b, classes, components, representatives) of each fiber of the pass; representatives only with two or more components."""
    decode, representative, fibers = _column_fibers(vectors, D)
    found = []
    for degree, s, classes, lows in fibers:
        representatives = tuple(representative(s, low, degree) for low in lows) if len(lows) > 1 else ()
        found.append((degree, decode(s), classes, len(lows), representatives))
        # each component's multiset starts at the lowest column it is flooded from
        assert [rep[0] for rep in representatives] == [low.bit_length() - 1 for low in lows][: len(representatives)]
    return found


def _check_representatives(vectors, fibers):
    """Each fiber with two or more components lists one multiset per component; they sum to b and share no column."""
    for degree, b, _, parts, representatives in fibers:
        if parts == 1:
            assert representatives == ()
            continue
        assert len(representatives) == parts
        columns = set()
        for rep in representatives:
            assert len(rep) == degree and list(rep) == sorted(rep)
            assert tuple(map(sum, zip(*(vectors[c] for c in rep)))) == b
            assert columns.isdisjoint(rep)
            columns.update(rep)


def _column_fibers_by_pairs(vectors, D):
    """Reference: the multisets of each sum, in colex order, with their components under "shares a column" by every pair of classes."""
    expected = []
    for degree in range(1, D + 1):
        for b, classes in _colex(_fibers_by_combinations(vectors, degree)):
            columns = [set(cls) for cls in classes]
            edges = [(i, j) for i in range(len(classes)) for j in range(i) if columns[i] & columns[j]]
            expected.append((degree, b, len(classes), len(set(components(len(classes), edges)))))
    return expected


@pytest.mark.parametrize(
    "model, S, T, D",
    [(Model.D, 3, 4, 4), (Model.D, 3, 5, 3)] + [(model, 2, T, 3) for model in Model for T in range(3, 7)],
    ids=lambda v: v.value if isinstance(v, Model) else str(v),
)
def test_column_fibers_match_the_multiset_search(model, S, T, D):
    columns = distinct_columns(model, S, T)
    fibers = _decoded_fibers(columns, D)
    assert [f[:4] for f in fibers] == list(_column_fibers_by_search(columns, D))
    _check_representatives(columns, fibers)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=6), st.integers(1, 4))
def test_column_fibers_of_any_small_vectors(vectors, D):
    # duplicates, zero vectors and unequal coordinate sums, unlike design columns
    fibers = _decoded_fibers(vectors, D)
    assert [f[:4] for f in fibers] == _column_fibers_by_pairs(vectors, D)
    _check_representatives(vectors, fibers)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 300), min_size=3, max_size=3), min_size=1, max_size=4),
    st.integers(1, 2).flatmap(lambda D: st.tuples(st.just(D), st.integers(-(-256 // D), 300))),
    st.randoms(use_true_random=False),
)
def test_column_fibers_of_two_byte_fields(vectors, D_wide, rng):
    # a zero vector, a duplicate and an entry of at least 256 / D, so the sums need 2-byte fields
    D, wide = D_wide
    vectors = vectors + [[0, 0, 0], vectors[0], [0, wide, 0]]
    rng.shuffle(vectors)
    fibers = _decoded_fibers(vectors, D)
    assert [f[:4] for f in fibers] == _column_fibers_by_pairs(vectors, D)
    assert max(max(b) for _, b, *_ in fibers) >= 256
    _check_representatives(vectors, fibers)


def test_column_fibers_of_three_byte_fields():
    # every entry fits 2 bytes, but D times the largest is 120,000, past 65,536: each field is 3 bytes
    vectors = [(40000, 1, 0), (30000, 0, 1), (60000, 0, 0), (10000, 1, 1), (0, 0, 0)]
    fibers = _decoded_fibers(vectors, 2)
    assert [f[:4] for f in fibers] == _column_fibers_by_pairs(vectors, 2)
    assert (2, (70000, 1, 1), 2, 2, ((0, 1), (2, 3))) in fibers
    assert (2, (120000, 0, 0), 1, 1, ()) in fibers
    _check_representatives(vectors, fibers)


def test_column_fibers_come_in_colex_order_within_a_degree():
    fibers = [(degree, b) for degree, b, *_ in _decoded_fibers([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2)]
    assert fibers == [
        (1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1)),
        (2, (2, 0, 0)), (2, (1, 1, 0)), (2, (0, 2, 0)), (2, (1, 0, 1)), (2, (0, 1, 1)), (2, (0, 0, 2)),
    ]
    sums = [(degree, b[::-1]) for degree, b, *_ in _decoded_fibers(distinct_columns(Model.D, 3, 5), 3)]
    assert sums == sorted(sums)


# (T, D) -> fibers_checked, moves_by_degree, multi-class fibers, sha256 of to_json() with every one reported
_BENCHMARK_PROBES = {
    (4, 4): (2408, {2: 72}, 1662, "cd988988adedd8bd9e7903299a4291b46463b42cf280fb03226f495bdc42d960"),
    (5, 4): (5216, {2: 210}, 3849, "86f2eeda60161f030a992553e2d0265dd720d3f11580620105d34c9c93e9572f"),
    (6, 4): (11775, {2: 675}, 9853, "2c70c72058b47886b4e2426ece421e6ee8d7386cbcf4eb0b189aced62a22695e"),
    (7, 3): (4443, {2: 1495}, 3767, "adc74bcb7843193478d873f7b22bf04c2a0cc88b94c5e60c46dc035b2144c114"),
    (8, 3): (7892, {2: 3444}, 6903, "ed922695d1dc5363a4411efe956165800111725704332adf1ad5af06eaa71ed7"),
}


@pytest.mark.parametrize("T, D", list(_BENCHMARK_PROBES), ids=lambda v: str(v))
def test_benchmark_probes_are_pinned(T, D):
    report = minimal_connecting_degree(Model.D, 3, T, D, report_limit=10**9)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert (report.fibers_checked, report.moves_by_degree, len(report.interesting_fibers), digest) == _BENCHMARK_PROBES[T, D]


def test_minimal_basis_text_is_pinned():
    text = moves_to_text(moves_up_to_degree(Model.D, 3, 5, 3))
    assert hashlib.sha256(text.encode()).hexdigest() == "139c906c8a34276c911eb9cf7c5a64f64e1c19fc3385d8cbca336ca38371430c"


@pytest.mark.parametrize("limit", [0, 1, 50, 890, 891])
def test_report_limit_keeps_the_first_fibers_of_the_full_list(limit):
    full = minimal_connecting_degree(Model.D, 3, 5, 3, report_limit=10**9)
    report = minimal_connecting_degree(Model.D, 3, 5, 3, report_limit=limit)
    assert len(full.interesting_fibers) == 891
    assert report.interesting_fibers == full.interesting_fibers[:limit]
    assert (report.fibers_checked, report.moves_by_degree) == (full.fibers_checked, full.moves_by_degree)


def test_probe_pins_the_degree_three_moves_of_four_states():
    report = minimal_connecting_degree(Model.D, 4, 3, 3, report_limit=10**9)
    assert (report.minimal_k, report.fibers_checked) == (3, 4121)
    assert not report.disconnected_fibers
    degree_three = [f for f in report.interesting_fibers if f.degree == 3]
    assert sum(f.components > 1 for f in degree_three) == 96
    assert sum(f.components - 1 for f in degree_three) == 96


def test_probe_pins_the_multi_class_fibers_per_degree():
    report = minimal_connecting_degree(Model.D, 3, 4, 4, report_limit=10**9)
    assert report.fibers_checked == 2408
    assert Counter(f.degree for f in report.interesting_fibers) == {2: 49, 3: 344, 4: 1269}


@pytest.mark.parametrize("model", list(Model))
def test_fibers_of_zero_and_of_a_marginal_no_word_fits(model):
    labels = row_labels(model, 3)
    zero = [0] * len(labels)
    assert enumerate_fiber(model, 3, 4, zero).elements == ((),)
    lone = list(zero)  # all three transitions 1 -> 2: no word of length 4 has only those
    lone[labels.index(("trans", 1, 2))] = 3
    if model.has_initial:
        lone[labels.index(("init", 1))] = 1
    assert enumerate_fiber(model, 3, 4, lone).elements == ()


@pytest.mark.parametrize("b", [(3,), (1, 0, 1, 0, 1, 0, 0)])
def test_fiber_refuses_a_marginal_of_the_wrong_length(monkeypatch, b):
    monkeypatch.setattr(thmc.markov, "iter_columns", _no_search)
    with pytest.raises(DimensionMismatch, match=f"marginal has {len(b)} entries, model d at S=3 has 6 rows"):
        enumerate_fiber("d", 3, 4, b)


def _components_by_direct_scan(fiber, moves):
    """Reference walk: try every move on every element, then join the components by search."""
    neighbours = {e: set() for e in fiber.elements}
    for e in fiber.elements:
        have = Counter(e)
        for mv in moves:
            need = Counter(mv.negative)
            if all(have[w] >= c for w, c in need.items()):
                target = tuple(sorted((have - need + Counter(mv.positive)).elements()))
                if target in neighbours:
                    neighbours[e].add(target)
                    neighbours[target].add(e)
    seen, comps = set(), []
    for e in fiber.elements:
        if e in seen:
            continue
        seen.add(e)
        stack, comp = [e], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in neighbours[u] - seen:
                seen.add(v)
                stack.append(v)
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


@pytest.mark.parametrize("degree", [2, 3])
def test_fiber_walk_matches_a_direct_scan(degree):
    words = list(iter_words(3, 4, True))
    rng = random.Random(degree)
    fibers = []
    for _ in range(6):
        drawn = [rng.choice(words) for _ in range(degree)]
        fibers.append(enumerate_fiber(Model.D, 3, 4, sufficient(Model.D, 3, drawn)))
    split = 0
    for k in range(1, degree + 1):
        moves = moves_up_to_degree(Model.D, 3, 4, k)
        for fiber in fibers:
            connected, comps = fiber_connected(fiber, moves)
            assert comps == _components_by_direct_scan(fiber, moves)
            assert connected == (len(comps) == 1)
            split += not connected
    assert split  # the lower move degrees leave some fiber in pieces


@pytest.mark.parametrize("change", ["drop", "add"])
def test_basis_refuses_word_columns_that_differ_from_the_state_walk(monkeypatch, change):
    real = distinct_columns(Model.D, 3, 4)
    changed = real[1:] if change == "drop" else tuple(sorted(real + ((9,) * 6,)))
    monkeypatch.setattr(thmc.markov, "distinct_columns", lambda *args: changed)
    with pytest.raises(AssertionError, match="not the distinct columns of the state walk"):
        moves_up_to_degree(Model.D, 3, 4, 2)
