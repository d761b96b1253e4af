"""Cone facets, polytope vertices, f-vectors and dilation checks."""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from thmc.design import Model, distinct_columns
from thmc.intlinalg import IntLattice
from thmc.polyhedra import (
    DegenerateInput,
    PackedNormals,
    classify_vertices,
    cone_facets,
    dual_description,
    f_vector,
    integer_points_equal_columns,
    l1_reach,
    linear_feasible,
    middle_class_decomposition,
    model_d_columns,
    nonnegativity_normals,
    normals_from_block_text,
    normals_to_block_text,
    polytope_vertices,
    vertices_by_facet_rank,
    verify_dilation_slice,
)


def test_lp_feasible_basic():
    cols = [(1, 0), (0, 1)]
    assert linear_feasible(cols, (2, 3))
    assert not linear_feasible(cols, (-1, 0))
    assert linear_feasible(cols, (Fraction(1, 2), Fraction(1, 2)), coefficient_sum=1)
    assert not linear_feasible(cols, (1, 1), coefficient_sum=1)


def test_lp_zero_entries_of_the_right_hand_side():
    # a zero entry forces lambda = 0 on the columns positive there only when no column is negative there
    assert linear_feasible([(1, 1), (-1, 1)], (0, 2))
    assert linear_feasible([(1, 1), (0, 1)], (0, 2))
    assert not linear_feasible([(1, 1), (0, 1)], (0, 2), coefficient_sum=1)
    assert not linear_feasible([(1, 1), (1, 0)], (0, 2))


def test_lp_without_columns():
    zero = [Fraction(0)] * 3
    assert linear_feasible([], zero)
    assert linear_feasible([], zero, coefficient_sum=Fraction(0))
    assert not linear_feasible([], zero, coefficient_sum=Fraction(1, 2))
    assert not linear_feasible([], [Fraction(0), Fraction(1, 3), Fraction(0)])


def _rational_points(cols, rng, count):
    """Positive rational mixes of one to three columns, half of them nudged along e_i - e_j."""
    for trial in range(count):
        picks = rng.sample(cols, rng.randint(1, 3))
        weights = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in picks]
        x = [sum(w * c[i] for w, c in zip(weights, picks)) for i in range(6)]
        if trial % 2:
            i, j = rng.sample(range(6), 2)
            nudge = Fraction(rng.choice([-1, 1]), rng.randint(1, 6))
            x[i] += nudge
            x[j] -= nudge
        yield x


@pytest.mark.parametrize("T", [4, 5])
def test_cone_lp_agrees_with_the_double_description(T):
    cols = model_d_columns(T)
    hrep = cone_facets(cols)
    answers = []
    for x in _rational_points(cols, random.Random(T), 150):
        in_hrep = all(sum(a * v for a, v in zip(h, x)) >= 0 for h in hrep.inequalities) and not any(
            sum(a * v for a, v in zip(e, x)) for e in hrep.equations
        )
        assert linear_feasible(cols, x) == in_hrep, x
        answers.append(in_hrep)
    assert any(answers) and not all(answers)


@pytest.mark.parametrize("T", [4, 5])
def test_lp_answer_unchanged_by_scaling_to_integers(T):
    cols = model_d_columns(T)
    rng = random.Random(10 + T)
    dilation_answers = []
    for x in _rational_points(cols, rng, 80):
        k = Fraction(sum(x), T - 1) + rng.choice([0, 0, Fraction(1, 7)])
        scale = lcm(*(v.denominator for v in x), k.denominator)
        scaled = [int(v * scale) for v in x]
        assert linear_feasible(cols, x) == linear_feasible(cols, scaled)
        in_dilation = linear_feasible(cols, x, coefficient_sum=k)
        assert in_dilation == linear_feasible(cols, scaled, coefficient_sum=int(k * scale))
        dilation_answers.append(in_dilation)
    assert any(dilation_answers) and not all(dilation_answers)


def test_polytope_vertices_single_point():
    assert polytope_vertices([(1, 2, 3)]) == ((1, 2, 3),)


def test_polytope_vertices_T4():
    assert len(polytope_vertices(model_d_columns(4))) == 20


def test_nonvertex_column_T5():
    # (0,1,0,1,1,1) = ((0,2,0,0,2,0) + (0,0,0,2,0,2)) / 2
    verts = polytope_vertices(model_d_columns(5))
    assert (0, 1, 0, 1, 1, 1) not in verts
    assert (0, 2, 0, 0, 2, 0) in verts and (0, 0, 0, 2, 0, 2) in verts
    assert len(verts) == 27


@pytest.mark.parametrize("T", [4, 5, 6, 7, 8])
def test_vertex_routes_agree(T):
    # exact LP against the tight-facet masks
    cols = model_d_columns(T)
    hrep = cone_facets(cols)
    by_lp = set(polytope_vertices(cols))
    by_masks = set(vertices_by_facet_rank(cols, hrep))
    assert by_lp == by_masks


def test_model_d_vertex_counts_have_period_six():
    # T = 0..5 (mod 6): 54, 77, 54, 63, 68, 63 vertices, from T = 13 on
    expected = {0: 54, 1: 77, 2: 54, 3: 63, 4: 68, 5: 63}
    for T in range(13, 26):
        cols = model_d_columns(T)
        assert len(vertices_by_facet_rank(cols, cone_facets(cols))) == expected[T % 6], T


def test_vertex_test_needs_one_coordinate_sum():
    cols = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    with pytest.raises(AssertionError, match="one nonzero coordinate sum"):
        vertices_by_facet_rank(cols, cone_facets(cols))


def _dot(h, p):
    return sum(a * b for a, b in zip(h, p))


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=1, max_size=8),
            st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=1, max_size=8),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_packed_normals_match_the_dot_products(normals_and_points):
    normals, points = normals_and_points
    reach = l1_reach(points)
    # two points of L1 norm `reach` on the coordinate of the largest |entry|: h.p = +-max|entry| * reach, the width bound
    f, i = max(product(range(len(normals)), range(len(normals[0]))), key=lambda fi: abs(normals[fi[0]][fi[1]]))
    for sign in (1, -1):
        points.append(tuple(sign * reach if j == i else 0 for j in range(len(normals[0]))))
    assert abs(_dot(normals[f], points[-1])) == max(abs(x) for h in normals for x in h) * reach
    pack = PackedNormals(normals, l1_reach(points))
    for p in points:
        dots = [_dot(h, p) for h in normals]
        value = pack.value(p)
        assert pack.inside(value) == all(d >= 0 for d in dots)
        tight = pack.tight(value)
        assert [tight >> (pack.width * g + pack.width - 1) & 1 for g in range(len(normals))] == [int(d == 0) for d in dots]
        assert tight & ~pack.guard == 0
        assert list(pack.fields(tight)) == [g for g, d in enumerate(dots) if d == 0]
        assert pack.decode(value) == dots


# 4r + t for the first normal r of d/T=4: exactly one column falls outside it, by 1
_TILT = (-1, 0, 1, 0, 1, 1)


def test_containment_check_fails_on_one_field(monkeypatch):
    import thmc.polyhedra

    cols = model_d_columns(4)
    real = thmc.polyhedra.dual_description
    first, *rest = real(cols)  # d/T=4 is full-dimensional: the pivot coordinates are all six
    tilted = tuple(4 * x + y for x, y in zip(first, _TILT))
    assert sorted(v for v in (_dot(tilted, c) for c in cols) if v < 0) == [-1]
    monkeypatch.setattr(thmc.polyhedra, "dual_description", lambda gens: (tilted, *rest))
    with pytest.raises(AssertionError, match="violates a facet normal"):
        cone_facets(cols)


def test_cone_facets_orthant():
    hrep = cone_facets([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert set(hrep.inequalities) == set(nonnegativity_normals(3))
    assert hrep.equations == ()


def test_cone_facets_degenerate():
    with pytest.raises(DegenerateInput):
        cone_facets([(0, 0, 0)])


def test_cone_facets_T4_block():
    hrep = cone_facets(model_d_columns(4))
    nontrivial = set(hrep.inequalities) - set(nonnegativity_normals(6))
    # the printed block's first column, read down
    assert (2, -1, -1, -1, 2, 2) in nontrivial
    assert len(nontrivial) == 6 and len(hrep.inequalities) == 12


def test_cone_facets_counts_match_fvector_tail():
    for T in (5, 6, 7):
        assert len(cone_facets(model_d_columns(T)).inequalities) == 24


@pytest.mark.parametrize("model, S, T", [(Model.D, 3, 5), (Model.C, 3, 5), (Model.A, 2, 6)])
def test_facets_are_valid_and_irredundant(model, S, T):
    cols = distinct_columns(model, S, T)
    hrep = cone_facets(cols)
    for h in hrep.inequalities:
        assert all(sum(a * b for a, b in zip(h, c)) >= 0 for c in cols)
    # an inequality is redundant iff it is a nonneg combination of the
    # others (plus the span equations); certify each is not, by exact LP
    normals = list(hrep.inequalities)
    eqs = list(hrep.equations) + [tuple(-x for x in e) for e in hrep.equations]
    for i, h in enumerate(normals):
        others = normals[:i] + normals[i + 1 :] + eqs
        assert not linear_feasible(others, h)
    if model.has_initial:
        # the printed convention: the span relation eliminates the last transition coordinate
        assert len(hrep.equations) == 1
        assert all(h[-1] == 0 for h in normals)


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=2 * n + 2),
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_facets_of_an_embedded_cone_gain_a_zero_coordinate(gens_and_a):
    # x -> (x, a.x) embeds cone(G) in a hyperplane; its facets are G's with a trailing 0
    gens, a = gens_and_a
    assume(IntLattice.from_vectors(len(gens[0]), gens).rank == len(gens[0]))
    flat = cone_facets(gens)
    embedded = cone_facets([(*g, sum(x * y for x, y in zip(a, g))) for g in gens])
    assert embedded.inequalities == tuple((*h, 0) for h in flat.inequalities)
    relation = (*a, -1)
    if next(x for x in relation if x) < 0:  # the printed sign: first nonzero entry positive
        relation = tuple(-x for x in relation)
    assert embedded.equations == (relation,)


def test_facets_independent_of_input_order():
    cols = list(model_d_columns(5))
    assert cone_facets(cols) == cone_facets(list(reversed(cols)))


def test_dual_description_independent_of_insertion_order():
    cols = model_d_columns(13)  # full-dimensional: the columns are their own coordinates
    facets = dual_description(cols)
    assert len(facets) == 24
    for seed in (1, 2, 3):
        shuffled = list(cols)
        random.Random(seed).shuffle(shuffled)
        assert dual_description(shuffled) == facets


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=2 * n + 2)
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_dual_description_of_small_cones_independent_of_order(gens, rng):
    # nonnegative generators keep the cone pointed; they must span the space
    assume(IntLattice.from_vectors(len(gens[0]), gens).rank == len(gens[0]))
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert dual_description(shuffled) == dual_description(gens)


def test_f_vector_simplex():
    fv = f_vector([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert fv.counts == (3, 3)


def test_f_vector_tables_small():
    assert f_vector(model_d_columns(4)).counts == (20, 69, 90, 51, 12)
    assert f_vector(distinct_columns(Model.C, 3, 4)).counts == (24, 156, 434, 606, 444, 162, 24)


def test_dilation_identity_samples():
    rep = verify_dilation_slice(4, 2, 60, seed=2)
    assert rep.ok and rep.agreements == 60


def test_dilation_sum_of_columns():
    cols = model_d_columns(4)
    x = tuple(a + b for a, b in zip(cols[0], cols[7]))
    assert linear_feasible(cols, x, coefficient_sum=2)
    assert linear_feasible(cols, x)


def test_integer_points_equal_columns_small():
    assert integer_points_equal_columns(4)
    assert integer_points_equal_columns(5)


def test_imbalanced_point_outside():
    # sum = T-1 but one state is out-heavy by 2: violates the degree balance
    T = 5
    x = (2, 2, 0, 0, 0, 0)
    assert not linear_feasible(model_d_columns(T), x, coefficient_sum=1)


def test_classify_vertices_T13():
    rep = classify_vertices(13)
    assert rep.p == 6
    assert rep.ok
    ms = {m for _, m, _ in rep.classes}
    assert all(m <= 2 or m >= rep.p - 2 for m in ms)


def test_middle_class_graph_is_not_vertex():
    # the worked 13-long word sits in class (3, 2) and splits as (y + z) / 2
    from thmc.design import column_of_word
    from thmc.stategraph import classify_Gmn, graph_of_transition_vector

    x = column_of_word(Model.D, 3, (1, 2, 1, 2, 1, 2, 1, 2, 3, 1, 2, 3, 1))
    cls = classify_Gmn(graph_of_transition_vector(x, 3))
    assert (cls.m, cls.n) == (3, 2)
    y, z = middle_class_decomposition(x, 13)
    assert tuple((a + b) // 2 for a, b in zip(y, z)) == x
    ycls = classify_Gmn(graph_of_transition_vector(y, 3))
    zcls = classify_Gmn(graph_of_transition_vector(z, 3))
    assert {ycls.m, zcls.m} == {0, 6}
    cols = model_d_columns(13)
    assert tuple(y) in cols and tuple(z) in cols
    verts = set(vertices_by_facet_rank(cols, cone_facets(cols)))
    assert x not in verts


def test_vertices_have_one_two_cycle_type():
    # a column with two distinct two-cycle types is never a vertex
    from thmc.stategraph import classify_Gmn, graph_of_transition_vector

    for T in (5, 6, 7):
        cols = model_d_columns(T)
        verts = set(vertices_by_facet_rank(cols, cone_facets(cols)))
        for col in cols:
            cls = classify_Gmn(graph_of_transition_vector(col, 3))
            if not cls.member_of_script_G:
                assert col not in verts


def test_model_a_cone_has_span_equation():
    from thmc.design import distinct_columns as dc

    cols = dc(Model.A, 2, 4)
    hrep = cone_facets(cols)
    assert len(hrep.equations) == 1
    for e in hrep.equations:
        assert all(sum(a * b for a, b in zip(e, c)) == 0 for c in cols)


def test_normals_block_text_roundtrip():
    normals = [(2, 2, 2, -1, -1, -1), (-1, -1, -1, 2, 2, 2)]
    text = normals_to_block_text(normals)
    assert normals_from_block_text(text) == tuple(sorted(normals))


def test_hrep_grading_sum():
    assert cone_facets(model_d_columns(4)).grading_sum == 3
