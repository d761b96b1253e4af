"""Cone facets, polytope vertices, f-vectors and dilation checks."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from thmc import polyhedra
from thmc.design import Model, compositions, distinct_columns
from thmc.intlinalg import DimensionMismatch, IntLattice, PackedNormals, l1_reach
from thmc.polyhedra import (
    DegenerateInput,
    PackedColumns,
    classify_vertices,
    cone_facets,
    dual_description,
    f_vector,
    f_vector_from_incidence,
    integer_points_equal_columns,
    linear_feasible,
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


def test_lp_refuses_a_rhs_of_the_wrong_length():
    # the coefficient sum must not be read as a third coordinate
    with pytest.raises(DimensionMismatch):
        linear_feasible([(1, 0), (0, 1)], (1,), coefficient_sum=1)


def test_lp_refuses_a_longer_rhs_as_bad_input():
    with pytest.raises(DimensionMismatch) as info:
        linear_feasible([(1, 0), (0, 1)], (1, 2, 3))
    assert isinstance(info.value, ValueError)  # bad input, exit 1 on the command line


def test_lp_refuses_ragged_columns_when_packed():
    with pytest.raises(DimensionMismatch):
        PackedColumns([(1, 0), (0, 1, 3)])
    with pytest.raises(DimensionMismatch):
        linear_feasible([(1, 0), (0, 1, 3)], (1, 1))


def test_lp_yes_is_checked_against_the_plain_columns():
    packed = PackedColumns([(1, 0), (0, 1)])
    assert linear_feasible(packed, (2, 3), coefficient_sum=5)
    j = packed.columns.index((1, 0))  # the packing order is not the given order
    coords = packed.pack.coords
    packed.pack.coords = (coords[0] + (1 << packed.pack.width * j), *coords[1:])  # (1, 0) now reads (2, 0) in the tableau
    with pytest.raises(AssertionError, match="basic solution"):
        linear_feasible(packed, (2, 3))


@pytest.mark.parametrize("T", [4, 5, 6])
def test_lp_packs_by_rising_norm_and_answers_match_the_hrep(T):
    # Bland's rule follows the packing order, which does not depend on the order the columns come in
    cols = list(model_d_columns(T))
    packed = PackedColumns(cols)
    keys = [(sum(x * x for x in c), c) for c in packed.columns]
    assert keys == sorted(keys) and sorted(packed.columns) == sorted(cols)
    shuffled = cols[:]
    random.Random(T).shuffle(shuffled)
    assert all(PackedColumns(order).columns == packed.columns for order in (cols[::-1], shuffled))
    hrep = cone_facets(cols)
    rng = random.Random(100 + T)
    points = [(x, k) for x in compositions(T - 1, 6) for k in (None, 1)]
    for k in (1, 2, 3):
        for x in _rational_points(cols, rng, 40):
            points.append(([k * (T - 1) * v / sum(x) for v in x], k))  # on the k-th slice, inside kP or not
    answers = Counter()
    for x, k in points:
        scale = lcm(*(Fraction(v).denominator for v in x))
        expected = hrep.contains([int(v * scale) for v in x])
        assert linear_feasible(packed, x, coefficient_sum=k) == expected, (x, k)
        answers[expected] += 1
    assert answers[True] > 100 and answers[False] > 100


def test_lp_field_width_follows_the_hadamard_bound():
    # entries near 2^40: a fixed 64-bit field would carry between columns
    cols = model_d_columns(4)
    hrep = cone_facets(cols)
    scale = (1 << 40) - 3
    big = PackedColumns([tuple(scale * x for x in c) for c in cols])
    assert big.pack.width == 338 > 6 * 40
    rng = random.Random(40)
    answers = []
    for point in _rational_points(cols, rng, 60):
        x = [int(v * lcm(*(w.denominator for w in point))) for v in point]
        in_cone = hrep.contains(x)
        assert linear_feasible(big, [scale * v for v in x]) == linear_feasible(cols, x) == in_cone, x
        k = Fraction(sum(x), 3)
        assert linear_feasible(big, [scale * v for v in x], coefficient_sum=k) == linear_feasible(cols, x, coefficient_sum=k)
        answers.append(in_cone)
    assert any(answers) and not all(answers)


def test_lp_field_width_at_criterion_8s_largest_slice():
    # 96 columns of 6 entries: the 7 largest column norms bound every minor in 28-bit fields
    cols = model_d_columns(8)
    packed = PackedColumns(cols)
    assert packed.pack.width == 28
    hrep = cone_facets(cols)
    answers = []
    for point in _rational_points(cols, random.Random(8), 60):
        in_cone = hrep.contains([int(v * lcm(*(w.denominator for w in point))) for v in point])
        assert linear_feasible(packed, point) == in_cone, point
        k = Fraction(sum(point), 7)  # the point is on the k-th slice, so it is in kP iff it is in the cone
        assert linear_feasible(packed, point, coefficient_sum=k) == in_cone, (point, k)
        assert not linear_feasible(packed, point, coefficient_sum=k + Fraction(1, 7)), (point, k)
        answers.append(in_cone)
    assert any(answers) and not all(answers)


@pytest.mark.parametrize("model,T", [("d", 4), ("c", 4)])
def test_hrep_contains_refuses_a_point_of_the_wrong_length(model, T):
    cols = distinct_columns(model, 3, T)
    hrep = cone_facets(cols)
    dim = len(cols[0])
    assert hrep.contains(cols[0]) and not hrep.contains([-x for x in cols[0]])
    # model c's cone spans a hyperplane: with its inequalities dropped, the equation alone must still see the length
    hreps = [hrep, replace(hrep, inequalities=())] if hrep.equations else [hrep]
    for h, point in product(hreps, [(0, 0, 0), (1,) * (dim - 1), (1,) * (dim + 2)]):
        with pytest.raises(DimensionMismatch, match=f"length {len(point)}.*length {dim}"):
            h.contains(point)


def test_lp_dropped_columns_in_the_middle_match_the_shorter_list():
    # a zero entry of x drops the columns positive there; they sit between kept ones in the packing order
    packed = PackedColumns(model_d_columns(5))
    interleaved = 0
    for x in compositions(4, 6):
        zero = [i for i, v in enumerate(x) if v == 0]
        kept = [j for j, c in enumerate(packed.columns) if not any(c[i] for i in zero)]
        interleaved += bool(kept) and kept != list(range(kept[0], kept[-1] + 1))
        shorter = [packed.columns[j] for j in kept]
        for k in (None, 1, 2):
            assert linear_feasible(packed, x, coefficient_sum=k) == linear_feasible(shorter, x, coefficient_sum=k), (x, k)
    assert interleaved


@pytest.mark.parametrize("T", [4, 5])
def test_lp_prepacked_and_plain_agree_on_every_composition(T):
    cols = model_d_columns(T)
    packed = PackedColumns(cols)
    answers = []
    for x in compositions(T - 1, 6):
        for k in (None, 1):
            answer = linear_feasible(packed, x, coefficient_sum=k)
            assert answer == linear_feasible(cols, x, coefficient_sum=k), (x, k)
            answers.append(answer)
    assert any(answers) and not all(answers)


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


def test_packed_fields_dropped_and_put_read_like_a_fresh_pack():
    normals = [(1, -2, 3), (0, 4, -1), (-5, 1, 1)]
    points = list(compositions(4, 3)) + [(-3, 2, 1), (1, -4, 0)]
    reach = l1_reach(points)
    pack = PackedNormals(normals, 2 * reach)  # room for entries up to 10, as put asks
    pack.drop(1, normals[1])
    pack.put(1, (2, 2, -3))
    pack.put(3, (7, 0, -7))
    assert pack.count == 4
    fresh = PackedNormals([(1, -2, 3), (2, 2, -3), (-5, 1, 1), (7, 0, -7)], reach)
    for p in points:
        assert pack.decode(pack.value(p)) == fresh.decode(fresh.value(p)), p
        assert list(pack.fields(pack.tight(pack.value(p)))) == list(fresh.fields(fresh.tight(fresh.value(p))))
    pack.drop(2, (-5, 1, 1))
    for p in points:  # an empty field reads 0: inside and tight
        value = pack.value(p)
        assert pack.decode(value)[2] == 0 and pack.tight(value) & pack.bit(2)


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


# n to 2n + 2 generators of n = 2..4 coordinates, entries 0..3
_small_cones = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=n, max_size=2 * n + 2)
)


@given(_small_cones, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_dual_description_of_small_cones_independent_of_order(gens, rng):
    # nonnegative generators keep the cone pointed; they must span the space
    assume(IntLattice.from_vectors(len(gens[0]), gens).rank == len(gens[0]))
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert dual_description(shuffled) == dual_description(gens)


def _wedge_step(minors, last, sets, G, k):
    """The k x k minors of every generator subset one longer, by expansion along the new, last row.

    ``minors`` row i holds the (k-1) x (k-1) minors of a subset, one per
    column set of ``sets``, and ``last[i]`` is its largest generator
    index; the subset gains each later generator in turn.
    """
    np = pytest.importorskip("numpy")
    index = {cols: t for t, cols in enumerate(sets)}
    counts = len(G) - 1 - last
    parent = np.repeat(np.arange(len(last)), counts)
    later = np.repeat(last + 1 - (np.cumsum(counts) - counts), counts) + np.arange(len(parent))
    larger = list(combinations(range(G.shape[1]), k))
    wedge = np.zeros((len(parent), len(larger)), dtype=G.dtype)
    for t, cols in enumerate(larger):
        for pos, col in enumerate(cols):
            term = minors[parent, index[cols[:pos] + cols[pos + 1 :]]] * G[later, col]
            wedge[:, t] += term if (k - 1 + pos) % 2 == 0 else -term
    return wedge, later, larger


def _facets_by_brute_force(gens):
    """Facet normals of a full-dimensional cone from every (dim-1)-subset of its generators.

    A subset of rank dim-1 spans a hyperplane whose normal has entry i
    equal to (-1)^i times its minor without column i; the normal, made
    primitive, is a facet normal if every generator lies on one side,
    and the sign is chosen to put them at >= 0. The minors come level by
    level as wedge products, for every subset at once (numpy, int64 when
    Hadamard's bound allows, else Python ints), the last level in blocks.
    """
    np = pytest.importorskip("numpy")
    gens = sorted({tuple(g) for g in gens if any(g)})
    dim = len(gens[0])
    top = max(abs(x) for g in gens for x in g)
    G = np.array(gens, dtype=np.int64 if (top * dim) ** dim < 2**62 else object)
    minors, last, sets = np.ones((1, 1), dtype=G.dtype), np.array([-1]), [()]
    for k in range(1, dim - 1):
        minors, last, sets = _wedge_step(minors, last, sets, G, k)
    normals = set()
    for lo in range(0, len(last), 2048):
        wedge, _, final = _wedge_step(minors[lo : lo + 2048], last[lo : lo + 2048], sets, G, dim - 1)
        index = {cols: t for t, cols in enumerate(final)}
        h = np.stack([wedge[:, index[tuple(c for c in range(dim) if c != i)]] * (-1) ** i for i in range(dim)], axis=1)
        h = h[(h != 0).any(axis=1)]  # rank dim-1 only
        h //= np.gcd.reduce(h, axis=1)[:, None]
        h *= np.sign(h[np.arange(len(h)), (h != 0).argmax(axis=1)])[:, None]  # one sign per hyperplane
        normals.update(map(tuple, h.tolist()))
    facets = set()
    for h in normals:
        sides = {(v > 0) - (v < 0) for v in (_dot(h, g) for g in gens)} - {0}
        if len(sides) == 1:
            sign = sides.pop()
            facets.add(tuple(sign * x for x in h))
    return facets


def test_brute_force_facets_of_a_square_pyramid():
    # apex cone over the square with corners (+-1, +-1, 1), and its centre, which spans no facet
    gens = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1), (0, 0, 1)]
    assert _facets_by_brute_force(gens) == {(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)}


@given(_small_cones)
@settings(max_examples=60, deadline=None)
def test_dual_description_of_small_cones_matches_the_brute_force_facets(gens):
    assume(IntLattice.from_vectors(len(gens[0]), gens).rank == len(gens[0]))
    assert set(dual_description(gens)) == _facets_by_brute_force(gens)


@pytest.mark.parametrize("model, S, T", [(Model.D, 3, 4), (Model.D, 3, 5), (Model.D, 3, 6), (Model.C, 3, 4)])
def test_dual_description_matches_the_brute_force_facets(model, S, T):
    cols = distinct_columns(model, S, T)
    # drop coordinates that the span equations determine, from the last (c/S=3 has one equation)
    rank = IntLattice.from_vectors(len(cols[0]), cols).rank
    keep = list(range(len(cols[0])))
    for i in reversed(range(len(cols[0]))):
        fewer = [j for j in keep if j != i]
        if len(keep) > rank and IntLattice.from_vectors(len(fewer), [[c[j] for j in fewer] for c in cols]).rank == rank:
            keep = fewer
    gens = [tuple(c[j] for j in keep) for c in cols]
    facets = dual_description(gens)
    assert set(facets) == _facets_by_brute_force(gens)
    assert len(facets) == len(cone_facets(cols).inequalities)


def test_dual_description_reuses_ray_fields_in_one_pack(monkeypatch):
    # the first rays are unit vectors; the entries near 10^6 cut out rays with entries beyond 10^6,
    # which the one pack, sized by Hadamard's bound, must hold
    import thmc.polyhedra

    log = Counter()

    class Spy(PackedNormals):
        def __init__(self, *args):
            log["packs"] += 1
            super().__init__(*args)

        def put(self, f, normal):
            log["reused" if f < self.count else "appended"] += 1
            # the packed sum holds every h.g the ray can meet without a carry between fields
            log["widest"] = max(log["widest"], max(abs(_dot(normal, g)) for g in gens).bit_length() + 2)
            assert log["widest"] <= self.width
            super().put(f, normal)

    monkeypatch.setattr(thmc.polyhedra, "PackedNormals", Spy)
    M = 10**6
    gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (M, M + 1, -1, 1), (3, -M, M + 7, 2), (-5, M - 17, 4, M + 3)]
    facets = dual_description(gens)
    assert log["packs"] == 1
    assert log["reused"] and log["appended"]
    assert log["widest"] > 60
    assert max(abs(x) for h in facets for x in h) > M
    assert set(facets) == _facets_by_brute_force(gens)  # last: the oracle needs numpy


@pytest.mark.slow
def test_cone_facets_of_model_d_at_S4_T5():
    assert len(cone_facets(distinct_columns(Model.D, 4, 5)).inequalities) == 64


def test_f_vector_simplex():
    fv = f_vector([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert fv.counts == (3, 3)


def test_f_vector_tables_small():
    assert f_vector(model_d_columns(4)).counts == (20, 69, 90, 51, 12)
    assert f_vector(distinct_columns(Model.C, 3, 4)).counts == (24, 156, 434, 606, 444, 162, 24)


def test_f_vector_of_model_b_in_dimension_eight():
    assert f_vector(distinct_columns(Model.B, 3, 4)).counts == (53, 480, 1492, 2256, 1908, 942, 258, 33)


def _lifted(points):
    """The points with one more coordinate that gives them all the same coordinate sum."""
    top = max(map(sum, points))
    return [(*p, top - sum(p)) for p in points]


def test_f_vector_of_cube_and_octahedron():
    cube = list(product((0, 1), repeat=3))
    octahedron = [tuple(1 + s * (i == j) for j in range(3)) for i in range(3) for s in (-1, 1)]
    assert f_vector(_lifted(cube)).counts == (8, 12, 6)
    assert f_vector(_lifted(octahedron)).counts == (6, 12, 8)


def _incidence(model):
    cols = distinct_columns(model, 3, 4)
    hrep = cone_facets(cols)
    return vertices_by_facet_rank(cols, hrep), hrep


@pytest.mark.parametrize("model", [Model.D, Model.C])
def test_f_vector_fails_without_any_one_facet(model):
    verts, hrep = _incidence(model)
    for i in range(len(hrep.inequalities)):
        dropped = replace(hrep, inequalities=hrep.inequalities[:i] + hrep.inequalities[i + 1 :])
        with pytest.raises(AssertionError):
            f_vector_from_incidence(verts, dropped)


def test_f_vector_fails_without_any_one_vertex():
    verts, hrep = _incidence(Model.C)
    assert len(verts) == 24
    for i in range(len(verts)):
        with pytest.raises(AssertionError):
            f_vector_from_incidence(verts[:i] + verts[i + 1 :], hrep)


def test_each_face_walk_check_can_fail():
    verts, hrep = _incidence(Model.D)
    with pytest.raises(AssertionError, match="face walk has 1 levels"):
        f_vector_from_incidence(verts, replace(hrep, inequalities=hrep.inequalities[:1]))
    with pytest.raises(AssertionError, match="last level is not one face per vertex"):
        f_vector_from_incidence(verts, replace(hrep, inequalities=hrep.inequalities[1:]))
    verts, hrep = _incidence(Model.C)
    with pytest.raises(AssertionError, match="Euler relation violated"):
        f_vector_from_incidence(verts[1:], hrep)


def test_face_walk_computes_one_affine_rank(monkeypatch):
    verts, hrep = _incidence(Model.C)
    calls = []
    rank = polyhedra.affine_rank
    monkeypatch.setattr(polyhedra, "affine_rank", lambda points: calls.append(len(points)) or rank(points))
    assert f_vector_from_incidence(verts, hrep).counts == (24, 156, 434, 606, 444, 162, 24)
    assert calls == [24]


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
    # criterion 8 checks T=4..8; the lattice-point claim holds on the next two, too
    assert integer_points_equal_columns(9)
    assert integer_points_equal_columns(10)


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
    from thmc.stategraph import classify_Gmn, graph_of_transition_vector, middle_class_decomposition

    x = column_of_word(Model.D, 3, (1, 2, 1, 2, 1, 2, 1, 2, 3, 1, 2, 3, 1))
    cls = classify_Gmn(graph_of_transition_vector(x, 3))
    assert (cls.m, cls.n) == (3, 2)
    y, z = middle_class_decomposition(x)
    assert tuple((a + b) // 2 for a, b in zip(y, z)) == x
    ycls = classify_Gmn(graph_of_transition_vector(y, 3))
    zcls = classify_Gmn(graph_of_transition_vector(z, 3))
    assert {ycls.m, zcls.m} == {0, 6}
    cols = model_d_columns(13)
    assert tuple(y) in cols and tuple(z) in cols
    verts = set(vertices_by_facet_rank(cols, cone_facets(cols)))
    assert x not in verts


def test_every_middle_class_graph_is_a_midpoint_of_two_columns():
    # the finite-vertex proof step: each model-d column in script G of class 3 <= m <= p-3 splits as (y + z) / 2,
    # y != z columns
    from thmc.stategraph import classify_Gmn, graph_of_transition_vector, middle_class_decomposition

    split = 0
    for T in range(13, 26):
        cols = set(model_d_columns(T))
        p = (T - 1) // 2
        for x in cols:
            cls = classify_Gmn(graph_of_transition_vector(x, 3))
            if cls.member_of_script_G and 3 <= cls.m <= p - 3:
                y, z = middle_class_decomposition(x)
                assert y != z and y in cols and z in cols, (T, x)
                assert tuple(a + b for a, b in zip(y, z)) == tuple(2 * v for v in x)
                split += 1
    assert split == 654


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


@pytest.mark.parametrize("model, T, adds", [(Model.D, 25, 9), (Model.C, 9, 162)])
def test_cone_facets_echelon_stops_at_full_rank(monkeypatch, model, T, adds):
    # d/S=3/T=25 is full-dimensional: fed most zeros first, 9 of its 1,899 columns reach rank 6, and the rest are skipped;
    # c/S=3/T=9 has one span equation, so every one of its 162 columns is read
    added = []

    class CountingLattice(IntLattice):
        def add(self, vector):
            added.append(vector)
            super().add(vector)

    monkeypatch.setattr(polyhedra, "IntLattice", CountingLattice)
    cols = distinct_columns(model, 3, T)
    hrep = cone_facets(cols)
    assert len(added) == adds and len(hrep.equations) == (model is Model.C)
    assert (len(added) < len(cols)) == (model is Model.D)


def test_normals_block_text_roundtrip():
    normals = [(2, 2, 2, -1, -1, -1), (-1, -1, -1, 2, 2, 2)]
    text = normals_to_block_text(normals)
    assert normals_from_block_text(text) == tuple(sorted(normals))

