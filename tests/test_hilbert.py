"""Hilbert bases, the brute-force oracle, normality, witnesses."""

import hashlib
import random
import sys
from dataclasses import replace
from itertools import product
from math import prod
from operator import le, mul, sub

import pytest
from hypothesis import assume, given, settings, strategies as st

import thmc.design
import thmc.hilbert
from thmc.design import Model, SizeCapExceeded, distinct_columns
from thmc.hilbert import (
    RangeExceeded,
    WitnessVerificationFailed,
    _parallelepiped_points,
    _placing_triangulation,
    hilbert_basis,
    hilbert_basis_bruteforce_oracle,
    nonnormality_witness,
)
from thmc.intlinalg import IntLattice, PackedNormals, det_bareiss, identity_matrix, l1_reach, mat_vec, primitive_vector, smith_normal_form
from thmc.polyhedra import cone_facets, vertices_by_facet_rank


def test_hb_model_d_T4():
    result = hilbert_basis(Model.D, 3, 4)
    assert result.count == 20 and result.normal
    assert set(result.elements) == set(distinct_columns(Model.D, 3, 4))


def test_hb_model_c_T4():
    result = hilbert_basis(Model.C, 3, 4)
    assert result.count == 24 and result.normal


def test_hb_model_d_T9():
    result = hilbert_basis(Model.D, 3, 9)
    assert result.count == 123 and result.normal


def test_hb_elements_in_lattice_and_cone():
    result = hilbert_basis(Model.D, 3, 5)
    cols = distinct_columns(Model.D, 3, 5)
    lat = IntLattice.from_vectors(6, cols)
    hrep = cone_facets(cols)
    for v in result.elements:
        assert lat.contains(v)
        assert all(sum(a * b for a, b in zip(h, v)) >= 0 for h in hrep.inequalities)


def test_hb_minimality_pairwise():
    result = hilbert_basis(Model.D, 3, 5)
    elems = set(result.elements)
    for a in elems:
        for b in elems:
            s = tuple(x + y for x, y in zip(a, b))
            assert s not in elems


def test_range_cap():
    with pytest.raises(RangeExceeded):
        hilbert_basis(Model.D, 3, 16)
    # the cap is configurable: model (b) defaults to T <= 10 but runs fine above
    with pytest.raises(RangeExceeded):
        hilbert_basis(Model.B, 2, 12)
    assert not hilbert_basis(Model.B, 2, 12, max_T=12).normal
    assert hilbert_basis(Model.D, 5, 2, max_T=2).count == 20  # max_T also admits an S without a default cap


def test_range_cap_knows_S(monkeypatch):
    def no_work(*args):
        raise AssertionError("columns were built before the cap was checked")

    monkeypatch.setattr(thmc.hilbert, "distinct_columns", no_work)
    with pytest.raises(RangeExceeded, match="T=4 beyond configured cap 3 for model d at S=4"):
        hilbert_basis(Model.D, 4, 4)
    for S in (1, 5):  # an unmeasured S has no default cap
        with pytest.raises(RangeExceeded, match=f"no default T cap for model d at S={S}"):
            hilbert_basis(Model.D, S, 3)


# sha256 of to_csv() for the with-loop models at S=3
A_AND_B_PINS = [
    pytest.param(Model.B, 4, 87, False, "940cba6996eab29d508ccea8111672e4fe52c8816f59f9e78c91608b192fbbff"),
    pytest.param(
        Model.B, 5, 189, False, "dbbb630ad0c3c574d582b9bfb4412d387f59f939ea87a5d90f5ec4208b65d399", marks=pytest.mark.slow
    ),
    pytest.param(Model.A, 3, 27, True, "63633772fe0ca51447ca9734447d87edbc0aa886cc87c3e2e72cb6d14f3ad1bc"),
    pytest.param(
        Model.A, 4, 87, False, "f3a2101c508f62b523a0c16450d40f6be7e22a912d2bcabfbaa3d7a37947bab0", marks=pytest.mark.slow
    ),
]


@pytest.mark.parametrize("model,T,count,normal,digest", A_AND_B_PINS)
def test_hb_models_a_and_b_S3_pins(model, T, count, normal, digest):
    result = hilbert_basis(model, 3, T)
    assert (result.count, result.normal) == (count, normal)
    assert hashlib.sha256(result.to_csv().encode()).hexdigest() == digest


def test_normality_examples():
    assert hilbert_basis(Model.D, 3, 6).normal
    assert hilbert_basis(Model.C, 3, 5).normal
    assert not hilbert_basis(Model.B, 2, 4).normal


def test_nonnormal_b_witness_is_basis_element():
    result = hilbert_basis(Model.B, 2, 4)
    assert (1, 0, 0, 2) in result.elements
    assert (1, 0, 0, 2) not in set(distinct_columns(Model.B, 2, 4))


def test_model_a_S2_normal_small_range():
    for T in (3, 4, 5, 6, 7, 8):
        assert hilbert_basis(Model.A, 2, T).normal


@pytest.mark.slow
def test_model_a_S2_normal_default_range():
    # the sweep the two-state normality conjecture rests on (default cap 30)
    for T in range(3, 31):
        assert hilbert_basis(Model.A, 2, T).normal


@pytest.mark.slow
def test_hb_model_d_S4_T4():
    # the S=4 case beyond the default cap that the placing order cuts most
    result = hilbert_basis(Model.D, 4, 4, max_T=4)
    assert (result.count, result.normal) == (98, False)


def test_oracle_empty_cap():
    assert hilbert_basis_bruteforce_oracle(Model.D, 3, 4, 0) == ()


@pytest.mark.parametrize(
    "model,S,T,cap,count,not_columns",
    [(Model.D, 3, 4, 3, 20, 0), (Model.C, 3, 4, 2, 24, 0), (Model.B, 2, 5, 4, 21, 3), (Model.A, 3, 4, 2, 87, 12)],
)
def test_oracle_agrees_with_main(model, S, T, cap, count, not_columns):
    # b/S=2/T=5 and a/S=3/T=4 are not normal: the reduction must keep irreducibles that are not columns
    main = hilbert_basis(model, S, T)
    capped = tuple(sorted(v for v in main.elements if sum(v) <= cap * model.column_sum(T)))
    oracle = hilbert_basis_bruteforce_oracle(model, S, T, cap)
    assert oracle == capped and len(oracle) == count
    assert len(set(oracle) - set(distinct_columns(model, S, T))) == not_columns


def test_oracle_uses_no_double_description(monkeypatch):
    # the oracle decides by flow balance, lattice membership and the exact LP alone
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached a double-description or triangulation route")

    names = ("cone_facets", "dual_description", "vertices_by_facet_rank", "hilbert_basis")
    for module in [m for name, m in sys.modules.items() if name == "thmc" or name.startswith("thmc.")]:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    # d/S=3/T=4 is normal, so its Hilbert basis is its columns
    assert hilbert_basis_bruteforce_oracle(Model.D, 3, 4, 3) == distinct_columns(Model.D, 3, 4)


def test_witness_a_3_4():
    assert nonnormality_witness(Model.A, 3, 4) == (1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 2, 1)


def test_witness_a_3_6():
    assert nonnormality_witness(Model.A, 3, 6) == (1, 0, 1, 3, 1, 0, 0, 0, 1, 0, 2, 3)


def test_witness_a_3_10_beyond_the_fiber_word_cap():
    # 3^10 = 59,049 words, over enumerate_fiber's cap of 20,000; the witness reads the 4,662 distinct columns
    assert nonnormality_witness(Model.A, 3, 10) == (1, 0, 1, 7, 1, 0, 0, 0, 1, 0, 2, 7)


@pytest.mark.parametrize("T", [14, 15])
def test_witness_a_3_at_T_14_and_15(T):
    # as a word fiber, T=14 streamed 4,782,969 words and T=15's 14,348,907 were over the cap of 10^7;
    # the distinct columns (35,955 at T=15) stay within it
    assert nonnormality_witness(Model.A, 3, T) == (1, 0, 1, T - 3, 1, 0, 0, 0, 1, 0, 2, T - 3)


def test_witness_a_3_25_is_refused_before_the_column_walk(monkeypatch):
    # 3^25 words and C(32, 8) = 10,518,300 compositions of T-1 both exceed the cap of 10^7
    real = thmc.hilbert.distinct_columns

    def refuse(*args):
        raise AssertionError("the column walk started")

    def walk_refused(*args):  # checks (i), (ii) and the formula read columns of words; the walk may not start
        monkeypatch.setattr(thmc.design, "_rows", refuse)
        return real(*args)

    monkeypatch.setattr(thmc.hilbert, "distinct_columns", walk_refused)
    with pytest.raises(SizeCapExceeded, match="both exceed the cap"):
        nonnormality_witness(Model.A, 3, 25)


def test_witness_b_2_5():
    assert nonnormality_witness(Model.B, 2, 5) == (1, 0, 0, 3)


def test_witness_b_3_4():
    h = nonnormality_witness(Model.B, 3, 4)
    assert sum(h) == 3
    assert h[0] == 1  # the (1,1) transition coordinate


def test_witness_a_4_5():
    h = nonnormality_witness(Model.A, 4, 5)
    assert len(h) == 4 + 16
    # only states 1..3 participate; all state-4 coordinates are zero
    assert h[3] == 0


def test_witness_rejects_wrong_models():
    with pytest.raises(ValueError):
        nonnormality_witness(Model.D, 3, 5)
    with pytest.raises(ValueError):
        nonnormality_witness(Model.A, 2, 5)  # printed witness needs S >= 3


@pytest.mark.parametrize("model,S,T", [(Model.A, 3, 4), (Model.B, 2, 5)])
def test_witness_fails_when_its_fiber_is_not_empty(monkeypatch, model, S, T):
    # check (iii) must reject h once it is a sum of deg(h) columns: the degree-1 h of b/S=2/T=5
    # once h is a column, the degree-2 h of a/S=3/T=4 once h - c is one for a column c <= h
    h = nonnormality_witness(model, S, T)
    real = thmc.hilbert.distinct_columns

    def with_a_solution(model, S, T):
        columns = real(model, S, T)
        if model is Model.A:
            c = next(c for c in columns if all(map(le, c, h)))
            return tuple(sorted(columns + (tuple(map(sub, h, c)),)))
        return tuple(sorted(columns + (h,)))

    monkeypatch.setattr(thmc.hilbert, "distinct_columns", with_a_solution)
    with pytest.raises(WitnessVerificationFailed, match="non-negative integer solution"):
        nonnormality_witness(model, S, T)


def test_witness_beyond_degree_2_is_refused(monkeypatch):
    # a/S=4/T=5 has no printed formula to compare with; doubled columns double h to degree 4
    real = thmc.hilbert.column_of_word
    monkeypatch.setattr(thmc.hilbert, "column_of_word", lambda model, S, w: tuple(2 * x for x in real(model, S, w)))
    with pytest.raises(WitnessVerificationFailed, match="degree 4"):
        nonnormality_witness(Model.A, 4, 5)


@pytest.mark.parametrize(
    "word,message",
    [((1, 1, 1, 2), "rational combination is not integral"), ((1, 1, 2, 3), "lattice combination does not match h")],
)
def test_witness_fails_when_a_combination_is_off(monkeypatch, word, message):
    # checks (i) and (ii): one coordinate of one word's column is bumped, a word
    # of the rational combination (coefficient 1/2) or one only the lattice one uses
    real = thmc.hilbert.column_of_word

    def bumped(model, S, w):
        column = real(model, S, w)
        return (column[0] + 1,) + column[1:] if tuple(w) == word else column

    monkeypatch.setattr(thmc.hilbert, "column_of_word", bumped)
    with pytest.raises(WitnessVerificationFailed, match=message):
        nonnormality_witness(Model.A, 3, 4)


def test_hb_export_formats():
    result = hilbert_basis(Model.D, 3, 4)
    csv = result.to_csv()
    assert len(csv.strip().splitlines()) == 20
    summary = result.summary()
    assert summary["count"] == 20 and summary["normal"] is True


def _walk(rays, N, vol):
    """The parallelepiped points of plain rays, through a pack of their coordinates alone; the pack; the ray forms."""
    r = len(rays)
    pack = PackedNormals(identity_matrix(r), r * l1_reach(rays))
    forms = [pack.value(ray) - pack.guard for ray in rays]
    points = _parallelepiped_points(forms, pack.coords, N, vol)
    return [tuple(pack.decode(pack.guard + p)) for p in points], pack, forms


@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
@settings(max_examples=60, deadline=None)
def test_parallelepiped_points_match_brute_force(R):
    assume(det_bareiss(R) != 0)
    n = len(R)
    N, vol = smith_normal_form(R).scaled_inverse()
    rays = [tuple(R[i][j] for i in range(n)) for j in range(n)]
    points = _walk(rays, N, vol)[0]
    box = [range(sum(min(x, 0) for x in row), sum(max(x, 0) for x in row) + 1) for row in R]
    expected = {
        x
        for x in product(*box)
        if any(x) and all(0 <= sum(a * b for a, b in zip(row, x)) < vol for row in N)
    }
    assert len(points) == len(set(points))
    assert set(points) == expected


def test_parallelepiped_order_check_catches_a_dropped_generator():
    # R = diag(2, 3): N = diag(3, 2), vol 6, and the columns of N mod 6 generate orders 2 and 3
    rays = [(2, 0), (0, 3)]
    assert len(_walk(rays, [(3, 0), (0, 2)], 6)[0]) == 5
    for dropped in ([(0, 0), (0, 2)], [(3, 0), (0, 0)]):
        with pytest.raises(AssertionError, match="order"):
            _walk(rays, dropped, 6)


def test_parallelepiped_walk_reads_no_generator_after_the_group_is_complete():
    # rays (1, 1), (0, 3): N = [[3, 0], [-1, 1]] and vol 3, so the first column of N, (0, 2) mod 3, generates the group
    rays = [(1, 1), (0, 3)]
    N, vol = smith_normal_form([[1, 0], [1, 3]]).scaled_inverse()
    points, pack, forms = _walk(rays, N, vol)
    assert sorted(points) == [(0, 1), (0, 2)]
    pulled = []

    def units():
        for unit in pack.coords:
            pulled.append(unit)
            yield unit

    got = _parallelepiped_points(forms, units(), N, vol)
    assert sorted(tuple(pack.decode(pack.guard + p)) for p in got) == sorted(points)
    assert len(pulled) == 1


def _unimodular(rng, r, bound):
    """L U for unit lower and upper triangular L and U with off-diagonal entries up to +-bound."""
    L = [[1 if i == j else rng.randint(-bound, bound) if i > j else 0 for j in range(r)] for i in range(r)]
    U = [[1 if i == j else rng.randint(-bound, bound) if i < j else 0 for j in range(r)] for i in range(r)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*U)] for row in L]


def _wide_simplex(diagonal):
    """Rays R = U D V for unimodular U, V of entries up to about 10^6 (wide fields, small vol), with N and vol."""
    rng = random.Random(sum(diagonal))
    r = len(diagonal)
    U, V = _unimodular(rng, r, 1000), _unimodular(rng, r, 1000)
    R = [[U[i][j] * diagonal[j] for j in range(r)] for i in range(r)]
    R = [[sum(a * b for a, b in zip(row, col)) for col in zip(*V)] for row in R]
    N, vol = smith_normal_form(R).scaled_inverse()
    rays = [tuple(R[i][j] for i in range(r)) for j in range(r)]
    assert vol == prod(diagonal) and max(abs(x) for ray in rays for x in ray) > 10**9
    return rays, N, vol


WIDE = [(2, 3), (1, 1, 6), (1, 2, 4), (1, 1, 2, 3), (1, 2, 2, 2), (1, 1, 1, 7)]


@pytest.mark.parametrize("diagonal", WIDE)
def test_packed_point_mapping_matches_the_plain_formula(diagonal):
    rays, N, vol = _wide_simplex(diagonal)
    r = len(rays)
    # the parallelepiped points are R c / vol for the nonzero c in [0, vol)^r that make it integral
    expected = []
    for c in product(range(vol), repeat=r):
        num = [sum(x * ray[i] for x, ray in zip(c, rays)) for i in range(r)]
        if any(c) and all(x % vol == 0 for x in num):
            expected.append(tuple(x // vol for x in num))
    points = _walk(rays, N, vol)[0]
    assert len(points) == vol - 1 and sorted(points) == sorted(expected)
    # every N entry off by +-1 breaks N R = vol I: the group order or the checksum must refuse it
    for i, j, delta in product(range(r), range(r), (1, -1)):
        mutated = [list(row) for row in N]
        mutated[i][j] += delta
        with pytest.raises(AssertionError, match="order|checksum"):
            _walk(rays, mutated, vol)


@pytest.mark.parametrize("diagonal", WIDE)
def test_parallelepiped_checksum_catches_a_corrupted_form(diagonal):
    # a unit or ray form off by one in some field either leaves every point as it was or fails the checksum
    rays, N, vol = _wide_simplex(diagonal)
    points, pack, forms = _walk(rays, N, vol)
    raised = 0
    for which, k, f, delta in product((0, 1), range(len(rays)), range(pack.count), (1, -1)):
        walked = [list(forms), list(pack.coords)]  # the ray forms, the unit forms
        walked[which][k] += delta << (pack.width * f)
        try:
            got = _parallelepiped_points(*walked, N, vol)
        except AssertionError as error:
            assert "checksum" in str(error)
            raised += 1
        else:
            assert sorted(tuple(pack.decode(pack.guard + p)) for p in got) == sorted(points)
    assert raised


def _walk_adding(monkeypatch, extra):
    """Make hilbert_basis's parallelepiped walk also yield extra(rays, pack) for every simplex.

    ``pack`` is the candidates' PackedNormals: the one whose coordinates are the walk's units.
    """
    real_walk = thmc.hilbert._parallelepiped_points
    packs = []

    class Spy(PackedNormals):
        def __init__(self, *args):
            super().__init__(*args)
            packs.append(self)

    def walk(rays, units, N, vol):
        pack = next(p for p in packs if p.coords is units)
        return real_walk(rays, units, N, vol) + [extra(rays, pack)]

    monkeypatch.setattr(thmc.hilbert, "PackedNormals", Spy)
    monkeypatch.setattr(thmc.hilbert, "_parallelepiped_points", walk)


def test_reduction_refuses_a_candidate_outside_the_cone(monkeypatch):
    # the negative of a ray is in the lattice but not in the cone
    _walk_adding(monkeypatch, lambda rays, pack: -rays[0])
    with pytest.raises(AssertionError, match="escaped the cone"):
        hilbert_basis("d", 3, 5)


def test_reduction_refuses_a_candidate_of_fractional_degree(monkeypatch):
    # a ray with its weight field one too high: its facet values keep it in the cone, its degree is 1 + 1/(T - 1)
    _walk_adding(monkeypatch, lambda rays, pack: rays[0] + (1 << pack.width * (pack.count - 1)))
    with pytest.raises(AssertionError, match="degree is not integral"):
        hilbert_basis("d", 3, 5)


def test_one_smith_form_per_hilbert_basis(monkeypatch):
    # only the first simplex takes a Smith form; every later one is a column exchange
    real_snf = thmc.hilbert.smith_normal_form
    real_placing = thmc.hilbert._placing_triangulation
    calls = []
    simplices = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real_snf(*args, **kwargs)

    def placing(*args, **kwargs):
        for item in real_placing(*args, **kwargs):
            simplices.append(item[0])
            yield item

    monkeypatch.setattr(thmc.hilbert, "smith_normal_form", counted)
    monkeypatch.setattr(thmc.hilbert, "_placing_triangulation", placing)
    hilbert_basis("d", 3, 5)
    # d/S=3/T=5 takes 190 simplices in lex order, 159 with the extreme rays first (in lex order) and 128
    # by falling count of tight facets; c/S=3/T=4, whose 24 rays are all extreme, 213, 213 and 183
    assert (len(calls), len(simplices)) == (1, 128)
    calls.clear()
    simplices.clear()
    hilbert_basis("c", 3, 4)
    assert (len(calls), len(simplices)) == (1, 183)


def test_placing_cross_check_catches_a_dropped_facet(monkeypatch):
    # the boundary normals of the triangulation must be the facet normals of the double description
    real = thmc.hilbert.cone_facets

    def one_facet_short(columns):
        hrep = real(columns)
        return replace(hrep, inequalities=hrep.inequalities[1:])

    def one_facet_wrong(columns):
        # as many normals as facets, but the first is the sum of two facet normals: valid, yet no facet
        hrep = real(columns)
        first = tuple(map(sum, zip(*hrep.inequalities[:2])))
        return replace(hrep, inequalities=(first,) + hrep.inequalities[1:])

    for mutated in (one_facet_short, one_facet_wrong):
        monkeypatch.setattr(thmc.hilbert, "cone_facets", mutated)
        with pytest.raises(AssertionError, match="boundary normals"):
            hilbert_basis("d", 3, 6)


def test_placing_overlap_check_catches_a_same_side_neighbour(monkeypatch):
    # outward normals make a ray see the facets it lies inside of, so its simplex stacks on its neighbour
    def outward(row):
        return tuple(-x for x in primitive_vector(row))

    monkeypatch.setattr(thmc.hilbert, "primitive_vector", outward)
    with pytest.raises(AssertionError, match="overlaps its neighbour"):
        list(_placing_triangulation([(1, 0), (0, 1), (1, 1)], 2, {(1, 0), (0, 1)}))


def _lattice_directions(model, T):
    """Primitive column directions in lex, extreme-first and shipped placing order, the rank and the facet normals.

    All in lattice coordinates, as hilbert_basis places them. The shipped order is what hilbert_basis passes to
    _placing_triangulation; the extreme-first order puts the columns that vertices_by_facet_rank finds first, by
    falling count of tight facets, then the rest, ties in lex order.
    """
    cols = distinct_columns(model, 3, T)
    hrep = cone_facets(cols)
    lattice = IntLattice.from_vectors(len(cols[0]), cols)
    B = lattice.echelon_rows()
    direction_of = {c: primitive_vector(lattice.coordinates(c)) for c in cols}
    extreme = {direction_of[c] for c in vertices_by_facet_rank(cols, hrep)}
    normals = {primitive_vector(mat_vec(B, h)) for h in hrep.inequalities}
    lex = sorted(set(direction_of.values()))

    def tight(z):
        return sum(not sum(map(mul, h, z)) for h in normals)

    shipped = []
    real = thmc.hilbert._placing_triangulation
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thmc.hilbert, "_placing_triangulation", lambda rays, *args: shipped.append(rays) or real(rays, *args))
        hilbert_basis(model, 3, T)
    orders = [lex, sorted(lex, key=lambda z: (z not in extreme, -tight(z), z)), shipped[0]]
    return orders, lattice.rank, normals


TRIANGULATED = [(Model.D, 5), (Model.D, 6), (Model.D, 7), (Model.D, 8), (Model.C, 4), (Model.C, 5)]


@pytest.mark.parametrize("model,T", TRIANGULATED)
def test_triangulation_volume_is_order_independent(model, T):
    orders, rank, normals = _lattice_directions(model, T)
    for seed in (1, 2):
        shuffled = list(orders[0])
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    volumes = {sum(vol for _, _, vol in _placing_triangulation(rays, rank, normals)) for rays in orders}
    assert len(volumes) == 1


@pytest.mark.parametrize("model,T", TRIANGULATED)
def test_exchanged_scaled_inverse_matches_the_smith_form(model, T):
    # the Smith form is the independent route to N = vol R^-1 and vol = |det R|
    orders, rank, normals = _lattice_directions(model, T)
    for rays in orders:
        for simplex, N, vol in _placing_triangulation(rays, rank, normals):
            R = [[rays[j][i] for j in simplex] for i in range(rank)]
            N_snf, vol_snf = smith_normal_form(R).scaled_inverse()
            assert (N, vol) == (tuple(map(tuple, N_snf)), vol_snf)


@pytest.mark.parametrize("model,T", TRIANGULATED)
def test_shipped_order_places_the_extreme_first_triangulation(model, T):
    # a direction that is no extreme ray comes after the vertices of its face and adds no simplex; the same
    # simplices may come in another order where a ray's visible facets, sets of index bitmasks, iterate otherwise
    # (d/S=3/T=13 and 15), but on these cases they come in the same order
    (_, extreme_first, shipped), rank, normals = _lattice_directions(model, T)
    assert sorted(shipped) == sorted(extreme_first)
    sequences = [
        [(tuple(rays[j] for j in simplex), N, vol) for simplex, N, vol in _placing_triangulation(rays, rank, normals)]
        for rays in (extreme_first, shipped)
    ]
    assert sequences[0] == sequences[1]


def test_hilbert_basis_runs_no_vertex_test(monkeypatch):
    expected = hilbert_basis("d", 3, 5)

    def refused(*args):
        raise AssertionError("the vertex test ran")

    bound = [module for name, module in sys.modules.items() if name.startswith("thmc") and hasattr(module, "vertices_by_facet_rank")]
    assert thmc.polyhedra in bound
    for module in bound:
        monkeypatch.setattr(module, "vertices_by_facet_rank", refused)
    real = thmc.hilbert._placing_triangulation
    simplices = []
    monkeypatch.setattr(thmc.hilbert, "_placing_triangulation", lambda *args: simplices.extend(real(*args)) or simplices)
    assert hilbert_basis("d", 3, 5) == expected
    assert len(simplices) == 128


def test_exchange_check_catches_a_corrupted_entry(monkeypatch):
    # N R = vol I must refuse an exchanged N with one entry off by one; the shipped order is recorded first
    orders, rank, normals = _lattice_directions(Model.D, 5)
    real = thmc.hilbert._exchange

    def corrupted(N, vol, drop, v):
        rows, vol = real(N, vol, drop, v)
        rows[0] = (rows[0][0] + 1,) + rows[0][1:]
        return rows, vol

    monkeypatch.setattr(thmc.hilbert, "_exchange", corrupted)
    with pytest.raises(AssertionError, match="N R = vol I"):
        list(_placing_triangulation(orders[-1], rank, normals))
