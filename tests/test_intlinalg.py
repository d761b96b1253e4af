"""Smith normal form, lattices, kernels, pivot paths."""

import random
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from thmc.design import Model, column_of_word, iter_columns
from thmc.intlinalg import (
    DimensionMismatch,
    IntLattice,
    det_bareiss,
    kernel_lattice_basis,
    mat_mul,
    mat_vec,
    primitive_vector,
    residue_test,
    SnfResult,
    _unimodular,
    _verify_snf,
    smith_normal_form,
)
from thmc.stategraph import pivot_paths


def _design_rows(model, S, T):
    cols = [col for _, col in iter_columns(model, S, T)]
    return tuple(zip(*cols))


def test_snf_identity():
    snf = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert snf.diagonal == (1, 1, 1)
    assert snf.U == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert snf.V == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_snf_model_b_3_5():
    snf = smith_normal_form(_design_rows(Model.B, 3, 5))
    assert snf.diagonal == (1, 1, 1, 1, 1, 1, 1, 1, 4)


def test_snf_model_d_3_6():
    snf = smith_normal_form(_design_rows(Model.D, 3, 6))
    assert snf.diagonal == (1, 1, 1, 1, 1, 5)


@st.composite
def _int_matrices(draw):
    """1..6 x 1..6 integer matrices, some with a zero row or column or a dependent row."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c), min_size=r, max_size=r))
    for i in draw(st.sets(st.integers(0, r - 1), max_size=1)):
        rows[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=1)):
        for row in rows:
            row[j] = 0
    if r > 1 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[r - 2])]
    return rows


@given(_int_matrices())
@settings(max_examples=150)
def test_snf_random_matrices_verify(rows):
    # the verification inside smith_normal_form asserts U*A*V = D and
    # unimodularity; surviving the call is the property
    snf = smith_normal_form(rows)
    for a, b in zip(snf.diagonal, snf.diagonal[1:]):
        assert b % a == 0
    # independently: d_1 ... d_k is the gcd of the k x k minors (0 beyond the rank)
    r, c = len(rows), len(rows[0])
    for k in range(1, min(r, c) + 1):
        minors = [det_bareiss([[rows[i][j] for j in cols] for i in rs])
                  for rs in combinations(range(r), k) for cols in combinations(range(c), k)]
        assert gcd(*minors) == (prod(snf.diagonal[:k]) if k <= snf.rank else 0)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _diag(entries):
    return tuple(tuple(x if i == j else 0 for j in range(len(entries))) for i, x in enumerate(entries))


# 1 + p1*p2*p3 for three 62/63-bit primes: +-1 modulo each of them, so no
# determinant check modulo those primes tells this V from a unimodular one
_MODULAR_IMPOSTOR = 1 + 2305843009213693951 * 4611686018427387847 * 9223372036854775783


@pytest.mark.parametrize(
    "A, U, V, diagonal, message",
    [
        (_identity(2), _identity(2), ((1, 1), (0, 1)), (1, 1), "not the diagonal"),
        (_diag((2, 3)), _identity(2), _identity(2), (2, 3), "divisibility chain"),
        (_diag((1, 2)), _diag((2, 1)), _identity(2), (2, 2), "U not unimodular"),
        (_identity(2), _identity(2), _diag((1, 2)), (1, 2), "V not unimodular"),
        (_identity(150), _identity(150), _diag((1,) * 149 + (-1,)), (1,) * 149 + (-1,), "divisibility chain"),
        (_identity(151), _identity(151), _diag((1,) * 150 + (3,)), (1,) * 150 + (3,), "V not unimodular"),
        (_identity(151), _identity(151), _diag((1,) * 150 + (_MODULAR_IMPOSTOR,)), (1,) * 150 + (_MODULAR_IMPOSTOR,), "V not unimodular"),
    ],
    ids=["off-diagonal", "chain", "U", "V-small", "negative-factor", "V-151", "V-151-modular-impostor"],
)
def test_verify_snf_refuses_a_wrong_certificate(A, U, V, diagonal, message):
    with pytest.raises(AssertionError, match=message):
        _verify_snf(A, SnfResult(U=U, V=V, diagonal=diagonal))


def test_verify_snf_accepts_a_determinant_minus_one_at_151_columns():
    swap = ((0, 1) + (0,) * 149, (1,) + (0,) * 150) + _identity(151)[2:]
    _verify_snf(swap, SnfResult(U=_identity(151), V=swap, diagonal=(1,) * 151))


@st.composite
def _square_matrices(draw, max_n: int, bound: int):
    n = draw(st.integers(1, max_n))
    row = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@given(_square_matrices(5, 9))
@settings(max_examples=80, deadline=None)
def test_scaled_inverse_of_nonsingular_matrices(M):
    det = det_bareiss(M)
    assume(det != 0)
    N, vol = smith_normal_form(M).scaled_inverse()
    assert vol == abs(det)
    n = len(M)
    assert mat_mul(N, M) == [[vol if i == j else 0 for j in range(n)] for i in range(n)]


@given(_square_matrices(5, 9), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_scaled_inverse_rejects_singular_matrices(M, k):
    M[-1] = [k * x for x in M[0]] if len(M) > 1 else [0]
    with pytest.raises(AssertionError, match="singular"):
        smith_normal_form(M).scaled_inverse()


@given(_square_matrices(5, 2))
@settings(max_examples=150, deadline=None)
def test_unimodular_agrees_with_the_determinant(M):
    assert _unimodular(M) == (abs(det_bareiss(M)) == 1)


def test_scaled_inverse_needs_a_square_matrix():
    with pytest.raises(DimensionMismatch):
        smith_normal_form([[1, 0, 0], [0, 1, 0]]).scaled_inverse()


def test_det_bareiss():
    assert det_bareiss([[2, 0], [0, 3]]) == 6
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1


def test_lattice_membership_column_generator():
    rows = _design_rows(Model.D, 3, 5)
    col = column_of_word(Model.D, 3, (1, 2, 1, 2, 1))
    assert smith_normal_form(rows).contains(col)


def test_lattice_membership_unit_vector_fails():
    rows = _design_rows(Model.B, 3, 5)
    e11 = tuple(1 if i == 0 else 0 for i in range(9))
    snf = smith_normal_form(rows)
    assert not snf.contains(e11)
    assert not residue_test(e11, 5)
    with pytest.raises(DimensionMismatch, match="vector length 8 != row count 9"):
        snf.contains(e11[1:])


def test_residue_test_values():
    assert residue_test([0, 0, 0, 0], 5)
    assert residue_test([1, 1, 1, 1], 5)
    assert not residue_test([1, 1, 1, 2], 5)


@pytest.mark.parametrize("model,S,T", [(Model.B, 2, 4), (Model.B, 2, 6), (Model.D, 3, 4), (Model.D, 3, 6)])
def test_membership_equals_residue_on_random_vectors(model, S, T):
    rows = _design_rows(model, S, T)
    snf = smith_normal_form(rows)
    rng = random.Random(3)
    for _ in range(120):
        y = [rng.randint(-8, 8) for _ in range(len(rows))]
        assert snf.contains(y) == residue_test(y, T)


def test_kernel_lattice_basis_trivial():
    assert kernel_lattice_basis([[1, 1]]) == [(1, -1)] or kernel_lattice_basis([[1, 1]]) == [(-1, 1)]


def test_kernel_lattice_basis_design():
    rows = _design_rows(Model.D, 3, 4)
    basis = kernel_lattice_basis(rows)
    assert len(basis) == 24 - 6  # rank-nullity with full row rank 6
    for z in basis:
        assert not any(mat_vec(rows, z))


@given(st.integers(2, 4), st.integers(2, 6))
@settings(max_examples=20)
def test_kernel_rank_nullity(r, c):
    rng = random.Random(r * 10 + c)
    rows = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
    snf = smith_normal_form(rows)
    assert len(kernel_lattice_basis(rows)) == c - snf.rank


def test_int_lattice_streaming_matches_direct():
    rows = _design_rows(Model.D, 3, 5)
    cols = list(zip(*rows))
    lat = IntLattice.from_vectors(6, cols)
    snf = smith_normal_form(rows)
    rng = random.Random(5)
    for _ in range(200):
        y = [rng.randint(-6, 6) for _ in range(6)]
        assert lat.contains(y) == snf.contains(y)
    assert lat.invariant_factors() == snf.diagonal


def test_int_lattice_coordinates_roundtrip():
    lat = IntLattice.from_vectors(3, [(2, 0, 1), (0, 3, 1), (1, 1, 1)])
    target = [2 * 2 + 0 - 1, 0 + 3 - 1, 2 + 1 - 1]
    coeffs = lat.coordinates(target)
    assert coeffs is not None
    rows = lat.echelon_rows()
    rebuilt = [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(3)]
    assert rebuilt == target


# pivot paths ---------------------------------------------------------------

def test_pivot_path_printed_examples():
    pair = pivot_paths(2, 1, 3, 6, "type1")
    assert pair.P == (2, 1, 2, 1, 2, 3) and pair.Q == (2, 3, 2, 1, 2, 1)
    pair = pivot_paths(2, 1, 3, 7, "type2")
    assert pair.P == (3, 2, 3, 1, 2, 1, 2) and pair.Q == (3, 1, 2, 3, 1, 2, 1)
    pair = pivot_paths(2, 1, 3, 7, "type1")
    assert pair.P == (2, 3, 1, 2, 1, 2, 3) and pair.Q == (2, 3, 2, 3, 1, 2, 1)
    pair = pivot_paths(2, 1, 3, 6, "type2")
    assert pair.P == (3, 2, 1, 2, 1, 2) and pair.Q == (3, 1, 2, 1, 2, 1)


def test_pivot_path_difference_contract():
    from itertools import permutations

    for T in range(4, 13):
        for i, j, k in permutations((1, 2, 3)):
            for kind in ("type1", "type2"):
                pair = pivot_paths(i, j, k, T, kind)
                diff = [a - b for a, b in zip(column_of_word(Model.D, 3, pair.P), column_of_word(Model.D, 3, pair.Q))]
                pairs = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]
                nonzero = {pairs[idx]: v for idx, v in enumerate(diff) if v}
                assert nonzero == {pair.plus: 1, pair.minus: -1}


def test_pivot_path_difference_T6_example():
    pair = pivot_paths(2, 1, 3, 6, "type1")
    diff = [a - b for a, b in zip(column_of_word(Model.D, 3, pair.P), column_of_word(Model.D, 3, pair.Q))]
    assert diff == [1, 0, 0, 0, 0, -1]  # +1 at (1,2), -1 at (3,2)


def test_pivot_path_rejects_bad_indices():
    with pytest.raises(ValueError):
        pivot_paths(1, 1, 2, 6, "type1")
    with pytest.raises(ValueError):
        pivot_paths(1, 2, 3, 3, "type1")


def test_primitive_vector():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((0, 0)) == (0, 0)
    assert primitive_vector((-6, 4, 0)) == (-3, 2, 0)  # a negative entry keeps its sign
    assert primitive_vector((-7,)) == (-1,)
    assert primitive_vector(()) == ()
    assert primitive_vector((3, 5, -4)) == (3, 5, -4)  # gcd 1
