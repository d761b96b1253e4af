"""Exact integer linear algebra.

Smith normal form with verified transformation matrices and the scaled
inverse read off it, incremental Hermite-style lattice bases (the one
elimination behind every rank and independent-subset choice), lattice
membership tests, integer kernels, and the one packed-integer format
(:class:`PackedNormals`) in which a single integer sum evaluates many
dot products at once.

Everything here is arbitrary-precision: inputs and outputs are plain
Python ints, matrices are tuples of row tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import gcd, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]


class DimensionMismatch(ValueError):
    """Vector or matrix dimensions do not line up."""


class DegenerateInput(ValueError):
    """No usable generators (e.g. all columns zero, or too low a rank)."""


def as_int_matrix(rows: Iterable[Sequence[int]]) -> IntMat:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if not mat or not mat[0]:
        raise ValueError("matrix must be non-empty")
    width = len(mat[0])
    if any(len(row) != width for row in mat):
        raise ValueError("ragged rows")
    return mat


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    if len(a[0]) != len(v):
        raise DimensionMismatch(f"cannot apply {len(a)}x{len(a[0])} to vector of length {len(v)}")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def det_bareiss(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    if any(len(row) != n for row in mat):
        raise DimensionMismatch("determinant needs a square matrix")
    m = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[-1][-1]


@dataclass(frozen=True)
class SnfResult:
    """Smith decomposition U*A*V = diag(d_1, d_2, ...) with unimodular U, V.

    ``diagonal`` carries the invariant factors d_1 | d_2 | ... (nonzero
    entries only, positive); every other entry of U*A*V is zero.
    """

    U: IntMat
    V: IntMat
    diagonal: IntVec

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def scaled_inverse(self) -> tuple[list[list[int]], int]:
        """(N, vol) with N = vol * A^-1 = V * diag(vol / d_i) * U and vol = |det A|.

        N * A = A * N = vol * I, so row i of N vanishes on every column of
        A but the i-th and is positive on that one. A must be square and
        nonsingular.
        """
        n = len(self.U)
        if len(self.V) != n:
            raise DimensionMismatch("a scaled inverse needs a square matrix")
        if len(self.diagonal) < n:
            raise AssertionError("matrix is singular")
        vol = prod(self.diagonal)
        scaled_u = [[vol // d * x for x in row] for d, row in zip(self.diagonal, self.U)]
        return mat_mul(self.V, scaled_u), vol

    def contains(self, vector: Sequence[int]) -> bool:
        """Is ``vector`` an integer combination of the columns of A?

        It is iff (U*y)_i is divisible by d_i on the diagonal positions
        and zero on the rank-deficient ones.
        """
        if len(vector) != len(self.U):
            raise DimensionMismatch(f"vector length {len(vector)} != row count {len(self.U)}")
        u_y = mat_vec(self.U, vector)
        return all(x % d == 0 for x, d in zip(u_y, self.diagonal)) and not any(u_y[self.rank:])


def smith_normal_form(matrix: Iterable[Sequence[int]]) -> SnfResult:
    """Smith normal form of an integer matrix, verified exactly on every call.

    Pivoting picks the entry of smallest absolute value in the working
    submatrix; the divisibility chain is enforced by folding offending
    rows back into the pivot row. :func:`_verify_snf` then proves the
    result at every size: U*A*V equals the diagonal entry by entry, and
    the integer echelon shows U and V unimodular.
    """
    A = as_int_matrix(matrix)
    r, c = len(A), len(A[0])
    # One table: row i < r is [M_i | U_i], rows r.. are V. A row operation
    # moves M and U together, a column operation (j < c) M and V together.
    W = [list(row) + e for row, e in zip(A, identity_matrix(r))] + identity_matrix(c)

    def row_addmul(dst: int, src: int, q: int) -> None:
        W[dst] = [x + q * y for x, y in zip(W[dst], W[src])]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for row in W:
            row[dst] += q * row[src]

    def smallest_nonzero(t: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(t, r):
            row = W[i]
            for j in range(t, c):
                x = row[j]
                if x:
                    ax = -x if x < 0 else x
                    if best_abs is None or ax < best_abs:
                        best, best_abs = (i, j), ax
                        if ax == 1:
                            return best
        return best

    # One pivot scan per pass; t advances once the pivot row and column
    # are clear and the pivot divides the rest of the working submatrix.
    t = 0
    limit = min(r, c)
    while t < limit:
        pos = smallest_nonzero(t)
        if pos is None:
            break
        i, j = pos
        W[t], W[i] = W[i], W[t]
        if j != t:
            for row in W:
                row[t], row[j] = row[j], row[t]
        if W[t][t] < 0:
            W[t] = [-x for x in W[t]]
        p = W[t][t]
        for i2 in range(t + 1, r):
            if W[i2][t]:
                row_addmul(i2, t, -(W[i2][t] // p))
        if any(W[i2][t] for i2 in range(t + 1, r)):
            continue
        for j2 in range(t + 1, c):
            if W[t][j2]:
                col_addmul(j2, t, -(W[t][j2] // p))
        if any(W[t][t + 1 : c]):
            continue
        offender = next((i2 for i2 in range(t + 1, r) if any(x % p for x in W[i2][t + 1 : c])), None)
        if offender is not None:
            row_addmul(t, offender, 1)
            continue
        t += 1

    diagonal = tuple(W[i][i] for i in range(limit) if W[i][i])
    result = SnfResult(U=tuple(tuple(row[c:]) for row in W[:r]), V=tuple(map(tuple, W[r:])), diagonal=diagonal)
    _verify_snf(A, result)
    return result


def _verify_snf(A: IntMat, res: SnfResult) -> None:
    """Assert U*A*V = diag(res.diagonal), the divisibility chain, and unimodular U and V."""
    r, c = len(A), len(A[0])
    diagonal = res.diagonal
    expected = [[diagonal[i] if i == j and i < len(diagonal) else 0 for j in range(c)] for i in range(r)]
    if len(diagonal) > min(r, c) or mat_mul(mat_mul(res.U, A), res.V) != expected:
        raise AssertionError("SNF verification failed: U*A*V is not the diagonal")
    if any(d <= 0 for d in diagonal) or any(b % a for a, b in zip(diagonal, diagonal[1:])):
        raise AssertionError("SNF verification failed: divisibility chain broken")
    if not _unimodular(res.U):
        raise AssertionError("SNF verification failed: U not unimodular")
    if not _unimodular(res.V):
        raise AssertionError("SNF verification failed: V not unimodular")


def _unimodular(M: IntMat) -> bool:
    """Is the square M invertible over Z?

    The echelon of its rows comes from M by unimodular row operations,
    so the product of its pivots is |det M|: M is unimodular exactly
    when there is one pivot per row and every pivot is 1.
    """
    lattice = IntLattice.from_vectors(len(M[0]), M)
    return lattice.rank == len(M) == lattice.dim and all(row[p] == 1 for row, p in zip(lattice._rows, lattice._pivots))


class IntLattice:
    """Sublattice of Z^dim generated incrementally from integer vectors.

    The basis is kept in row-echelon form over Z (Hermite-style, gcd
    pivots). Adding vectors is cheap, which is what the design-matrix
    lattices need: columns are streamed in without ever materializing
    the full matrix.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._rows: list[list[int]] = []  # sorted by pivot column
        self._pivots: list[int] = []

    @classmethod
    def from_vectors(cls, dim: int, vectors: Iterable[Sequence[int]]) -> "IntLattice":
        lat = cls(dim)
        for v in vectors:
            lat.add(v)
        return lat

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vector: Sequence[int]) -> None:
        """Insert a generator.

        v's lead is found once; each reduction clears v up to the pivot
        it eliminated, so the next lead is sought only to its right.
        """
        if len(vector) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(vector)}")
        v = [int(x) for x in vector]
        rows, pivots = self._rows, self._pivots
        lead = next((j for j, x in enumerate(v) if x), None)
        idx = 0
        while lead is not None:
            idx = bisect_left(pivots, lead, idx)
            if idx == len(pivots) or pivots[idx] != lead:
                if v[lead] < 0:
                    v = [-x for x in v]
                rows.insert(idx, v)
                pivots.insert(idx, lead)
                return
            row = rows[idx]
            a, b = row[lead], v[lead]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, row)]
            else:
                g, s, t = _xgcd(a, b)
                rows[idx] = [s * x + t * y for x, y in zip(row, v)]
                v = [(a // g) * y - (b // g) * x for x, y in zip(row, v)]
            lead = next((j for j in range(lead + 1, self.dim) if v[j]), None)
            idx += 1

    def invariant_factors(self) -> IntVec:
        """Nonzero invariant factors: the SNF diagonal of the echelon rows.

        The rows are a basis matrix transposed, which has the same factors.
        """
        return smith_normal_form(self.echelon_rows()).diagonal

    def contains(self, vector: Sequence[int]) -> bool:
        """Membership by back-substitution in the echelon basis."""
        return self.coordinates(vector) is not None

    def coordinates(self, vector: Sequence[int]) -> list[int] | None:
        """Integer coordinates of ``vector`` in the echelon basis rows, or None."""
        if len(vector) != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {len(vector)}")
        v = [int(x) for x in vector]
        coeffs = [0] * len(self._rows)
        for idx, (p, row) in enumerate(zip(self._pivots, self._rows)):
            if v[p] == 0:
                continue
            if v[p] % row[p]:
                return None
            q = v[p] // row[p]
            coeffs[idx] = q
            v = [x - q * y for x, y in zip(v, row)]
        if any(v):
            return None
        return coeffs

    def echelon_rows(self) -> IntMat:
        if not self._rows:
            raise ValueError("lattice is trivial")
        return as_int_matrix(self._rows)


def independent_subset(vectors: Sequence[Sequence[int]], size: int) -> list[int]:
    """Indices of the first ``size`` vectors that each raise the rank (greedy, in order).

    Runs the integer echelon of :class:`IntLattice`; raises
    :class:`DegenerateInput` when the vectors span a smaller rank.
    """
    lattice = IntLattice(len(vectors[0]))
    picked: list[int] = []
    for idx, vec in enumerate(vectors):
        if len(picked) == size:
            break
        rank = lattice.rank
        lattice.add(vec)
        if lattice.rank > rank:
            picked.append(idx)
    if len(picked) < size:
        raise DegenerateInput(f"vectors span rank {len(picked)}, expected {size}")
    return picked


def residue_test(vector: Sequence[int], T: int) -> bool:
    """Coordinate-sum residue criterion: sum(y) = 0 mod (T-1)."""
    return sum(int(x) for x in vector) % (T - 1) == 0


def kernel_lattice_basis(matrix: Iterable[Sequence[int]]) -> list[IntVec]:
    """Basis of the integer kernel {z : A z = 0}, read off the SNF's V columns."""
    A = as_int_matrix(matrix)
    snf = smith_normal_form(A)
    c = len(A[0])
    basis = []
    for j in range(snf.rank, c):
        z = tuple(snf.V[i][j] for i in range(c))
        if any(mat_vec(A, z)):
            raise AssertionError("kernel basis verification failed")
        basis.append(z)
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def primitive_vector(vector: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vector)
    if g < 2:  # zero, or nothing to divide
        return tuple(map(int, vector))
    return tuple(int(x) // g for x in vector)


# ---------------------------------------------------------------------------
# Packed evaluation: every normal against one point in one integer sum

def l1_reach(points: Iterable[Sequence[int]]) -> int:
    """The largest L1 norm among the points (0 for none)."""
    return max((sum(map(abs, p)) for p in points), default=0)


class PackedNormals:
    """Integer normals packed so that one sum evaluates all of them at a point.

    Normal f takes the field of ``width`` bits at offset width * f of one
    integer per coordinate, so guard + sum(p_i * coord_i) holds guard + h_f.p
    in field f. ``width`` = bit_length(max |entry| * reach) + 2, and
    ``reach`` must make max |entry| * reach >= every |h_f.p| evaluated
    (an L1 bound on the points, :func:`l1_reach`, is one way to meet it),
    so each h_f.p lies strictly inside +-2^(width-2): every field stays in
    [0, 2^width) and nothing carries between fields, for signed normals
    and points alike. A field's top (guard) bit is set exactly when
    h_f.p >= 0.

    The fields can change in place: :meth:`drop` empties one (it then
    reads h.p = 0, tight, at every point) and :meth:`put` fills an empty
    one or appends a field, by adding the shifted entries to the
    coordinate integers. The width is fixed when the table is packed, so
    ``reach`` must also cover the normals put later: max |entry| of the
    first normals * reach >= every |h.p| of every normal the table holds.
    """

    def __init__(self, normals: Sequence[Sequence[int]], reach: int):
        self.count = len(normals)
        top = max(map(abs, chain.from_iterable(normals)), default=0) * reach
        self.width = width = top.bit_length() + 2
        self.guard = sum(1 << (width * f + width - 1) for f in range(self.count))
        self.low = self.guard - (self.guard >> (width - 1))  # the bits below the guard of each field
        self.coords = [sum(x << (width * f) for f, x in enumerate(column)) for column in zip(*normals)]

    def bit(self, f: int) -> int:
        """The guard bit of field f."""
        return 1 << (self.width * f + self.width - 1)

    def put(self, f: int, normal: Sequence[int]) -> None:
        """Add the normal into the empty field f (f == count appends a field)."""
        if f == self.count:
            self.count += 1
            self.guard |= self.bit(f)
            self.low = self.guard - (self.guard >> (self.width - 1))
        self._shift_in(f, normal, 1)

    def drop(self, f: int, normal: Sequence[int]) -> None:
        """Empty field f, which holds the normal: it then reads h.p = 0 at every point."""
        self._shift_in(f, normal, -1)

    def _shift_in(self, f: int, normal: Sequence[int], sign: int) -> None:
        shift, coords = self.width * f, self.coords
        for i, x in enumerate(normal):
            if x:
                coords[i] += sign * x << shift

    def value(self, point: Sequence[int]) -> int:
        """guard + the packed dot products h_f.point."""
        return self.guard + sum(map(mul, point, self.coords))

    def inside(self, value: int) -> bool:
        """Is h_f.point >= 0 for every f?"""
        return value & self.guard == self.guard

    def tight(self, value: int) -> int:
        """The guard bits of the fields with h_f.point == 0.

        The bits below a field's guard hold h_f.p mod 2^(width-1), zero
        only at h_f.p == 0 because |h_f.p| < 2^(width-2); adding ``low``
        carries into the guard bit of every other field.
        """
        return self.guard & ~((value & self.low) + self.low)

    def fields(self, mask: int) -> Iterator[int]:
        """Indices f of the guard bits set in ``mask``, in increasing order."""
        guards = bin(mask)[:1:-1][self.width - 1 :: self.width]  # character f: the guard bit of field f
        f = guards.find("1")
        while f >= 0:
            yield f
            f = guards.find("1", f + 1)

    def decode(self, value: int) -> list[int]:
        """Every h_f.point, in order."""
        width = self.width
        field, half = (1 << width) - 1, 1 << (width - 1)
        return [(value >> (width * f) & field) - half for f in range(self.count)]
