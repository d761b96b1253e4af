"""Exact rational polyhedral computation for the transition cones and polytopes.

Vertices are certified by exact LP feasibility (is the point a convex
combination of the rest?) and, independently, by tight-facet masks;
facets come from the double description method run on the pivot
coordinates of the column span, and f-vectors from a graded face walk
over the vertex-facet incidences. The two routes
cross-validate each other: the dilation identity, too, is decided by
the LP on one side (x in kP) and by the facets on the other (x in the
cone). Every column-against-facet test (the double description's ray
signs, the containment assertion, the vertex masks, the incidences and
the Hilbert-basis cone tests) evaluates all normals at once in one
packed integer sum (:class:`PackedNormals`); the double description
keeps its rays in one such table, emptying and filling fields in place
as rays leave and enter. The LP uses the same
layout: a column set is packed once (:class:`PackedColumns`, one integer
per row, one field per column), a rational right-hand side is scaled to
integers once per call, and each pivot is an integer-preserving
Gauss-Jordan step over one common denominator d, applied to every field
of a row in one multiply-subtract-divide. The division by d is exact
(Bareiss), the field width comes from Hadamard's bound on the minors
the tableau can hold, taken over its largest columns, and Bland's rule
enters the columns in rising norm, picking the same pivots as on any
other positive scaling of the rows. No floating point anywhere.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from . import stategraph
from .design import Model, compositions, distinct_columns
from .intlinalg import (
    DegenerateInput,
    DimensionMismatch,
    IntLattice,
    IntVec,
    PackedNormals,
    independent_subset,
    kernel_lattice_basis,
    l1_reach,
    primitive_vector,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# Exact rational LP feasibility (phase-1 simplex, Bland's rule)

def _integer_multiple(values: Sequence[int | Fraction]) -> list[int]:
    """The values times the lcm of their denominators: integers with the same ratios."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


class PackedColumns:
    """A column set packed once for :func:`linear_feasible`: one integer per row.

    The layout is :class:`PackedNormals` with the columns as the normals:
    column j takes field j of every row, the coordinate rows come first
    and the row of ones (for ``coefficient_sum``) last. ``columns`` is in
    rising squared norm, ties in lex order, so Bland's rule enters the
    balanced columns near the slice's centre before the extreme ones and
    makes fewer degenerate pivots. ``drops[i]`` holds the guard bits of
    the columns that a zero right-hand side in row i forces to 0: the
    columns positive there, when none is negative (else 0). Ragged
    columns raise :class:`DimensionMismatch`.

    The field width comes from Hadamard's bound. Every tableau entry the
    LP stores is, up to sign, a minor of [A I; c 0]: A is the m rows
    (signs flipped as the right-hand side asks), I the artificials' unit
    columns, c = -sum of A's rows the phase-1 cost row. A minor has at
    most m + 1 columns and is at most the product of their L2 norms, so
    the product of the m + 1 largest column norms bounds it, where
    column j of [A; c] has norm at most sqrt(|a_j|^2 + |a_j|_1^2) and a
    unit column counts as sqrt(2). That holds for every column subset
    and sign pattern the LP can meet.
    """

    def __init__(self, columns: Iterable[Sequence[int]]):
        self.columns = tuple(sorted(map(tuple, columns), key=lambda c: (sum(map(mul, c, c)), c)))
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise DimensionMismatch(f"ragged columns: lengths {sorted(lengths)}")
        self.dim = lengths.pop() if lengths else None
        rows = [*zip(*self.columns), (1,) * len(self.columns)]
        squares = sorted([1 + sum(map(mul, c, c)) + (1 + sum(map(abs, c))) ** 2 for c in self.columns] + [2] * len(rows))
        bound = isqrt(prod(squares[-len(rows) - 1 :])) + 1
        top = max((abs(x) for row in rows for x in row), default=1)
        self.pack = pack = PackedNormals([(*c, 1) for c in self.columns], -(-bound // top))
        bits = [pack.bit(j) for j in range(pack.count)]
        self.drops = tuple(
            0 if min(row) < 0 else sum(bit for bit, x in zip(bits, row) if x) for row in rows[:-1]
        )


def linear_feasible(
    columns: Sequence[Sequence[int]] | PackedColumns,
    rhs: Sequence[int | Fraction],
    *,
    coefficient_sum: int | Fraction | None = None,
) -> bool:
    """Does rhs = sum(lambda_j * columns[j]) admit a solution with lambda >= 0?

    ``coefficient_sum`` adds the constraint sum(lambda) == value (so 1
    tests convex-hull membership, k tests the k-th dilation). The
    columns are integer, plain or packed once by :class:`PackedColumns`
    (callers that ask many LPs of one column set pack it themselves); a
    rhs whose length is not the columns' dimension raises
    :class:`DimensionMismatch`. Where rhs is 0 and no column is negative,
    every column positive there has lambda = 0, so it never enters. The
    right-hand side (with ``coefficient_sum``) is multiplied once by the
    lcm L of its denominators (substitute L * lambda for lambda), so the
    tableau is integer from the start.

    Exact phase-1 simplex on packed rows: each row of the tableau is one
    integer with a field per column (the right-hand side and cost values
    are plain ints beside them), and the whole tableau is the integer
    matrix over one common denominator d. A pivot on p = row_r[e] is an
    integer-preserving Gauss-Jordan step (Bareiss, Edmonds): every other
    row becomes (row * p - row_r * row[e]) // d, then d = p. The
    division is exact in every field at once, because the new entries
    are minors of [A; cost] (Sylvester's identity); the fields never
    carry, because :class:`PackedColumns` sizes them by a Hadamard bound
    on those minors. The entering column is the lowest guard bit missing
    from the cost row (the first negative reduced cost).

    The basis starts as the artificial identity, which is never stored:
    an artificial that leaves is fixed at 0 and never re-enters, which
    keeps every feasible point of the original problem. Bland's rule
    (smallest entering index, smallest basic index on ratio ties,
    artificial i counting as n + i) guarantees termination in any fixed
    index order, here the packing order. Signs and ratios do not depend
    on a row's positive scale, so these are the same pivots as on any
    other scaling of the same tableau. A "yes" is
    self-certifying: the final basic solution is checked against the
    plain columns in integers, and a mismatch raises AssertionError.
    """
    packed = columns if isinstance(columns, PackedColumns) else PackedColumns(columns)
    if packed.dim is not None and len(rhs) != packed.dim:
        raise DimensionMismatch(f"rhs has {len(rhs)} entries, the columns {packed.dim}")
    pack = packed.pack
    dropped = 0
    for x, drop in zip(rhs, packed.drops):
        if drop and x == 0:
            dropped |= drop
    allowed = pack.guard & ~dropped
    if not allowed:
        return not any(rhs) and coefficient_sum in (None, 0)
    values = _integer_multiple(list(rhs) if coefficient_sum is None else [*rhs, coefficient_sum])
    rows = [-row if v < 0 else row for row, v in zip(pack.coords, values)]
    b = [abs(v) for v in values]
    cost, cost_value = -sum(rows), -sum(b)  # reduced costs for min(sum of artificials)
    n, m = pack.count, len(values)
    basis = [n + i for i in range(m)]
    guard, width = pack.guard, pack.width
    field, half = (1 << width) - 1, 1 << (width - 1)
    d = 1

    while True:
        negative = ~(cost + guard) & allowed
        if not negative:
            break
        shift = (negative & -negative).bit_length() - width  # the lowest entering column's field
        column = [((row + guard) >> shift & field) - half for row in rows]
        leave = None
        for i, a in enumerate(column):
            if a <= 0:
                continue
            if leave is None:
                leave = i
            else:
                # compare b_i / a_i < b_leave / a_leave by cross-multiplying
                lhs = b[i] * column[leave]
                rhs_cmp = b[leave] * a
                if lhs < rhs_cmp or (lhs == rhs_cmp and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective unbounded; this cannot happen")
        p, pivot_row, pivot_b = column[leave], rows[leave], b[leave]
        for i, f in enumerate(column):
            if i != leave:
                rows[i] = (rows[i] * p - pivot_row * f) // d
                b[i] = (b[i] * p - pivot_b * f) // d
        f = ((cost + guard) >> shift & field) - half
        cost = (cost * p - pivot_row * f) // d
        cost_value = (cost_value * p - pivot_b * f) // d
        d = p
        basis[leave] = shift // width
    if cost_value:
        return False
    # lambda_j = b_i / d for the column j basic in row i, 0 elsewhere, must solve the scaled LP
    used = [(packed.columns[j], x) for j, x in zip(basis, b) if j < n]
    combination = [sum(x * c[k] for c, x in used) for k in range(packed.dim)]
    if coefficient_sum is not None:
        combination.append(sum(x for _, x in used))
    if min(b) < 0 or combination != [d * v for v in values]:
        raise AssertionError("phase 1 ended feasible, but its basic solution does not solve the LP")
    return True


# ---------------------------------------------------------------------------
# Affine rank, by the integer echelon of IntLattice

def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull spanned by the points."""
    if not points:
        return -1
    base = points[0]
    return IntLattice.from_vectors(len(base), [[a - b for a, b in zip(p, base)] for p in points[1:]]).rank


# ---------------------------------------------------------------------------
# Double description: facets of a full-dimensional pointed cone

def dual_description(generators: Sequence[IntVec]) -> tuple[IntVec, ...]:
    """Extreme rays of {h : h.g >= 0 for all generators} = facet normals.

    The generators must span the full ambient space. Classic incremental
    double description: start from the simplicial dual cone of a
    linearly independent generator subset, insert the remaining
    constraints one by one, and combine adjacent positive/negative ray
    pairs. Generators are inserted in the caller's order (duplicates
    dropped), and the result is sorted, so the order decides only the
    cost. Callers pass the likely extreme generators first.

    The rays live in one :class:`PackedNormals` table, a field per ray,
    and a generator costs one packed evaluation, whose guard bits give
    the negative, tight and positive rays at once. A generator with no
    negative ray is inside the cone: a redundant row that changes
    nothing. A ray that leaves empties its field, which then reads 0
    (never negative, always tight, so ``live`` filters the tight fields),
    and a new ray fills an empty field or appends one. The table is
    packed once, with a field width that no ray outgrows: every ray,
    the first ones and each new one alike, is the primitive normal h of
    dim - 1 independent generators, their cofactor vector divided by a
    positive integer, so h.g is a dim x dim minor of the generators
    divided by it, and Hadamard's bound (the product of the dim largest
    generator norms) bounds every |h.g| the table evaluates.

    Adjacency is the combinatorial test (Fukuda-Prodon 1996), which holds
    for any inequality description of a pointed cone, so zero sets
    cover only the first ``dim`` generators and the ones that cut:
    ``masks[f]`` has bit c when ray f is tight at constraint c, and
    ``tight_at[c]`` is the set of live fields (bits 1 << f) tight at it.
    A positive ray p and a negative ray n are adjacent iff the AND of
    ``tight_at`` over the bits of masks[p] & masks[n] is exactly {p, n}:
    no other ray is tight wherever both are (bit patterns,
    Terzer-Stelling 2008).
    """
    gens = list(dict.fromkeys(primitive_vector(g) for g in generators if any(g)))
    if not gens:
        raise DegenerateInput("no nonzero generators")
    dim = len(gens[0])
    first = independent_subset(gens, dim)
    chosen = set(first)
    order = [gens[i] for i in first] + [g for i, g in enumerate(gens) if i not in chosen]
    inverse, _ = smith_normal_form(order[:dim]).scaled_inverse()
    table: list[IntVec | None] = [primitive_vector([row[i] for row in inverse]) for i in range(dim)]  # ray per field
    squares = sorted(sum(map(mul, g, g)) for g in gens)
    bound = isqrt(prod(squares[len(gens) - dim :])) + 1  # Hadamard: every |h.g| is below it
    pack = PackedNormals(table, -(-bound // max(map(abs, chain.from_iterable(table)))))
    live, empty, masks, tight_at = (1 << dim) - 1, [], [0] * dim, []
    for g in order[:dim]:
        value = pack.value(g)
        if not pack.inside(value):
            raise AssertionError("initial dual simplex inconsistent")
        tight_at.append(_tight_fields(pack, value, live, masks, 1 << len(tight_at)))
    for g in order[dim:]:
        value = pack.value(g)
        neg = pack.guard & ~value
        if not neg:
            continue
        d = pack.decode(value)
        posf = list(pack.fields(value & pack.guard & ~pack.tight(value)))
        negf = list(pack.fields(neg))
        bit = 1 << len(tight_at)
        new = []
        for n in negf:
            mn = masks[n]
            for p in [p for p in posf if (masks[p] & mn).bit_count() >= dim - 2]:
                pair, common, found = 1 << p | 1 << n, masks[p] & mn, live
                while common and found != pair:
                    low = common & -common
                    found &= tight_at[low.bit_length() - 1]
                    common ^= low
                if found == pair:
                    # d[p] > 0 > d[n]: d[p]*r_n - d[n]*r_p is a conic combination vanishing on g
                    ray = primitive_vector([d[p] * b - d[n] * a for a, b in zip(table[p], table[n])])
                    new.append((ray, masks[p] & mn | bit))
        for n in negf:
            pack.drop(n, table[n])
            table[n] = None
            live ^= 1 << n
        empty += negf
        tight_at = [t & live for t in tight_at]
        tight_at.append(_tight_fields(pack, value, live, masks, bit))
        for ray, mask in new:
            f = empty.pop() if empty else len(table)
            if f == len(table):
                table.append(None)
                masks.append(0)
            table[f], masks[f] = ray, mask
            live |= 1 << f
            pack.put(f, ray)
            while mask:
                low = mask & -mask
                tight_at[low.bit_length() - 1] |= 1 << f
                mask ^= low
    return tuple(sorted(r for r in table if r is not None))


def _tight_fields(pack: PackedNormals, value: int, live: int, masks: list[int], bit: int) -> int:
    """The live fields tight at a packed value, as bits 1 << f; each one's mask gains ``bit``."""
    fields = 0
    for f in pack.fields(pack.tight(value)):
        if live >> f & 1:
            masks[f] |= bit
            fields |= 1 << f
    return fields


# ---------------------------------------------------------------------------
# Public representations

@dataclass(frozen=True)
class HRep:
    """Facet inequalities (h.x >= 0) and span equations (e.x = 0) of a cone."""

    inequalities: tuple[IntVec, ...]
    equations: tuple[IntVec, ...]

    def contains(self, point: Sequence[int]) -> bool:
        """Is the integer point in the cone? A point of the wrong length raises :class:`DimensionMismatch`."""
        for h in (*self.inequalities, *self.equations):
            if len(h) != len(point):
                raise DimensionMismatch(f"point of length {len(point)}, normals of length {len(h)}")
        return all(sum(a * b for a, b in zip(h, point)) >= 0 for h in self.inequalities) and not any(
            sum(a * b for a, b in zip(e, point)) for e in self.equations
        )


@dataclass(frozen=True)
class FVector:
    """Proper face counts f_0 ... f_{dim-1}."""

    dim: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.dim:
            raise ValueError("f-vector must list dimensions 0..dim-1")
        euler = sum((-1) ** i * c for i, c in enumerate(self.counts))
        if euler != 1 - (-1) ** self.dim:
            raise AssertionError(f"Euler relation violated: {self.counts}")


def cone_facets(columns: Iterable[Sequence[int]]) -> HRep:
    """Irredundant facet inequalities of cone(columns) via double description.

    The columns are ordered once, most zero entries first and ties by
    falling squared norm (the likely extreme rays first). In that order
    they are echelonized until the rank is full, and fed to the double
    description. The span equations are the integer kernel of that
    echelon. The double description runs on the echelon's pivot
    coordinates, where the projection is injective on the span, so it
    sees a full-dimensional cone with the same facets. Each normal is
    lifted back with zeros in the dropped coordinates: those are the
    pivots of the right echelon of the equations, so the lift is already
    the canonical representative modulo the equations. Normals are
    primitive and lexicographically sorted; every generator lies in the
    cone they describe and satisfies the equations (asserted, one packed
    evaluation per column).
    """
    cols = [c for c in sorted({tuple(map(int, c)) for c in columns}) if any(c)]
    if not cols:
        raise DegenerateInput("all columns are zero")
    dim = len(cols[0])
    ordered = sorted(cols, key=lambda c: (c.count(0), sum(map(mul, c, c))), reverse=True)
    span = IntLattice(dim)
    for c in ordered:
        span.add(c)
        if span.rank == dim:  # every later column is in the span: no equations, every coordinate a pivot
            break
    echelon = span.echelon_rows()
    kernel = [primitive_vector(e) for e in kernel_lattice_basis(echelon)]
    equations = tuple(sorted(e if next(filter(None, e)) > 0 else tuple(-x for x in e) for e in kernel))  # first nonzero entry positive
    pivots = [next(i for i, x in enumerate(row) if x) for row in echelon]
    normals = []
    for ray in dual_description([tuple(c[i] for i in pivots) for c in ordered]):
        h = [0] * dim
        for i, x in zip(pivots, ray):
            h[i] = x
        normals.append(tuple(h))
    rep = HRep(inequalities=tuple(sorted(normals)), equations=equations)
    # an equation e enters as e.x >= 0 and -e.x >= 0, so one guard test checks every row
    pack = PackedNormals([*rep.inequalities, *equations, *(tuple(-x for x in e) for e in equations)], l1_reach(cols))
    if not all(pack.inside(pack.value(c)) for c in cols):
        raise AssertionError("a generator violates a facet normal or a span equation")
    return rep


def polytope_vertices(columns: Iterable[Sequence[int]]) -> tuple[IntVec, ...]:
    """Columns that are vertices of the convex hull, by exact LP.

    A deduplicated column is a vertex iff it is not a convex combination
    of the remaining columns.
    """
    cols = sorted(set(tuple(int(x) for x in c) for c in columns))
    if not cols:
        raise DegenerateInput("no columns")
    if len(cols) == 1:
        return tuple(cols)
    verts = []
    for i, c in enumerate(cols):
        others = cols[:i] + cols[i + 1 :]
        if not linear_feasible(others, c, coefficient_sum=1):
            verts.append(c)
    return tuple(verts)


def _maximal(masks: Iterable[int]) -> list[int]:
    """The distinct masks that no other contains, scanned by falling bit count (a superset has more bits)."""
    maximal: list[int] = []
    for mask in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(mask & other != mask for other in maximal):
            maximal.append(mask)
    return maximal


def vertices_by_facet_rank(columns: Sequence[IntVec], hrep: HRep) -> tuple[IntVec, ...]:
    """Columns that span extreme rays, by their tight-facet masks; cross-validates the LP route.

    The columns must be distinct with one nonzero coordinate sum
    (asserted), so the extreme rays are the vertices of their convex
    hull, and every face of the hull is the hull of the columns on it.
    The smallest face through a column is cut out by the facets tight at
    it, so the column is a vertex iff no other column is tight on all of
    them: its tight mask is unique and maximal. The name is kept from
    the tight-facet rank test this replaced, because
    ``perfbench/tracer.py`` wraps the function by name.
    """
    cols = sorted(set(columns))
    sums = {sum(c) for c in cols}
    if len(sums) != 1 or 0 in sums:
        raise AssertionError(f"vertex test needs distinct columns with one nonzero coordinate sum, got sums {sorted(sums)}")
    pack = PackedNormals(hrep.inequalities, l1_reach(cols))
    masks = [pack.tight(pack.value(c)) for c in cols]
    count = Counter(masks)
    vertex_masks = {mask for mask in _maximal(count) if count[mask] == 1}
    return tuple(c for c, mask in zip(cols, masks) if mask in vertex_masks)


def f_vector(columns: Iterable[Sequence[int]]) -> FVector:
    """Proper face counts of the columns' convex hull, by the graded face walk."""
    cols = sorted(set(tuple(int(x) for x in c) for c in columns))
    hrep = cone_facets(cols)
    verts = vertices_by_facet_rank(cols, hrep)
    return f_vector_from_incidence(verts, hrep)


def f_vector_from_incidence(vertices: Sequence[IntVec], hrep: HRep) -> FVector:
    """Proper face counts by a graded walk over the vertex-facet incidences (Kaibel-Pfetsch 2002).

    A face is an int with bit i set when vertex i is on it; the facets'
    masks come from the packed tight masks. The faces one dimension
    below F are the maximal members of {F & G : G a facet} - {0, F}, so
    the walk goes level by level from the facets, as given, down to the
    vertices; the level sizes, reversed, are f_0 ... f_{d-1}. Three
    checks fail on an incidence no polytope has: the level count must be
    the vertices' affine rank, the last level one face per vertex, and
    the counts must meet the Euler relation.
    """
    dim = affine_rank(vertices)
    if dim < 1:
        raise ValueError("polytope must have dimension >= 1")
    pack = PackedNormals(hrep.inequalities, l1_reach(vertices))
    facets = [0] * pack.count
    for i, v in enumerate(vertices):
        for f in pack.fields(pack.tight(pack.value(v))):
            facets[f] |= 1 << i
    levels: list[set[int]] = []
    level = set(facets) - {0}
    while level:
        levels.append(level)
        level = {child for face in level for child in _maximal(face & g for g in facets if face & g not in (0, face))}
    if len(levels) != dim:
        raise AssertionError(f"face walk has {len(levels)} levels, the vertices span dimension {dim}")
    if levels[-1] != {1 << i for i in range(len(vertices))}:
        raise AssertionError("the face walk's last level is not one face per vertex")
    return FVector(dim=dim, counts=tuple(len(level) for level in reversed(levels)))


# ---------------------------------------------------------------------------
# Model-(d) structure checks

def model_d_columns(T: int) -> tuple[IntVec, ...]:
    return distinct_columns(Model.D, 3, T)


@dataclass(frozen=True)
class DilationReport:
    T: int
    k: int
    samples: int
    agreements: int
    counterexamples: tuple[tuple[Fraction, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_dilation_slice(T: int, k: int, samples: int, *, seed: int = 0) -> DilationReport:
    """Sample rational points and test x in kP <=> (x in C and sum(x) = k(T-1)).

    The two sides are decided by independent routes: x in kP by the
    exact dilation LP, x in C by the double description's H-rep (x,
    scaled to integers once, meets every inequality with >= 0 and every
    equation with = 0). Points are drawn to land inside, outside, and
    off the slice.
    """
    if T < 4 or k < 1:
        raise ValueError("need T >= 4 and k >= 1")
    cols = model_d_columns(T)
    hrep = cone_facets(cols)
    packed = PackedColumns(cols)
    rng = random.Random((seed, T, k).__hash__() & 0x7FFFFFFF)
    bad: list[tuple[Fraction, ...]] = []

    def draw_weights(count: int, top: int) -> list[int]:
        weights = [rng.randint(0, top) for _ in range(count)]
        if not any(weights):
            weights[0] = 1
        return weights

    def mix(weights: Sequence[int], num: int, den: int) -> tuple[Fraction, ...]:
        """num/den times the weighted sum of len(weights) random columns."""
        picks = [cols[rng.randrange(len(cols))] for _ in weights]
        return tuple(Fraction(num * sum(w * p[i] for w, p in zip(weights, picks)), den) for i in range(6))

    for trial in range(samples):
        if trial % 3 == 0:
            # random rational point of the dilated polytope (scaled mix)
            weights = draw_weights(4, 6)
            x = mix(weights, k, sum(weights))
        elif trial % 3 == 1:
            # integer column sum nudged off by a transfer between coordinates
            acc = list(mix([1] * k, 1, 1))
            i, j = rng.randrange(6), rng.randrange(6)
            delta = rng.choice([-2, -1, 1, 2])
            acc[i] += delta
            acc[j] -= delta
            x = tuple(acc)
        else:
            # conic point just off the k-th slice: sum = (k +- 1/q)(T-1)
            weights = draw_weights(3, 4)
            q = rng.randint(2, 5)
            x = mix(weights, k * q + rng.choice([-1, 1]), q * sum(weights))
        in_dilation = linear_feasible(packed, x, coefficient_sum=k)
        in_slice = sum(x) == k * (T - 1) and hrep.contains(_integer_multiple(x))
        if in_dilation != in_slice:
            bad.append(x)
    return DilationReport(T=T, k=k, samples=samples, agreements=samples - len(bad), counterexamples=tuple(bad))


def integer_points_equal_columns(T: int) -> bool:
    """Exhaustively compare the polytope's integer points with the column set."""
    cols = model_d_columns(T)
    packed = PackedColumns(cols)
    inside = {x for x in compositions(T - 1, 6) if linear_feasible(packed, x, coefficient_sum=1)}
    return inside == set(cols)


@dataclass(frozen=True)
class VertexClassReport:
    T: int
    p: int
    classes: tuple[tuple[IntVec, int, int], ...]  # (vertex, m, n)
    middle_class_vertices: tuple[IntVec, ...]

    @property
    def ok(self) -> bool:
        return not self.middle_class_vertices


def classify_vertices(T: int) -> VertexClassReport:
    """Assign every vertex of the model-(d) polytope its (m, n) class.

    For T >= 13 the finite-vertex theorem predicts no vertices with
    3 <= m <= p-3 (p = floor((T-1)/2)); such vertices are reported as
    violations.
    """
    cols = model_d_columns(T)
    hrep = cone_facets(cols)
    verts = vertices_by_facet_rank(cols, hrep)
    p = (T - 1) // 2
    graph_classes = (stategraph.classify_Gmn(stategraph.graph_of_transition_vector(v, 3)) for v in verts)
    classes = tuple((v, cls.m, cls.n) for v, cls in zip(verts, graph_classes))
    middle = tuple(v for v, m, _ in classes if 3 <= m <= p - 3)
    return VertexClassReport(T=T, p=p, classes=classes, middle_class_vertices=middle)


# ---------------------------------------------------------------------------
# Plain-text layout used for the printed hyperplane blocks

def normals_to_block_text(normals: Sequence[IntVec]) -> str:
    """Render normals in the printed column layout (one hyperplane per column)."""
    if not normals:
        return ""
    width = max(len(str(x)) for h in normals for x in h)
    rows = []
    for i in range(len(normals[0])):
        rows.append("  ".join(str(h[i]).rjust(width) for h in normals))
    return "\n".join(rows) + "\n"


def normals_from_block_text(text: str) -> tuple[IntVec, ...]:
    """Parse the printed column layout back into a sorted normal set."""
    rows = [[int(tok) for tok in line.split()] for line in text.strip().splitlines() if line.strip()]
    if not rows:
        return ()
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged hyperplane block")
    return tuple(sorted(zip(*rows)))


def nonnegativity_normals(dim: int) -> tuple[IntVec, ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
