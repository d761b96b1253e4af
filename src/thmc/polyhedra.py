"""Exact rational polyhedral computation for the transition cones and polytopes.

Vertices are certified by exact LP feasibility (is the point a convex
combination of the rest?) and, independently, by tight-facet masks;
facets come from the double description method run on the pivot
coordinates of the column span, and f-vectors from closure-based face
enumeration over the vertex-facet incidences. The two routes
cross-validate each other: the dilation identity, too, is decided by
the LP on one side (x in kP) and by the facets on the other (x in the
cone). Every column-against-facet test (the double description's ray
signs, the containment assertion, the vertex masks, the incidences and
the Hilbert-basis cone tests) evaluates all normals at once in one
packed integer sum (:class:`PackedNormals`). The LP tableau is integer:
a rational right-hand side is scaled to integers once per call. No
floating point anywhere.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import stategraph
from .design import Model, compositions, distinct_columns, transition_pairs
from .intlinalg import (
    DegenerateInput,
    IntLattice,
    IntVec,
    independent_subset,
    kernel_lattice_basis,
    primitive_vector,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# Exact rational LP feasibility (phase-1 simplex, Bland's rule)

def _integer_multiple(values: Sequence[int | Fraction]) -> list[int]:
    """The values times the lcm of their denominators: integers with the same ratios."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def linear_feasible(
    columns: Sequence[Sequence[int]],
    rhs: Sequence[int | Fraction],
    *,
    coefficient_sum: int | Fraction | None = None,
) -> bool:
    """Does rhs = sum(lambda_j * columns[j]) admit a solution with lambda >= 0?

    ``coefficient_sum`` adds the constraint sum(lambda) == value (so 1
    tests convex-hull membership, k tests the k-th dilation). The
    columns are integer. Where rhs is 0 and no column is negative, every
    column positive there has lambda = 0, so it is dropped first. The
    right-hand side (with ``coefficient_sum``) is multiplied once by the
    lcm L of its denominators (substitute L * lambda for lambda), so the
    tableau is integer from the start.

    Exact phase-1 simplex on a fraction-free tableau: every row carries
    an implicit positive scale, pivots cross-multiply, and rows are
    gcd-normalized. The basis starts as the artificial identity, which
    is never stored: an artificial that leaves is fixed at 0 and never
    re-enters, which keeps every feasible point of the original problem.
    Bland's rule (smallest entering index, smallest basic index on ratio
    ties, artificial i counting as n + i) guarantees termination.
    """
    zero_rows = [i for i, x in enumerate(rhs) if x == 0 and all(c[i] >= 0 for c in columns)]
    columns = [c for c in columns if not any(c[i] for i in zero_rows)]
    if not columns:
        return all(Fraction(x) == 0 for x in rhs) and (coefficient_sum in (None, 0))
    n = len(columns)
    values = _integer_multiple(list(rhs) if coefficient_sum is None else [*rhs, coefficient_sum])
    m = len(values)
    rows = [list(row) for row in zip(*columns)]
    if coefficient_sum is not None:
        rows.append([1] * n)
    for row, value in zip(rows, values):
        row.append(value)
        if value < 0:
            row[:] = [-x for x in row]

    # Reduced-cost row for min(sum of artificials); value cell goes last.
    cost = [-sum(column) for column in zip(*rows)]
    basis = [n + i for i in range(m)]

    while True:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a <= 0:
                continue
            if leave is None:
                leave = i
            else:
                # compare rhs_i / a_i < rhs_leave / a_leave by cross-multiplying
                lhs = rows[i][-1] * rows[leave][enter]
                rhs_cmp = rows[leave][-1] * a
                if lhs < rhs_cmp or (lhs == rhs_cmp and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective unbounded; this cannot happen")
        pivot_row = rows[leave]
        for i in range(m):
            if i != leave and rows[i][enter]:
                rows[i] = _eliminate(rows[i], pivot_row, enter)
        if cost[enter]:
            cost = _eliminate(cost, pivot_row, enter)
        basis[leave] = enter
    return cost[-1] == 0


def _eliminate(row: list[int], pivot_row: list[int], enter: int) -> list[int]:
    """Clear ``row[enter]`` by cross-multiplying with the pivot row, then divide out the gcd."""
    p, f = pivot_row[enter], row[enter]
    new_row = [x * p - y * f for x, y in zip(row, pivot_row)]
    g = gcd(*new_row)
    return [x // g for x in new_row] if g > 1 else new_row


# ---------------------------------------------------------------------------
# Affine rank, by the integer echelon of IntLattice

def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull spanned by the points."""
    if not points:
        return -1
    base = points[0]
    return IntLattice.from_vectors(len(base), [[a - b for a, b in zip(p, base)] for p in points[1:]]).rank


# ---------------------------------------------------------------------------
# Packed evaluation: every normal against one point in one integer sum

def l1_reach(points: Iterable[Sequence[int]]) -> int:
    """The largest L1 norm among the points (0 for none)."""
    return max((sum(map(abs, p)) for p in points), default=0)


class PackedNormals:
    """Integer normals packed so that one sum evaluates all of them at a point.

    Normal f takes the field of ``width`` bits at offset width * f of one
    integer per coordinate, so guard + sum(p_i * coord_i) holds guard + h_f.p
    in field f. ``width`` = bit_length(max |entry| * reach) + 2, where
    ``reach`` bounds the L1 norm of every point evaluated, so each h_f.p
    lies strictly inside +-2^(width-2): every field stays in [0, 2^width)
    and nothing carries between fields, for signed normals and points
    alike. A field's top (guard) bit is set exactly when h_f.p >= 0.
    """

    def __init__(self, normals: Sequence[Sequence[int]], reach: int):
        self.count = len(normals)
        top = max(map(abs, chain.from_iterable(normals)), default=0) * reach
        self.width = width = top.bit_length() + 2
        self.guard = sum(1 << (width * f + width - 1) for f in range(self.count))
        self.low = self.guard - (self.guard >> (width - 1))  # the bits below the guard of each field
        self.coords = tuple(sum(x << (width * f) for f, x in enumerate(column)) for column in zip(*normals))

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
        while mask:
            bit = mask & -mask
            yield bit.bit_length() // self.width - 1
            mask ^= bit

    def decode(self, value: int) -> list[int]:
        """Every h_f.point, in order."""
        width = self.width
        field, half = (1 << width) - 1, 1 << (width - 1)
        return [(value >> (width * f) & field) - half for f in range(self.count)]


# ---------------------------------------------------------------------------
# Double description: facets of a full-dimensional pointed cone

def dual_description(generators: Sequence[IntVec]) -> tuple[IntVec, ...]:
    """Extreme rays of {h : h.g >= 0 for all generators} = facet normals.

    The generators must span the full ambient space. Classic incremental
    double description: start from the simplicial dual cone of a
    linearly independent generator subset, insert the remaining
    constraints one by one, and combine adjacent positive/negative ray
    pairs. Adjacency uses the combinatorial zero-set test, which is
    exact here because all tracked rays satisfy the processed
    constraints with >= 0.

    Generators are inserted in the caller's order (duplicates dropped),
    and the result is sorted, so the order decides only the cost: a
    generator inside the current cone costs one packed evaluation of the
    rays, and only its tight rays gain a zero bit. The pack is rebuilt
    when the ray set changes; its width comes from the generators' L1
    bound, computed once. Callers pass the likely extreme generators first.
    """
    gens = list(dict.fromkeys(primitive_vector(g) for g in generators if any(g)))
    if not gens:
        raise DegenerateInput("no nonzero generators")
    dim = len(gens[0])
    first = independent_subset(gens, dim)
    chosen = set(first)
    order = [gens[i] for i in first] + [g for i, g in enumerate(gens) if i not in chosen]
    inverse, _ = smith_normal_form(order[:dim]).scaled_inverse()
    rays = [primitive_vector([row[i] for row in inverse]) for i in range(dim)]
    masks = [0] * dim  # zero set of each ray over the processed generators, as bits
    reach = l1_reach(gens)
    pack = PackedNormals(rays, reach)
    for k, g in enumerate(order):
        value = pack.value(g)
        if pack.inside(value):
            for f in pack.fields(pack.tight(value)):
                masks[f] |= 1 << k
            continue
        if k < dim:
            raise AssertionError("initial dual simplex inconsistent")
        d = pack.decode(value)
        kept = [f for f, x in enumerate(d) if x >= 0]
        neg = [f for f, x in enumerate(d) if x < 0]
        new_rays = [rays[f] for f in kept]
        new_masks = [masks[f] | (0 if d[f] else 1 << k) for f in kept]
        for ip in kept:
            if not d[ip]:
                continue
            for jn in neg:
                zmask = masks[ip] & masks[jn]
                if zmask.bit_count() < dim - 2:
                    continue
                if any(zmask & ~other == 0 for idx, other in enumerate(masks) if idx != ip and idx != jn):
                    continue
                # d[ip] > 0 > d[jn]: d[ip]*r_jn - d[jn]*r_ip is a conic combination vanishing on g
                new_rays.append(primitive_vector([d[ip] * b - d[jn] * a for a, b in zip(rays[ip], rays[jn])]))
                new_masks.append(zmask | 1 << k)
        rays, masks = new_rays, new_masks
        pack = PackedNormals(rays, reach)

    return tuple(sorted(rays))


# ---------------------------------------------------------------------------
# Span equations

def _canonical_sign(vec: IntVec) -> IntVec:
    for x in vec:
        if x > 0:
            return vec
        if x < 0:
            return tuple(-v for v in vec)
    return vec


# ---------------------------------------------------------------------------
# Public representations

@dataclass(frozen=True)
class HRep:
    """Facet inequalities (h.x >= 0) and span equations (e.x = 0) of a cone."""

    inequalities: tuple[IntVec, ...]
    equations: tuple[IntVec, ...]
    grading_sum: int | None = None  # common coordinate sum of the generators, if any

    def contains(self, point: Sequence[int]) -> bool:
        """Is the integer point in the cone?"""
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

    The columns are echelonized once; the span equations are the integer
    kernel of that echelon. The double description runs on the echelon's
    pivot coordinates, where the projection is injective on the span, so
    it sees a full-dimensional cone with the same facets. Each normal is
    lifted back with zeros in the dropped coordinates: those are the
    pivots of the right echelon of the equations, so the lift is already
    the canonical representative modulo the equations. Normals are
    primitive and lexicographically sorted; every generator lies in the
    cone they describe and satisfies the equations (asserted, one packed
    evaluation per column). The columns with the most zero entries, the
    likely extreme rays, enter the double description first.
    """
    cols = sorted(set(tuple(int(x) for x in c) for c in columns))
    cols = [c for c in cols if any(c)]
    if not cols:
        raise DegenerateInput("all columns are zero")
    dim = len(cols[0])
    echelon = IntLattice.from_vectors(dim, cols).echelon_rows()
    equations = tuple(sorted(_canonical_sign(primitive_vector(e)) for e in kernel_lattice_basis(echelon)))
    pivots = [next(i for i, x in enumerate(row) if x) for row in echelon]
    ordered = sorted(cols, key=lambda c: c.count(0), reverse=True)
    normals = []
    for ray in dual_description([tuple(c[i] for i in pivots) for c in ordered]):
        h = [0] * dim
        for i, x in zip(pivots, ray):
            h[i] = x
        normals.append(tuple(h))
    sums = {sum(c) for c in cols}
    grading = sums.pop() if len(sums) == 1 else None
    rep = HRep(inequalities=tuple(sorted(normals)), equations=equations, grading_sum=grading)
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


def vertices_by_facet_rank(columns: Sequence[IntVec], hrep: HRep) -> tuple[IntVec, ...]:
    """Columns that span extreme rays, by their tight-facet masks; cross-validates the LP route.

    The columns must be distinct with one nonzero coordinate sum
    (asserted), so the extreme rays are the vertices of their convex
    hull, and every face of the hull is the hull of the columns on it.
    The smallest face through a column is cut out by the facets tight at
    it, so the column is a vertex iff no other column is tight on all of
    them: its tight mask is unique and no other mask strictly contains
    it. A strict superset has more bits, so the masks are scanned by
    falling bit count against the maximal masks found so far. The name
    is kept from the tight-facet rank test this replaced, because
    ``perfbench/tracer.py`` wraps the function by name.
    """
    cols = sorted(set(columns))
    sums = {sum(c) for c in cols}
    if len(sums) != 1 or 0 in sums:
        raise AssertionError(f"vertex test needs distinct columns with one nonzero coordinate sum, got sums {sorted(sums)}")
    pack = PackedNormals(hrep.inequalities, l1_reach(cols))
    masks = [pack.tight(pack.value(c)) for c in cols]
    count = Counter(masks)
    maximal: list[int] = []
    for mask in sorted(count, key=int.bit_count, reverse=True):
        if all(mask & other != mask for other in maximal):
            maximal.append(mask)
    vertex_masks = {mask for mask in maximal if count[mask] == 1}
    return tuple(c for c, mask in zip(cols, masks) if mask in vertex_masks)


def f_vector(columns: Iterable[Sequence[int]]) -> FVector:
    """Proper face counts from the vertex-facet incidence closure."""
    cols = sorted(set(tuple(int(x) for x in c) for c in columns))
    hrep = cone_facets(cols)
    verts = vertices_by_facet_rank(cols, hrep)
    return f_vector_from_incidence(verts, hrep)


def f_vector_from_incidence(vertices: Sequence[IntVec], hrep: HRep) -> FVector:
    dim = affine_rank(vertices)
    if dim < 1:
        raise ValueError("polytope must have dimension >= 1")
    pack = PackedNormals(hrep.inequalities, l1_reach(vertices))
    members: list[list[int]] = [[] for _ in hrep.inequalities]
    for i, v in enumerate(vertices):
        for f in pack.fields(pack.tight(pack.value(v))):
            members[f].append(i)
    facet_sets = [frozenset(m) for m in members if m]
    faces: set[frozenset[int]] = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        nxt = []
        for face in frontier:
            for fs in facet_sets:
                child = face & fs
                if child and child != face and child not in faces:
                    faces.add(child)
                    nxt.append(child)
        frontier = nxt
    counts = [0] * dim
    for face in faces:
        d = affine_rank([vertices[i] for i in face])
        if d < dim:
            counts[d] += 1
    return FVector(dim=dim, counts=tuple(counts))


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
    rng = random.Random((seed, T, k).__hash__() & 0x7FFFFFFF)
    target_sum = k * (T - 1)
    agreements = 0
    bad: list[tuple[Fraction, ...]] = []
    for trial in range(samples):
        style = trial % 3
        if style == 0:
            # random rational point of the dilated polytope (scaled mix)
            weights = [rng.randint(0, 6) for _ in range(4)]
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            picks = [cols[rng.randrange(len(cols))] for _ in range(4)]
            x = tuple(
                Fraction(k * sum(w * p[i] for w, p in zip(weights, picks)), total)
                for i in range(6)
            )
        elif style == 1:
            # integer column sum nudged off by a transfer between coordinates
            acc = [0] * 6
            for _ in range(k):
                p = cols[rng.randrange(len(cols))]
                acc = [a + b for a, b in zip(acc, p)]
            i, j = rng.randrange(6), rng.randrange(6)
            delta = rng.choice([-2, -1, 1, 2])
            acc[i] += delta
            acc[j] -= delta
            x = tuple(Fraction(a) for a in acc)
        else:
            # conic point just off the k-th slice: sum = (k +- 1/q)(T-1)
            weights = [rng.randint(0, 4) for _ in range(3)]
            if not any(weights):
                weights[0] = 1
            total = sum(weights)
            q = rng.randint(2, 5)
            numer = k * q + rng.choice([-1, 1])
            picks = [cols[rng.randrange(len(cols))] for _ in range(3)]
            x = tuple(
                Fraction(numer * sum(w * p[i] for w, p in zip(weights, picks)), q * total)
                for i in range(6)
            )
        in_dilation = linear_feasible(cols, x, coefficient_sum=k)
        in_slice = sum(x) == target_sum and hrep.contains(_integer_multiple(x))
        if in_dilation == in_slice:
            agreements += 1
        else:
            bad.append(x)
    return DilationReport(T=T, k=k, samples=samples, agreements=agreements, counterexamples=tuple(bad))


def integer_points_equal_columns(T: int) -> bool:
    """Exhaustively compare the polytope's integer points with the column set."""
    cols = model_d_columns(T)
    inside = {x for x in compositions(T - 1, 6) if linear_feasible(cols, x, coefficient_sum=1)}
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
    classified = []
    middle = []
    for v in verts:
        cls = stategraph.classify_Gmn(stategraph.graph_of_transition_vector(v, 3))
        classified.append((v, cls.m, cls.n))
        if 3 <= cls.m <= p - 3:
            middle.append(v)
    return VertexClassReport(T=T, p=p, classes=tuple(classified), middle_class_vertices=tuple(middle))


def middle_class_decomposition(x: Sequence[int], T: int) -> tuple[IntVec, IntVec]:
    """Write a G_{q,f(q)} graph vector as (y+z)/2 with y, z three apart in q.

    Mirrors the finite-vertex proof: y swaps two three-cycles for three
    two-cycles, z does the reverse. Raises when the swap is impossible.
    """
    graph = stategraph.graph_of_transition_vector(x, 3)
    decomp = stategraph.cycle_decomposition(graph)
    if decomp.n < 2:
        raise ValueError("need at least two three-cycles to trade away")
    pair = next((pq for pq, cnt in zip(stategraph._PAIRS3, decomp.two_cycles_by_pair) if cnt >= 3), None)
    if pair is None:
        raise ValueError("need at least three two-cycles of one type to trade away")
    i, j = pair
    triangle = stategraph._CW3 if decomp.three_cycles_cw else stategraph._CCW3
    two_cycle = ((i, j), (j, i))
    y = list(int(v) for v in x)
    z = list(int(v) for v in x)
    index = {pq: idx for idx, pq in enumerate(transition_pairs(3, True))}
    for e in triangle:
        y[index[e]] -= 2
        z[index[e]] += 2
    for e in two_cycle:
        y[index[e]] += 3
        z[index[e]] -= 3
    if any(v < 0 for v in y) or any(v < 0 for v in z):
        raise ValueError("trade produced negative multiplicities")
    return tuple(y), tuple(z)


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
