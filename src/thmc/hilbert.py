"""Hilbert bases of the column cones over the column lattices, and normality.

The main algorithm is the classical primal one, in the coordinates of
the lattice generated by the columns: the facet normals and the degree
are mapped in once, the cone is triangulated by placing the primitive
generator directions, and the lattice points of every half-open
fundamental parallelepiped are tested, graded and reduced to
irreducibles by increasing degree; only the irreducibles are mapped
back. Directions are placed by falling count of tight facets: a face's
vertices come before the directions inside it, which add no simplex,
and the extreme rays on the most facets come first. A placed ray adds
one simplex per boundary facet it sees, and the volumes always sum to
the cone's normalized volume, so fewer, larger simplices do the same
point search with less work. Boundary facets are bitmasks of rays, and
one met again is interior. Every simplex carries its scaled inverse
N = vol R^-1 and vol = |det R|: row i of N is the inward normal of the
facet opposite ray i, and the columns of N mod vol generate the
parallelepiped's coefficient group, walked on packed integers with
each point R c / vol; a candidate is one packed integer throughout.
Only the first simplex takes a Smith normal form; each later one is a
neighbour with one ray exchanged, its (N, vol) a rank-1 update checked
in full against N R = vol I.
A brute-force degree-capped search acts as an independent oracle, and
the explicit non-normality witnesses of the with-loop models are
verified by exact computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import lshift, mul, sub
from typing import Iterable, Iterator, Sequence

from .design import Model, column_of_word, compositions, distinct_columns, transition_pairs
from .intlinalg import IntLattice, IntVec, PackedNormals, identity_matrix, independent_subset, l1_reach, mat_vec, primitive_vector, smith_normal_form
from .polyhedra import PackedColumns, cone_facets, linear_feasible

# the largest T of models a, b, c, d by S; at S=4 the next T takes 6.8 s and 141 MB (d; b takes 4.8 s at T=3),
# while a fills 2.5 GB in 130 s and b, c run past 150 s, on 2 vCPU
_CAPS_BY_S = {2: (30, 10, 9, 15), 3: (30, 10, 9, 15), 4: (2, 3, 3, 3)}
_DEFAULT_T_CAP = {(model, S): cap for S, caps in _CAPS_BY_S.items() for model, cap in zip(Model, caps)}


class RangeExceeded(ValueError):
    """T beyond the configured experiment range for this model."""


class WitnessVerificationFailed(AssertionError):
    """An explicit non-normality witness failed one of its three checks."""


@dataclass(frozen=True)
class HilbertBasisResult:
    model: Model
    S: int
    T: int
    elements: tuple[IntVec, ...]
    normal: bool

    @property
    def count(self) -> int:
        return len(self.elements)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in e) for e in self.elements) + "\n"

    def summary(self) -> dict:
        return {
            "model": self.model.value,
            "S": self.S,
            "T": self.T,
            "count": self.count,
            "normal": self.normal,
        }


def check_T_cap(model: Model, S: int, T: int, max_T: int | None = None) -> None:
    """Refuse T beyond ``max_T`` (default ``_DEFAULT_T_CAP[model, S]``), and an unmeasured S without ``max_T``."""
    cap = max_T if max_T is not None else _DEFAULT_T_CAP.get((model, S))
    if cap is None:
        raise RangeExceeded(f"no default T cap for model {model.value} at S={S}: give max_T (--max-T)")
    if T > cap:
        raise RangeExceeded(f"T={T} beyond configured cap {cap} for model {model.value} at S={S}")


def hilbert_basis(model: Model | str, S: int, T: int, *, max_T: int | None = None) -> HilbertBasisResult:
    """Minimal generating set of cone(columns) ∩ Z(columns).

    Normal iff every element is itself a column (all columns are
    degree-one irreducibles, so containment is equality). T beyond
    ``max_T`` (default ``_DEFAULT_T_CAP[model, S]``) is refused before any work.
    """
    model = Model.parse(model)
    check_T_cap(model, S, T, max_T)
    cols = distinct_columns(model, S, T)
    hrep = cone_facets(cols)
    lattice = IntLattice.from_vectors(len(cols[0]), cols)
    B = lattice.echelon_rows()
    # candidates stay in lattice coordinates z, whose column point is z B: so h.(z B) = (B h).z
    # for every facet normal h, and the degree of z is (B 1).z / colsum
    normals = {primitive_vector(mat_vec(B, h)) for h in hrep.inequalities}
    weight = [sum(row) for row in B]
    colsum = model.column_sum(T)

    # a candidate is one packed integer: its facet values, its r coordinates and, in the top field, its weight,
    # so candidates sort by weight; its L1 norm is below r * l1_reach(directions), that of a difference twice that
    directions = {primitive_vector(lattice.coordinates(c)) for c in cols}
    r = lattice.rank
    pack = PackedNormals([*sorted(normals), *identity_matrix(r), weight], 2 * r * l1_reach(directions))
    guard, width = pack.guard, pack.width
    facets = guard & ((1 << width * len(normals)) - 1)  # the guard bits of the facet fields
    # placing order: falling count of tight facets, then lex, so only the extreme rays add simplices
    directions = sorted(directions, key=lambda z: (-(pack.tight(pack.value(z)) & facets).bit_count(), z))
    forms = [pack.value(z) - guard for z in directions]
    candidates = set(forms)
    for simplex, N, vol in _placing_triangulation(directions, r, normals):
        if vol > 1:  # a unimodular simplex adds no point
            candidates.update(_parallelepiped_points([forms[i] for i in simplex], pack.coords, N, vol))

    top, half = width * (pack.count - 1), 1 << (width - 1)
    accepted, lower, level = [], [], 0  # lower: the accepted values of smaller degree, the last reducer that worked first
    for value in sorted(candidates):
        value += guard
        if value & facets != facets:
            raise AssertionError("parallelepiped candidate escaped the cone")
        deg, rest = divmod((value >> top) - half, colsum)
        if rest:
            raise AssertionError("candidate degree is not integral")
        if deg > level:
            lower, level = accepted[::-1], deg
        # value(z) - value(h) + guard packs z - h, in the cone iff every facet keeps its guard bit;
        # strictly smaller degrees suffice
        shifted = value + guard
        h = next((h for h in lower if (shifted - h) & facets == facets), None)
        if h is None:
            accepted.append(value)
        else:  # candidates in packed order are alike, so a reducer that worked is tried first next
            lower.insert(0, lower.pop(lower.index(h)))

    columns_of_B = list(zip(*B))
    elements = tuple(sorted(tuple(mat_vec(columns_of_B, pack.decode(v)[len(normals) : -1])) for v in accepted))
    normal = set(elements) <= set(cols)
    return HilbertBasisResult(model=model, S=S, T=T, elements=elements, normal=normal)


Simplex = tuple[tuple[int, ...], tuple[IntVec, ...], int]  # (ray indices, N = vol * R^-1, vol)


def _placing_triangulation(rays: Sequence[IntVec], rank: int, normals: set[IntVec]) -> Iterator[Simplex]:
    """Triangulate cone(rays) into simplicial subcones, each with its scaled inverse.

    Incremental placing: start from a linearly independent subset, then
    attach every later ray to the boundary facets it strictly sees, one
    new simplex per visible facet; a ray inside the current cone adds
    nothing. The volumes of the simplices sum to the normalized volume
    of the cone in every order, but their number depends on the order,
    so :func:`hilbert_basis` places them by falling count of tight
    facets. A ray inside a face of dimension >= 1 comes after the face's
    vertices, each tight on a strict superset of its facets, and adds
    nothing: only the extreme rays add simplices (d/S=3/T=15: 316,
    against 1,152 with the extreme rays first in lex order and 12,577 in
    plain lex order; c/S=3/T=9: 1,206, 3,450 and 7,946).

    Facets are bitmasks over the ray indices. A facet met a second time
    is interior: the new simplex must lie on its other side, and the
    facet leaves the boundary. Boundary facets are grouped by primitive
    inward normal; a ray sees a whole group or none of it, so visibility
    costs one dot product per distinct normal: once the extreme rays are
    in, one per facet of the cone. At the end the distinct normals must
    be ``normals``, the primitive facet normals of the double
    description.

    Each simplex comes with (N, vol), N = vol * R^-1 for its ray matrix R
    (rays as columns, in index order) and vol = |det R|: row i of N is
    the inward normal of the facet opposite ray i. Only the first simplex
    takes a Smith form; every later one is the simplex that owns a
    visible facet with one ray exchanged, and :func:`_exchange` updates
    its (N, vol). Each new (N, vol) is checked in full, N R = vol I, by
    one packed evaluation per ray. Placing never removes a simplex, so
    each is yielded as soon as it is added.
    """
    n = len(rays)
    picked = independent_subset(rays, rank)
    reach = l1_reach(rays)

    # primitive inward normal -> (the key itself, which owner entries share; the boundary facets on its hyperplane)
    by_normal: dict[IntVec, tuple[IntVec, set[int]]] = {}
    owner: dict[int, tuple[Simplex, int, IntVec]] = {}  # boundary facet -> (its simplex, position of the ray off it, normal)

    def add_simplex(simplex: tuple[int, ...], N: tuple[IntVec, ...], vol: int) -> Simplex:
        pack = PackedNormals(N, reach)
        guard, width = pack.guard, pack.width
        # every field is exact below 2^(width - 2), so equal integers mean equal fields
        if not 0 < vol < 1 << (width - 2) or any(
            pack.value(rays[j]) != guard + (vol << (width * pos)) for pos, j in enumerate(simplex)
        ):
            raise AssertionError("simplex fails N R = vol I")
        item = (simplex, N, vol)
        full = sum(1 << j for j in simplex)
        for pos, (drop, row) in enumerate(zip(simplex, N)):
            facet = full ^ (1 << drop)
            if facet in owner:  # met again: interior, and the new simplex must lie on its other side
                (other, _, _), off, normal = owner.pop(facet)
                if sum(map(mul, row, rays[other[off]])) >= 0:
                    raise AssertionError("a simplex overlaps its neighbour across a shared facet")
                group = by_normal[normal][1]
                group.remove(facet)
                if not group:
                    del by_normal[normal]
            else:
                normal = primitive_vector(row)
                normal, group = by_normal.setdefault(normal, (normal, set()))
                group.add(facet)
                owner[facet] = (item, pos, normal)
        return item

    first = tuple(sorted(picked))
    N, vol = smith_normal_form([[rays[j][i] for j in first] for i in range(rank)]).scaled_inverse()
    yield add_simplex(first, tuple(map(tuple, N)), vol)
    for idx in range(n):
        if idx in picked:
            continue
        v = rays[idx]
        visible = [
            facet
            for normal, (_, group) in by_normal.items()
            if sum(map(mul, normal, v)) < 0
            for facet in group
        ]
        for facet in visible:
            (simplex, N, vol), drop, _ = owner[facet]
            N, vol = _exchange(N, vol, drop, v)
            exchanged = list(simplex)
            exchanged[drop] = idx
            # sorting the columns of R' permutes the rows of N' alike
            order = sorted(range(rank), key=exchanged.__getitem__)
            yield add_simplex(tuple(exchanged[pos] for pos in order), tuple(N[pos] for pos in order), vol)
    if by_normal.keys() != normals:
        raise AssertionError(
            f"placing's {len(by_normal)} boundary normals differ from the {len(normals)} facet normals of the double description"
        )


def _exchange(N: Sequence[IntVec], vol: int, drop: int, v: IntVec) -> tuple[list[IntVec], int]:
    """(N', vol') after column ``drop`` of R is replaced by v, from N = vol * R^-1.

    With w = N v, R' = R E for E the identity with column ``drop``
    replaced by w / vol, so vol' = |w_d| and N' = vol' E^-1 R^-1: row d
    is sign(w_d) N_d and row i is sign(w_d) (w_d N_i - w_i N_d) / vol, a
    division that must be exact. One rank-1 update, O(r^2).
    """
    w = [sum(map(mul, row, v)) for row in N]
    wd = w[drop]
    sign = 1 if wd > 0 else -1
    nd = N[drop]
    rows = []
    for i, (row, wi) in enumerate(zip(N, w)):
        if i == drop:
            rows.append(tuple(sign * x for x in nd))
            continue
        new = []
        for a, b in zip(row, nd):
            q, rem = divmod(wd * a - wi * b, vol)
            if rem:
                raise AssertionError("exchanged scaled inverse is not integral")
            new.append(sign * q)
        rows.append(tuple(new))
    return rows, abs(wd)


def _parallelepiped_points(rays: Sequence[int], units: Iterable[int], N: Sequence[IntVec], vol: int) -> list[int]:
    """Packed forms of the nonzero lattice points of a simplex's half-open parallelepiped.

    ``rays`` and ``units`` are the packed forms (no guard) of the rays
    and of the unit vectors. The vectors c = vol * lambda = N x mod vol,
    N = vol * R^-1, form the group generated by the columns of N mod vol,
    of order vol; it is built generator by generator until it has that
    order, and no later unit form is read. Each c is one integer whose
    field i, of top + 1 bits for top = bit_length(2 vol), holds
    c_i + 2^top - vol, so a sum sets the top bit of the fields that
    reach vol. The point R c / vol moves with c: generator j is
    e_j - R (N e_j div vol), and a wrap in fields o subtracts the rays
    of o, summed once per o. c_i takes each multiple
    of g_i = gcd(vol, row i of N) g_i times: 2 sum(points) = sum((vol - g_i) rays_i).
    """
    top = (2 * vol).bit_length()  # the guard bit of a field of top + 1 bits
    shifts = range(0, (top + 1) * len(rays), top + 1)
    ones = sum(1 << shift for shift in shifts)
    guard, zero = ones << top, ones * ((1 << top) - vol)
    group = {zero: 0}  # c -> its point
    wrapped = {0: 0}  # the guard bits of the fields that wrapped -> the sum of their rays
    generators = zip(*N)  # the columns of N
    for column, unit in zip(generators, units):
        g = sum(map(lshift, map(vol.__rmod__, column), shifts))
        if zero + g in group:  # no field of g reaches vol
            continue
        at = unit - sum(map(mul, map(vol.__rfloordiv__, column), rays))
        walk = list(group.items())
        for c, p in walk:  # base + k g for k = 0, 1, ..., each new element appended
            s = c + g
            o = s & guard
            c = s - (o >> top) * vol
            if c not in group:
                if o not in wrapped:
                    wrapped[o] = sum(ray for shift, ray in zip(shifts, rays) if o >> (shift + top) & 1)
                group[c] = p = p + at - wrapped[o]
                walk.append((c, p))
        if len(group) == vol:  # complete: every later generator is in it, and so is their sum, looked up once
            break
    if len(group) != vol or zero + sum(map(lshift, (sum(e) % vol for e in zip(*generators)), shifts)) not in group:
        raise AssertionError(f"parallelepiped group has order {len(group)} or a later generator outside it, not vol = {vol}")
    points = list(group.values())
    if 2 * sum(points) != sum((vol - gcd(vol, *row)) * ray for row, ray in zip(N, rays)):
        raise AssertionError("parallelepiped points fail their checksum")
    return points[1:]


# ---------------------------------------------------------------------------
# Brute-force oracle

def hilbert_basis_bruteforce_oracle(model: Model | str, S: int, T: int, degree_cap: int) -> tuple[IntVec, ...]:
    """Degree-capped irreducibles by direct search, independent of the triangulation and of every DD facet.

    The members are the flow-balanced candidates of degree <= cap that
    pass the lattice membership test and exact LP cone membership. Every
    column has the same sum, so sums order degrees: a member y is
    irreducible unless y - a is a member for some member a of smaller sum.
    """
    model = Model.parse(model)
    cols = distinct_columns(model, S, T)
    lattice = IntLattice.from_vectors(len(cols[0]), cols)
    packed = PackedColumns(cols)
    members = {
        y: sum(y)
        for k in range(1, degree_cap + 1)
        for y in _balanced_candidates(model, S, T, k)
        if lattice.contains(y) and linear_feasible(packed, y)
    }
    irreducible = (y for y, s in members.items() if not any(tuple(map(sub, y, a)) in members for a, t in members.items() if t < s))
    return tuple(sorted(irreducible))


def _balanced_candidates(model: Model, S: int, T: int, k: int) -> Iterator[IntVec]:
    """The non-negative degree-k vectors whose transition counts balance the flow through every state.

    The net flow (in minus out) of each state is counted once per
    composition of the k(T-1) transitions. Without initial rows every
    |net| <= k; with them, each composition of the k initial counts with
    init + net >= 0 (the path-end counts) is a candidate.
    """
    pairs = transition_pairs(S, model.no_loops)
    for trans in compositions(k * (T - 1), len(pairs)):
        net = [0] * S
        for (i, j), v in zip(pairs, trans):
            net[i - 1] -= v
            net[j - 1] += v
        if model.has_initial:
            yield from (init + trans for init in compositions(k, S) if all(a + x >= 0 for a, x in zip(init, net)))
        elif all(abs(x) <= k for x in net):
            yield trans


# ---------------------------------------------------------------------------
# Explicit non-normality witnesses

def nonnormality_witness(model: Model | str, S: int, T: int) -> IntVec:
    """The printed saturation-gap vector h, with all three properties re-proved.

    (i) the explicit nonnegative rational combination lands on h (cone
    membership), (ii) the explicit signed integer combination lands on h
    (lattice membership), (iii) h is a hole, no sum of deg(h) columns.
    A witness of degree above 2 is refused. At degree 1 or 2, h is such
    a sum iff h is a distinct column or h - c is one for some column c:
    all columns have degree 1, so only the test of h's own degree can
    hit. Past their cap the distinct columns raise
    :class:`SizeCapExceeded` before their walk starts.
    """
    model = Model.parse(model)
    if model is Model.A:
        if S < 3 or T < 4:
            raise ValueError("model (a) witness needs S >= 3 and T >= 4")
        ones = (1,) * (T - 4)
        threes = (3,) * (T - 4)
        rational = (
            (ones + (1, 1, 1, 2), Fraction(1, 2)),
            (ones + (1, 2, 3, 2), Fraction(1, 2)),
            (threes + (3, 2, 3, 2), Fraction(1, 2)),
            (threes + (3, 3, 3, 2), Fraction(1, 2)),
        )
        lattice = (
            (ones + (1, 1, 2, 3), 1),
            (threes + (3, 3, 3, 2), 1),
            (threes + (3, 2, 3, 2), 1),
            (threes + (3, 3, 2, 3), -1),
        )
    elif model is Model.B:
        if S < 2 or T < 3:
            raise ValueError("model (b) witness needs S >= 2 and T >= 3")
        rational = (
            ((1,) * T, Fraction(1, T - 1)),
            ((2,) * T, Fraction(T - 2, T - 1)),
        )
        lattice = (
            ((1,) * T, 1),
            ((1,) * (T - 1) + (2,), -1),
            ((1,) + (2,) * (T - 1), 1),
        )
    else:
        raise ValueError(f"no printed witness for model {model.value}")

    def combination(terms: Sequence[tuple[tuple[int, ...], Fraction | int]]) -> tuple[Fraction | int, ...]:
        """The sum of coeff * column over the (word, coeff) terms."""
        columns = ([coeff * x for x in column_of_word(model, S, word)] for word, coeff in terms)
        return tuple(map(sum, zip(*columns)))

    h_frac = combination(rational)
    if any(v.denominator != 1 for v in h_frac):
        raise WitnessVerificationFailed("rational combination is not integral")
    h = tuple(map(int, h_frac))
    if combination(lattice) != h:
        raise WitnessVerificationFailed("lattice combination does not match h")

    printed = {(Model.A, 3): (1, 0, 1, T - 3, 1, 0, 0, 0, 1, 0, 2, T - 3), (Model.B, 2): (1, 0, 0, T - 2)}.get((model, S), h)
    if h != printed:
        raise WitnessVerificationFailed(f"witness {h} differs from the printed formula {printed}")

    degree = sum(h) // model.column_sum(T)  # exact: by (ii) h is an integer combination of columns of one sum
    if degree > 2:
        raise WitnessVerificationFailed(f"witness of degree {degree} is beyond the degree-2 hole test")
    columns = set(distinct_columns(model, S, T))
    if h in columns or any(tuple(map(sub, h, c)) in columns for c in columns):
        raise WitnessVerificationFailed("A x = h unexpectedly has a non-negative integer solution")
    return h
