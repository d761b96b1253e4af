"""The verification suite: every headline property checked at full strength.

Each criterion is a plain function ``(seed) -> (passed, details)``,
registered once by name in :data:`ALL_CRITERIA`. :func:`run_suite` is
the one place that checks the names, times a criterion and turns its
crash into a failure, so the CLI, the test suite, and ad-hoc runs all
share one implementation. Randomized checks use the seed and are
reproducible; the deterministic ones ignore it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement, permutations
from math import prod
from time import perf_counter
from typing import Callable, Iterable

from . import fixtures, hilbert, markov, polyhedra, stategraph
from .design import Model, build_design_matrix, column_of_word, distinct_columns, iter_columns, sufficient, transition_pairs
from .intlinalg import IntLattice, residue_test, smith_normal_form
from .words import iter_words

_SNF_SAMPLES = 50  # sampled columns double-checked against each generated lattice
_LATTICE_VECTORS = 500  # random vectors per (model, T) in criterion 3
_DILATION_SAMPLES = 200  # points per (T, k) slice of the dilation identity in criterion 8


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float


# ---------------------------------------------------------------------------
# 1. Printed design matrices

def check_design_fixtures(seed: int) -> tuple[bool, str]:
    notes = []
    ok = True
    for model in (Model.A, Model.B, Model.C, Model.D):
        cmp = fixtures.compare_design_fixture(model)
        ok &= cmp.ok
        verdict = ", ".join(f"{name}=FAIL" for name in cmp.failed) or f"{cmp.column_check}=OK"
        if cmp.column_check == "multiset":
            verdict += f" (printed data column order vs lex header: {'identity' if cmp.strict_entrywise else 'permuted'})"
        notes.append(f"{model.value}: {verdict}")
    return ok, "; ".join(notes)


# ---------------------------------------------------------------------------
# 2. Smith normal form theorems

def _generating_words_model_b(S: int, T: int) -> list[tuple[int, ...]]:
    """Words 1...1st for all (s, t): the subset the diagonalization proof reduces."""
    return [(1,) * (T - 2) + (s, t) for s in range(1, S + 1) for t in range(1, S + 1)]


def _generating_words_model_d(T: int) -> list[tuple[int, ...]]:
    """All pivot-path words plus one base word (S = 3)."""
    words = {tuple(1 if i % 2 == 0 else 2 for i in range(T))}
    for i, j, k in permutations((1, 2, 3)):
        for kind in ("type1", "type2"):
            pair = stategraph.pivot_paths(i, j, k, T, kind)
            words.add(pair.P)
            words.add(pair.Q)
    return sorted(words)


def _generated_lattice(model: Model, S: int, T: int) -> IntLattice:
    """The lattice spanned by the columns of the generating words (model b, or model d at S = 3)."""
    if model is Model.B:
        words = _generating_words_model_b(S, T)
    elif model is Model.D:
        if S != 3:
            raise ValueError("lattice route for model d is provided at S = 3")
        words = _generating_words_model_d(T)
    else:
        raise ValueError("lattice route covers models b and d")
    return IntLattice.from_vectors(len(transition_pairs(S, model.no_loops)), (column_of_word(model, S, w) for w in words))


class IndexNotReached(AssertionError):
    """The generating words span a lattice whose index is not T-1."""


def snf_diagonal_via_lattice(model: Model, S: int, T: int, *, seed: int = 0) -> tuple[int, ...]:
    """Invariant factors of the design matrix without materializing it.

    A small generating word set pins the column lattice from below; the
    uniform column sum T-1 pins it from above inside the residue
    sublattice of the same index, so reaching index T-1 proves equality,
    and missing it raises :class:`IndexNotReached`.
    ``_SNF_SAMPLES`` sampled columns are double-checked for membership.
    """
    lat = _generated_lattice(model, S, T)
    factors = lat.invariant_factors()
    if len(factors) != lat.dim or prod(factors) != T - 1:
        raise IndexNotReached(f"generating subset reached factors {factors}, not index {T - 1}")
    rng = random.Random(seed)
    for _ in range(_SNF_SAMPLES):
        w = _random_word(rng, S, T, model.no_loops)
        col = column_of_word(model, S, w)
        if sum(col) != model.column_sum(T):
            raise AssertionError("column sum invariant violated")
        if not lat.contains(col):
            raise AssertionError(f"column of {w} escapes the generated lattice")
    return factors


def _random_word(rng: random.Random, S: int, T: int, no_loops: bool) -> tuple[int, ...]:
    word = [rng.randint(1, S)]
    for _ in range(T - 1):
        while True:
            s = rng.randint(1, S)
            if not no_loops or s != word[-1]:
                break
        word.append(s)
    return tuple(word)


def check_snf_theorems(seed: int) -> tuple[bool, str]:
    lattice_route = [(Model.B, S, T) for S in (2, 3, 4) for T in range(3, 11)] + [(Model.D, 3, T) for T in range(4, 13)]
    for model, S, T in lattice_route:
        try:
            got = snf_diagonal_via_lattice(model, S, T, seed=seed)
        except IndexNotReached as exc:
            return False, f"model {model.value} S={S} T={T}: {exc}"
        if got != tuple([1] * (len(transition_pairs(S, model.no_loops)) - 1) + [T - 1]):
            return False, f"model {model.value} S={S} T={T}: diagonal {got}"
    # direct full-matrix route on the small cases (U*A*V = D asserted inside)
    direct = [(Model.B, 2, 4), (Model.B, 2, 6), (Model.B, 2, 8), (Model.B, 3, 4), (Model.B, 3, 5), (Model.B, 4, 3), (Model.D, 3, 4), (Model.D, 3, 6), (Model.D, 3, 7)]
    for model, S, T in direct:
        rows = build_design_matrix(model, S, T).as_rows()
        snf = smith_normal_form(rows)
        if snf.diagonal != tuple([1] * (len(rows) - 1) + [T - 1]):
            return False, f"direct SNF mismatch for {model.value} S={S} T={T}"
    return True, f"{len(lattice_route)} lattice-route diagonals + {len(direct)} direct full-matrix cross-checks"


# ---------------------------------------------------------------------------
# 3. Lattice membership lemmas

def check_lattice_lemmas(seed: int) -> tuple[bool, str]:
    rng = random.Random(seed)
    agreements = 0
    for model, S in ((Model.B, 3), (Model.D, 3)):
        for T in range(4, 11):
            lat = _generated_lattice(model, S, T)
            for _ in range(_LATTICE_VECTORS):
                if rng.random() < 0.25:
                    y = [0] * lat.dim
                    for _ in range(rng.randint(1, 3)):
                        col = column_of_word(model, S, _random_word(rng, S, T, model.no_loops))
                        sign = rng.choice((-1, 1))
                        y = [a + sign * b for a, b in zip(y, col)]
                else:
                    y = [rng.randint(-10, 10) for _ in range(lat.dim)]
                if lat.contains(y) != residue_test(y, T):
                    return False, f"{model.value} S={S} T={T}: disagreement on {y}"
                agreements += 1
    # direct matrix route on small instances
    for model, S, T in [(Model.B, 2, 4), (Model.B, 2, 5), (Model.D, 3, 4), (Model.D, 3, 5)]:
        snf = smith_normal_form(build_design_matrix(model, S, T).as_rows())
        for _ in range(50):
            y = [rng.randint(-6, 6) for _ in range(len(snf.U))]
            if snf.contains(y) != residue_test(y, T):
                return False, f"direct route disagreement {model.value} S={S} T={T}: {y}"
            agreements += 1
    return True, f"{agreements} membership/residue agreements"


# ---------------------------------------------------------------------------
# 4. Non-normality witnesses

def check_witnesses(seed: int) -> tuple[bool, str]:
    cases = [(Model.A, 3, T) for T in range(4, 9)] + [(Model.B, S, T) for S in (2, 3) for T in range(3, 9)]
    for case in cases:
        hilbert.nonnormality_witness(*case)
    return True, f"{len(cases)} witnesses verified (cone + lattice + integer infeasibility)"


# ---------------------------------------------------------------------------
# 5/6. Table reproduction

def table_row(model: Model | str, T: int) -> tuple[int, int, tuple[int, ...], bool]:
    """(T, Hilbert basis size, f-vector, normal) of one S=3 table row."""
    model = Model.parse(model)
    result = hilbert.hilbert_basis(model, 3, T)
    fv = polyhedra.f_vector(distinct_columns(model, 3, T))
    return T, result.count, fv.counts, result.normal


def row_matches(row: tuple[int, int, tuple[int, ...], bool], expected: tuple[int, tuple[int, ...]]) -> bool:
    _, count, fv, normal = row
    return (count, fv) == expected and normal


def _check_table(model: Model, seed: int) -> tuple[bool, str]:
    """Every fixture row of the model's table, recomputed; the seed is unused."""
    table = fixtures.load_tables()[model.value]
    lines = []
    ok = True
    for T in sorted(table):
        row = table_row(model, T)
        row_ok = row_matches(row, table[T])
        ok &= row_ok
        lines.append(f"T={T}:{'PASS' if row_ok else f'FAIL(hb={row[1]},f={row[2]})'}")
    return ok, " ".join(lines)


# ---------------------------------------------------------------------------
# 7. Hyperplane fixtures

def computed_nontrivial_facets(model: Model, T: int) -> tuple[tuple[tuple[int, ...], ...], polyhedra.HRep]:
    """(facet normals that are not plain coordinate inequalities, full HRep)."""
    cols = distinct_columns(model, 3, T)
    hrep = polyhedra.cone_facets(cols)
    nonneg = set(polyhedra.nonnegativity_normals(len(cols[0])))
    return tuple(sorted(set(hrep.inequalities) - nonneg)), hrep


def check_hyperplanes(seed: int) -> tuple[bool, str]:
    ok = True
    parts = []
    tables = fixtures.load_tables()
    for model in (Model.D, Model.C):
        blocks = fixtures.load_hyperplane_blocks(model)
        facets_of = {T: fv[-1] for T, (_, fv) in tables[model.value].items()}
        for T in sorted(blocks):
            nontrivial, hrep = computed_nontrivial_facets(model, T)
            cmp = fixtures.compare_hyperplanes(model, T, blocks[T], facets_of.get(T), nontrivial, len(hrep.inequalities))
            ok &= cmp.ok
            parts.append(f"{model.value}/T={T}:{'PASS' if cmp.ok else 'FAIL'}")
    return ok, " ".join(parts)


# ---------------------------------------------------------------------------
# 8. Polytope structure

def check_polytope_structure(seed: int) -> tuple[bool, str]:
    for T in range(4, 9):
        if not polyhedra.integer_points_equal_columns(T):
            return False, f"integer points differ from columns at T={T}"
    bad = []
    for T in range(4, 9):
        for k in (1, 2, 3):
            rep = polyhedra.verify_dilation_slice(T, k, _DILATION_SAMPLES, seed=seed)
            if not rep.ok:
                bad.append((T, k, len(rep.counterexamples)))
    if bad:
        return False, f"dilation counterexamples: {bad}"
    middle = []
    for T in range(13, 26):
        rep = polyhedra.classify_vertices(T)
        if not rep.ok:
            middle.append((T, rep.middle_class_vertices))
    if middle:
        return False, f"middle-class vertices found: {middle}"
    return True, f"integer points T=4..8, {_DILATION_SAMPLES} dilation samples x (T=4..8, k=1..3), vertex classes T=13..25"


# ---------------------------------------------------------------------------
# 9. Eulerian round trip

def check_euler_roundtrip(seed: int) -> tuple[bool, str]:
    count = 0
    for T in range(4, 11):
        for word, col in iter_columns(Model.D, 3, T):
            graph = stategraph.graph_of_word(word, 3)
            rebuilt = stategraph.eulerian_path(graph)
            if column_of_word(Model.D, 3, rebuilt) != col:
                return False, f"round trip failed for word {word}"
            count += 1
    return True, f"{count} columns reconstructed"


# ---------------------------------------------------------------------------
# 10. f-vector stabilization

def check_stabilization(seed: int) -> tuple[bool, str]:
    fv = {T: polyhedra.f_vector(distinct_columns(Model.D, 3, T)).counts for T in (4, 5, 6, 7, 11, 12, 14, 15)}
    ok = fv[12] == fv[14] and fv[11] == fv[15]
    distinct_small = len({fv[T] for T in range(4, 8)}) == 4
    return ok and distinct_small, f"f(12)==f(14): {fv[12] == fv[14]}, f(11)==f(15): {fv[11] == fv[15]}, T=4..7 distinct: {distinct_small}"


# ---------------------------------------------------------------------------
# 11. Hilbert oracle agreement

def check_hilbert_oracle(seed: int) -> tuple[bool, str]:
    cap = 3
    checked = []
    for model, Ts in ((Model.D, (4, 5, 6)), (Model.C, (4, 5))):
        for T in Ts:
            main = hilbert.hilbert_basis(model, 3, T)
            main_capped = tuple(sorted(v for v in main.elements if sum(v) <= cap * model.column_sum(T)))
            oracle = hilbert.hilbert_basis_bruteforce_oracle(model, 3, T, cap)
            if main_capped != oracle:
                return False, f"{model.value} T={T}: main {len(main_capped)} vs oracle {len(oracle)}"
            checked.append(f"{model.value}/T={T}")
    return True, f"exact agreement up to degree {cap}: " + ", ".join(checked)


# ---------------------------------------------------------------------------
# 12. Markov-degree probes

# moves a minimal Markov basis of model d needs per degree >= 2, by (S, T, D), from the probe's one pass
_MARKOV_MOVES = {(3, 4, 3): {2: 72}, (3, 5, 3): {2: 210}, (3, 6, 3): {2: 675}, (3, 7, 3): {2: 1495},
                 (3, 8, 3): {2: 3444}, (4, 3, 4): {2: 42, 3: 96, 4: 6}, (5, 3, 2): {2: 210}}


def check_markov_probe(seed: int) -> tuple[bool, str]:
    lines = []
    for (S, T, D), expected in _MARKOV_MOVES.items():
        rep = markov.minimal_connecting_degree(Model.D, S, T, D)
        where = f"d/S={S}/T={T}/D={D}"
        if rep.moves_by_degree != expected:
            return False, f"{where}: moves by degree {rep.moves_by_degree}, expected {expected}"
        lines.append(f"{where}: moves by degree {rep.moves_by_degree}, minimal_k={rep.minimal_k} over {rep.fibers_checked} fibers")
    # the minimal basis of degree <= 3 must connect every word fiber of degree <= 3, grouped by marginal
    for model in (Model.D, Model.C):
        moves = markov.moves_up_to_degree(model, 3, 4, 3)
        words = list(iter_words(3, 4, model.no_loops))
        fibers: dict[tuple[int, ...], list[tuple[tuple[int, ...], ...]]] = {}
        for d in (1, 2, 3):
            for combo in combinations_with_replacement(words, d):
                fibers.setdefault(sufficient(model, 3, combo), []).append(combo)
        columns = distinct_columns(model, 3, 4)  # their sums are an independent route to the same marginals
        marginals = {tuple(map(sum, zip(*combo))) for d in (1, 2, 3) for combo in combinations_with_replacement(columns, d)}
        if set(fibers) != marginals:
            return False, f"{model.value}/S=3/T=4: {len(fibers)} word marginals, {len(marginals)} sums of distinct columns"
        for b in sorted(fibers):
            connected, comps = markov.fiber_connected(markov.Fiber(elements=tuple(fibers[b])), moves)
            if not connected:
                return False, f"{model.value}/S=3/T=4: {len(moves)} moves of degree <= 3 leave the fiber of b={list(b)} in {len(comps)} components"
        degrees = dict(sorted(Counter(len(mv.positive) for mv in moves).items()))
        lines.append(f"{model.value}/S=3/T=4: moves by degree {degrees} connect all {len(fibers)} fibers of degree <= 3")
    return True, "; ".join(lines)


# ---------------------------------------------------------------------------
# Runner

ALL_CRITERIA: dict[str, Callable[[int], tuple[bool, str]]] = {
    "design-fixtures": check_design_fixtures,
    "snf-theorems": check_snf_theorems,
    "lattice-lemmas": check_lattice_lemmas,
    "nonnormality-witnesses": check_witnesses,
    "table-d": partial(_check_table, Model.D),
    "table-c": partial(_check_table, Model.C),
    "hyperplanes": check_hyperplanes,
    "polytope-structure": check_polytope_structure,
    "euler-roundtrip": check_euler_roundtrip,
    "fvector-stabilization": check_stabilization,
    "hilbert-oracle": check_hilbert_oracle,
    "markov-probe": check_markov_probe,
}


class UnknownCriterion(ValueError):
    """A criterion name that is empty or not in :data:`ALL_CRITERIA`."""


def criterion_names(only: Iterable[str] | None) -> list[str]:
    """The names to run, all by default; an empty or unknown name refuses the lot, in one line."""
    names = list(ALL_CRITERIA) if only is None else list(only)
    if "" in names:
        raise UnknownCriterion(f"empty criterion name; known: {', '.join(ALL_CRITERIA)}")
    unknown = [name for name in names if name not in ALL_CRITERIA]
    if unknown:
        raise UnknownCriterion(f"unknown criteria: {', '.join(unknown)}; known: {', '.join(ALL_CRITERIA)}")
    return names


def run_suite(only: Iterable[str] | None = None, seed: int = 0) -> list[CriterionResult]:
    """The named criteria (all by default) in order, each timed; a crash is a failure with the error as detail."""
    results = []
    for name in criterion_names(only):  # every name is checked before the first criterion runs
        start = perf_counter()
        try:
            passed, details = ALL_CRITERIA[name](seed)
        except Exception as exc:
            passed, details = False, f"error: {exc!r}"
        results.append(CriterionResult(name=name, passed=passed, details=details, seconds=perf_counter() - start))
    return results
