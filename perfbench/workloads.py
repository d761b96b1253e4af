"""The benchmark's workloads: seeded inputs, timed steps and the checks that gate them.

A workload is a list of steps; one pass runs every step once, in order,
and each step checks every result it computes. ``setup`` does all the
work that precedes the first timed call: importing thmc afresh, loading
the fixtures and drawing the seeded inputs. Sizes live in ``Plan``; the
benchmark uses ``FULL`` and its tests use ``SMALL``.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass, field
from types import ModuleType, SimpleNamespace
from typing import Callable

LAYERS = ("design", "intlinalg", "stategraph", "polyhedra", "hilbert", "markov")
MARKOV_K_LIMIT = 6  # criterion 12: minimal_k may not exceed the conjectured 6 at S=3
FULL_REPORT = 10**9  # report limit above any fiber count, so every multi-class fiber is listed


@dataclass(frozen=True)
class Plan:
    # tables: (model, T) rows, checked against fixtures.load_tables()
    table_rows: tuple[tuple[str, int], ...]
    # polytope: the three parts of criterion 8
    integer_point_T: tuple[int, ...]
    dilation_T: tuple[int, ...]
    dilation_k: tuple[int, ...]
    dilation_samples: int
    vertex_class_T: tuple[int, ...]
    # markov: (T, D) probes on model d, S=3
    probes: tuple[tuple[int, int], ...]
    # markov: (T, move degree k, fiber degrees) word-level walks
    walks: tuple[tuple[int, int, tuple[int, ...]], ...]
    # fibers are drawn until they hold this many elements per (T, degree);
    # the walk costs about the same per element, so the work varies little by seed
    walk_elements: int
    walk_draws: int  # seeded multisets prepared per (T, degree)


FULL = Plan(
    table_rows=(("d", 15), ("c", 9)),
    integer_point_T=(4, 5, 6, 7, 8),
    dilation_T=(4, 5, 6, 7, 8),
    dilation_k=(1, 2, 3),
    dilation_samples=40,
    vertex_class_T=tuple(range(13, 26)),
    probes=((4, 4), (5, 4), (6, 4), (7, 3), (8, 3)),
    walks=((4, 3, (2, 3)), (5, 2, (2,))),
    walk_elements=100,
    walk_draws=200,
)

SMALL = Plan(
    table_rows=(("d", 5), ("c", 4)),
    integer_point_T=(4,),
    dilation_T=(4, 5),
    dilation_k=(1, 2),
    dilation_samples=6,
    vertex_class_T=(13,),
    probes=((4, 3), (5, 2)),
    walks=((4, 2, (2,)),),
    walk_elements=8,
    walk_draws=40,
)


class Checks:
    """Counts attempted checks and keeps the failed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Step:
    label: str
    run: Callable[[Checks], None]


@dataclass
class Workload:
    thmc: SimpleNamespace  # the layer modules the steps call
    steps: list[Step] = field(default_factory=list)

    @property
    def modules(self) -> list[ModuleType]:
        return [sys.modules["thmc"], *vars(self.thmc).values()]


def import_thmc() -> SimpleNamespace:
    """Import the thmc layers afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "thmc" or m.startswith("thmc.")]:
        del sys.modules[name]
    names = (*LAYERS, "fixtures", "words")
    return SimpleNamespace(**{n: importlib.import_module(f"thmc.{n}") for n in names})


def setup(name: str, seed: int, plan: Plan = FULL) -> Workload:
    thmc = import_thmc()
    return WORKLOADS[name](Workload(thmc), seed, plan)


def _tables(w: Workload, seed: int, plan: Plan, expected: dict | None = None) -> Workload:
    """Deterministic: the seed is not used."""
    t = w.thmc
    if expected is None:
        expected = t.fixtures.load_tables()

    def row(model: str, T: int, hb: int, fvec: tuple[int, ...]) -> Step:
        def run(checks: Checks) -> None:
            result = t.hilbert.hilbert_basis(model, 3, T)
            fv = t.polyhedra.f_vector(t.design.distinct_columns(model, 3, T))
            checks.expect(result.count == hb, f"{model}/T={T}: {result.count} Hilbert basis elements, fixture {hb}")
            checks.expect(result.normal, f"{model}/T={T}: not normal")
            checks.expect(fv.counts == fvec, f"{model}/T={T}: f-vector {fv.counts}, fixture {fvec}")

        return Step(f"{model}/T={T}", run)

    w.steps = [row(m, T, *expected[m][T]) for m, T in plan.table_rows]
    return w


def _polytope(w: Workload, seed: int, plan: Plan) -> Workload:
    p = w.thmc.polyhedra

    def integer_points(checks: Checks) -> None:
        for T in plan.integer_point_T:
            checks.expect(p.integer_points_equal_columns(T), f"T={T}: integer points differ from the columns")

    def dilation(checks: Checks) -> None:
        for T in plan.dilation_T:
            for k in plan.dilation_k:
                rep = p.verify_dilation_slice(T, k, plan.dilation_samples, seed=seed)
                checks.expect(rep.ok, f"T={T} k={k}: {len(rep.counterexamples)} dilation counterexamples")

    def vertex_classes(checks: Checks) -> None:
        for T in plan.vertex_class_T:
            rep = p.classify_vertices(T)
            checks.expect(rep.ok, f"T={T}: {len(rep.middle_class_vertices)} middle-class vertices")

    w.steps = [
        Step("integer-points", integer_points),
        Step("dilation", dilation),
        Step("vertex-classes", vertex_classes),
    ]
    return w


def _markov(w: Workload, seed: int, plan: Plan) -> Workload:
    t = w.thmc
    Model = t.design.Model
    rng = random.Random(seed)

    def probe(T: int, D: int) -> Step:
        def run(checks: Checks) -> None:
            rep = t.markov.minimal_connecting_degree(Model.D, 3, T, D, report_limit=FULL_REPORT)
            checks.expect(rep.minimal_k <= MARKOV_K_LIMIT, f"T={T} D={D}: minimal_k={rep.minimal_k}")

        return Step(f"probe T={T} D={D}", run)

    def walk(T: int, k: int, draws: dict[int, list[tuple[tuple, tuple]]]) -> Step:
        def run(checks: Checks) -> None:
            moves = t.markov.moves_up_to_degree(Model.D, 3, T, k)
            for degree, drawn in draws.items():
                elements = 0
                for multiset, b in drawn:
                    if elements >= plan.walk_elements:
                        break
                    fiber = t.markov.enumerate_fiber(Model.D, 3, T, b)
                    elements += fiber.size
                    where = f"T={T} b={b}"
                    checks.expect(
                        all(t.markov.sufficient(Model.D, 3, e) == b for e in fiber.elements),
                        f"{where}: a fiber element has another marginal",
                    )
                    checks.expect(multiset in fiber.elements, f"{where}: the drawn multiset is not in its fiber")
                    connected, comps = t.markov.fiber_connected(fiber, moves)
                    checks.expect(connected, f"{where}: {len(comps)} components under moves of degree <= {k}")

        return Step(f"walk T={T} k={k}", run)

    w.steps = [probe(T, D) for T, D in plan.probes]
    for T, k, degrees in plan.walks:
        words = t.words.enumerate_words(3, T, True)
        draws = {}
        for degree in degrees:
            if degree > k:
                raise ValueError(f"fiber degree {degree} above move degree {k} need not connect")
            drawn = []
            for _ in range(plan.walk_draws):
                multiset = tuple(sorted(rng.choice(words) for _ in range(degree)))
                drawn.append((multiset, t.markov.sufficient(Model.D, 3, multiset)))
            draws[degree] = drawn
        w.steps.append(walk(T, k, draws))
    return w


WORKLOADS: dict[str, Callable[[Workload, int, Plan], Workload]] = {
    "tables": _tables,
    "polytope": _polytope,
    "markov": _markov,
}
