"""Embedded golden fixtures: example matrices, count tables, hyperplane blocks.

The data files under ``thmc/data`` hold the published reference values
this toolkit reproduces, in a plain-text format: design matrices as
labeled rows under a word header, tables as ``T <t> hb <n> f <f0...>``
lines, hyperplane blocks as row-major integer matrices whose columns
are the inequality normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Iterator

from .design import Model, build_design_matrix, format_row_label
from .intlinalg import IntVec
from .polyhedra import normals_from_block_text
from .words import parse_word


def _read_data(name: str) -> str:
    return (resources.files("thmc") / "data" / name).read_text()


def _data_lines(name: str) -> Iterator[tuple[str, list[str]]]:
    """Each non-empty line of data file ``name`` with its whitespace-split fields."""
    for line in _read_data(name).splitlines():
        if parts := line.split():
            yield line, parts


@dataclass(frozen=True)
class DesignFixture:
    model: Model
    S: int
    T: int
    words: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def columns(self) -> tuple[IntVec, ...]:
        return tuple(zip(*self.rows))


def load_design_fixture(model: Model | str) -> DesignFixture:
    """The printed matrix; a header line (``S``, ``T``, ``words``) given twice, or a row not as long as the words, is a ``ValueError``."""
    model = Model.parse(model)
    name = f"design_{model.value}_{2 if not model.no_loops else 3}_4.txt"
    header: dict[str, list[str]] = {}
    printed: list[list[str]] = []  # label and entries of each row line
    for _, (key, *rest) in _data_lines(name):
        if key == "row":
            printed.append(rest)
        elif key in header:
            raise ValueError(f"{name}: second '{key}' line")
        else:
            header[key] = rest
    words = tuple(map(parse_word, header.get("words", ())))
    for label, *row in printed:
        if len(row) != len(words):
            raise ValueError(f"{name}: row {label} has {len(row)} entries for {len(words)} words")
    S, T = (int(header.get(key, [0])[0]) for key in ("S", "T"))
    rows = tuple(tuple(map(int, row)) for _, *row in printed)
    return DesignFixture(model=model, S=S, T=T, words=words, labels=tuple(label for label, *_ in printed), rows=rows)


@dataclass(frozen=True)
class DesignComparison:
    """How the built matrix relates to the printed fixture.

    ``strict_entrywise`` is the bit-for-bit comparison in lexicographic
    column order. The with-loop matrices print consistently; the
    loop-free ones carry a column permutation between their printed
    header and their printed data (an erratum in the source tables), so
    ``columns_match_as_multiset`` is the faithful check there, and
    ``strict_entrywise`` says whether that permutation is the identity.
    """

    model: Model
    strict_entrywise: bool
    header_is_lex: bool
    labels_match: bool
    columns_match_as_multiset: bool

    @property
    def column_check(self) -> str:
        """How the columns must match: "entrywise" for the with-loop models a and b, as a "multiset" for c and d."""
        return "multiset" if self.model.no_loops else "entrywise"

    @property
    def failed(self) -> tuple[str, ...]:
        """The checks that failed, in the order column check, "header", "labels"; empty when the fixture matches."""
        columns = self.columns_match_as_multiset if self.column_check == "multiset" else self.strict_entrywise
        checks = ((self.column_check, columns), ("header", self.header_is_lex), ("labels", self.labels_match))
        return tuple(name for name, passed in checks if not passed)

    @property
    def ok(self) -> bool:
        return not self.failed


def compare_design_fixture(model: Model | str) -> DesignComparison:
    model = Model.parse(model)
    fixture = load_design_fixture(model)
    built = build_design_matrix(model, fixture.S, fixture.T)
    header_is_lex = fixture.words == built.words
    labels_match = tuple(fixture.labels) == tuple(format_row_label(lab) for lab in built.rows)
    return DesignComparison(
        model=model,
        strict_entrywise=fixture.columns == built.columns,
        header_is_lex=header_is_lex,
        labels_match=labels_match,
        columns_match_as_multiset=sorted(fixture.columns) == sorted(built.columns),
    )


def load_tables() -> dict[str, dict[int, tuple[int, tuple[int, ...]]]]:
    """{model letter: {T: (#HB, f-vector)}} for the loop-free models."""
    tables: dict[str, dict[int, tuple[int, tuple[int, ...]]]] = {}
    current: dict[int, tuple[int, tuple[int, ...]]] | None = None
    for line, parts in _data_lines("tables.txt"):
        if parts[0] == "table":
            table, current = parts[1], tables.setdefault(parts[1], {})
        elif parts[0] == "T":
            if current is None:
                raise ValueError("tables.txt: 'T' row before the first 'table' line")
            if len(parts) < 5 or parts[2] != "hb" or parts[4] != "f":
                raise ValueError(f"tables.txt: malformed row {line.strip()!r}")
            T = int(parts[1])
            if T in current:
                raise ValueError(f"tables.txt: table {table}: second row for T={T}")
            current[T] = (int(parts[3]), tuple(int(x) for x in parts[5:]))
    return tables


def load_hyperplane_blocks(model: Model | str) -> dict[int, tuple[IntVec, ...]]:
    """{T: sorted tuple of printed inequality normals} for models c and d."""
    model = Model.parse(model)
    if model not in (Model.C, Model.D):
        raise ValueError("hyperplane fixtures exist for models c and d only")
    name = f"hyperplanes_{model.value}.txt"
    lines_by_T: dict[int, list[str]] = {}
    cur: int | None = None
    for line, parts in _data_lines(name):
        if parts[0] == "T":
            cur = int(parts[1])
            if cur in lines_by_T:
                raise ValueError(f"{name}: second block for T={cur}")
            lines_by_T[cur] = []
        elif cur is None:
            raise ValueError(f"{name}: matrix row before the first 'T' line")
        else:
            lines_by_T[cur].append(line)
    blocks = {}
    for T, lines in lines_by_T.items():
        try:
            blocks[T] = normals_from_block_text("\n".join(lines))
        except ValueError as exc:
            raise ValueError(f"{name}: T={T}: {exc}") from None
    return blocks


@dataclass(frozen=True)
class HyperplaneComparison:
    """The printed block of T against the computed cone.

    The nontrivial normals must match as sets, and the number of facets
    must be the last entry of the table's f-vector for T; a block without
    a table row (``expected_facets`` None) checks only its normals.
    """

    model: Model
    T: int
    fixture_only: tuple[IntVec, ...]
    computed_only: tuple[IntVec, ...]
    facets: int
    expected_facets: int | None

    @property
    def ok(self) -> bool:
        return not self.fixture_only and not self.computed_only and self.expected_facets in (None, self.facets)


def compare_hyperplanes(
    model: Model, T: int, printed: tuple[IntVec, ...], expected_facets: int | None, computed_nontrivial: tuple[IntVec, ...], facets: int
) -> HyperplaneComparison:
    """The printed block of T and its table row's facet count (None without a row), loaded once by the caller, against the cone."""
    fixture = set(printed)
    computed = set(computed_nontrivial)
    return HyperplaneComparison(
        model=model,
        T=T,
        fixture_only=tuple(sorted(fixture - computed)),
        computed_only=tuple(sorted(computed - fixture)),
        facets=facets,
        expected_facets=expected_facets,
    )
