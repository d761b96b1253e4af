"""Embedded fixture data: loading and comparison semantics."""

import pytest

from thmc import fixtures
from thmc.design import Model, build_design_matrix
from thmc.fixtures import (
    compare_design_fixture,
    compare_hyperplanes,
    load_design_fixture,
    load_hyperplane_blocks,
    load_tables,
)


def test_design_fixture_shapes():
    assert len(load_design_fixture(Model.A).rows) == 6
    assert len(load_design_fixture(Model.B).rows) == 4
    fixture_c = load_design_fixture(Model.C)
    assert len(fixture_c.rows) == 9 and len(fixture_c.words) == 24
    fixture_d = load_design_fixture(Model.D)
    assert len(fixture_d.rows) == 6 and len(fixture_d.words) == 24


def test_with_loop_fixtures_strict():
    for model in (Model.A, Model.B):
        cmp = compare_design_fixture(model)
        assert cmp.strict_entrywise and cmp.header_is_lex and cmp.labels_match and cmp.ok


def test_loopfree_fixtures_permuted_multiset():
    for model in (Model.C, Model.D):
        cmp = compare_design_fixture(model)
        assert cmp.header_is_lex and cmp.labels_match
        assert cmp.columns_match_as_multiset and cmp.ok
        # the printed data deviates from its own lex header (a documented erratum): same columns, other order
        assert not cmp.strict_entrywise
        assert sorted(load_design_fixture(model).columns) == sorted(build_design_matrix(model, 3, 4).columns)


def test_loopfree_fixture_headers_are_words_of_build():
    fixture = load_design_fixture(Model.D)
    built = build_design_matrix(Model.D, 3, 4)
    assert fixture.words == built.words


def test_tables_complete():
    tables = load_tables()
    assert sorted(tables["c"]) == list(range(4, 10))
    assert sorted(tables["d"]) == list(range(4, 16))
    assert tables["d"][4] == (20, (20, 69, 90, 51, 12))
    assert tables["d"][15] == (468, (63, 216, 257, 126, 24))
    assert tables["c"][9] == (162, (72, 435, 968, 1062, 633, 204, 30))
    # every f-vector ends with the facet count and starts with the vertex count
    for letter, rows in tables.items():
        for T, (hb, fvec) in rows.items():
            assert hb >= fvec[0]


def test_hyperplane_blocks_shape():
    blocks_d = load_hyperplane_blocks(Model.D)
    assert sorted(blocks_d) == list(range(4, 16))
    assert len(blocks_d[4]) == 6
    assert all(len(blocks_d[T]) == 18 for T in range(5, 16))
    assert all(len(h) == 6 for T in blocks_d for h in blocks_d[T])
    blocks_c = load_hyperplane_blocks(Model.C)
    assert sorted(blocks_c) == list(range(4, 10))
    assert {len(blocks_c[T]) for T in (4, 6, 8)} == {16}
    assert {len(blocks_c[T]) for T in (5, 7, 9)} == {22}
    with pytest.raises(ValueError):
        load_hyperplane_blocks(Model.A)


def test_hyperplane_T4_contains_printed_column():
    blocks = load_hyperplane_blocks(Model.D)
    assert (2, -1, -1, -1, 2, 2) in blocks[4]


def test_compare_hyperplanes_detects_mismatch():
    blocks = load_hyperplane_blocks(Model.D)
    tampered = tuple(sorted(blocks[4][:-1] + ((9, 9, 9, 9, 9, 9),)))
    cmp = compare_hyperplanes(Model.D, 4, blocks[4], 12, tampered, 12)
    assert not cmp.ok
    assert cmp.fixture_only and cmp.computed_only


def test_compare_hyperplanes_checks_the_facet_count_of_the_table_row():
    # d/T=4 has 12 facets, the last entry of its f-vector; without a table row only the normals are checked
    normals = load_hyperplane_blocks(Model.D)[4]
    assert load_tables()["d"][4][1][-1] == 12
    assert compare_hyperplanes(Model.D, 4, normals, 12, normals, 12).ok
    cmp = compare_hyperplanes(Model.D, 4, normals, 12, normals, 11)
    assert not cmp.ok and not cmp.fixture_only and not cmp.computed_only
    assert compare_hyperplanes(Model.D, 4, normals, None, normals, 11).ok


def test_hyperplane_check_reads_each_data_file_once(monkeypatch, capsys):
    # the printed blocks and the table are loaded once per run, not once per T
    from thmc.cli import main

    real = fixtures._read_data
    reads = []
    monkeypatch.setattr(fixtures, "_read_data", lambda name: reads.append(name) or real(name))
    assert main(["hyperplanes", "--model", "d", "--check-fixture"]) == 0
    assert capsys.readouterr().out.count("PASS") == 12
    assert sorted(reads) == ["hyperplanes_d.txt", "tables.txt"]


def _patch_design_text(monkeypatch, edit):
    """Serve the shipped model-a design fixture with its lines passed through ``edit``."""
    text = "\n".join(edit(fixtures._read_data("design_a_2_4.txt").splitlines())) + "\n"
    monkeypatch.setattr(fixtures, "_read_data", lambda name: text)


def test_design_fixture_row_longer_than_the_words_is_a_value_error(monkeypatch):
    # zipping the rows into columns would cut the extra entry off and the fixture would still match
    def one_more_entry(lines):
        first_row = next(i for i, line in enumerate(lines) if line.startswith("row "))
        return lines[:first_row] + [lines[first_row] + " 0"] + lines[first_row + 1 :]

    _patch_design_text(monkeypatch, one_more_entry)
    with pytest.raises(ValueError, match="design_a_2_4.txt: row 1 has 17 entries for 16 words"):
        load_design_fixture(Model.A)


def test_design_fixture_second_T_line_is_a_value_error(monkeypatch):
    # a second T line would otherwise replace the first
    def T_twice(lines):
        T_line = lines.index("T 4")
        return lines[: T_line + 1] + ["T 5"] + lines[T_line + 1 :]

    _patch_design_text(monkeypatch, T_twice)
    with pytest.raises(ValueError, match="design_a_2_4.txt: second 'T' line"):
        load_design_fixture(Model.A)


def test_hyperplane_row_before_any_T_line_is_a_value_error(monkeypatch):
    monkeypatch.setattr(fixtures, "_read_data", lambda name: "1 0 2\nT 4\n0 1 1\n")
    with pytest.raises(ValueError, match="hyperplanes_d.txt"):
        load_hyperplane_blocks(Model.D)


def test_ragged_hyperplane_block_is_a_value_error(monkeypatch):
    # the second row lacks one entry; truncating to the shortest row would drop a normal
    monkeypatch.setattr(fixtures, "_read_data", lambda name: "T 4\n1 0 2\n0 1\n1 1 0\n")
    with pytest.raises(ValueError, match="hyperplanes_c.txt"):
        load_hyperplane_blocks(Model.C)


def test_repeated_hyperplane_block_is_a_value_error(monkeypatch):
    # a second block for T would otherwise replace the first
    monkeypatch.setattr(fixtures, "_read_data", lambda name: "T 4\n1 0\n0 1\nT 4\n5\n5\n")
    with pytest.raises(ValueError, match="hyperplanes_d.txt: second block for T=4"):
        load_hyperplane_blocks(Model.D)


def test_table_row_before_any_table_line_is_a_value_error(monkeypatch):
    monkeypatch.setattr(fixtures, "_read_data", lambda name: "T 4 hb 20 f 20 69 90 51 12\ntable d\n")
    with pytest.raises(ValueError, match="tables.txt"):
        load_tables()


def test_repeated_table_row_is_a_value_error(monkeypatch):
    # a second row for T would otherwise replace the first
    monkeypatch.setattr(fixtures, "_read_data", lambda name: "table d\nT 4 hb 20 f 1 2 3\nT 4 hb 21 f 1 2 3\n")
    with pytest.raises(ValueError, match="tables.txt: table d: second row for T=4"):
        load_tables()


def test_table_row_without_hb_and_f_is_a_value_error(monkeypatch, capsys):
    from thmc.cli import main

    monkeypatch.setattr(fixtures, "_read_data", lambda name: "table d\nT 4 20\n")
    with pytest.raises(ValueError, match="tables.txt"):
        load_tables()
    assert main(["tables", "--model", "d", "--T", "4"]) == 1
    assert "tables.txt" in capsys.readouterr().err
