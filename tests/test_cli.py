"""CLI contract: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from operator import mul
from pathlib import Path

import pytest

import thmc
from thmc import verify
from thmc.cli import main
from thmc.design import build_design_matrix


def test_design_check_fixture_pass(capsys):
    assert main(["design", "--model", "a", "--S", "2", "--T", "4", "--check-fixture"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_design_csv_output(capsys):
    assert main(["design", "--model", "d", "--S", "3", "--T", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith(",1212,1213,")
    assert len(lines) == 7  # header + 6 rows


def test_design_json_output(capsys):
    assert main(["design", "--model", "b", "--S", "2", "--T", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "b" and len(payload["columns"]) == 8


def test_design_invalid_model_exit_1(capsys):
    assert main(["design", "--model", "x", "--S", "2", "--T", "4"]) == 1


def test_design_fixture_wrong_size_exit_1(capsys):
    assert main(["design", "--model", "a", "--S", "2", "--T", "5", "--check-fixture"]) == 1


def test_design_check_fixture_builds_nothing(capsys, monkeypatch):
    import thmc.cli as cli_mod

    def no_build(*args):
        raise AssertionError("cmd_design built a design matrix")

    monkeypatch.setattr(cli_mod, "build_design_matrix", no_build)
    assert main(["design", "--model", "b", "--S", "3", "--T", "11", "--check-fixture"]) == 1
    out, err = capsys.readouterr()
    assert not out and err.splitlines() == ["no embedded fixture for model b at S=3, T=11"]
    assert main(["design", "--model", "a", "--S", "2", "--T", "4", "--check-fixture"]) == 0  # the fixture check builds its own
    assert "PASS" in capsys.readouterr().out


def test_usage_error_exit_1(capsys):
    assert main(["design", "--model", "a"]) == 1


def test_tables_single_row(capsys):
    assert main(["tables", "--model", "d", "--T", "4..5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_tables_fail_on_tampered_fixture(capsys, monkeypatch):
    import thmc.cli as cli_mod

    real = cli_mod.fixtures.load_tables

    def tampered():
        tables = real()
        tables["d"] = dict(tables["d"])
        tables["d"][4] = (21, (20, 69, 90, 51, 12))
        return tables

    monkeypatch.setattr(cli_mod.fixtures, "load_tables", tampered)
    assert main(["tables", "--model", "d", "--T", "4"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_tables_parallel_jobs(capsys):
    assert main(["tables", "--model", "d", "--T", "4..6", "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert out.index("T= 4") < out.index("T= 5") < out.index("T= 6")


def _inline_pool(monkeypatch):
    """Replace the CLI's process pool by one that records ``max_workers`` and maps in this process."""
    import thmc.cli as cli_mod

    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", InlinePool)
    return workers


def test_jobs_start_at_most_one_worker_per_item(capsys, monkeypatch):
    workers = _inline_pool(monkeypatch)
    assert main(["tables", "--model", "d", "--T", "4..6", "--jobs", "5000"]) == 0
    assert capsys.readouterr().out.count("PASS") == 3
    assert main(["tables", "--model", "d", "--T", "4", "--jobs", "5000"]) == 0  # one row: no pool
    assert main(["verify", "--only", "design-fixtures,euler-roundtrip", "--jobs", "5000"]) == 0
    assert "2/2 criteria passed" in capsys.readouterr().out
    assert workers == [3, 2]


@pytest.mark.parametrize("argv", [["tables", "--model", "d", "--T", "4..6"], ["verify", "--only", "design-fixtures"]])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_1(capsys, monkeypatch, argv, jobs):
    workers = _inline_pool(monkeypatch)
    assert main([*argv, "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    assert not out and not workers
    assert len(err.splitlines()) == 1 and "--jobs must be at least 1" in err


def test_tables_json_format(capsys):
    assert main(["tables", "--model", "c", "--T", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["status"] == "PASS"


def test_hyperplanes_check(capsys):
    assert main(["hyperplanes", "--model", "d", "--T", "4..5", "--check-fixture"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_hyperplanes_check_model_c(capsys):
    assert main(["hyperplanes", "--model", "c", "--T", "4", "--check-fixture"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 1 and "FAIL" not in out


def test_hyperplanes_check_fails_on_a_flipped_model_c_entry(capsys, monkeypatch):
    import thmc.fixtures

    real = thmc.fixtures._read_data

    def flipped(name):
        text = real(name)
        if name != "hyperplanes_c.txt":
            return text
        lines = text.splitlines()
        row = lines.index("T 4") + 1
        first, rest = lines[row].split(None, 1)
        lines[row] = f"{-int(first) or 1} {rest}"
        return "\n".join(lines) + "\n"

    monkeypatch.setattr(thmc.fixtures, "_read_data", flipped)
    assert main(["hyperplanes", "--model", "c", "--T", "4", "--check-fixture"]) == 2
    assert "FAIL" in capsys.readouterr().out
    [result] = verify.run_suite(["hyperplanes"])
    assert not result.passed and "c/T=4:FAIL" in result.details and "d/T=4:PASS" in result.details


@pytest.mark.parametrize(
    "argv,message",
    [
        (["tables", "--model", "d", "--T", "15..16"], "T=16 beyond configured cap 15 for model d"),
        (["tables", "--model", "c", "--T", "9..10"], "T=10 beyond configured cap 9 for model c"),
        (["hyperplanes", "--model", "d", "--T", "14..16", "--check-fixture"], "no fixture block for T=16"),
    ],
)
def test_every_T_of_a_range_is_refused_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args):
        raise AssertionError("a row was computed before the whole range was checked")

    monkeypatch.setattr(verify, "table_row", no_work)
    monkeypatch.setattr(verify, "computed_nontrivial_facets", no_work)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1 and message in err


def test_hyperplanes_print_block(capsys):
    assert main(["hyperplanes", "--model", "d", "--T", "4"]) == 0
    out = capsys.readouterr().out
    assert "T=4" in out or "T 4" in out or out.strip()


def test_verify_only_filter(capsys):
    assert main(["verify", "--only", "design-fixtures"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1" in out


def test_verify_unknown_criterion(capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(verify.ALL_CRITERIA, "design-fixtures", lambda seed: ran.append(seed) or (True, ""))
    for only in ("nope", "design-fixtures,nope"):
        assert main(["verify", "--only", only]) == 1
        out, err = capsys.readouterr()
        assert not out and not ran  # refused before any criterion runs
        assert len(err.splitlines()) == 1 and err.startswith("thmc: unknown criteria: nope; known: design-fixtures, ")


@pytest.mark.parametrize("only", ["", "design-fixtures,", ",design-fixtures"])
def test_verify_empty_criterion_name(capsys, monkeypatch, only):
    # an empty --only is a filter naming nothing, not "no filter"
    ran = []
    monkeypatch.setitem(verify.ALL_CRITERIA, "design-fixtures", lambda seed: ran.append(seed) or (True, ""))
    assert main(["verify", "--only", only]) == 1
    out, err = capsys.readouterr()
    assert not out and not ran
    assert len(err.splitlines()) == 1 and err.startswith("thmc: empty criterion name; known: design-fixtures, ")


def test_verify_seed_determinism(capsys):
    assert main(["verify", "--only", "lattice-lemmas", "--seed", "7", "--format", "json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["verify", "--only", "lattice-lemmas", "--seed", "7", "--format", "json"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["results"][0]["details"] == second["results"][0]["details"]
    assert first["passed"] and second["passed"]


def test_hilbert_csv(capsys):
    assert main(["hilbert", "--model", "d", "--T", "4", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 20


def test_hilbert_json(capsys):
    assert main(["hilbert", "--model", "d", "--T", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"model": "d", "S": 3, "T": 4, "count": 20, "normal": True}


@pytest.mark.parametrize(
    "argv,message",
    [
        (["hilbert", "--model", "d", "--S", "4", "--T", "4"], "T=4 beyond configured cap 3 for model d at S=4"),
        (["hilbert", "--model", "a", "--S", "5", "--T", "2"], "no default T cap for model a at S=5"),
        (["tables", "--model", "d", "--T", "16"], "T=16 beyond configured cap 15 for model d at S=3"),
    ],
)
def test_hilbert_caps_refuse_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args):
        raise AssertionError("columns were built before the cap was checked")

    monkeypatch.setattr(thmc.hilbert, "distinct_columns", no_work)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1 and message in err


def test_markov_report(capsys, tmp_path):
    moves_path = tmp_path / "moves.txt"
    assert main(["markov", "--model", "d", "--T", "4", "--D", "2", "--moves-out", str(moves_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimal_k"] == 2 and payload["moves_by_degree"] == {"2": 72}
    assert len(moves_path.read_text().splitlines()) == 4 + 72


@pytest.mark.parametrize("extra", [["--D", "5"], ["--D", "5", "--moves-out", "moves.txt"]])
def test_markov_degree_guard_runs_before_any_work(capsys, monkeypatch, tmp_path, extra):
    import thmc.markov

    def no_columns(*args):
        raise AssertionError("columns enumerated past the degree guard")

    monkeypatch.setattr(thmc.markov, "distinct_columns", no_columns)
    monkeypatch.setenv("THMC_FIBER_DEGREE_CAP", "9")  # no environment variable lifts the guard
    monkeypatch.chdir(tmp_path)
    assert main(["markov", "--model", "d", "--T", "8", *extra]) == 1
    out, err = capsys.readouterr()
    assert not out and not (tmp_path / "moves.txt").exists()
    assert len(err.splitlines()) == 1 and "degree 5 exceeds cap 4" in err


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--D", "0"], "fiber degree 0 is below 1"),
        (["--D", "-1"], "fiber degree -1 is below 1"),
        (["--D", "0", "--moves-out", "moves.txt"], "fiber degree 0 is below 1"),
    ],
)
def test_markov_degrees_below_one_are_refused_before_any_work(capsys, monkeypatch, tmp_path, extra, message):
    import thmc.markov

    def no_work(*args):
        raise AssertionError("columns or words enumerated past the degree guard")

    monkeypatch.setattr(thmc.markov, "distinct_columns", no_work)
    monkeypatch.setattr(thmc.markov, "iter_columns", no_work)
    monkeypatch.chdir(tmp_path)
    assert main(["markov", "--model", "d", "--T", "4", *extra]) == 1
    out, err = capsys.readouterr()
    assert not out and not (tmp_path / "moves.txt").exists()
    assert len(err.splitlines()) == 1 and message in err


def test_markov_multiset_guard_runs_before_any_work(capsys, monkeypatch):
    import thmc.markov

    def no_search(*args):
        raise AssertionError("multisets enumerated past the size guard")

    monkeypatch.setattr(thmc.markov, "_column_fibers", no_search)
    assert main(["markov", "--model", "d", "--S", "3", "--T", "20", "--D", "4"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1 and "multisets" in err and "exceed the cap" in err


def test_markov_moves_out_writes_the_minimal_basis(capsys, tmp_path):
    moves_path = tmp_path / "moves.txt"
    assert main(["markov", "--model", "d", "--T", "5", "--D", "3", "--moves-out", str(moves_path)]) == 0
    assert json.loads(capsys.readouterr().out)["minimal_k"] == 2
    rows = build_design_matrix("d", 3, 5).as_rows()
    vectors = [[int(x) for x in line.split()] for line in moves_path.read_text().splitlines()]
    assert len(vectors) == 228  # 18 moves of degree 1, 210 of degree 2
    for vec in vectors:
        assert len(vec) == 48 and any(vec)
        assert all(sum(map(mul, row, vec)) == 0 for row in rows)


def test_markov_moves_out_is_empty_without_moves(capsys, tmp_path):
    # b/S=2/T=2 has no moves: no line, so a line reader counts no move
    moves_path = tmp_path / "moves.txt"
    assert main(["markov", "--model", "b", "--S", "2", "--T", "2", "--D", "1", "--moves-out", str(moves_path)]) == 0
    assert json.loads(capsys.readouterr().out)["moves_by_degree"] == {}
    assert moves_path.read_text() == ""


def test_markov_move_multiset_cap_runs_before_the_probe(capsys, monkeypatch, tmp_path):
    import thmc.markov

    def no_probe(*args, **kwargs):
        raise AssertionError("the probe ran before the move caps")

    monkeypatch.setattr(thmc.markov, "minimal_connecting_degree", no_probe)
    moves_path = tmp_path / "moves.txt"
    assert main(["markov", "--model", "d", "--T", "10", "--D", "4", "--moves-out", str(moves_path)]) == 1
    out, err = capsys.readouterr()
    assert not out and not moves_path.exists()
    assert len(err.splitlines()) == 1 and "multisets of up to 4 of 166 columns exceed the cap" in err


def test_unwritable_output_exit_1(capsys, tmp_path):
    missing = tmp_path / "missing" / "x.csv"
    assert main(["design", "--model", "d", "--S", "3", "--T", "4", "--format", "csv", "--output", str(missing)]) == 1
    out, err = capsys.readouterr()
    assert not out and len(err.splitlines()) == 1 and "No such file" in err


def _negated_facets(monkeypatch):
    import thmc.polyhedra

    real = thmc.polyhedra.dual_description
    monkeypatch.setattr(thmc.polyhedra, "dual_description", lambda gens: tuple(tuple(-x for x in h) for h in real(gens)))
    return ["hyperplanes", "--model", "d", "--T", "4"]


def _tilted_facet(monkeypatch):
    import thmc.polyhedra

    # 4r + t for the first normal r of d/T=4: exactly one column falls outside it, by 1
    real = thmc.polyhedra.dual_description

    def tilted(gens):
        first, *rest = real(gens)
        return (tuple(4 * x + y for x, y in zip(first, (-1, 0, 1, 0, 1, 1))), *rest)

    monkeypatch.setattr(thmc.polyhedra, "dual_description", tilted)
    return ["hyperplanes", "--model", "d", "--T", "4"]


def _failed_witness(monkeypatch):
    import thmc.hilbert

    def broken(*args, **kwargs):
        raise thmc.hilbert.WitnessVerificationFailed("lattice combination does not match h")

    monkeypatch.setattr(thmc.hilbert, "hilbert_basis", broken)
    return ["hilbert", "--model", "d", "--T", "4"]


@pytest.mark.parametrize("breakage", [_negated_facets, _tilted_facet, _failed_witness])
def test_broken_invariant_exit_2(capsys, monkeypatch, breakage):
    assert main(breakage(monkeypatch)) == 2
    out, err = capsys.readouterr()
    assert not out and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("error", [KeyError("k"), IndexError("list index out of range")], ids=["KeyError", "IndexError"])
def test_internal_error_exit_2_in_one_line_naming_its_type(capsys, monkeypatch, error):
    def broken(only):
        raise error

    monkeypatch.setattr(verify, "criterion_names", broken)
    assert main(["verify"]) == 2
    out, err = capsys.readouterr()
    assert not out and err.splitlines() == [f"thmc: internal error: {type(error).__name__}: {error}"]


def test_python_dash_m_runs_the_command_line(tmp_path):
    # from a checkout: only the source directory on the path, run from elsewhere
    env = {**os.environ, "PYTHONPATH": str(Path(thmc.__file__).resolve().parents[1])}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "thmc", *args], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)

    ok = run("verify", "--only", "design-fixtures", "--format", "json")
    assert ok.returncode == 0, ok.stderr
    payload = json.loads(ok.stdout)
    assert payload["passed"] and [r["name"] for r in payload["results"]] == ["design-fixtures"]
    unknown = run("verify", "--only", "no-such-criterion")
    assert unknown.returncode == 1 and not unknown.stdout and "unknown criteria" in unknown.stderr
