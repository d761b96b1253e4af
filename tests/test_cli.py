"""CLI contract: subcommands, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thmc
from thmc import verify
from thmc.cli import main


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
    result = verify.check_hyperplanes()
    assert not result.passed and "c/T=4:FAIL" in result.details and "d/T=4:PASS" in result.details


def test_hyperplanes_print_block(capsys):
    assert main(["hyperplanes", "--model", "d", "--T", "4"]) == 0
    out = capsys.readouterr().out
    assert "T=4" in out or "T 4" in out or out.strip()


def test_verify_only_filter(capsys):
    assert main(["verify", "--only", "design-fixtures"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "1/1" in out


def test_verify_unknown_criterion(capsys):
    assert main(["verify", "--only", "nope"]) == 1


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


def test_markov_report(capsys, tmp_path):
    moves_path = tmp_path / "moves.txt"
    assert main(["markov", "--model", "d", "--T", "4", "--D", "2", "--moves-out", str(moves_path), "--moves-k", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["minimal_k"] == 2
    assert moves_path.exists()


@pytest.mark.parametrize("extra", [["--D", "5"], ["--D", "2", "--moves-k", "5", "--moves-out", "moves.txt"]])
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


def test_markov_multiset_guard_runs_before_any_work(capsys, monkeypatch):
    import thmc.markov

    def no_search(*args):
        raise AssertionError("multisets enumerated past the size guard")

    monkeypatch.setattr(thmc.markov, "_fibers", no_search)
    assert main(["markov", "--model", "d", "--S", "3", "--T", "20", "--D", "4"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert len(err.splitlines()) == 1 and "multisets" in err and "exceed the cap" in err


def test_markov_move_caps_run_before_any_output(capsys, monkeypatch, tmp_path):
    import thmc.markov

    def no_moves(*args, **kwargs):
        raise AssertionError("a move was built past the pair guard")

    monkeypatch.setattr(thmc.markov, "Move", no_moves)
    moves_path = tmp_path / "moves.txt"
    assert main(["markov", "--model", "d", "--T", "5", "--D", "2", "--moves-k", "3", "--moves-out", str(moves_path)]) == 1
    out, err = capsys.readouterr()
    assert not out and not moves_path.exists()
    assert len(err.splitlines()) == 1 and "candidate move pairs exceed the cap" in err


def test_markov_move_multiset_cap_runs_before_the_probe(capsys, monkeypatch, tmp_path):
    import thmc.markov

    def no_probe(*args, **kwargs):
        raise AssertionError("the probe ran before the move caps")

    monkeypatch.setattr(thmc.markov, "minimal_connecting_degree", no_probe)
    moves_path = tmp_path / "moves.txt"
    assert main(["markov", "--model", "d", "--T", "10", "--D", "2", "--moves-k", "4", "--moves-out", str(moves_path)]) == 1
    out, err = capsys.readouterr()
    assert not out and not moves_path.exists()
    assert len(err.splitlines()) == 1 and "multisets of up to 4 of 1536 words exceed the cap" in err


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
