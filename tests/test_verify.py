"""The verification-suite plumbing itself."""

import time

import pytest

from thmc.design import Model
from thmc.verify import (
    ALL_CRITERIA,
    check_design_fixtures,
    run_suite,
    snf_diagonal_via_lattice,
)


def test_criterion_result_shape():
    result = check_design_fixtures()
    assert result.passed and result.name == "design-fixtures"
    assert result.seconds >= 0


def test_criterion_seconds_survive_a_backward_wall_clock(monkeypatch):
    clock = iter(range(1000, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(clock)))
    assert check_design_fixtures().seconds >= 0


def test_snf_lattice_route_values():
    assert snf_diagonal_via_lattice(Model.B, 2, 4) == (1, 1, 1, 3)
    assert snf_diagonal_via_lattice(Model.B, 4, 10) == tuple([1] * 15 + [9])
    assert snf_diagonal_via_lattice(Model.D, 3, 12) == (1, 1, 1, 1, 1, 11)


def test_run_suite_rejects_unknown():
    with pytest.raises(KeyError):
        run_suite(["bogus"])


def test_all_criteria_registered():
    assert len(ALL_CRITERIA) == 12


def test_suite_is_deterministic():
    a = run_suite(["lattice-lemmas"], seed=3)[0]
    b = run_suite(["lattice-lemmas"], seed=3)[0]
    assert a.details == b.details and a.passed and b.passed
