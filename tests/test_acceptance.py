"""Acceptance gate: the twelve headline criteria, one pass/fail line each.

Every criterion runs at full stated strength (exact equality, zero
tolerance) through the one runner, ``run_suite``; run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines,
or ``thmc verify`` for the same checks via the CLI.
"""

import pytest

from thmc import verify

NAMES = list(verify.ALL_CRITERIA)


@pytest.mark.parametrize("name", NAMES, ids=[f"{i}-{name}" for i, name in enumerate(NAMES, 1)])
def test_acceptance_criterion(name):
    [result] = verify.run_suite([name], seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] {name}: {result.details} ({result.seconds:.1f}s)")
    assert result.passed, f"{name}: {result.details}"
