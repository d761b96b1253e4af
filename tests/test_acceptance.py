"""Acceptance gate: the twelve headline criteria, one pass/fail line each.

Every criterion runs at full stated strength (exact equality, zero
tolerance); run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines, or ``thmc verify`` for the same checks via the CLI.
"""

import pytest

from thmc import verify

CRITERIA = list(verify.ALL_CRITERIA.items())


@pytest.mark.parametrize(
    "name,criterion", CRITERIA, ids=[f"{i}-{name}" for i, (name, _) in enumerate(CRITERIA, 1)]
)
def test_acceptance_criterion(name, criterion):
    result = criterion(0)
    status = "PASS" if result.passed else "FAIL"
    print(f"\n[{status}] {name}: {result.details} ({result.seconds:.1f}s)")
    assert result.passed, f"{name}: {result.details}"
