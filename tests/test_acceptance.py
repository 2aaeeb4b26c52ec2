"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or on
failure) and then asserts. Criterion 4 documents a known physical limit of
its pinned parameters: with 200 linear-dispersion modes the bath recurrence
time is t = 200, so averages taken over t in [1500, 2000] include the
quasi-equilibrated finite-bath excess, which exceeds the 0.05 tolerance for
the M = 3 preparation (M = 1, 2 pass). The criterion is implemented as
stated and left red rather than loosened.
"""

import pytest

from qregsim.acceptance import ALL_CRITERIA, CriterionResult


@pytest.mark.parametrize(
    "number,title,check", ALL_CRITERIA, ids=[f"criterion_{n:02d}" for n, _, _ in ALL_CRITERIA]
)
def test_criterion(number, title, check):
    result = CriterionResult.timed(number, title, check)
    print(result)
    assert result.passed, str(result)
