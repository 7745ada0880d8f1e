import time

import pytest

import property_suites

SECONDS = {}  # suite name -> duration of its pass in test_randomized_suite


@pytest.mark.parametrize("suite", property_suites.ALL_SUITES,
                         ids=lambda fn: fn.__name__)
def test_randomized_suite(suite):
    start = time.perf_counter()
    assert suite(n=100) == 100
    SECONDS[suite.__name__] = time.perf_counter() - start


def test_randomized_suites_complete_quickly():
    """Every randomized suite passes 100 fresh instances, all within a 60 s budget.

    The budget is checked on the durations test_randomized_suite recorded, so
    no suite runs twice; a suite without a record in this session (as when
    this test runs alone) runs here.
    """
    for suite in property_suites.ALL_SUITES:
        if suite.__name__ not in SECONDS:
            test_randomized_suite(suite)
    assert sum(SECONDS.values()) < 60.0
