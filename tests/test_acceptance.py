"""Acceptance criteria, one test per criterion.

Each test runs the corresponding check from the selftest grid at its
stated tolerance (all checks here are exact; the two timed criteria
carry their runtime bounds inside the check) and prints a pass/fail
line.  Run with -s to see the lines on success.
"""

import re
import time

import pytest

from bundlegauge import selftest

_TIMING = re.compile(r"\d+\.\d+s\b")


@pytest.mark.parametrize(
    "number,name,fn", selftest.CRITERIA, ids=[c[1] for c in selftest.CRITERIA]
)
def test_criterion(number, name, fn):
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:2d} {name}: {status} ({detail}) [{elapsed:.2f}s]")
    assert passed, f"criterion {number} {name}: {detail}"


def test_selftest_aggregate_is_deterministic_and_green():
    first = selftest.run_all()
    assert all(r.passed for r in first), [r.line() for r in first]
    second = selftest.run_all()

    def outcome(results):
        return [(r.number, r.passed, _TIMING.sub("", r.detail)) for r in results]

    assert outcome(second) == outcome(first)
