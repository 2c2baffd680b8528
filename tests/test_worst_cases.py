"""Worst-case inputs with wall-clock budgets.

Large primes must not turn an exact answer into a search, and a dense
integer matrix must not blow up in Smith normal form.  The budgets are
loose (0.5 s for the number theory, 5 s for the 80x80 matrix) because
they only have to separate polynomial work from a search: trial
division up to the square root of a prime near 10^17 alone takes
seconds, and near 10^18 minutes.
"""

import math
import random
import time

import pytest

from bundlegauge.cli import EXIT_OK, EXIT_OUT_OF_SCOPE, EXIT_USAGE, run
from bundlegauge.oracle import IntMatrix, smith_normal_form

NUMBER_THEORY_BUDGET_S = 0.5
DENSE_SNF_BUDGET_S = 5.0


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        # pi_6(SU(3)) != 0, so this one is refused before m is examined.
        ("classify --group SU3 --l 0 --m 100000000000000003", EXIT_OUT_OF_SCOPE),
        # A prime m of the same size with an in-scope group.
        ("classify --group SU4 --l 0 --m 100000000000000003", EXIT_OK),
        ("gauge equiv-s7 --group SU3 --k 1 --kp 2 --locality 1000000000000000003", EXIT_OK),
        ("manifold suspend --l 0 --m 50 --p 1000000000000000003", EXIT_OK),
    ],
)
def test_large_numbers_within_budget(argv, exit_code):
    result, seconds = timed(run, ["--json", *argv.split()])
    assert result.exit_code == exit_code, result.text
    assert seconds < NUMBER_THEORY_BUDGET_S


def test_locality_beyond_the_proven_range_is_a_usage_error():
    # No prime up to 41 divides this number, so it reaches the range check.
    argv = "gauge equiv-s7 --group SU3 --k 1 --kp 2 --locality 3400000000000000000000009"
    result, seconds = timed(run, ["--json", *argv.split()])
    assert result.exit_code == EXIT_USAGE
    assert result.payload["status"] == "usage-error"
    assert "proven range" in result.payload["error"]
    assert seconds < NUMBER_THEORY_BUDGET_S


def bareiss_rank_det(rows):
    """Rank and determinant by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    rank, prev, sign = 0, 1, 1
    for col in range(n):
        pivot = next((i for i in range(rank, n) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            sign = -sign
        for i in range(rank + 1, n):
            f = a[i][col]
            a[i] = [(x * a[rank][col] - f * y) // prev for x, y in zip(a[i], a[rank])]
        prev = a[rank][col]
        rank += 1
    return rank, sign * prev if rank == n else 0


def test_dense_80x80_within_budget():
    rng = random.Random(80)
    rows = [[rng.randint(-9, 9) for _ in range(80)] for _ in range(80)]
    rank, det = bareiss_rank_det(rows)
    (diagonal, snf_rank), seconds = timed(smith_normal_form, IntMatrix.from_rows(rows))
    assert snf_rank == rank == 80
    assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
    assert math.prod(diagonal) == abs(det)
    assert seconds < DENSE_SNF_BUDGET_S
