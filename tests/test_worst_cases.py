"""Worst-case inputs with wall-clock budgets.

Large primes must not turn an exact answer into a search, a dense
integer matrix must not blow up in Smith normal form, and a sparse one
must not cost as much as a dense one of its size.  The budgets are
loose (0.5 s for the number theory, 5 s for the dense 40x40 and 80x80
and the sparse 1000x1000 matrices, 3 s for the Klein bottle, 1 s for
a complex with 3000x3000 zero boundaries) because they only have to separate
polynomial work from a search, or sparse from dense work: trial
division up to the square root of a prime near 10^17 alone takes
seconds, and near 10^18 minutes, dense elimination of the sparse
1000x1000 matrix takes minutes, and walking every entry of the zero
boundaries in Python takes seconds.
"""

import math
import random
import time

import pytest

from bundlegauge.cli import EXIT_OK, EXIT_OUT_OF_SCOPE, EXIT_USAGE, run
from bundlegauge.oracle import ChainComplex, IntMatrix, homology_of, smith_normal_form

NUMBER_THEORY_BUDGET_S = 0.5
DENSE_SNF_BUDGET_S = 5.0
SPARSE_SNF_BUDGET_S = 5.0
KLEIN_HOMOLOGY_BUDGET_S = 3.0
ZERO_BOUNDARY_BUDGET_S = 1.0


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


def test_dense_40x40_with_repeated_factors_within_budget():
    # U diag V for seeded unimodular U and V, each a row-shuffled
    # product of unit lower and upper triangular matrices with entries
    # in [-1, 1].  The diagonal repeats factors up to d_39 = 36, so the
    # modulus is not 1 and min-pivot elimination runs at this size.
    rng = random.Random(40)
    factors = [1] * 30 + [2] * 4 + [6] * 3 + [36] * 3
    diag = rng.sample(factors, 40)

    def unimodular():
        lower = [[1 if i == j else rng.randint(-1, 1) if j < i else 0 for j in range(40)]
                 for i in range(40)]
        upper = [[1 if i == j else rng.randint(-1, 1) if j > i else 0 for j in range(40)]
                 for i in range(40)]
        product = [[sum(x * y for x, y in zip(row, col)) for col in zip(*upper)]
                   for row in lower]
        return rng.sample(product, 40)

    left, right = unimodular(), unimodular()
    rows = [[sum(left[i][k] * diag[k] * right[k][j] for k in range(40)) for j in range(40)]
            for i in range(40)]
    rank, det = bareiss_rank_det(rows)
    (diagonal, snf_rank), seconds = timed(smith_normal_form, IntMatrix.from_rows(rows))
    assert snf_rank == rank == 40
    assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
    assert math.prod(diagonal) == abs(det)
    assert diagonal == tuple(factors)
    assert seconds < DENSE_SNF_BUDGET_S


def rank_mod_p(rows, p=2**61 - 1):
    """Rank over GF(p) by sparse echelon insertion, pivoting each row on
    its column with the fewest entries in the input.  Over Z the rank
    is at least this, and equal unless p divides an invariant factor."""
    rows = [{j: v % p for j, v in enumerate(row) if v} for row in rows]
    count = {}
    for row in rows:
        for j in row:
            count[j] = count.get(j, 0) + 1
    basis = {}
    for row in rows:
        while row:
            c = min(row, key=lambda j: (count[j], j))
            if c not in basis:
                inv = pow(row[c], -1, p)
                basis[c] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[c]
            for j, v in basis[c].items():
                x = (row.get(j, 0) - f * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(basis)


def test_sparse_1000x1000_within_budget():
    rng = random.Random(1000)
    rows = []
    for _ in range(1000):
        row = [0] * 1000
        for j in rng.sample(range(1000), 3):
            row[j] = rng.choice((-1, 1))
        rows.append(row)
    (diagonal, rank), seconds = timed(smith_normal_form, IntMatrix.from_rows(rows))
    assert rank == rank_mod_p(rows)
    assert len(diagonal) == rank
    assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
    assert seconds < SPARSE_SNF_BUDGET_S


def klein_bottle_grid(n, rng):
    """Square cells on an n x n grid glued into a Klein bottle: x wraps
    around, and the top edge (x, n) is glued to the bottom at (-x, 0).
    Cells are shuffled and their orientations flipped at random.
    Returns the cell counts and the boundary matrices d1 and d2."""

    def vertex(x, y):
        return (-x % n) * n if y == n else (x % n) * n + y

    def h_edge(x, y):  # from (x, y) to (x + 1, y), as (index, sign)
        return (((-x - 1) % n) * n, -1) if y == n else ((x % n) * n + y, 1)

    def v_edge(x, y):  # from (x, y) to (x, y + 1)
        return n * n + (x % n) * n + y, 1

    nv, ne, nf = n * n, 2 * n * n, n * n
    d1 = [[0] * ne for _ in range(nv)]
    d2 = [[0] * nf for _ in range(ne)]
    for x in range(n):
        for y in range(n):
            e, _ = h_edge(x, y)
            d1[vertex(x + 1, y)][e] += 1
            d1[vertex(x, y)][e] -= 1
            e, _ = v_edge(x, y)
            d1[vertex(x, y + 1)][e] += 1
            d1[vertex(x, y)][e] -= 1
            f = x * n + y
            for (e, s), sign in (
                (h_edge(x, y), 1),
                (v_edge(x + 1, y), 1),
                (h_edge(x, y + 1), -1),
                (v_edge(x, y), -1),
            ):
                d2[e][f] += sign * s
    vs, es, fs = (rng.sample(range(k), k) for k in (nv, ne, nf))
    e_sign = [rng.choice((-1, 1)) for _ in range(ne)]
    f_sign = [rng.choice((-1, 1)) for _ in range(nf)]
    d1 = [[d1[v][e] * e_sign[e] for e in es] for v in vs]
    d2 = [[d2[e][f] * e_sign[e] * f_sign[f] for f in fs] for e in es]
    return [nv, ne, nf], IntMatrix.from_rows(d1), IntMatrix.from_rows(d2)


def test_klein_bottle_homology_within_budget():
    cells, d1, d2 = klein_bottle_grid(20, random.Random(20))
    complex_ = ChainComplex.build(cells, {1: d1, 2: d2})
    groups, seconds = timed(homology_of, complex_)
    assert [g.render() for g in groups] == ["Z", "Z + Z_2", "0"]
    assert seconds < KLEIN_HOMOLOGY_BUDGET_S


def test_zero_boundaries_within_budget(tmp_path):
    # Without a boundary block both boundaries are zero, 1x3000 and
    # 3000x3000: a 19-byte file with 9 million matrix entries.
    path = tmp_path / "zero.txt"
    path.write_text("cells: 1 3000 3000\n", encoding="utf-8")
    argv = ["--json", "oracle", "homology", "--complex", str(path)]
    result, seconds = timed(run, argv)
    assert result.exit_code == EXIT_OK, result.text
    free = " + ".join(["Z"] * 3000)
    assert result.payload["result"]["degrees"] == ["Z", free, free]
    assert seconds < ZERO_BOUNDARY_BUDGET_S


def test_zero_boundaries_beyond_the_limit_are_refused(tmp_path, monkeypatch):
    # 2*10^10 implied entries, more than memory holds.  Building a zero
    # boundary fails the test at once, so a refusal that comes too late
    # cannot exhaust memory.
    def no_zero_matrix(cls, rows, cols):
        raise AssertionError(f"built a {rows}x{cols} zero boundary")

    monkeypatch.setattr(IntMatrix, "zero", classmethod(no_zero_matrix))
    path = tmp_path / "huge.txt"
    path.write_text("cells: 100000 100000 100000\n", encoding="utf-8")
    argv = ["--json", "oracle", "homology", "--complex", str(path)]
    result, seconds = timed(run, argv)
    assert result.exit_code == EXIT_USAGE
    assert "limit of 20000000" in result.payload["error"]
    assert seconds < 0.1
