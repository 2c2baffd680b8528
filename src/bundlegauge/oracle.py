"""Independent homology oracle: cellular chain complexes and Smith normal form.

This module deliberately shares no logic with the closed-form homology
in the manifolds module; the only common code is the abelian-group
canonical form.  It builds the cellular chain complex of a total space
(cells in degrees 0, 3, 4, 7; the 4-cell attaches by a degree-m map,
the 7-cell by zero since a closed orientable 7-manifold has H_7 = Z)
and diagonalizes boundary matrices over the integers.

Smith normal form uses exact Python integers, in two phases.  The
first eliminates unit pivots on sparse rows over Z, as boundary
matrices of cell complexes are mostly +-1 entries in sparse rows; each
pivot leaves an invariant factor 1, and the work follows the fill-in,
not the matrix size.  The residual goes to a dense second phase.
Pivoting on the minimal nonzero absolute value does not by itself keep
entries small: on a dense 40x40 matrix with one-digit entries they
reach about 90,000 digits, although the determinant has 52.  So the
dense phase works modulo a gcd of minors that fraction-free Bareiss
elimination exposes, and no entry exceeds Hadamard's bound: the last
two pivots of a square matrix of full rank, whose last invariant
factor is then |det| over the others, or else the minors of the last
pivot step.  Modulo that gcd every entry prime to it is a unit, so the
dense phase first takes such pivots: it scales each to 1, clears its
column with whole-row operations and drops its row and column.
Min-pivot Euclidean elimination handles only what is left.  A
manifold's own complex gives a 1x1 matrix, but the CLI accepts
arbitrary user complexes in a small text format, with boundaries of
any size.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain, compress
from math import gcd, prod

from .abelian import AbGroup, make_group
from .manifolds import ManifoldSpec

__all__ = [
    "IntMatrix",
    "ChainComplex",
    "SNFResult",
    "smith_normal_form",
    "complex_for_manifold",
    "homology_of",
    "parse_complex",
]


def _exact_int(x, i: int, j: int) -> int:
    """int(x) for entry [i][j], refusing a value that int() would
    truncate; a numeric string converts or fails in int() itself."""
    n = int(x)
    if n != x and type(x) is not str:
        raise ValueError(f"matrix entry {x!r} in row {i}, column {j} is not an integer")
    return n


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """An exact integer matrix; rows and cols may be zero.  entries is a
    tuple of row tuples."""

    __slots__ = ()

    def __new__(
        cls, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]
    ) -> IntMatrix:
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows:
            raise ValueError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        # Build each tuple from a list, at its final size: a tuple built
        # from a generator is resized as it grows, which over many calls
        # fragments the allocator and raises peak memory.  int() converts
        # only when a type check at C speed finds an entry not an int, and
        # refuses one that it would truncate, such as 2.9 or 5/2.
        data = tuple([tuple(row) for row in rows])
        if not {int}.issuperset(map(type, chain.from_iterable(data))):
            data = tuple([tuple([_exact_int(x, i, j) for j, x in enumerate(row)])
                          for i, row in enumerate(data)])
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, ((0,) * cols,) * rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product that multiplies nonzero entries only."""
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        # any and compress skip the zeros at C speed.
        columns = range(other.cols)
        sparse = [[(j, row[j]) for j in compress(columns, row)] if any(row) else ()
                  for row in other.entries]
        data = []
        for row in self.entries:
            acc = [0] * other.cols
            for x, nonzeros in compress(zip(row, sparse), row):
                for j, y in nonzeros:
                    acc[j] += x * y
            data.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(data))


# diagonal holds the nonzero invariant factors d_1 | d_2 | ...
SNFResult = namedtuple("SNFResult", "diagonal rank")


def _min_pivot(a: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(t, len(a)):
        for j in range(t, len(a[0])):
            v = abs(a[i][j])
            if v != 0 and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def _bareiss_rank_minor(a: list[list[int]]) -> tuple[int, int, int, int]:
    """Rank r, |P_r|, |P_{r-1}| and the gcd of the last pivot step.

    Fraction-free elimination in place: every intermediate entry is,
    up to sign, a minor of the input, so each division is exact and no
    entry exceeds Hadamard's bound.  The k-th pivot P_k is the k x k
    minor on the first k pivot rows and columns, and P_0 = 1.  At the
    last step the pivot row from the pivot column on and that column
    below the pivot hold r x r minors; their gcd is returned.  The zero
    matrix gives (0, 1, 1, 1).

    A row with a zero in the pivot column only gets scaled by p / prev.
    When that factor is 1 or -1 the row is left as it is; for -1 that
    amounts to negating an input row, which changes neither the rank nor
    any |minor|.
    """
    nrows, ncols = len(a), len(a[0])
    rank, prev, before, step = 0, 1, 1, [1]
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        p = top[col]
        step = top[col:] + [row[col] for row in a[rank + 1 :]]
        for i in range(rank + 1, nrows):
            row = a[i]
            f = row[col]
            if f == 0 and (p == prev or p == -prev):
                continue
            # Columns before col are zero below the pivot rows already.
            row[col:] = [(x * p - f * y) // prev for x, y in zip(row[col:], top[col:])]
        before, prev = prev, p
        rank += 1
        if rank == nrows:
            break
    return rank, abs(prev), abs(before), gcd(*step)


def _unit_pivots(entries: Sequence[Sequence[int]]) -> tuple[int, Sequence[Sequence[int]]]:
    """Phase 1 of smith_normal_form: eliminate unit pivots over Z.

    Rows are held as dicts of their nonzero entries, with a column ->
    rows index.  A pivot is a +-1 entry of a column whose entries are
    all +-1, taken from the shortest row that has one, in the shortest
    such column.  Clearing its column then needs row multipliers +-1
    only, and column operations would clear its row without touching
    any other entry, so the pivot's row and column are dropped and
    leave one invariant factor 1.  heavy counts the entries other than
    +-1 in each column, and a column whose count falls to zero wakes
    its rows.

    Returns the number of pivots and the residual: the rows left, on
    the columns that still hold an entry, or the input itself when no
    pivot was found.
    """
    # Any nonzero column with all its entries in {-1, 0, 1} holds a
    # pivot, which the queue below finds; without one there is nothing
    # to do, as for most dense matrices.  The scan runs at C speed.
    if not any(
        max(col) <= 1 and min(col) >= -1 and any(col) for col in zip(*entries)
    ):
        return 0, entries
    # Imported here: heapq loads a C extension, and start-up should not
    # pay for it when no input has a unit pivot.
    from heapq import heapify, heappop, heappush

    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    heavy: dict[int, int] = {}
    columns = range(len(entries[0]))
    for i, row in enumerate(entries):
        sparse = {j: row[j] for j in compress(columns, row)}
        if not sparse:
            continue
        rows[i] = sparse
        for j, v in sparse.items():
            if j in cols:
                cols[j].add(i)
            else:
                cols[j] = {i}
            if v != 1 and v != -1:
                heavy[j] = heavy.get(j, 0) + 1
    queue = [(len(row), i) for i, row in rows.items()]
    heapify(queue)

    def lighten(c: int) -> None:
        heavy[c] -= 1
        if not heavy[c]:
            del heavy[c]
            for k in cols[c]:
                heappush(queue, (len(rows[k]), k))

    ones = 0
    while queue:
        length, i = heappop(queue)
        pivot_row = rows.get(i)
        if pivot_row is None or len(pivot_row) != length:
            continue  # eliminated or changed since it was queued
        units = [j for j in pivot_row if j not in heavy]
        if not units:
            continue
        j = min(units, key=lambda c: len(cols[c]))
        p = pivot_row.pop(j)
        del rows[i]
        ones += 1
        for c, v in pivot_row.items():
            cols[c].discard(i)
            if v != 1 and v != -1:
                lighten(c)
        for k in cols.pop(j):
            if k == i:
                continue
            row = rows[k]
            f = row.pop(j) * p  # row_k -= f * row_i zeroes row_k[j]
            for c, v in pivot_row.items():
                old = row.get(c, 0)
                new = old - f * v
                if old and old != 1 and old != -1:
                    lighten(c)
                if new:
                    row[c] = new
                    if not old:
                        cols[c].add(k)
                    if new != 1 and new != -1:
                        heavy[c] = heavy.get(c, 0) + 1
                else:
                    del row[c]
                    cols[c].discard(k)
            if row:
                heappush(queue, (len(row), k))
            else:
                del rows[k]
    live = sorted(c for c, held in cols.items() if held)
    return ones, [[row.get(c, 0) for c in live] for row in rows.values()]


def _dense_snf(entries: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Phase 2 of smith_normal_form: invariant factors and rank of a
    nonempty dense matrix, by elimination modulo a gcd of minors.

    Elimination on entries reduced mod M computes the invariants of the
    lattice spanned by the columns and by M Z^rows: gcd(d_i, M) for
    i <= r, the rank, and M beyond.  Bareiss elimination gives r and M,
    a multiple of g_k = d_1...d_k, the gcd of the k x k minors:

    - Square of full rank: M = gcd(P_{r-1}, P_r).  Both pivots are
      multiples of g_{r-1}, so d_i = gcd(d_i, M) for i < r, and
      d_r = P_r / (d_1...d_{r-1}) since P_r = |det| = g_r.
    - Otherwise: M is the gcd of the r x r minors of the last pivot
      step, a multiple of g_r, so d_i = gcd(d_i, M) for every i <= r.

    Unit pivots come first, as in phase 1 over Z.  An entry x with
    gcd(x, M) = 1 is a unit of Z/MZ: scaling its row by x^-1 mod M
    makes it 1, whole-row operations clear its column, and its row and
    column are dropped, leaving one invariant factor 1.  Min-pivot
    elimination then runs on what remains, where no entry is a unit.
    Each pivot e gives gcd(e, M), and pivots still missing after the
    entries vanish mod M are M.
    """
    rank, minor, previous, last = _bareiss_rank_minor([list(row) for row in entries])
    square = rank == len(entries) == len(entries[0])
    modulus = gcd(minor, previous) if square else last
    a = [[x % modulus for x in row] for row in entries]
    diagonal: list[int] = []
    while True:
        pivot = next(((i, j) for i, row in enumerate(a) for j in compress(range(len(row)), row)
                      if gcd(row[j], modulus) == 1), None)
        if pivot is None:
            break
        i, j = pivot
        top = a.pop(i)
        inverse = pow(top.pop(j), -1, modulus)
        top = [x * inverse % modulus for x in top]
        for k, row in enumerate(a):
            f = row.pop(j)
            if f:
                a[k] = [(x - f * y) % modulus for x, y in zip(row, top)]
        diagonal.append(1)
    r = rank - len(diagonal)
    nrows, ncols = len(a), len(entries[0]) - len(diagonal)
    t = 0
    while t < r:
        pos = _min_pivot(a, t)
        if pos is None:
            break
        i, j = pos
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            # Clear the pivot column, restarting if a smaller remainder
            # shows up (it becomes the new pivot).  Entries stay in
            # [0, modulus), so the pivot is positive and each remainder
            # is smaller than it.
            restart = False
            for i in range(t + 1, nrows):
                if a[i][t] == 0:
                    continue
                q = a[i][t] // a[t][t]
                for j in range(t, ncols):
                    a[i][j] = (a[i][j] - q * a[t][j]) % modulus
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, ncols):
                if a[t][j] == 0:
                    continue
                q = a[t][j] // a[t][t]
                for i in range(t, nrows):
                    a[i][j] = (a[i][j] - q * a[i][t]) % modulus
                if a[t][j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    restart = True
                    break
            if restart:
                continue
            # gcd(pivot, modulus) must divide the rest of the submatrix
            # for the diagonal to be a divisibility chain.
            g = gcd(a[t][t], modulus)
            if g == 1:
                break
            offender = next(
                (i for i in range(t + 1, nrows) if any(x % g for x in a[i][t + 1 :])),
                None,
            )
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] = (a[t][j] + a[offender][j]) % modulus
        diagonal.append(g)
        t += 1
    diagonal.extend([modulus] * (r - t))
    if square:
        diagonal[-1] = minor // prod(diagonal[:-1])
    return tuple(diagonal), rank


def smith_normal_form(matrix: IntMatrix) -> SNFResult:
    """Diagonalize by unimodular row/column operations.

    Only the invariants are returned: the positive diagonal entries in
    their divisibility chain, plus the rank.  The transformations are
    not tracked.

    Two phases.  The first eliminates unit pivots on sparse rows over
    Z, each leaving an invariant factor 1; it pivots only in columns
    whose entries are all +-1, so every row multiplier is +-1.  The
    second diagonalizes the residual densely, modulo a gcd of minors
    found by Bareiss elimination, and takes unit pivots mod that gcd
    before min-pivot elimination.  The pivot operations are unimodular,
    so the input is equivalent to an identity block beside the
    residual, and the result is (1,) * pivots followed by the residual's
    factors.  Each residual entry is a Schur complement over a pivot
    block of determinant +-1, hence up to sign a minor of the input, so
    Hadamard's bound holds for the residual as for the input.  Zero rows
    change no invariant and are dropped before either phase.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    SNFResult(diagonal=(1, 6), rank=2)
    """
    rows = [row for row in matrix.entries if any(row)] if matrix.cols else ()
    if not rows:
        return SNFResult((), 0)
    ones, residual = _unit_pivots(rows)
    if not residual:
        return SNFResult((1,) * ones, ones)
    diagonal, rank = _dense_snf(residual)
    return SNFResult((1,) * ones + diagonal, ones + rank)


class ChainComplex(namedtuple("ChainComplex", "cells boundaries")):
    """Cells per degree and one boundary matrix per positive degree.

    boundaries[n] is the map C_n -> C_{n-1}, an IntMatrix with
    cells[n-1] rows and cells[n] columns.  The zero-composition law
    is checked at construction.
    """

    __slots__ = ()

    def __new__(
        cls, cells: tuple[int, ...], boundaries: tuple[IntMatrix, ...]
    ) -> ChainComplex:
        if len(boundaries) != max(len(cells) - 1, 0):
            raise ValueError("need one boundary matrix per positive degree")
        for n, d in enumerate(boundaries, start=1):
            if d.rows != cells[n - 1] or d.cols != cells[n]:
                raise ValueError(f"boundary {n} has shape {d.rows}x{d.cols}, "
                                 f"expected {cells[n-1]}x{cells[n]}")
        for n, (d_low, d_high) in enumerate(zip(boundaries, boundaries[1:]), start=2):
            # A product with a zero factor is zero, so only nonzero pairs are multiplied.
            if not (d_low.is_zero() or d_high.is_zero() or d_low.mul(d_high).is_zero()):
                raise ValueError(f"boundary composition d_{n-1} o d_{n} is nonzero")
        return super().__new__(cls, cells, boundaries)

    @classmethod
    def build(cls, cells: list[int], boundary_map: dict[int, IntMatrix]) -> "ChainComplex":
        """Missing boundaries default to the zero matrix of the right shape."""
        bs = []
        for n in range(1, len(cells)):
            d = boundary_map.get(n)
            if d is None:
                d = IntMatrix.zero(cells[n - 1], cells[n])
            bs.append(d)
        return cls(tuple(cells), tuple(bs))


def complex_for_manifold(spec: ManifoldSpec) -> ChainComplex:
    """Minimal cell structure S^3 u e^4 u e^7 of the total space.

    The 4-cell attaches to the 3-sphere by a degree-m map and the 7-cell
    has zero cellular boundary, so the only nontrivial matrix is the
    1x1 boundary (m) in degree 4.  This covers m = 0 and m = 1 as
    degenerate cases of the same complex.
    """
    cells = [1, 0, 0, 1, 1, 0, 0, 1]
    d4 = IntMatrix.from_rows([[spec.m]])
    return ChainComplex.build(cells, {4: d4})


def homology_of(complex: ChainComplex) -> tuple[AbGroup, ...]:
    """H_n = ker d_n / im d_{n+1}, one canonical group per degree.

    Ranks and torsion both come out of the Smith normal form of the
    boundary matrices.
    """
    # The maps C_0 -> 0 and 0 -> C_top have rank 0 and are not built.
    end = SNFResult((), 0)
    snfs = [end, *map(smith_normal_form, complex.boundaries), end]
    results = []
    for n in range(len(complex.cells)):
        image = snfs[n + 1]
        free = complex.cells[n] - snfs[n].rank - image.rank
        if free < 0:
            raise ValueError("inconsistent complex: image exceeds kernel")
        torsion = [d for d in image.diagonal if d > 1]
        results.append(make_group(free, torsion))
    return tuple(results)


# Missing boundaries are built as dense zero matrices, and homology_of
# renders every free rank, so a short cells: line could otherwise imply
# far more work than its file holds.
MAX_BOUNDARY_ENTRIES = 2 * 10**7


def parse_complex(text: str) -> ChainComplex:
    """Read a chain complex from the small text format.

    Format: a ``cells:`` line with the cell counts per degree, then one
    ``boundary N:`` block per nonzero boundary, holding cells[N-1] rows
    of cells[N] integers.  Lines starting with ``#`` are comments.  A
    second ``cells:`` line or a second block for the same N is refused,
    and so are cell counts that, with the entries of their boundaries,
    come to more than MAX_BOUNDARY_ENTRIES.

    >>> cx = parse_complex('''
    ... cells: 1 0 0 1 1 0 0 1
    ... boundary 4:
    ... 6
    ... ''')
    >>> [str(g) for g in homology_of(cx)][3]
    'Z_6'
    """
    cells: list[int] | None = None
    boundary_map: dict[int, IntMatrix] = {}
    pending: int | None = None
    pending_rows: list[list[int]] = []

    def close_pending() -> None:
        nonlocal pending, pending_rows
        if pending is None:
            return
        assert cells is not None
        mat = IntMatrix.from_rows(pending_rows, cols=cells[pending])
        if mat.rows != cells[pending - 1]:
            raise ValueError(
                f"boundary {pending} has {mat.rows} rows, expected {cells[pending - 1]}"
            )
        boundary_map[pending] = mat
        pending, pending_rows = None, []

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("cells:"):
            if cells is not None:
                raise ValueError(f"repeated cells: line: {line!r}")
            cells = [int(x) for x in line.removeprefix("cells:").split()]
            if not cells:
                raise ValueError("cells: line has no counts")
            if any(c < 0 for c in cells):
                raise ValueError("cell counts must be nonnegative")
            entries = sum(cells) + sum(a * b for a, b in zip(cells, cells[1:]))
            if entries > MAX_BOUNDARY_ENTRIES:
                raise ValueError(
                    f"the cell counts imply {entries} cells and boundary entries, "
                    f"over the limit of {MAX_BOUNDARY_ENTRIES}"
                )
            continue
        if line.startswith("boundary"):
            close_pending()
            if cells is None:
                raise ValueError("cells: line must come first")
            head = line.removeprefix("boundary").strip().rstrip(":")
            n = int(head)
            if not 1 <= n < len(cells):
                raise ValueError(f"boundary degree {n} out of range")
            if n in boundary_map:
                raise ValueError(f"repeated boundary block: {line!r}")
            pending = n
            continue
        if pending is None:
            raise ValueError(f"unexpected line outside a boundary block: {line!r}")
        pending_rows.append([int(x) for x in line.split()])
    close_pending()
    if cells is None:
        raise ValueError("missing cells: line")
    return ChainComplex.build(cells, boundary_map)
