from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bundlegauge import oracle
from bundlegauge.abelian import make_group
from bundlegauge.manifolds import homology, normalize
from bundlegauge.oracle import (
    ChainComplex,
    IntMatrix,
    complex_for_manifold,
    homology_of,
    parse_complex,
    smith_normal_form,
)


def brute_force_minor_gcd(entries, k):
    """gcd of all k x k minors, by direct expansion.  Independent of the
    elimination code: determinants via cofactor recursion."""

    def det(m):
        if len(m) == 1:
            return m[0][0]
        return sum(
            (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
            for j in range(len(m))
        )

    rows, cols = len(entries), len(entries[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            g = gcd(g, det([[entries[i][j] for j in ci] for i in ri]))
    return g


@st.composite
def small_matrices(draw, values=st.integers(-9, 9), size=4):
    rows = draw(st.integers(1, size))
    cols = draw(st.integers(1, size))
    entries = draw(
        st.lists(
            st.lists(values, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return IntMatrix.from_rows(entries, cols=cols)


# Mostly -1, 0 and 1 with an occasional +-2: unit pivots, columns made
# heavy by a 2 (or by fill-in), and residuals left to the dense phase.
UNIT_LEANING = st.sampled_from((-1, 0, 1) * 4 + (2, -2))


def assert_determinantal_divisors(matrix):
    diagonal, rank = smith_normal_form(matrix)
    for a, b in zip(diagonal, diagonal[1:]):
        assert b % a == 0
    entries = [list(row) for row in matrix.entries]
    running = 1
    for k, d in enumerate(diagonal, start=1):
        running *= d
        assert brute_force_minor_gcd(entries, k) == running
    if rank < min(matrix.rows, matrix.cols):
        assert brute_force_minor_gcd(entries, rank + 1) == 0


# Products of 2s and 3s, so that the minor M found by Bareiss is often
# even or divisible by 3 while some entries stay prime to it: the dense
# phase meets both unit and non-unit pivots mod M.
UDV_FACTORS = (0, 1, 2, 3, 4, 6, 12, 36)


def unimodular_mix(rng, n):
    """A seeded n x n integer matrix of determinant +-1: the identity
    after random swaps, negations and additions of +-1 or +-2 times one
    row to another."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            u[a] = [-x for x in u[a]]
        elif rng.random() < 0.25:
            u[a], u[b] = u[b], u[a]
        else:
            f = rng.choice((-2, -1, 1, 2))
            u[a] = [x + f * y for x, y in zip(u[a], u[b])]
    return u


def product(left, right):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


def diagonal_invariants(factors):
    """Invariant factors of a diagonal matrix of products of 2s and 3s:
    for each prime, the i-th factor takes the i-th smallest exponent."""
    nonzero = [d for d in factors if d]

    def exponent(d, p):
        e = 0
        while d % p == 0:
            d, e = d // p, e + 1
        return e

    powers = [sorted(p ** exponent(d, p) for d in nonzero) for p in (2, 3)]
    return tuple(a * b for a, b in zip(*powers)), len(nonzero)


class TestSmithNormalForm:
    def test_single_entry(self):
        assert smith_normal_form(IntMatrix.from_rows([[6]])) == ((6,), 1)

    def test_chain_repair(self):
        # diag(2,3) is not a chain; SNF rewrites it as diag(1,6).
        assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])) == ((1, 6), 2)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix.zero(3, 4)) == ((), 0)
        assert smith_normal_form(IntMatrix.zero(0, 5)) == ((), 0)

    def test_dependent_row_kept(self):
        # One nonzero 1x1 minor, say 2, is the modulus; keeping the row
        # (3) in the elimination gives gcd 1, dropping it would give 2.
        assert smith_normal_form(IntMatrix.from_rows([[2], [3]])) == ((1,), 1)

    def test_pivot_vanishing_mod_the_minor_is_the_minor(self):
        # The minor is 6, so 6 reduces to 0 and the missing pivot is 6.
        assert smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 6]])) == ((1, 6), 2)
        assert smith_normal_form(IntMatrix.from_rows([[6]])) == ((6,), 1)

    def test_unimodular_minor(self):
        assert smith_normal_form(IntMatrix.from_rows([[1, 2], [3, 7]])) == ((1, 1), 2)
        assert smith_normal_form(IntMatrix.from_rows([[2, 3, 4]])) == ((1,), 1)

    def test_all_zero_entries(self):
        assert smith_normal_form(IntMatrix.from_rows([[0]])) == ((), 0)
        assert smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]])) == ((), 0)

    def test_unit_entries(self):
        assert smith_normal_form(IntMatrix.from_rows([[1]])) == ((1,), 1)
        assert smith_normal_form(IntMatrix.from_rows([[-1]])) == ((1,), 1)

    def test_units_only_in_a_heavy_column(self):
        # Column 0 holds the only units, and its 2 makes it heavy, so
        # the sparse phase finds no pivot and hands on the input itself.
        matrix = IntMatrix.from_rows([[1, 2], [2, 2]])
        ones, residual = oracle._unit_pivots(matrix.entries)
        assert ones == 0 and residual is matrix.entries
        assert smith_normal_form(matrix) == ((1, 2), 2)

    def test_unit_pivots_alone(self):
        matrix = IntMatrix.from_rows([[1, -1, 0], [0, 1, -1], [0, 0, 1]])
        assert oracle._unit_pivots(matrix.entries) == (3, [])
        assert smith_normal_form(matrix) == ((1, 1, 1), 3)

    def test_zero_row_and_column_left_after_elimination(self):
        # The pivot clears row 1 and column 1 entirely; only the 3,
        # in a heavy column, reaches the dense phase.
        matrix = IntMatrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 3]])
        assert oracle._unit_pivots(matrix.entries) == (1, [[3]])
        assert smith_normal_form(matrix) == ((1, 3), 2)

    def test_fill_in_makes_a_column_heavy(self):
        # Pivoting on row 0 turns row 1 into (0, 2, 0): column 1 is
        # heavy from then on, and the 2 survives as a factor.
        matrix = IntMatrix.from_rows([[1, -1], [1, 1]])
        assert smith_normal_form(matrix) == ((1, 2), 2)

    def test_unimodular_input_has_minor_one(self):
        # No column is all +-1, so the whole matrix reaches the dense
        # phase, where the modulus is 1 and every entry vanishes mod it.
        entries = [[2, 3, 4], [3, 5, 7], [5, 9, 14]]
        assert oracle._bareiss_rank_minor([list(r) for r in entries]) == (3, 1, 1, 1)
        assert smith_normal_form(IntMatrix.from_rows(entries)) == ((1, 1, 1), 3)

    def test_no_unit_mod_the_minor(self):
        # 2A for the unimodular A above: every entry is even, as is the
        # modulus gcd(8, 4), so no pivot is a unit and min-pivot
        # elimination does all the work.
        entries = [[2 * x for x in row] for row in ([2, 3, 4], [3, 5, 7], [5, 9, 14])]
        assert oracle._bareiss_rank_minor([list(r) for r in entries]) == (3, 8, 4, 8)
        assert smith_normal_form(IntMatrix.from_rows(entries)) == ((2, 2, 2), 3)

    def test_rank_deficient_non_square(self):
        # Row 3 is row 1 plus row 2.  The minor is 24, and the last
        # pivot step's gcd 12 is the modulus: 11 is a unit mod 12, and
        # the 6 is left to min-pivot elimination.
        entries = [[4, 2, 6, 8], [6, 9, 3, 15], [10, 11, 9, 23]]
        assert oracle._bareiss_rank_minor([list(r) for r in entries]) == (2, 24, 4, 12)
        matrix = IntMatrix.from_rows(entries)
        assert smith_normal_form(matrix) == ((1, 6), 2)
        assert_determinantal_divisors(matrix)
        transposed = IntMatrix.from_rows(zip(*entries))
        assert smith_normal_form(transposed) == ((1, 6), 2)

    def test_square_with_coprime_last_pivots(self):
        # P_2 = 2 * 11 - 3 * 7 = 1, so the modulus gcd(P_2, P_3) is 1:
        # every entry vanishes, and the last factor is |det| = 78.
        entries = [[2, 3, 5], [7, 11, 13], [17, 19, 23]]
        assert oracle._bareiss_rank_minor([list(r) for r in entries]) == (3, 78, 1, 78)
        matrix = IntMatrix.from_rows(entries)
        assert smith_normal_form(matrix) == ((1, 1, 78), 3)
        assert_determinantal_divisors(matrix)

    def test_square_with_repeated_factor(self):
        # U diag(2, 2, 12) V: d_2 = 2 > 1, and the modulus gcd(80, 48)
        # is 16, so the last factor 12 is |det| / 4, not gcd(12, 16).
        entries = [[-40, 8, -2], [20, -2, 0], [-28, 8, -2]]
        assert oracle._bareiss_rank_minor([list(r) for r in entries]) == (3, 48, 80, 48)
        matrix = IntMatrix.from_rows(entries)
        assert smith_normal_form(matrix) == ((2, 2, 12), 3)
        assert_determinantal_divisors(matrix)

    def test_non_square_modulo_the_last_pivot_gcd(self):
        # U [diag(1, 2, 6) | 0] V: the last pivot step's gcd 12 is below
        # P_3 = 36 and is the modulus.  The square rule would take
        # gcd(36, 6) and give 36 / 2 = 18 as the last factor.
        entries = [[0, 0, 6, -4], [1, -6, -2, -2], [-3, 24, 6, 8]]
        assert oracle._bareiss_rank_minor([list(r) for r in entries]) == (3, 36, 6, 12)
        matrix = IntMatrix.from_rows(entries)
        assert smith_normal_form(matrix) == ((1, 2, 6), 3)
        assert_determinantal_divisors(matrix)
        transposed = IntMatrix.from_rows(zip(*entries))
        assert smith_normal_form(transposed) == ((1, 2, 6), 3)

    @settings(max_examples=200)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.sampled_from(UDV_FACTORS), min_size=5, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_unimodular_mix_of_a_diagonal(self, rows, cols, factors, rng):
        factors = factors[: min(rows, cols)]
        d = [[factors[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
        entries = product(product(unimodular_mix(rng, rows), d), unimodular_mix(rng, cols))
        matrix = IntMatrix.from_rows(entries, cols=cols)
        assert smith_normal_form(matrix) == diagonal_invariants(factors)
        assert_determinantal_divisors(matrix)

    @settings(max_examples=300)
    @given(small_matrices())
    def test_against_determinantal_divisors(self, matrix):
        assert_determinantal_divisors(matrix)

    @settings(max_examples=300)
    @given(small_matrices(UNIT_LEANING, size=5))
    def test_unit_leaning_against_determinantal_divisors(self, matrix):
        assert_determinantal_divisors(matrix)

    @settings(max_examples=150)
    @given(small_matrices(), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, matrix, rng):
        rows = [list(r) for r in matrix.entries]
        rng.shuffle(rows)
        transposed = list(map(list, zip(*rows)))
        rng.shuffle(transposed)
        shuffled = IntMatrix.from_rows(
            list(map(list, zip(*transposed))), cols=matrix.cols
        )
        assert smith_normal_form(shuffled) == smith_normal_form(matrix)


class TestFromRows:
    def test_entries_coerced_to_exact_int(self):
        matrix = IntMatrix.from_rows([[True, "12"], (False, -3)])
        assert matrix.entries == ((1, 12), (0, -3))
        assert all(type(x) is int for row in matrix.entries for x in row)

    @pytest.mark.parametrize(
        "rows,where",
        [
            ([[2.9]], "row 0, column 0"),
            ([[Fraction(5, 2), 0], [0, 3]], "row 0, column 0"),
            ([[1, 0], [0, -2.5]], "row 1, column 1"),
        ],
        ids=["float", "fraction", "negative-float"],
    )
    def test_an_entry_that_int_would_truncate_is_refused(self, rows, where):
        with pytest.raises(ValueError, match=where):
            IntMatrix.from_rows(rows)

    def test_an_integral_entry_of_another_type_converts(self):
        matrix = IntMatrix.from_rows([[2.0, Fraction(6, 3)]])
        assert matrix.entries == ((2, 2),)
        assert all(type(x) is int for x in matrix.entries[0])

    def test_rows_from_generators(self):
        matrix = IntMatrix.from_rows((x * y for x in range(3)) for y in range(2))
        assert matrix == IntMatrix(2, 3, ((0, 0, 0), (0, 1, 2)))


class TestProduct:
    @given(small_matrices(), st.integers(1, 4), st.data())
    def test_against_the_defining_sum(self, left, cols, data):
        right = data.draw(
            st.lists(
                st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                min_size=left.cols,
                max_size=left.cols,
            )
        )
        product = left.mul(IntMatrix.from_rows(right, cols=cols))
        assert product.entries == tuple(
            tuple(
                sum(left.entries[i][k] * right[k][j] for k in range(left.cols))
                for j in range(cols)
            )
            for i in range(left.rows)
        )

    def test_empty_inner_dimension(self):
        assert IntMatrix.zero(2, 0).mul(IntMatrix.zero(0, 3)) == IntMatrix.zero(2, 3)


class TestChainComplex:
    def test_boundary_shapes_validated(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 2), (IntMatrix.zero(2, 2),))

    def test_composition_law_enforced(self):
        d2 = IntMatrix.from_rows([[1, 0], [0, 1]])
        d1 = IntMatrix.from_rows([[1, 1]])
        with pytest.raises(ValueError, match="composition"):
            ChainComplex((1, 2, 2), (d1, d2))

    def test_composition_checked_beside_a_zero_boundary(self):
        # d1 o d2 has a zero factor; d2 o d3 = (1) must still be refused.
        one = IntMatrix.from_rows([[1]])
        with pytest.raises(ValueError, match="composition d_2 o d_3"):
            ChainComplex((1, 1, 1, 1), (IntMatrix.zero(1, 1), one, one))

    def test_sphere_complex(self):
        # Two cells in degrees 0 and n.
        complex_ = ChainComplex.build([1, 0, 0, 0, 1], {})
        groups = homology_of(complex_)
        assert [g.render() for g in groups] == ["Z", "0", "0", "0", "Z"]

    def test_moore_complex(self):
        # S^3 with a 4-cell attached by degree m: single Z_m in degree 3.
        complex_ = ChainComplex.build(
            [1, 0, 0, 1, 1], {4: IntMatrix.from_rows([[9]])}
        )
        groups = homology_of(complex_)
        assert groups[3] == make_group(0, [9])
        assert groups[4].is_trivial

    def test_torus_like_complex(self):
        # One 0-cell, two 1-cells, one 2-cell with zero boundary: the torus.
        complex_ = ChainComplex.build(
            [1, 2, 1], {1: IntMatrix.zero(1, 2), 2: IntMatrix.zero(2, 1)}
        )
        groups = homology_of(complex_)
        assert [g.render() for g in groups] == ["Z", "Z + Z", "Z"]

    def test_projective_plane(self):
        complex_ = ChainComplex.build(
            [1, 1, 1], {1: IntMatrix.zero(1, 1), 2: IntMatrix.from_rows([[2]])}
        )
        groups = homology_of(complex_)
        assert [g.render() for g in groups] == ["Z", "Z_2", "0"]

    def test_homology_builds_no_zero_matrix_when_every_boundary_is_given(self, monkeypatch):
        # The maps C_0 -> 0 and 0 -> C_top have rank 0; none is built.
        d1, d2 = IntMatrix.from_rows([[0]]), IntMatrix.from_rows([[2]])
        complex_ = ChainComplex((1, 1, 1), (d1, d2))

        def zero(cls, rows, cols):
            raise AssertionError(f"built a {rows}x{cols} zero matrix")

        monkeypatch.setattr(IntMatrix, "zero", classmethod(zero))
        assert [g.render() for g in homology_of(complex_)] == ["Z", "Z_2", "0"]


class TestManifoldComplexes:
    @pytest.mark.parametrize("m", [0, 1, 2, 6, 12, 24])
    def test_composition_is_zero(self, m):
        complex_ = complex_for_manifold(normalize(1, m))
        for n in range(2, 8):
            assert complex_.boundaries[n - 2].mul(complex_.boundaries[n - 1]).is_zero()

    @pytest.mark.parametrize("m", [0, 1, 6])
    def test_zero_boundaries_are_not_multiplied(self, monkeypatch, m):
        # Every composition in this complex has a zero factor, so the
        # composition law needs no product at all.
        real_mul = IntMatrix.mul

        def mul(self, other):
            if self.is_zero() or other.is_zero():
                raise AssertionError("product with a zero factor")
            return real_mul(self, other)

        monkeypatch.setattr(IntMatrix, "mul", mul)
        complex_ = complex_for_manifold(normalize(1, m))
        assert complex_.boundaries[3] == IntMatrix.from_rows([[m]])

    def test_agrees_with_closed_form_on_the_grid(self):
        for l in range(-24, 25):
            for m in range(0, 25):
                spec = normalize(l, m)
                assert homology_of(complex_for_manifold(spec)) == homology(spec)


class TestComplexParsing:
    def test_manifold_style_file(self):
        complex_ = parse_complex(
            """
            # three-cell structure plus the top cell
            cells: 1 0 0 1 1 0 0 1
            boundary 4:
            6
            """
        )
        groups = homology_of(complex_)
        assert groups[3] == make_group(0, [6])

    def test_multi_row_boundaries(self):
        complex_ = parse_complex(
            """
            cells: 2 3
            boundary 1:
            1 -1 0
            -1 1 0
            """
        )
        groups = homology_of(complex_)
        assert [g.render() for g in groups] == ["Z", "Z + Z"]

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("cells: 2 1\nboundary 1:\n1\n")

    def test_missing_cells_line_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("boundary 1:\n1\n")

    def test_stray_text_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("cells: 1 1\nnot a number\n")

    def test_repeated_boundary_block_rejected(self):
        with pytest.raises(ValueError, match="repeated boundary block: 'boundary 1:'"):
            parse_complex("cells: 1 1\nboundary 1:\n0\nboundary 1:\n5\n")

    def test_cells_line_without_counts_rejected(self):
        with pytest.raises(ValueError, match="cells: line has no counts"):
            parse_complex("cells:\n")
        with pytest.raises(ValueError, match="cells: line has no counts"):
            parse_complex("# nothing\ncells:   \n")

    def test_single_zero_count_is_the_empty_complex(self):
        assert [g.render() for g in homology_of(parse_complex("cells: 0\n"))] == ["0"]

    def test_repeated_cells_line_rejected(self):
        with pytest.raises(ValueError, match="repeated cells: line: 'cells: 1 1 1'"):
            parse_complex("cells: 1 1\ncells: 1 1 1\nboundary 2:\n2\n")


@pytest.mark.parametrize(
    "build,fragment",
    [
        (lambda: IntMatrix(-1, 0, ()), "negative matrix dimensions"),
        (lambda: IntMatrix.from_rows([[1, 2]]).mul(IntMatrix.from_rows([[1, 2]])),
         "dimension mismatch in matrix product"),
        (lambda: ChainComplex((1, 1), ()), "need one boundary matrix per positive degree"),
    ],
)
def test_shape_refusals(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()
