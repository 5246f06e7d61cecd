"""Rectangular determinant engines: pinned values, identities, agreement."""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cullis.bench import random_matrix
from cullis.determinant import (
    METHODS,
    det,
    det_by_column_laplace,
    det_by_injections,
    det_by_minors,
    det_by_pfaffian,
    ones_column_identity_holds,
    square_det,
    zero_row_identity_holds,
)
from cullis.matrix import (
    Matrix,
    MatrixError,
    append_ones_column,
    append_ones_column_and_unit_row,
    is_skew_symmetric,
    kernel_sandwich,
    multiply,
    skew_kernel_matrix,
    transpose,
)
from cullis.pfaffian import SkewMatrix, pfaffian
from cullis.scalars import FLOAT, INTEGER, RATIONAL, CapabilityError

ALL_ENGINES = (det_by_minors, det_by_injections, det_by_column_laplace,
               det_by_pfaffian)


def imat(rows):
    return Matrix(INTEGER, rows)


def rand_mat(rng, n, k, lo=-9, hi=9, domain=INTEGER):
    return Matrix(domain, [[domain.coerce(rng.randint(lo, hi))
                            for _ in range(k)] for _ in range(n)])


def six_term_polynomial(x):
    """Expanded det of a 3x2 matrix in its entries."""
    e = x.entry
    return (e(1, 1) * e(2, 2) - e(1, 1) * e(3, 2) - e(1, 2) * e(2, 1)
            + e(1, 2) * e(3, 1) + e(2, 1) * e(3, 2) - e(2, 2) * e(3, 1))


class TestPinnedValues:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_two_one_column(self, engine):
        assert engine(imat([[1], [2]])) == -1

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_three_one_column(self, engine):
        assert engine(imat([[1], [2], [3]])) == 2

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_three_two_unit_block(self, engine):
        assert engine(imat([[1, 0], [0, 1], [0, 0]])) == 1

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_single_entry(self, engine):
        assert engine(imat([[7]])) == 7
        assert engine(imat([[-7]])) == -7

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_two_by_two(self, engine):
        assert engine(imat([[2, 3], [5, 7]])) == 2 * 7 - 3 * 5

    def test_single_column_alternating_sum(self):
        # k = 1: value is x11 - x21 + x31 - x41 ...
        assert det_by_minors(imat([[10], [20], [30], [40]])) == 10 - 20 + 30 - 40

    def test_wide_row_vector_uses_transpose(self):
        assert det_by_minors(imat([[1, 2]])) == -1
        assert det_by_pfaffian(imat([[1, 2]])) == -1

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_three_two_polynomial_on_random_points(self, engine):
        rng = Random(32)
        for _ in range(30):
            x = rand_mat(rng, 3, 2)
            assert engine(x) == six_term_polynomial(x)

    def test_three_two_polynomial_on_basis_pairs(self):
        for i in range(3):
            for j in range(3):
                rows = [[0, 0], [0, 0], [0, 0]]
                rows[i][0] = 1
                rows[j][1] = 1
                x = imat(rows)
                assert det_by_pfaffian(x) == six_term_polynomial(x)


class TestSquareReduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_engines_match_plain_determinant(self, n):
        rng = Random(n)
        for _ in range(5):
            x = rand_mat(rng, n, n)
            ref = square_det(x)
            for engine in ALL_ENGINES:
                assert engine(x) == ref

    def test_square_det_requires_square(self):
        with pytest.raises(MatrixError):
            square_det(imat([[1], [2]]))

    def test_square_det_float_partial_pivot(self):
        rng = Random(77)
        for n in (2, 4, 6):
            x = rand_mat(rng, n, n)
            f = Matrix(FLOAT, [[float(v) for v in r] for r in x.data])
            assert FLOAT.eq(square_det(f), float(square_det(x)))

    def test_square_det_singular(self):
        x = imat([[1, 2], [2, 4]])
        assert square_det(x) == 0
        f = Matrix(FLOAT, [[1.0, 2.0], [2.0, 4.0]])
        assert FLOAT.eq(square_det(f), 0.0)

    def test_square_det_zero_pivots(self):
        # entries in -1..1 force zero pivots and row swaps in the elimination
        rng = Random(5)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                x = imat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
                assert square_det(x) == det_by_injections(x)
                q = Matrix(RATIONAL, [[Fraction(v) for v in r] for r in x.data])
                assert square_det(q) == det_by_injections(x)

    def test_square_det_counts_three_mults_per_eliminated_entry(self):
        # pivots 2 and 5 are nonzero: 2x2 + 1x1 entries are eliminated
        dom = INTEGER.counting()
        x = Matrix(dom, [[2, 1, 1], [1, 3, 2], [1, 0, 0]])
        assert square_det(x) == -1
        assert dom.mults == 3 * 5 and dom.adds == 5


class TestEngineAgreement:
    def test_small_shape_sweep(self):
        rng = Random(101)
        for n in range(1, 6):
            for k in range(1, n + 1):
                for _ in range(10):
                    x = rand_mat(rng, n, k)
                    ref = det_by_minors(x)
                    assert det_by_injections(x) == ref
                    assert det_by_column_laplace(x) == ref
                    assert det_by_pfaffian(x) == ref

    def test_rational_domain_agreement(self):
        rng = Random(102)
        for n, k in ((3, 2), (4, 2), (5, 3), (4, 4)):
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(k)] for _ in range(n)]
            x = Matrix(RATIONAL, rows)
            ref = det_by_minors(x)
            assert det_by_injections(x) == ref
            assert det_by_column_laplace(x) == ref
            assert det_by_pfaffian(x) == ref

    def test_float_tracks_exact(self):
        rng = Random(103)
        for n, k in ((4, 2), (5, 3), (6, 4), (7, 7)):
            x = rand_mat(rng, n, k)
            exact = det_by_minors(x)
            f = Matrix(FLOAT, [[float(v) for v in r] for r in x.data])
            assert FLOAT.eq(det_by_pfaffian(f), float(exact))

    def test_all_parity_branches(self):
        rng = Random(104)
        # (even n, even k), (even n, odd k), (odd n, even k), (odd n, odd k)
        for n, k in ((6, 4), (6, 3), (5, 4), (5, 3)):
            for _ in range(10):
                x = rand_mat(rng, n, k)
                assert det_by_pfaffian(x) == det_by_minors(x)

    def test_transpose_convention(self):
        rng = Random(105)
        for n, k in ((2, 5), (3, 4), (1, 6), (2, 3)):
            x = rand_mat(rng, n, k)
            assert det_by_pfaffian(x) == det_by_pfaffian(transpose(x))
            assert det_by_minors(x) == det_by_minors(transpose(x))


class TestLaplaceExpansion:
    def test_column_independence(self):
        rng = Random(106)
        for n, k in ((5, 3), (6, 4), (4, 4)):
            x = rand_mat(rng, n, k)
            ref = det_by_minors(x)
            for col in range(1, k + 1):
                assert det_by_column_laplace(x, col) == ref

    def test_column_out_of_range(self):
        x = imat([[1, 2], [3, 4], [5, 6]])
        for col in (0, 3, -1):
            with pytest.raises(MatrixError):
                det_by_column_laplace(x, col)

    def test_wide_input_rejected(self):
        with pytest.raises(MatrixError):
            det_by_column_laplace(imat([[1, 2]]))
        with pytest.raises(MatrixError):
            det_by_injections(imat([[1, 2]]))


class TestDispatcher:
    def test_method_names(self):
        assert set(METHODS) == {"auto", "fast", "minors", "injections", "laplace"}

    def test_all_methods_agree(self):
        rng = Random(107)
        x = rand_mat(rng, 5, 3)
        values = {m: det(x, method=m) for m in METHODS}
        assert len(set(values.values())) == 1

    def test_wide_inputs_accepted_by_every_method(self):
        rng = Random(108)
        x = rand_mat(rng, 3, 5)
        ref = det(x, method="minors")
        for m in METHODS:
            assert det(x, method=m) == ref

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            det(imat([[1]]), method="cofactor")

    def test_engine_passthrough(self):
        rng = Random(109)
        x = rand_mat(rng, 5, 2)
        assert det(x, engine="fraction-free") == det(x, method="minors")
        with pytest.raises(CapabilityError):
            det(x, engine="eliminate")  # integers are not a field

    def test_auto_is_fast(self):
        rng = Random(110)
        x = rand_mat(rng, 6, 3)
        assert det(x, method="auto") == det(x, method="fast")


class TestColumnProperties:
    def test_multilinearity(self):
        rng = Random(111)
        for n, k in ((4, 2), (5, 3), (6, 4)):
            for _ in range(10):
                base = rand_mat(rng, n, k)
                j = rng.randrange(k)
                u = [rng.randint(-9, 9) for _ in range(n)]
                v = [rng.randint(-9, 9) for _ in range(n)]
                alpha, beta = rng.randint(-4, 4), rng.randint(-4, 4)

                def with_col(col):
                    rows = [list(r) for r in base.data]
                    for i in range(n):
                        rows[i][j] = col[i]
                    return imat(rows)

                combo = [alpha * u[i] + beta * v[i] for i in range(n)]
                lhs = det(with_col(combo))
                rhs = alpha * det(with_col(u)) + beta * det(with_col(v))
                assert lhs == rhs

    def test_duplicate_column_is_zero(self):
        rng = Random(112)
        for n, k in ((4, 2), (5, 3), (6, 4)):
            x = rand_mat(rng, n, k)
            j, l = rng.sample(range(k), 2)
            rows = [list(r) for r in x.data]
            for r in rows:
                r[l] = r[j]
            assert det(imat(rows)) == 0

    def test_dependent_column_is_zero(self):
        rng = Random(113)
        for n, k in ((5, 3), (6, 4)):
            x = rand_mat(rng, n, k)
            coeffs = [rng.randint(-3, 3) for _ in range(k - 1)]
            rows = [list(r) for r in x.data]
            for r in rows:
                r[k - 1] = sum(c * r[t] for t, c in enumerate(coeffs))
            assert det(imat(rows)) == 0

    def test_column_swap_negates(self):
        rng = Random(114)
        for n, k in ((4, 2), (5, 3), (6, 4)):
            x = rand_mat(rng, n, k)
            j, l = rng.sample(range(k), 2)
            rows = [list(r) for r in x.data]
            for r in rows:
                r[j], r[l] = r[l], r[j]
            assert det(imat(rows)) == -det(x)

    def test_column_shear_invariance(self):
        rng = Random(115)
        for n, k in ((4, 2), (5, 3), (6, 4)):
            x = rand_mat(rng, n, k)
            j, l = rng.sample(range(k), 2)
            c = rng.randint(-5, 5)
            rows = [list(r) for r in x.data]
            for r in rows:
                r[j] = r[j] + c * r[l]
            assert det(imat(rows)) == det(x)

    def test_column_scaling(self):
        rng = Random(116)
        for n, k in ((4, 2), (5, 3)):
            x = rand_mat(rng, n, k)
            j = rng.randrange(k)
            rows = [[3 * v if t == j else v for t, v in enumerate(r)]
                    for r in x.data]
            assert det(imat(rows)) == 3 * det(x)


class TestExtensionIdentities:
    def test_ones_column_odd_parity_pinned(self):
        assert ones_column_identity_holds(imat([[1], [2]]))

    def test_ones_column_even_parity_pinned(self):
        assert ones_column_identity_holds(imat([[1], [2], [3]]))

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (4, 2), (5, 1), (6, 4)])
    def test_ones_column_random(self, n, k):
        rng = Random(n * 10 + k)
        for _ in range(10):
            assert ones_column_identity_holds(rand_mat(rng, n, k))

    def test_ones_column_requires_strictly_tall(self):
        with pytest.raises(MatrixError):
            ones_column_identity_holds(imat([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("n,k", [(1, 1), (3, 2), (4, 4), (5, 3)])
    def test_zero_row_random(self, n, k):
        rng = Random(n * 10 + k)
        for _ in range(10):
            assert zero_row_identity_holds(rand_mat(rng, n, k))

    def test_zero_row_single_entry(self):
        assert zero_row_identity_holds(imat([[5]]))

    def test_zero_row_requires_tall(self):
        with pytest.raises(MatrixError):
            zero_row_identity_holds(imat([[1, 2]]))


def padded(x):
    """The matrix det_by_pfaffian sandwiches: transposed when wide, then
    padded to even width."""
    if x.rows < x.cols:
        x = transpose(x)
    if x.cols % 2 == 0:
        return x
    if x.rows % 2 == 0:
        return append_ones_column(x)
    return append_ones_column_and_unit_row(x)


def dense_sandwich(a):
    """The specification: the dense kernel, multiplied out."""
    kern = skew_kernel_matrix(a.rows, a.domain)
    return multiply(multiply(transpose(a), kern), a)


# even k; odd k, even n; odd k, odd n; wide; and the smallest shapes
SANDWICH_SHAPES = ((9, 4), (8, 5), (7, 3), (3, 6), (4, 7), (1, 1), (2, 1), (12, 12))

# primes above every numerator drawn below, so each denominator stays prime
_PRIMES = [p for p in range(101, 2000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def _prime_denominators(rng, n, k):
    """Rationals whose denominators are n*k distinct primes."""
    primes = iter(rng.sample(_PRIMES, n * k))
    return Matrix(RATIONAL, [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), next(primes))
                              for _ in range(k)] for _ in range(n)])


def _zero_column(rng, n, k):
    x = random_matrix(rng, n, k, RATIONAL)
    c = rng.randrange(k)
    return Matrix(RATIONAL, [[0 if j == c else v for j, v in enumerate(row)] for row in x.data])


# exact inputs for the sandwich, (rng, n, k) -> Matrix. The plain int and
# rational fills carry the ids domain0 and domain1, which these tests have
# always used for them.
EXACT_FILLS = [
    pytest.param(lambda rng, n, k: random_matrix(rng, n, k, INTEGER), id="domain0"),
    pytest.param(lambda rng, n, k: random_matrix(rng, n, k, RATIONAL), id="domain1"),
    pytest.param(_prime_denominators, id="prime-denominators"),
    pytest.param(lambda rng, n, k: Matrix(RATIONAL, random_matrix(rng, n, k, INTEGER).data),
                 id="integer-valued"),
    pytest.param(_zero_column, id="zero-column"),
    pytest.param(lambda rng, n, k: Matrix(RATIONAL, [
        [Fraction(-rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k)] for _ in range(n)]),
        id="negative"),
]


class TestStructuredSandwich:
    @pytest.mark.parametrize("fill", EXACT_FILLS)
    @pytest.mark.parametrize("n,k", SANDWICH_SHAPES)
    def test_exact_domains_match_dense_spec_bit_for_bit(self, fill, n, k):
        rng = Random(n * 100 + k)
        for _ in range(3):
            a = padded(fill(rng, n, k))
            y = kernel_sandwich(a)
            assert y.domain is a.domain
            assert y.data == dense_sandwich(a).data
            assert all(type(v) is type(a.domain.zero) for row in y.data for v in row)

    @pytest.mark.parametrize("n,k", SANDWICH_SHAPES)
    def test_float_matches_dense_spec(self, n, k):
        rng = Random(n * 100 + k)
        for _ in range(3):
            a = padded(random_matrix(rng, n, k, FLOAT))
            assert kernel_sandwich(a).equals(dense_sandwich(a))

    @pytest.mark.parametrize("n,k", SANDWICH_SHAPES)
    def test_float_result_is_exactly_skew(self, n, k):
        y = kernel_sandwich(padded(random_matrix(Random(k), n, k, FLOAT)))
        d, size = y.data, y.rows
        assert all(d[i][i] == 0.0 for i in range(size))
        assert all(d[j][i] == -d[i][j] for i in range(size) for j in range(i + 1, size))
        assert is_skew_symmetric(y)

    def test_single_row_gives_zero_product(self):
        a = imat([[1, 2, 3]])
        assert kernel_sandwich(a).data == dense_sandwich(a).data == ((0,) * 3,) * 3

    @pytest.mark.parametrize("domain", [INTEGER, RATIONAL, FLOAT])
    @pytest.mark.parametrize("n,k", SANDWICH_SHAPES + ((64, 32),))
    def test_mult_count_is_n_k_choose_2(self, domain, n, k):
        a = padded(random_matrix(Random(1), n, k, domain))
        counter = domain.counting()
        kernel_sandwich(Matrix(counter, a.data))
        rows, cols = a.rows, a.cols
        entries = cols * (cols - 1) // 2
        assert counter.mults == rows * entries
        # adds as well: K times each later column takes 3 rows - 4, and
        # each entry rows - 1 in the dot plus one negation
        assert counter.adds == (cols - 1) * (3 * rows - 4) + rows * entries

    @pytest.mark.parametrize("fill", EXACT_FILLS)
    @pytest.mark.parametrize("n,k", SANDWICH_SHAPES)
    def test_det_equals_pfaffian_of_dense_spec(self, fill, n, k):
        x = fill(Random(k * 100 + n), n, k)
        spec = pfaffian(SkewMatrix(dense_sandwich(padded(x))))
        value = det_by_pfaffian(x)
        assert value == spec and type(value) is type(spec)
        assert value == det_by_minors(x)


@st.composite
def _small_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(st.integers(min_value=-9, max_value=9)) for _ in range(k)]
            for _ in range(n)]
    return Matrix(INTEGER, rows)


@given(_small_matrices())
@settings(max_examples=50, deadline=None)
def test_property_every_engine_agrees(x):
    ref = det_by_minors(x)
    assert det_by_pfaffian(x) == ref
    w = x if x.rows >= x.cols else transpose(x)
    assert det_by_injections(w) == ref
    assert det_by_column_laplace(w) == ref
