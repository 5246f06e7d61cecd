"""Rectangular determinant engines: pinned values, identities, agreement."""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cullis.bench import count_operations, random_matrix
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
    cleared_kernel_sandwich,
    is_skew_symmetric,
    kernel_sandwich,
    multiply,
    skew_kernel_matrix,
    transpose,
)
from cullis.pfaffian import SkewMatrix, pfaffian
from cullis.scalars import (
    _PACK_MAX_SLOT,
    DOMAINS,
    FLOAT,
    INTEGER,
    RATIONAL,
    CapabilityError,
    _slot_width,
)

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
        # tall, then wide: injections and laplace take the tall transpose
        for n, k in ((3, 2), (4, 2), (5, 3), (4, 4), (2, 3), (1, 4), (3, 5), (2, 6)):
            x = random_matrix(rng, n, k, RATIONAL)
            tall = x if n >= k else transpose(x)
            ref = det_by_minors(x)
            assert det_by_injections(tall) == ref
            assert det_by_column_laplace(tall) == ref
            assert det_by_pfaffian(x) == ref

    def test_float_tracks_exact(self):
        rng = Random(103)
        for n, k in ((4, 2), (5, 3), (6, 4), (7, 7)):
            x = rand_mat(rng, n, k)
            exact = det_by_minors(x)
            f = Matrix(FLOAT, [[float(v) for v in r] for r in x.data])
            assert FLOAT.eq(det_by_pfaffian(f), float(exact))
        # uniform(-1, 1) fills in both orientations, every route against the
        # exact value of the same floats
        for n in range(1, 7):
            for k in range(1, n + 1):
                f = random_matrix(rng, n, k, FLOAT)
                exact = float(det_by_minors(Matrix(RATIONAL, [[Fraction(v) for v in r]
                                                              for r in f.data])))
                for x in (f, transpose(f)):
                    assert FLOAT.eq(det_by_minors(x), exact)
                    assert FLOAT.eq(det_by_pfaffian(x), exact)
                assert FLOAT.eq(det_by_injections(f), exact)
                assert FLOAT.eq(det_by_column_laplace(f), exact)

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


# even k; odd k, even n; odd k, odd n; wide; and the smallest shapes, on
# both sides of the integers' packing threshold (10 columns after padding):
# (10, 8) stays below it, (11, 10), (10, 9), (9, 9) and the wide (9, 11)
# reach it in each padding case
SANDWICH_SHAPES = ((9, 4), (8, 5), (7, 3), (3, 6), (4, 7), (1, 1), (2, 1), (12, 12),
                   (10, 8), (11, 10), (10, 9), (9, 9), (9, 11))

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

    @pytest.mark.parametrize("s", [8, 16, 32, 64, 72])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_boundary(self, s, sign):
        """Entry (1,k) is +-2^(s-1), exactly the slot bound ||a_1|| ||a_k||
        (1-norms): it takes the next slot width. Entry (2,k) is
        2^(s-1) - 1, the widest value that fits s bits, against a bound
        that does too."""
        k = 12
        hi, lo = 2 ** ((s - 1) // 2), 2 ** (s - 1 - (s - 1) // 2)
        rows = [[0] * k for _ in range(3)]
        rows[0][0], rows[1][k - 1] = sign * hi, lo
        assert _slot_width(hi * lo) == {8: 16, 16: 32, 32: 64, 64: 72, 72: 80}[s]
        a = imat(rows)
        y = kernel_sandwich(a)
        assert y.data == dense_sandwich(a).data
        assert y.data[0][k - 1] == sign * 2 ** (s - 1)
        rows = [[0] * k for _ in range(3)]
        rows[0][1], rows[1][k - 1] = sign * (2 ** (s - 1) - 1), 1
        assert _slot_width(2 ** (s - 1) - 1) == s
        a = imat(rows)
        assert kernel_sandwich(a).data == dense_sandwich(a).data

    @pytest.mark.parametrize("digits", [12, 20, 40])
    def test_wide_slots(self, digits):
        """Entries of 12 and 20 digits pack into byte slots past 64 bits;
        40 digits need slots wider than the packing limit, and the dot
        products run instead. The three agree with the dense kernel."""
        rng = Random(digits)
        x = Matrix(INTEGER, [[rng.randint(-10**digits, 10**digits) for _ in range(11)]
                             for _ in range(14)])
        a = padded(x)
        norms = [sum(abs(v) for v in col) for col in zip(*a.data)]
        s = _slot_width(max(norms[:-1]) * max(norms[1:]))
        assert (s > 64, s > _PACK_MAX_SLOT) == (True, digits == 40)
        assert kernel_sandwich(a).data == dense_sandwich(a).data
        assert det_by_pfaffian(x) == det_by_minors(x)

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


def _zero_leading_pivot(rng, n, k):
    """Tall rationals, k even, whose cleared product has Y'_12 = 0: column 2
    is redrawn orthogonal to K times column 1."""
    x = random_matrix(rng, n, k, RATIONAL)
    kern = skew_kernel_matrix(n, RATIONAL)
    c1 = [row[0] for row in x.data]
    w = [sum(kv * v for kv, v in zip(krow, c1)) for krow in kern.data]
    c2 = [row[1] for row in x.data]
    j = next(i for i, v in enumerate(w) if v)
    c2[j] = -sum(wi * v for i, (wi, v) in enumerate(zip(w, c2)) if i != j) / w[j]
    return Matrix(RATIONAL, [(r[0], c2[i]) + r[2:] for i, r in enumerate(x.data)])


class TestRationalRoute:
    """Rationals under engine "auto": the fraction-free Pfaffian of the
    column-cleared integer product, divided once at the end."""

    @staticmethod
    def check(x):
        value = det(x)
        assert type(value) is Fraction
        assert value == det_by_minors(x) == det(x, engine="eliminate")
        assert det(x, engine="fraction-free") == value
        return value

    @pytest.mark.parametrize("n,k", [(12, 6), (16, 8)])
    def test_distinct_prime_denominators(self, n, k):
        x = _prime_denominators(Random(n * 100 + k), n, k)
        assert self.check(x) != 0

    def test_all_zero_column(self):
        for n, k in ((6, 4), (7, 3), (5, 5)):
            assert self.check(_zero_column(Random(n + k), n, k)) == 0

    def test_zero_leading_pivot_swaps(self):
        rng = Random(5)
        x = _zero_leading_pivot(rng, 6, 4)
        y, _ = cleared_kernel_sandwich(x)
        assert y.data[0][1] == 0 and any(y.data[0][2:])
        assert self.check(x) != 0

    @pytest.mark.parametrize("n,k", [(8, 4), (8, 5), (7, 5)])  # no pad, ones column, both
    def test_padding_cases(self, n, k):
        rng = Random(n * 10 + k)
        for _ in range(3):
            self.check(random_matrix(rng, n, k, RATIONAL))

    def test_wide_input_through_the_transpose(self):
        rng = Random(4)
        for n, k in ((3, 6), (4, 7), (5, 8)):
            x = random_matrix(rng, n, k, RATIONAL)
            assert self.check(x) == det(transpose(x))

    def test_integer_valued_input_counts_like_the_integers(self):
        for n, k in ((12, 6), (9, 5), (3, 7)):
            xi = random_matrix(Random(n * k), n, k, INTEGER)
            value, mults, adds = count_operations(Matrix(RATIONAL, xi.data), "fast")
            assert (value, mults, adds) == count_operations(xi, "fast")
            assert type(value) is Fraction
            # the condensation is counted, not only the sandwich
            a = padded(xi)
            assert mults > a.rows * a.cols * (a.cols - 1) // 2


def _nine_digit_primes(count):
    """The first `count` primes above 10^8, by trial division."""
    out, p = [], 10**8 + 1
    while len(out) < count:
        if all(p % d for d in range(3, int(p**0.5) + 1, 2)):
            out.append(p)
        p += 2
    return out


def _nine_digit_denominators(rng, n, k):
    """Rationals whose denominators are n*k distinct 9-digit primes."""
    primes = iter(rng.sample(_nine_digit_primes(n * k), n * k))
    return Matrix(RATIONAL, [[Fraction(rng.randint(-99, 99), next(primes))
                              for _ in range(k)] for _ in range(n)])


def _mixed_columns(rng, n, k):
    """Rationals with every other column integer-valued, so some L_j = 1."""
    x = random_matrix(rng, n, k, RATIONAL)
    return Matrix(RATIONAL, [[v if j % 2 else Fraction(rng.randint(-9, 9))
                              for j, v in enumerate(row)] for row in x.data])


# (label, n, k) -> rational input for the minor-sum oracle's column clearing
CLEARED_ORACLE_INPUTS = {
    ("tall", 8, 5): lambda rng, n, k: random_matrix(rng, n, k, RATIONAL),
    ("square", 5, 5): lambda rng, n, k: random_matrix(rng, n, k, RATIONAL),
    ("wide", 3, 6): lambda rng, n, k: random_matrix(rng, n, k, RATIONAL),
    ("one-by-one", 1, 1): lambda rng, n, k: random_matrix(rng, n, k, RATIONAL),
    ("column", 6, 1): lambda rng, n, k: random_matrix(rng, n, k, RATIONAL),
    ("integer-valued", 7, 4): lambda rng, n, k: Matrix(
        RATIONAL, random_matrix(rng, n, k, INTEGER).data),
    ("some-integer-columns", 7, 4): _mixed_columns,
    ("zero-column", 6, 4): _zero_column,
    ("nine-digit-primes", 6, 3): _nine_digit_denominators,
}

# (label, n, k) -> (mults, adds) of count_operations(x, "minors"), recorded
# from Bareiss over Fraction before the oracle moved to cleared integers
MINOR_COUNTS = {
    ("tall", 8, 5): (5040, 1737),
    ("square", 5, 5): (90, 32),
    ("wide", 3, 6): (300, 119),
    ("one-by-one", 1, 1): (0, 2),
    ("column", 6, 1): (0, 7),
    ("integer-valued", 7, 4): (1470, 524),
    ("some-integer-columns", 7, 4): (1470, 528),
    ("zero-column", 6, 4): (630, 229),
    ("nine-digit-primes", 6, 3): (300, 119),
}

# value of count_operations(x, "minors") on the same inputs, where short
MINOR_VALUES = {
    ("tall", 8, 5): Fraction(-2131951495559, 203212800),
    ("square", 5, 5): Fraction(-53327, 39690),
    ("wide", 3, 6): Fraction(-36447769, 7144200),
    ("one-by-one", 1, 1): Fraction(9, 4),
    ("column", 6, 1): Fraction(-221, 63),
    ("integer-valued", 7, 4): Fraction(12430),
    ("some-integer-columns", 7, 4): Fraction(-206275, 5292),
    ("zero-column", 6, 4): Fraction(0),
}


def _cleared_oracle_input(label, n, k):
    return CLEARED_ORACLE_INPUTS[label, n, k](Random(n * 100 + k), n, k)


class TestClearedOracle:
    """The minor-sum oracle on rationals: Bareiss over column-cleared
    integers and one division, checked against engines that stay on
    Fraction."""

    @pytest.mark.parametrize("label,n,k", sorted(CLEARED_ORACLE_INPUTS))
    def test_matches_the_fraction_engines(self, label, n, k):
        x = _cleared_oracle_input(label, n, k)
        w = x if n >= k else transpose(x)
        value = det_by_minors(x)
        assert type(value) is Fraction
        assert value == det_by_injections(w) == det_by_column_laplace(w)
        assert value == det_by_pfaffian(x, engine="eliminate")
        # square_det on the leading square block, against its injection sum
        m = min(n, k)
        block = Matrix(RATIONAL, [row[:m] for row in w.data[:m]])
        assert square_det(block) == det_by_injections(block)
        assert type(square_det(block)) is Fraction
        if n == k:
            assert square_det(x) == value

    @pytest.mark.parametrize("label,n,k", sorted(MINOR_COUNTS))
    def test_counts_as_over_fractions(self, label, n, k):
        x = _cleared_oracle_input(label, n, k)
        value, mults, adds = count_operations(x, "minors")
        assert (mults, adds) == MINOR_COUNTS[label, n, k]
        assert value == MINOR_VALUES.get((label, n, k), det_by_injections(
            x if n >= k else transpose(x)))

    def test_square_det_counts_as_over_fractions(self):
        xi = random_matrix(Random(3), 6, 6, INTEGER)
        dom = RATIONAL.counting()
        value = square_det(Matrix(dom, xi.data))
        counter = INTEGER.counting()
        assert square_det(Matrix(counter, xi.data)) == value
        assert type(value) is Fraction
        assert (value, dom.mults, dom.adds) == (-220183, 165, 55)
        assert (counter.mults, counter.adds) == (165, 55)


def _int_zero_leading_pivot(n, k):
    """Tall integers, k even, whose product Y = A^T K A has Y_12 = 0:
    column 2 is made orthogonal to K times column 1, so both Pfaffian
    engines have to swap a pivot into place."""
    x = random_matrix(Random(n * 100 + k), n, k, INTEGER)
    c1 = [row[0] for row in x.data]
    w = [sum(kv * v for kv, v in zip(krow, c1)) for krow in skew_kernel_matrix(n, INTEGER).data]
    c2 = [row[1] for row in x.data]
    j = next(i for i, v in enumerate(w) if v)
    dot = sum(wi * v for wi, v in zip(w, c2))
    c2 = [w[j] * v - (dot if i == j else 0) for i, v in enumerate(c2)]
    return Matrix(INTEGER, [(r[0], c2[i]) + r[2:] for i, r in enumerate(x.data)])


def _count_input(tag, n, k, swap):
    dom = DOMAINS[tag]
    if swap:
        return Matrix(dom, _int_zero_leading_pivot(n, k).data)
    return random_matrix(Random(n * 100 + k), n, k, dom)


# (domain, n, k, swap) -> (mults, adds) of count_operations(x, "fast"),
# recorded from the per-entry loops that the row-at-a-time domain ops
# replaced. Shapes cover even k, odd k with even n, and odd k with odd n;
# the swap inputs have Y_12 = 0.
FAST_COUNTS = {
    ('int', 12, 6, False): (208, 376),
    ('int', 12, 5, False): (208, 376),
    ('int', 11, 5, False): (208, 376),
    ('int', 40, 20, False): (9700, 11569),
    ('int', 10, 4, True): (64, 148),
    ('rational', 12, 6, False): (208, 376),
    ('rational', 12, 5, False): (208, 376),
    ('rational', 11, 5, False): (208, 376),
    ('rational', 40, 20, False): (9700, 11569),
    ('rational', 10, 4, True): (64, 148),
    ('float', 12, 6, False): (202, 376),
    ('float', 12, 5, False): (202, 377),
    ('float', 11, 5, False): (202, 377),
    ('float', 40, 20, False): (8749, 11569),
    ('float', 10, 4, True): (65, 148),
}


# float det of random_matrix(Random(n * 100 + k), n, k, FLOAT) for the
# three padding cases, recorded from the per-entry loops; the row-at-a-time
# loops keep every operation and its order, so the bits must not move.
FLOAT_DET_BITS = {
    (200, 100): '-0x1.4f5b98999f63dp+274',
    (128, 63): '0x1.49d1599d82e7bp+159',
    (151, 75): '0x1.1f77b770e3cd8p+188',
}


class TestPinnedCounts:
    @pytest.mark.parametrize("tag,n,k,swap", sorted(FAST_COUNTS))
    def test_fast_route_counts(self, tag, n, k, swap):
        x = _count_input(tag, n, k, swap)
        value, mults, adds = count_operations(x, "fast")
        assert (mults, adds) == FAST_COUNTS[tag, n, k, swap]
        assert value == det(x)

    def test_swap_inputs_have_a_zero_leading_pivot(self):
        y = kernel_sandwich(_int_zero_leading_pivot(10, 4))
        assert y.data[0][1] == 0 and any(y.data[0][2:])

    @pytest.mark.parametrize("n,k", sorted(FLOAT_DET_BITS))
    def test_float_det_bits(self, n, k):
        value = det(random_matrix(Random(n * 100 + k), n, k, FLOAT))
        assert value == float.fromhex(FLOAT_DET_BITS[n, k])


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
