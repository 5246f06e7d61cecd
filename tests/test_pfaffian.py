"""Pfaffian engines: agreement, identities, and error contracts."""
import importlib
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cullis.matrix import Matrix, MatrixError, identity, multiply, transpose
from cullis.pfaffian import (
    ENGINES,
    FractionFreeInvariantError,
    SkewMatrix,
    pfaffian,
    pfaffian_definition,
    pfaffian_eliminate,
    pfaffian_fraction_free,
    pfaffian_laplace,
)
from cullis.scalars import (
    DOMAINS,
    FLOAT,
    INTEGER,
    RATIONAL,
    CapabilityError,
    ExactDivisionError,
    IntegerDomain,
    Tier,
)
from cullis.signs import pair_sign_matrix
from cullis.determinant import square_det

# the module itself: the package's name `pfaffian` is the function
pfaffian_mod = importlib.import_module("cullis.pfaffian")

EXACT_ENGINES = ("definition", "laplace", "fraction-free")


def skew_from_upper(upper, domain=INTEGER):
    """Build a skew matrix from its strict upper triangle, row by row."""
    n = len(upper) + 1
    rows = [[domain.zero] * n for _ in range(n)]
    for i, tail in enumerate(upper):
        assert len(tail) == n - 1 - i
        for t, v in enumerate(tail):
            j = i + 1 + t
            rows[i][j] = domain.coerce(v)
            rows[j][i] = domain.neg(rows[i][j])
    return SkewMatrix(Matrix(domain, rows))


def random_skew(rng, size, lo=-6, hi=6, domain=INTEGER):
    return skew_from_upper(
        [[domain.coerce(rng.randint(lo, hi)) for _ in range(size - 1 - i)]
         for i in range(size - 1)], domain)


def to_rational(s: SkewMatrix) -> SkewMatrix:
    return SkewMatrix(Matrix(RATIONAL, [[Fraction(v) for v in r]
                                        for r in s.matrix.data]))


def to_float(s: SkewMatrix) -> SkewMatrix:
    return SkewMatrix(Matrix(FLOAT, [[float(v) for v in r]
                                     for r in s.matrix.data]))


class TestSkewMatrixWrapper:
    def test_accepts_skew(self):
        s = skew_from_upper([[3]])
        assert s.dim == 2

    def test_rejects_symmetric(self):
        with pytest.raises(MatrixError):
            SkewMatrix(Matrix(INTEGER, [[0, 2], [2, 0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(MatrixError):
            SkewMatrix(Matrix(INTEGER, [[1, 2], [-2, 0]]))


class TestPinnedValues:
    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_two_by_two(self, engine):
        assert ENGINES[engine](skew_from_upper([[7]])) == 7
        assert ENGINES[engine](skew_from_upper([[-3]])) == -3

    @pytest.mark.parametrize("engine", EXACT_ENGINES)
    def test_four_by_four_trinomial(self, engine):
        # upper triangle a,b,c / d,e / f gives a*f - b*e + c*d
        a, b, c, d, e, f = 2, 3, 5, 7, 11, 13
        s = skew_from_upper([[a, b, c], [d, e], [f]])
        assert ENGINES[engine](s) == a * f - b * e + c * d

    def test_zero_matrix(self):
        s = skew_from_upper([[0, 0, 0], [0, 0], [0]])
        for engine in ENGINES:
            target = to_rational(s) if engine == "eliminate" else s
            assert ENGINES[engine](target) == 0

    def test_zero_row_and_column(self):
        s = skew_from_upper([[0, 0, 0], [4, 5], [6]])
        for engine in EXACT_ENGINES:
            assert ENGINES[engine](s) == 0


class TestEngineAgreement:
    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_exact_engines_agree(self, size):
        rng = Random(size)
        for _ in range(25):
            s = random_skew(rng, size)
            ref = pfaffian_definition(s)
            assert pfaffian_laplace(s) == ref
            assert pfaffian_fraction_free(s) == ref
            assert pfaffian_eliminate(to_rational(s)) == Fraction(ref)
        for _ in range(10):  # entries with proper denominators
            q = skew_from_upper([[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(size - 1 - i)] for i in range(size - 1)],
                                RATIONAL)
            ref = pfaffian_definition(q)
            for engine in ("laplace", "fraction-free", "eliminate"):
                assert ENGINES[engine](q) == ref

    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_float_elimination_tracks_exact(self, size):
        rng = Random(size + 100)
        for _ in range(25):
            s = random_skew(rng, size)
            exact = pfaffian_definition(s)
            approx = pfaffian_eliminate(to_float(s))
            assert FLOAT.eq(approx, float(exact))
        for _ in range(10):  # uniform(-1, 1) entries, every engine
            f = skew_from_upper([[rng.uniform(-1, 1) for _ in range(size - 1 - i)]
                                 for i in range(size - 1)], FLOAT)
            exact = float(pfaffian_definition(to_rational(f)))
            for engine in ENGINES:
                assert FLOAT.eq(ENGINES[engine](f), exact)

    @pytest.mark.parametrize("size", [4, 6])
    def test_laplace_pivot_column_independence(self, size):
        rng = Random(size + 200)
        for _ in range(10):
            s = random_skew(rng, size)
            ref = pfaffian_laplace(s, pivot_col=1)
            for col in range(2, size + 1):
                assert pfaffian_laplace(s, pivot_col=col) == ref

    def test_bare_matrix_accepted(self):
        m = Matrix(INTEGER, [[0, 5], [-5, 0]])
        assert pfaffian(m) == 5

    @pytest.mark.parametrize("engine,tag", [("fraction-free", "int"), ("eliminate", "float")])
    def test_swap_heavy_inputs(self, engine, tag, monkeypatch):
        """Block-diagonal 4x4 blocks whose leading pair is (0,2),(1,3), so
        every block starts on a zero pivot, and sparse fills with further
        zeros; the float engine also swaps for partial pivoting."""
        swaps = []
        original = pfaffian_mod._swap_pair
        monkeypatch.setattr(pfaffian_mod, "_swap_pair",
                            lambda rows, a, b: swaps.append((a, b)) or original(rows, a, b))
        rng = Random(12)
        dom = DOMAINS[tag]
        for size in (8, 10, 12):
            for trial in range(6):
                upper = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(size - 1 - i)]
                         for i in range(size - 1)]
                if trial % 2 == 0:  # block diagonal, zero leading pivot in every block
                    for i, tail in enumerate(upper):
                        for t in range(len(tail)):
                            j = i + 1 + t
                            if i // 4 != j // 4 or (i % 2 == 0 and j == i + 1):
                                tail[t] = 0
                s = skew_from_upper(upper)
                exact = pfaffian_definition(s)
                assert pfaffian_laplace(s) == exact
                before = len(swaps)
                value = ENGINES[engine](skew_from_upper(upper, dom))
                assert dom.eq(value, dom.coerce(exact))
                if trial % 2 == 0 and exact:
                    assert len(swaps) - before >= size // 4
        assert any(b > a + 1 for a, b in swaps)  # entries between a and b moved too
        if tag == "float":
            for size in (8, 12):
                f = skew_from_upper([[rng.uniform(-1, 1) for _ in range(size - 1 - i)]
                                     for i in range(size - 1)], FLOAT)
                before = len(swaps)
                value = pfaffian_eliminate(f)
                assert len(swaps) - before >= size // 4
                assert FLOAT.eq(value, float(pfaffian_laplace(to_rational(f))))

    @pytest.mark.parametrize("a,b", [(0, 1), (0, 5), (1, 2), (2, 6), (3, 7), (6, 7)])
    def test_swap_pair_on_the_upper_triangle(self, a, b):
        """_swap_pair on upper-triangle storage equals swapping rows and
        columns of the full matrix, and never reads below the diagonal."""
        s = random_skew(Random(a * 8 + b), 8)
        full = s.matrix.to_rows()
        full[a], full[b] = full[b], full[a]
        for r in full:
            r[a], r[b] = r[b], r[a]
        rows = [[None] * (i + 1) + list(r[i + 1:]) for i, r in enumerate(s.matrix.data)]
        pfaffian_mod._swap_pair(rows, a, b)
        assert [r[i + 1:] for i, r in enumerate(rows)] == [r[i + 1:] for i, r in enumerate(full)]


class TestAlgebraicIdentities:
    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_square_is_determinant(self, size):
        rng = Random(size + 300)
        for _ in range(15):
            s = random_skew(rng, size)
            p = pfaffian(s)
            assert p * p == square_det(s.matrix)

    @pytest.mark.parametrize("size", [2, 4, 6])
    def test_congruence_scales_by_determinant(self, size):
        rng = Random(size + 400)
        for _ in range(10):
            s = random_skew(rng, size)
            b = Matrix(INTEGER, [[rng.randint(-4, 4) for _ in range(size)]
                                 for _ in range(size)])
            y = multiply(multiply(b, s.matrix), transpose(b))
            assert pfaffian(SkewMatrix(y)) == square_det(b) * pfaffian(s)

    @pytest.mark.parametrize("size", [2, 4, 6, 8, 10])
    def test_ascending_pair_sign_matrix_is_unit(self, size):
        rng = Random(size + 500)
        values = tuple(sorted(rng.sample(range(1, 50), size)))
        s = SkewMatrix(pair_sign_matrix(values, INTEGER))
        for engine in EXACT_ENGINES:
            assert ENGINES[engine](s) == 1
        assert pfaffian_eliminate(to_rational(s)) == 1

    @pytest.mark.parametrize("size,lam", [(2, 3), (4, 3), (6, -2), (8, 5)])
    def test_scaling_by_lambda(self, size, lam):
        rng = Random(size + 600)
        s = random_skew(rng, size)
        scaled = SkewMatrix(Matrix(INTEGER, [[lam * v for v in r]
                                             for r in s.matrix.data]))
        m = size // 2
        assert pfaffian(scaled) == lam**m * pfaffian(s)

    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_negation_scales_by_parity_of_half_dimension(self, size):
        rng = Random(size + 700)
        s = random_skew(rng, size)
        negated = SkewMatrix(Matrix(INTEGER, [[-v for v in r]
                                              for r in s.matrix.data]))
        m = size // 2
        assert pfaffian(negated) == (-1)**m * pfaffian(s)

    def test_identity_padded_block(self):
        # pf of [[A, 0], [0, J]] with J the 2x2 unit block equals pf(A)
        rng = Random(801)
        s = random_skew(rng, 4)
        rows = [list(r) + [0, 0] for r in s.matrix.data]
        rows.append([0, 0, 0, 0, 0, 1])
        rows.append([0, 0, 0, 0, -1, 0])
        assert pfaffian(SkewMatrix(Matrix(INTEGER, rows))) == pfaffian(s)


def _count_skew(size, swap):
    """random_skew(Random(size), size), with entry (1,2) zeroed for swap
    inputs so that both O(m^3) engines move a pivot into place."""
    s = random_skew(Random(size), size)
    if not swap:
        return s
    rows = s.matrix.to_rows()
    rows[0][1] = rows[1][0] = 0
    return SkewMatrix(Matrix(INTEGER, rows))


# (engine, domain, size, swap) -> (mults, adds) on a counting copy of
# _count_skew(size, swap), recorded from the per-entry loops that the
# row-at-a-time domain ops replaced.
ENGINE_COUNTS = {
    ('eliminate', 'rational', 8, False): (59, 94),
    ('eliminate', 'rational', 12, False): (225, 351),
    ('eliminate', 'rational', 10, True): (124, 196),
    ('eliminate', 'float', 8, False): (59, 94),
    ('eliminate', 'float', 12, False): (225, 352),
    ('eliminate', 'float', 10, True): (124, 195),
    ('fraction-free', 'int', 8, False): (88, 94),
    ('fraction-free', 'int', 12, False): (380, 351),
    ('fraction-free', 'int', 10, True): (200, 196),
    ('fraction-free', 'rational', 8, False): (88, 94),
    ('fraction-free', 'rational', 12, False): (380, 351),
    ('fraction-free', 'rational', 10, True): (200, 196),
    ('fraction-free', 'float', 8, False): (88, 94),
    ('fraction-free', 'float', 12, False): (380, 351),
    ('fraction-free', 'float', 10, True): (200, 196),
}


class TestPinnedEngineCounts:
    @pytest.mark.parametrize("engine,tag,size,swap", sorted(ENGINE_COUNTS))
    def test_counts(self, engine, tag, size, swap):
        s = _count_skew(size, swap)
        counter = DOMAINS[tag].counting()
        value = ENGINES[engine](SkewMatrix(Matrix(counter, s.matrix.data)))
        assert (counter.mults, counter.adds) == ENGINE_COUNTS[engine, tag, size, swap]
        assert counter.eq(value, pfaffian_fraction_free(s))


@st.composite
def _skew_strategy(draw):
    size = draw(st.sampled_from((2, 4, 6)))
    upper = [[draw(st.integers(min_value=-9, max_value=9))
              for _ in range(size - 1 - i)] for i in range(size - 1)]
    return skew_from_upper(upper)


@given(_skew_strategy())
@settings(max_examples=60, deadline=None)
def test_property_engines_agree_and_square_to_det(s):
    ref = pfaffian_definition(s)
    assert pfaffian_laplace(s) == ref
    assert pfaffian_fraction_free(s) == ref
    assert ref * ref == square_det(s.matrix)


class TestErrorContracts:
    def test_odd_dimension_rejected(self):
        m = Matrix(INTEGER, [[0, 1, -2], [-1, 0, 3], [2, -3, 0]])
        with pytest.raises(MatrixError, match="even"):
            pfaffian(m)

    def test_non_skew_rejected(self):
        with pytest.raises(MatrixError):
            pfaffian(Matrix(INTEGER, [[1, 2], [3, 4]]))

    def test_eliminate_needs_a_field(self):
        with pytest.raises(CapabilityError):
            pfaffian_eliminate(skew_from_upper([[3]]))

    def test_fraction_free_rejects_plain_ring(self):
        class MarkerRing(IntegerDomain):
            tier = Tier.RING

        dom = MarkerRing()
        m = Matrix(dom, [[0, 1], [-1, 0]])
        with pytest.raises(CapabilityError):
            pfaffian_fraction_free(SkewMatrix(m))

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown pfaffian engine"):
            pfaffian(skew_from_upper([[1]]), engine="ruffini")

    def test_pivot_column_out_of_range(self):
        with pytest.raises(MatrixError):
            pfaffian_laplace(skew_from_upper([[1]]), pivot_col=3)

    def test_inexact_division_is_wrapped(self):
        class BrokenDivision(IntegerDomain):
            # the engine divides inside the domain's condensation step
            def condensation_step(self, rows, base, d):
                raise ExactDivisionError("forced")

        dom = BrokenDivision()
        rng = Random(808)
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j] = rng.randint(1, 5)
                rows[j][i] = -rows[i][j]
        s = SkewMatrix(Matrix(dom, rows))
        with pytest.raises(FractionFreeInvariantError):
            pfaffian_fraction_free(s)

    def test_invariant_error_is_a_runtime_error(self):
        assert issubclass(FractionFreeInvariantError, RuntimeError)
        assert not issubclass(FractionFreeInvariantError, ExactDivisionError)


class TestAutoDispatch:
    def test_auto_on_integers_uses_exact_path(self):
        s = skew_from_upper([[2, 0, 1], [3, 4], [5]])
        assert pfaffian(s, engine="auto") == pfaffian_definition(s)

    def test_auto_on_rationals(self):
        s = to_rational(skew_from_upper([[2, 0, 1], [3, 4], [5]]))
        assert pfaffian(s, engine="auto") == pfaffian_eliminate(s)

    def test_auto_on_floats(self):
        s = to_float(skew_from_upper([[2, 0, 1], [3, 4], [5]]))
        assert FLOAT.eq(pfaffian(s, engine="auto"), pfaffian_eliminate(s))
