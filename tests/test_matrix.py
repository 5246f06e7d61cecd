"""Matrix container and structural operations."""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cullis.matrix import (
    Matrix,
    MatrixError,
    append_ones_column,
    append_ones_column_and_unit_row,
    append_zero_row,
    identity,
    is_skew_symmetric,
    kernel_sandwich,
    multiply,
    skew_kernel_matrix,
    submatrix_delete,
    submatrix_select,
    transpose,
)
from cullis.matio import parse_matrix_text
from cullis.scalars import FLOAT, INTEGER, RATIONAL, IntegerDomain, ScalarError


def mat(rows):
    return Matrix(INTEGER, rows)


class TestConstruction:
    def test_shape_and_entries(self):
        x = mat([[1, 2, 3], [4, 5, 6]])
        assert (x.rows, x.cols) == (2, 3)
        assert x.entry(1, 1) == 1
        assert x.entry(2, 3) == 6
        assert x.to_rows() == [[1, 2, 3], [4, 5, 6]]

    def test_data_is_immutable_tuples(self):
        x = mat([[1, 2], [3, 4]])
        assert isinstance(x.data, tuple)
        assert all(isinstance(r, tuple) for r in x.data)

    def test_entries_are_coerced(self):
        q = Matrix(RATIONAL, [[1, 2]])
        assert q.entry(1, 1) == Fraction(1)
        assert isinstance(q.entry(1, 1), Fraction)
        f = Matrix(FLOAT, [[1, 2]])
        assert isinstance(f.entry(1, 1), float)

    def test_rejects_empty(self):
        with pytest.raises(MatrixError):
            Matrix(INTEGER, [])
        with pytest.raises(MatrixError):
            Matrix(INTEGER, [[]])

    def test_rejects_ragged(self):
        with pytest.raises(MatrixError):
            Matrix(INTEGER, [[1, 2], [3]])

    def test_rejects_foreign_scalars(self):
        with pytest.raises(ScalarError):
            Matrix(INTEGER, [[1.5]])

    def test_trusted_constructor_keeps_the_shape_checks(self):
        for rows in ([], [[]], [[1, 2], [3]]):
            with pytest.raises(MatrixError):
                Matrix._trusted(INTEGER, rows)

    def test_derived_matrices_are_not_recoerced(self):
        class Spy(IntegerDomain):
            calls = 0

            def coerce(self, value):
                Spy.calls += 1
                return super().coerce(value)

        dom = Spy()
        x = Matrix(dom, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert Spy.calls == 9  # the public constructor coerces
        for op in (transpose, append_ones_column, append_zero_row,
                   append_ones_column_and_unit_row, kernel_sandwich):
            assert op(x).domain is dom
        assert submatrix_select(x, [1, 3], [2]).data == ((2,), (8,))
        assert Spy.calls == 9

    def test_parsed_entries_are_not_recoerced(self, monkeypatch):
        def refuse(value):
            raise AssertionError("parsed entries were coerced again")

        monkeypatch.setattr(RATIONAL, "coerce", refuse)
        x = parse_matrix_text("1/2, 3\n-4, 5/6\n", "rational")
        assert x.data == ((Fraction(1, 2), 3), (-4, Fraction(5, 6)))
        assert all(type(v) is Fraction for row in x.data for v in row)

    def test_float_sandwich_rejects_non_finite_products(self):
        for rows, bad in (([[1e200, 1e200], [1e200, -1e200]], "-inf"),
                          ([[1e200, 1e200], [-1e200, 1e200], [1e200, -1e200], [2.0, 1.0]], "inf")):
            with pytest.raises(ScalarError) as info:
                kernel_sandwich(Matrix(FLOAT, rows))
            assert str(info.value) == f"float domain holds finite values only, got {bad}"

    def test_entry_range_errors(self):
        x = mat([[1, 2], [3, 4]])
        for i, j in ((0, 1), (1, 0), (3, 1), (1, 3)):
            with pytest.raises(MatrixError):
                x.entry(i, j)

    def test_equals(self):
        assert mat([[1, 2]]).equals(mat([[1, 2]]))
        assert not mat([[1, 2]]).equals(mat([[1, 3]]))
        assert not mat([[1, 2]]).equals(mat([[1], [2]]))
        assert not mat([[1, 2]]).equals(Matrix(RATIONAL, [[1, 2]]))


class TestStructuralOps:
    def test_identity(self):
        assert identity(3, INTEGER).to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_transpose(self):
        x = mat([[1, 2, 3], [4, 5, 6]])
        assert transpose(x).to_rows() == [[1, 4], [2, 5], [3, 6]]
        assert transpose(transpose(x)).equals(x)

    def test_multiply(self):
        a = mat([[1, 2], [3, 4], [5, 6]])
        b = mat([[7, 8, 9], [10, 11, 12]])
        assert multiply(a, b).to_rows() == [
            [27, 30, 33], [61, 68, 75], [95, 106, 117]]

    def test_multiply_shape_mismatch(self):
        with pytest.raises(MatrixError):
            multiply(mat([[1, 2]]), mat([[1, 2]]))

    def test_multiply_domain_mismatch(self):
        with pytest.raises(MatrixError):
            multiply(mat([[1]]), Matrix(RATIONAL, [[1]]))

    def test_multiply_identity(self):
        x = mat([[1, 2, 3], [4, 5, 6]])
        assert multiply(identity(2, INTEGER), x).equals(x)
        assert multiply(x, identity(3, INTEGER)).equals(x)

    def test_submatrix_select_order_matters(self):
        x = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert submatrix_select(x, (3, 1), (2,)).to_rows() == [[8], [2]]

    def test_submatrix_select_range_error(self):
        with pytest.raises(MatrixError):
            submatrix_select(mat([[1]]), (2,), (1,))

    def test_submatrix_delete(self):
        x = mat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert submatrix_delete(x, (2,), (3,)).to_rows() == [[1, 2], [7, 8]]

    def test_submatrix_delete_cannot_empty(self):
        with pytest.raises(MatrixError):
            submatrix_delete(mat([[1, 2]]), (1,), ())

    def test_append_ones_column(self):
        x = mat([[1, 2], [3, 4]])
        assert append_ones_column(x).to_rows() == [[1, 2, 1], [3, 4, 1]]

    def test_append_zero_row(self):
        x = mat([[1, 2], [3, 4]])
        assert append_zero_row(x).to_rows() == [[1, 2], [3, 4], [0, 0]]

    def test_append_ones_column_and_unit_row(self):
        x = mat([[1, 2], [3, 4], [5, 6]])
        assert append_ones_column_and_unit_row(x).to_rows() == [
            [1, 2, 1], [3, 4, 1], [5, 6, 1], [0, 0, 1]]


class TestSkewKernel:
    def test_three_by_three_literal(self):
        assert skew_kernel_matrix(3, INTEGER).to_rows() == [
            [0, 1, -1], [-1, 0, 1], [1, -1, 0]]

    def test_two_by_two_literal(self):
        assert skew_kernel_matrix(2, INTEGER).to_rows() == [[0, 1], [-1, 0]]

    def test_five_by_five_pattern(self):
        assert skew_kernel_matrix(5, INTEGER).to_rows() == [
            [0, 1, -1, 1, -1],
            [-1, 0, 1, -1, 1],
            [1, -1, 0, 1, -1],
            [-1, 1, -1, 0, 1],
            [1, -1, 1, -1, 0]]

    def test_one_by_one(self):
        assert skew_kernel_matrix(1, INTEGER).to_rows() == [[0]]

    def test_bad_size(self):
        with pytest.raises(MatrixError):
            skew_kernel_matrix(0, INTEGER)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10])
    def test_kernel_is_skew(self, n):
        assert is_skew_symmetric(skew_kernel_matrix(n, INTEGER))

    def test_kernel_respects_domain(self):
        k = skew_kernel_matrix(3, RATIONAL)
        assert isinstance(k.entry(1, 2), Fraction)


class TestIsSkewSymmetric:
    def test_rejects_non_square(self):
        assert not is_skew_symmetric(mat([[0, 1]]))

    def test_rejects_nonzero_diagonal(self):
        assert not is_skew_symmetric(mat([[1, 2], [-2, 0]]))

    def test_rejects_bad_mirror(self):
        assert not is_skew_symmetric(mat([[0, 2], [2, 0]]))

    def test_accepts_zero_matrix(self):
        assert is_skew_symmetric(mat([[0, 0], [0, 0]]))

    def test_sandwich_is_skew_for_random_matrices(self):
        rng = Random(5)
        for n, k in ((4, 2), (5, 3), (6, 1), (3, 3)):
            x = Matrix(INTEGER, [[rng.randint(-9, 9) for _ in range(k)]
                                 for _ in range(n)])
            y = multiply(multiply(transpose(x), skew_kernel_matrix(n, INTEGER)), x)
            assert is_skew_symmetric(y)

    def test_float_tolerant_mirror(self):
        a = Matrix(FLOAT, [[0.0, 1.0], [-1.0 - 1e-13, 0.0]])
        assert is_skew_symmetric(a)

    def test_float_tolerant_diagonal_in_a_later_row(self):
        a = Matrix(FLOAT, [[0.0, 1.0, 2.0], [-1.0, 1e-13, 3.0], [-2.0, -3.0, 0.0]])
        assert is_skew_symmetric(a)
        b = Matrix(FLOAT, [[0.0, 1.0, 2.0], [-1.0, 1e-3, 3.0], [-2.0, -3.0, 0.0]])
        assert not is_skew_symmetric(b)

    def test_rejects_bad_mirror_after_good_rows(self):
        good = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
        assert is_skew_symmetric(mat(good))
        for i, j in ((2, 3), (3, 2), (1, 3), (2, 0)):
            bad = [list(r) for r in good]
            bad[i][j] += 1
            assert not is_skew_symmetric(mat(bad))
            assert not is_skew_symmetric(Matrix(RATIONAL, bad))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_counts_one_negation_per_upper_entry(self, n):
        dom = INTEGER.counting()
        assert is_skew_symmetric(Matrix(dom, skew_kernel_matrix(n, INTEGER).data))
        assert (dom.mults, dom.adds) == (0, n * (n - 1) // 2)


_entries = st.integers(min_value=-50, max_value=50)


@st.composite
def _int_matrices(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    k = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(
        st.lists(_entries, min_size=k, max_size=k), min_size=n, max_size=n))
    return Matrix(INTEGER, rows)


@given(_int_matrices())
def test_transpose_involution(x):
    assert transpose(transpose(x)).equals(x)


@given(_int_matrices())
def test_transpose_entry_map(x):
    t = transpose(x)
    assert (t.rows, t.cols) == (x.cols, x.rows)
    for i in range(1, x.rows + 1):
        for j in range(1, x.cols + 1):
            assert t.entry(j, i) == x.entry(i, j)


@given(_int_matrices(max_dim=4), st.data())
def test_multiply_transpose_reverses(x, data):
    m = data.draw(st.integers(min_value=1, max_value=4))
    rows = data.draw(st.lists(
        st.lists(_entries, min_size=m, max_size=m),
        min_size=x.cols, max_size=x.cols))
    y = Matrix(INTEGER, rows)
    assert transpose(multiply(x, y)).equals(multiply(transpose(y), transpose(x)))
