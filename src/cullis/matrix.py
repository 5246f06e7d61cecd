"""Dense matrices over a scalar domain, plus the structural operations the
determinant engines need. Matrices are immutable; indices in the public API
are 1-based, matching the usual written convention for minors and signs.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import Domain


class MatrixError(ValueError):
    """Shape violation, index out of range, or mixed-domain operands."""


class Matrix:
    """Row-major dense matrix; at least one row and one column.

    `data` is a tuple of row tuples whose entries were coerced by the
    domain at construction, so a Matrix never holds mixed value types.
    """

    __slots__ = ("domain", "rows", "cols", "data")

    def __init__(self, domain: Domain, rows_of_entries: Iterable[Iterable]):
        data = tuple(tuple(domain.coerce(v) for v in row) for row in rows_of_entries)
        if not data or not data[0]:
            raise MatrixError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise MatrixError("ragged rows: every row must have the same length")
        self.domain = domain
        self.rows = len(data)
        self.cols = width
        self.data = data

    @classmethod
    def from_rows(cls, rows_of_entries, domain: Domain) -> "Matrix":
        return cls(domain, rows_of_entries)

    def entry(self, i: int, j: int):
        """Entry in row i, column j, both 1-based."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise MatrixError(
                f"entry ({i},{j}) out of range for a {self.rows}x{self.cols} matrix (indices are 1-based)"
            )
        return self.data[i - 1][j - 1]

    def to_rows(self) -> list:
        return [list(row) for row in self.data]

    def equals(self, other: "Matrix") -> bool:
        """Entrywise equality under this matrix's domain comparison."""
        if self.rows != other.rows or self.cols != other.cols:
            return False
        if self.domain.tag != other.domain.tag:
            return False
        eq = self.domain.eq
        return all(
            eq(a, b) for ra, rb in zip(self.data, other.data) for a, b in zip(ra, rb)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols}, {self.domain.tag})"


def identity(n: int, domain: Domain) -> Matrix:
    if n < 1:
        raise MatrixError("identity needs n >= 1")
    z, o = domain.zero, domain.one
    return Matrix(domain, [[o if i == j else z for j in range(n)] for i in range(n)])


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.domain, zip(*a.data))


def multiply(a: Matrix, b: Matrix) -> Matrix:
    if a.domain.tag != b.domain.tag:
        raise MatrixError(f"cannot multiply {a.domain.tag} matrix by {b.domain.tag} matrix")
    if a.cols != b.rows:
        raise MatrixError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    dom = a.domain
    add, mul = dom.add, dom.mul
    b_cols = tuple(zip(*b.data))
    out = []
    for ra in a.data:
        out_row = []
        for cb in b_cols:
            it = zip(ra, cb)
            u, v = next(it)
            acc = mul(u, v)
            for u, v in it:
                acc = add(acc, mul(u, v))
            out_row.append(acc)
        out.append(out_row)
    return Matrix(dom, out)


def _check_indices(indices: Sequence[int], limit: int, what: str) -> tuple:
    idx = tuple(indices)
    for i in idx:
        if not (1 <= i <= limit):
            raise MatrixError(f"{what} index {i} out of range 1..{limit}")
    return idx


def submatrix_select(a: Matrix, row_indices: Sequence[int], col_indices: Sequence[int]) -> Matrix:
    """Matrix of the chosen rows and columns, 1-based, in the order given."""
    ri = _check_indices(row_indices, a.rows, "row")
    ci = _check_indices(col_indices, a.cols, "column")
    if not ri or not ci:
        raise MatrixError("selection must keep at least one row and one column")
    return Matrix(a.domain, [[a.data[i - 1][j - 1] for j in ci] for i in ri])


def submatrix_delete(a: Matrix, row_indices: Sequence[int], col_indices: Sequence[int]) -> Matrix:
    """Matrix with the given 1-based rows and columns removed."""
    dr = set(_check_indices(row_indices, a.rows, "row"))
    dc = set(_check_indices(col_indices, a.cols, "column"))
    keep_r = [i for i in range(1, a.rows + 1) if i not in dr]
    keep_c = [j for j in range(1, a.cols + 1) if j not in dc]
    if not keep_r or not keep_c:
        raise MatrixError("deletion would leave an empty matrix")
    return submatrix_select(a, keep_r, keep_c)


def append_ones_column(x: Matrix) -> Matrix:
    """Same matrix with one extra column of ones on the right."""
    o = x.domain.one
    return Matrix(x.domain, [row + (o,) for row in x.data])


def append_zero_row(x: Matrix) -> Matrix:
    """Same matrix with one extra all-zero row at the bottom."""
    z = x.domain.zero
    return Matrix(x.domain, list(x.data) + [(z,) * x.cols])


def append_ones_column_and_unit_row(x: Matrix) -> Matrix:
    """Ones column on the right, then a bottom row that is zero except for a
    one under the new column. Takes n x k to (n+1) x (k+1)."""
    z, o = x.domain.zero, x.domain.one
    rows = [row + (o,) for row in x.data]
    rows.append((z,) * x.cols + (o,))
    return Matrix(x.domain, rows)


def skew_kernel_matrix(n: int, domain: Domain) -> Matrix:
    """The n x n skew-symmetric kernel of the Pfaffian reduction.

    Entry (i,j) is +1 when j-i is odd and positive, -1 when j-i is even and
    positive, mirrored with opposite sign below the diagonal, zero on it:
    +1 just above the diagonal, alternating outward. Sandwiching a matrix as
    A^T K A against this kernel produces the skew product whose Pfaffian is
    the rectangular determinant.
    """
    if n < 1:
        raise MatrixError("kernel needs n >= 1")
    z, o = domain.zero, domain.one
    no = domain.neg(o)
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i == j:
                row.append(z)
            elif (i + j) % 2 == 1:
                row.append(o if i < j else no)
            else:
                row.append(no if i < j else o)
        rows.append(row)
    return Matrix(domain, rows)


def _kernel_times_column(col: tuple, domain: Domain) -> list:
    """K times one column, in O(n) additions and no multiplications.

    With b_j = (-1)^j a_j, S their total and P_i the prefix sum before i,
    row i of c = K a is (-1)^(i+1) (S - 2 P_i - b_i). Consecutive rows then
    satisfy c_{i+1} = a_{i+1} - a_i - c_i, two subtractions each, starting
    from c_1 = a_2 - a_3 + a_4 - ... (indices 1-based).
    """
    add, sub = domain.add, domain.sub
    if len(col) == 1:
        return [domain.zero]
    c = col[1]
    for j in range(2, len(col)):
        c = add(c, col[j]) if j % 2 else sub(c, col[j])
    out = [c]
    for lo, hi in zip(col, col[1:]):
        c = sub(sub(hi, lo), c)
        out.append(c)
    return out


def kernel_sandwich(a: Matrix) -> Matrix:
    """A^T K A for the skew kernel K of size a.rows, without forming K.

    Equal entry for entry to multiply(multiply(transpose(a), K), a) on exact
    domains. Only the strict upper triangle is computed, one dot product of
    a column against K times a later column per entry; the lower triangle
    is its exact negation and the diagonal is zero, so the result is skew
    by construction in every domain. Cost for an n x k input: n k(k-1)/2
    multiplications and O(n k^2) additions.

    Rational input runs on integer numerators: column j is scaled by the
    lcm L_j of its denominators, the same loop forms the integer product
    Y', and each entry becomes Y'_pq / (L_p L_q), one division per entry.
    That is exact, since A = A' D^-1 with D = diag(L). The counted cost is
    the same as for Fraction arithmetic throughout.
    """
    dom = a.domain
    dot, neg, z = dom.dot, dom.neg, dom.zero
    cols = tuple(zip(*a.data))
    scales = None
    if dom.tag == "rational":
        scales = [math.lcm(*(v.denominator for v in col)) for col in cols]
        cols = [[v.numerator * (s // v.denominator) for v in col]
                for col, s in zip(cols, scales)]
    k = len(cols)
    rows = [[z] * k for _ in range(k)]
    for q in range(1, k):
        kq = _kernel_times_column(cols[q], dom)
        for p in range(q):
            v = dot(cols[p], kq)
            rows[p][q] = v
            rows[q][p] = neg(v)
    if scales is not None:
        for q in range(1, k):
            for p in range(q):
                v = Fraction(rows[p][q], scales[p] * scales[q])
                rows[p][q], rows[q][p] = v, -v
    return Matrix(dom, rows)


def is_skew_symmetric(a: Matrix) -> bool:
    """Square, zero diagonal, and entry (j,i) equal to minus entry (i,j).

    The diagonal is checked on its own rather than inferred from the mirror
    condition, so the approximate domain and any ring where 2a = 0 does not
    force a = 0 are handled the same way.
    """
    if a.rows != a.cols:
        return False
    dom = a.domain
    eq, neg, z = dom.eq, dom.neg, dom.zero
    d = a.data
    n = a.rows
    for i in range(n):
        if not eq(d[i][i], z):
            return False
        for j in range(i + 1, n):
            if not eq(d[j][i], neg(d[i][j])):
                return False
    return True
