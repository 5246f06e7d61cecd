"""Dense matrices over a scalar domain, plus the structural operations the
determinant engines need. Matrices are immutable; indices in the public API
are 1-based, matching the usual written convention for minors and signs.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

from .scalars import Domain, ScalarError


class MatrixError(ValueError):
    """Shape violation, index out of range, or mixed-domain operands."""


class Matrix:
    """Row-major dense matrix; at least one row and one column.

    `data` is a tuple of row tuples whose entries were coerced by the
    domain at construction, so a Matrix never holds mixed value types.
    """

    __slots__ = ("domain", "rows", "cols", "data")

    def __init__(self, domain: Domain, rows_of_entries: Iterable[Iterable]):
        coerce = domain.coerce
        self._fill(domain, tuple(tuple(map(coerce, row)) for row in rows_of_entries))

    @classmethod
    def _trusted(cls, domain: Domain, rows_of_entries: Iterable[Iterable]) -> "Matrix":
        """Package-internal constructor for entries that `domain` already
        coerced, such as another matrix's entries or its own zero and one.
        The shape checks still run; the per-entry coercion does not."""
        m = cls.__new__(cls)
        m._fill(domain, tuple(map(tuple, rows_of_entries)))
        return m

    def _fill(self, domain: Domain, data: tuple) -> None:
        if not data or not data[0]:
            raise MatrixError("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise MatrixError("ragged rows: every row must have the same length")
        self.domain = domain
        self.rows = len(data)
        self.cols = width
        self.data = data

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
    return Matrix._trusted(a.domain, zip(*a.data))


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
    return Matrix._trusted(a.domain, [[a.data[i - 1][j - 1] for j in ci] for i in ri])


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
    return Matrix._trusted(x.domain, [row + (o,) for row in x.data])


def append_zero_row(x: Matrix) -> Matrix:
    """Same matrix with one extra all-zero row at the bottom."""
    z = x.domain.zero
    return Matrix._trusted(x.domain, list(x.data) + [(z,) * x.cols])


def append_ones_column_and_unit_row(x: Matrix) -> Matrix:
    """Ones column on the right, then a bottom row that is zero except for a
    one under the new column. Takes n x k to (n+1) x (k+1)."""
    z, o = x.domain.zero, x.domain.one
    rows = [row + (o,) for row in x.data]
    rows.append((z,) * x.cols + (o,))
    return Matrix._trusted(x.domain, rows)


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


def cleared_kernel_sandwich(a: Matrix) -> tuple:
    """(Y', L) for a rational matrix a: L_j is the lcm of the denominators
    in column j, and Y' = A'^T K A' over a.domain.integers for the integer
    numerators A' = A D, D = diag(L). Then A^T K A = D^-1 Y' D^-1, and
    since the Pfaffian is multilinear in the columns,
    pf(A^T K A) = pf(Y') / prod(L).

    Counted like kernel_sandwich; the clearing itself is not counted.
    """
    cols = tuple(zip(*a.data))
    scales = [math.lcm(*(v.denominator for v in col)) for col in cols]
    cleared = [[v.numerator * (s // v.denominator) for v in col]
               for col, s in zip(cols, scales)]
    ints = a.domain.integers
    return Matrix._trusted(ints, ints.skew_product(cleared)), scales


def kernel_sandwich(a: Matrix) -> Matrix:
    """A^T K A for the skew kernel K of size a.rows, without forming K.

    Equal entry for entry to multiply(multiply(transpose(a), K), a) on exact
    domains. Only the strict upper triangle is computed (Domain.skew_product),
    one dot product of a column against K times a later column per entry;
    the lower triangle is its exact negation and the diagonal is zero, so
    the result is skew by construction in every domain. Integers with
    enough columns form the same entries by Kronecker packing
    (IntegerDomain.skew_product). Counted cost for an n x k input:
    n k(k-1)/2 multiplications and O(n k^2) additions.

    Rationals run the dot loop over Fraction here; the determinant route
    takes them through cleared_kernel_sandwich instead. Float entries keep
    the domain's finite check, one pass per row, so an overflow inside the
    product stops here.
    """
    dom = a.domain
    rows = dom.skew_product(tuple(zip(*a.data)))
    if dom.approximate:
        for row in rows:
            if not all(map(math.isfinite, row)):
                bad = next(v for v in row if not math.isfinite(v))
                raise ScalarError(f"float domain holds finite values only, got {bad!r}")
    return Matrix._trusted(dom, rows)


def is_skew_symmetric(a: Matrix) -> bool:
    """Square, zero diagonal, and entry (j,i) equal to minus entry (i,j).

    The diagonal is checked on its own rather than inferred from the mirror
    condition, so the approximate domain and any ring where 2a = 0 does not
    force a = 0 are handled the same way.

    Each row is first compared in bulk with exact ==: its diagonal entry
    against zero, the part right of the diagonal against the negated
    column below it (Domain.negate, which a counting domain tallies).
    Exact equality implies the domain's eq, so only a row that misses is
    compared entry by entry with eq.
    """
    if a.rows != a.cols:
        return False
    dom = a.domain
    eq, negate, z = dom.eq, dom.negate, dom.zero
    d = a.data
    cols = tuple(zip(*d))
    for i in range(a.rows):
        tail, mirror = d[i][i + 1:], negate(cols[i][i + 1:])
        if d[i][i] == z and tail == mirror:
            continue
        if not (eq(d[i][i], z) and all(map(eq, tail, mirror))):
            return False
    return True
