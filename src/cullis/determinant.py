"""Determinants of rectangular matrices.

For an n x k matrix with n >= k the value is the alternating sum, over all
k-row selections, of the ordinary determinants of the chosen square blocks,
scaled by a fixed sign depending only on k; for n < k it is defined through
the transpose. Four engines compute it:

  det_by_minors          the alternating minor sum itself, C(n,k) blocks
  det_by_injections      signed sum over injections of columns into rows
  det_by_column_laplace  recursive expansion along a chosen column
  det_by_pfaffian        cubic-time reduction to one Pfaffian

The first three have exponential-flavored cost and serve as oracles; the
Pfaffian route sandwiches the (possibly padded) matrix against the skew
kernel and evaluates one Pfaffian, O(n k^2 + k^3) arithmetic in total. The
kernel is applied by prefix sums and never stored densely.
"""
from __future__ import annotations

from itertools import combinations, permutations

# multiply and skew_kernel_matrix are unused; kept because perfbench/spans.py patches them here.
from .matrix import (  # noqa: F401
    Matrix,
    MatrixError,
    append_ones_column,
    append_ones_column_and_unit_row,
    append_zero_row,
    kernel_sandwich,
    multiply,
    skew_kernel_matrix,
    transpose,
)
from .pfaffian import SkewMatrix, pfaffian
from .scalars import Domain

METHODS = ("auto", "fast", "minors", "injections", "laplace")


def _bareiss_det(rows: list, dom: Domain):
    """Fraction-free determinant of a list of rows. Each step eliminates
    the first column under the pivot and drops it, so the remaining block
    shrinks by one; first nonzero pivot, row swaps flip the sign, every
    division exact."""
    step, is_zero = dom.elimination_step, dom.is_zero
    negate = False
    prev = dom.one
    while len(rows) > 1:
        if is_zero(rows[0][0]):
            for r in range(1, len(rows)):
                if not is_zero(rows[r][0]):
                    rows[0], rows[r] = rows[r], rows[0]
                    negate = not negate
                    break
            else:
                return dom.zero
        piv = rows[0][0]
        rows = step(rows[0], rows[1:], prev)
        prev = piv
    det = rows[0][0]
    return dom.neg(det) if negate else det


def _gauss_det(rows: list, dom: Domain):
    """Partial-pivot elimination for the approximate domain."""
    n = len(rows)
    mul, sub, div = dom.mul, dom.sub, dom.exact_div
    negate = False
    for p in range(n - 1):
        best = max(range(p, n), key=lambda r: abs(rows[r][p]))
        if rows[best][p] == 0.0:
            return dom.zero
        if best != p:
            rows[p], rows[best] = rows[best], rows[p]
            negate = not negate
        piv = rows[p][p]
        rp = rows[p]
        for i in range(p + 1, n):
            ri = rows[i]
            f = div(ri[p], piv)
            for j in range(p + 1, n):
                ri[j] = sub(ri[j], mul(f, rp[j]))
    det = rows[0][0]
    for i in range(1, n):
        det = mul(det, rows[i][i])
    return dom.neg(det) if negate else det


def _det_rows(rows: list, dom: Domain):
    return _gauss_det(rows, dom) if dom.approximate else _bareiss_det(rows, dom)


def square_det(x: Matrix):
    """Ordinary determinant of a square matrix, exact for exact domains."""
    if x.rows != x.cols:
        raise MatrixError(f"square determinant needs a square matrix, got {x.rows}x{x.cols}")
    return _det_rows([list(r) for r in x.data], x.domain)


def det_by_minors(x: Matrix):
    """The alternating sum over all maximal square blocks; accepts any shape
    and transposes a wide input itself. Cost scales as C(n,k) * k^3."""
    if x.rows < x.cols:
        x = transpose(x)
    n, k = x.rows, x.cols
    dom = x.domain
    add, sub = dom.add, dom.sub
    data = x.data
    acc = None
    for combo in combinations(range(n), k):
        block = [list(data[i]) for i in combo]
        d = _det_rows(block, dom)
        positive = (sum(combo) + k) % 2 == 0
        if acc is None:
            acc = d if positive else dom.neg(d)
        elif positive:
            acc = add(acc, d)
        else:
            acc = sub(acc, d)
    if (k * (k + 1) // 2) % 2:
        acc = dom.neg(acc)
    return acc


def det_by_injections(x: Matrix):
    """Signed sum over all ways of mapping columns to distinct rows.

    Each injection contributes the product of the entries it picks, signed
    by the parity of total displacement plus image inversions. Cost scales
    as n!/(n-k)! * k; callers transpose wide inputs first.
    """
    if x.rows < x.cols:
        raise MatrixError("injection sum needs rows >= cols; transpose first")
    n, k = x.rows, x.cols
    dom = x.domain
    add, sub, mul = dom.add, dom.sub, dom.mul
    data = x.data
    base_disp = k - (k * (k + 1)) // 2
    acc = None
    for image in permutations(range(n), k):
        inv = 0
        for a in range(k):
            va = image[a]
            for b in range(a + 1, k):
                if va > image[b]:
                    inv += 1
        positive = (sum(image) + base_disp + inv) % 2 == 0
        prod = data[image[0]][0]
        for a in range(1, k):
            prod = mul(prod, data[image[a]][a])
        if acc is None:
            acc = prod if positive else dom.neg(prod)
        elif positive:
            acc = add(acc, prod)
        else:
            acc = sub(acc, prod)
    return acc


def det_by_column_laplace(x: Matrix, col: int = 1):
    """Expansion along column `col`: entry (i, col) times the determinant of
    the matrix with row i and that column removed, signed checkerboard-style
    by (-1)**(i+col). Single-column matrices take the alternating row sum.
    The value does not depend on `col`.

    Sub-expansions always run along the leftmost remaining column and are
    memoized per remaining-row set, so repeated row subsets are not recomputed.
    """
    n, k = x.rows, x.cols
    if n < k:
        raise MatrixError("column expansion needs rows >= cols; transpose first")
    if not (1 <= col <= k):
        raise MatrixError(f"column {col} out of range 1..{k}")
    dom = x.domain
    add, sub, mul, neg = dom.add, dom.sub, dom.mul, dom.neg
    data = x.data

    def alternating_column_sum(row_ids, c):
        acc = None
        for pos, r in enumerate(row_ids, 1):
            v = data[r][c]
            if acc is None:
                acc = v if pos % 2 else neg(v)
            elif pos % 2:
                acc = add(acc, v)
            else:
                acc = sub(acc, v)
        return acc

    if k == 1:
        return alternating_column_sum(range(n), 0)

    rest = tuple(j for j in range(k) if j != col - 1)
    memo = {}

    def rec(mask, depth):
        got = memo.get(mask)
        if got is not None:
            return got
        row_ids = [r for r in range(n) if mask >> r & 1]
        c = rest[depth]
        if depth == len(rest) - 1:
            acc = alternating_column_sum(row_ids, c)
        else:
            acc = None
            for pos, r in enumerate(row_ids, 1):
                term = mul(data[r][c], rec(mask & ~(1 << r), depth + 1))
                if acc is None:
                    acc = term if pos % 2 else neg(term)
                elif pos % 2:
                    acc = add(acc, term)
                else:
                    acc = sub(acc, term)
        memo[mask] = acc
        return acc

    full = (1 << n) - 1
    c = col - 1
    acc = None
    for i in range(1, n + 1):
        term = mul(data[i - 1][c], rec(full & ~(1 << (i - 1)), 0))
        positive = (i + col) % 2 == 0
        if acc is None:
            acc = term if positive else neg(term)
        elif positive:
            acc = add(acc, term)
        else:
            acc = sub(acc, term)
    return acc


def det_by_pfaffian(x: Matrix, engine: str = "auto"):
    """Cubic-time evaluation through one Pfaffian.

    A wide matrix is transposed first. When the column count is odd the
    matrix is padded to even width with a ones column, plus a closing unit
    row when the row count is odd too; the padding is value-preserving.
    The padded matrix A is sandwiched against the skew kernel K of matching
    size and the result is pf(A^T K A) exactly, with no extra sign under
    this kernel convention. The sandwich applies K by prefix sums and
    computes only the upper triangle, O(n k^2) for an n x k input, and the
    Pfaffian adds O(k^3).
    """
    if x.rows < x.cols:
        x = transpose(x)
    n, k = x.rows, x.cols
    if k % 2 == 0:
        a = x
    elif n % 2 == 0:
        a = append_ones_column(x)
    else:
        a = append_ones_column_and_unit_row(x)
    return pfaffian(SkewMatrix(kernel_sandwich(a)), engine=engine)


def det(x: Matrix, method: str = "auto", engine: str = "auto"):
    """Front door: evaluate by the named method ("auto" means the Pfaffian
    route), transposing wide inputs for the engines that need it."""
    if method in ("auto", "fast"):
        return det_by_pfaffian(x, engine=engine)
    if method == "minors":
        return det_by_minors(x)
    w = x if x.rows >= x.cols else transpose(x)
    if method == "injections":
        return det_by_injections(w)
    if method == "laplace":
        return det_by_column_laplace(w)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def ones_column_identity_holds(x: Matrix) -> bool:
    """For a strictly tall matrix, appending a ones column preserves the
    determinant when rows+cols is odd and zeroes it when even; checks the
    identity with the minor-sum oracle and reports whether it held."""
    if x.rows <= x.cols:
        raise MatrixError("identity needs strictly more rows than columns")
    dom = x.domain
    extended = det_by_minors(append_ones_column(x))
    if (x.rows + x.cols) % 2:
        return dom.eq(extended, det_by_minors(x))
    return dom.eq(extended, dom.zero)


def zero_row_identity_holds(x: Matrix) -> bool:
    """Appending an all-zero row never changes the determinant; checks the
    identity with the minor-sum oracle and reports whether it held."""
    if x.rows < x.cols:
        raise MatrixError("identity needs rows >= cols")
    dom = x.domain
    return dom.eq(det_by_minors(append_zero_row(x)), det_by_minors(x))
