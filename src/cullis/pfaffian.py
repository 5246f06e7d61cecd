"""Pfaffians of skew-symmetric matrices, four ways.

The matching-sum definition and the column expansion are reference engines
with factorial-flavored cost; the field elimination and the fraction-free
condensation both run in O(m^3) arithmetic operations on a 2m x 2m input.
All four are pure functions and agree exactly on exact domains; tests lean
on that agreement hard.
"""
from __future__ import annotations

from functools import lru_cache

from .matrix import Matrix, MatrixError, is_skew_symmetric
from .scalars import CapabilityError, ExactDivisionError, Tier
from .signs import enumerate_matchings


class FractionFreeInvariantError(RuntimeError):
    """A division inside the fraction-free engine was not exact.

    The algorithm guarantees exact divisibility over any integral domain,
    so seeing this means an implementation bug, not bad input.
    """


class SkewMatrix:
    """A matrix validated to be skew-symmetric at construction."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        if not is_skew_symmetric(matrix):
            raise MatrixError("matrix is not skew-symmetric (zero diagonal required)")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def __repr__(self) -> str:
        return f"SkewMatrix({self.dim}x{self.dim}, {self.matrix.domain.tag})"


def _as_even_skew(a) -> Matrix:
    mat = a.matrix if isinstance(a, SkewMatrix) else a
    if not isinstance(a, SkewMatrix) and not is_skew_symmetric(mat):
        raise MatrixError("pfaffian needs a skew-symmetric matrix")
    if mat.rows % 2:
        raise MatrixError(f"pfaffian needs even dimension, got {mat.rows}")
    return mat


@lru_cache(maxsize=8)
def _small_matchings(m: int) -> tuple:
    return tuple(enumerate_matchings(m))


def pfaffian_definition(a) -> object:
    """Sum over perfect matchings of signed entry products; (2m-1)!! terms."""
    mat = _as_even_skew(a)
    dom = mat.domain
    add, sub, mul = dom.add, dom.sub, dom.mul
    d = mat.data
    m = mat.rows // 2
    matchings = _small_matchings(m) if m <= 6 else enumerate_matchings(m)
    acc = None
    for pairs, sign in matchings:
        prod = d[pairs[0][0] - 1][pairs[0][1] - 1]
        for p, q in pairs[1:]:
            prod = mul(prod, d[p - 1][q - 1])
        if acc is None:
            acc = prod if sign > 0 else dom.neg(prod)
        else:
            acc = add(acc, prod) if sign > 0 else sub(acc, prod)
    return acc


def pfaffian_laplace(a, pivot_col: int = 1) -> object:
    """Recursive expansion along one column; the value is independent of
    which column is chosen. Entry (i,j) against pivot column j contributes
    with sign (-1)**(i+j-1) above the diagonal and (-1)**(i+j) below it;
    recursive calls expand along their first column."""
    mat = _as_even_skew(a)
    if not (1 <= pivot_col <= mat.rows):
        raise MatrixError(f"pivot column {pivot_col} out of range 1..{mat.rows}")
    dom = mat.domain
    add, sub, mul, neg = dom.add, dom.sub, dom.mul, dom.neg
    d = mat.data

    def rec(idx: tuple, jp: int):
        if len(idx) == 2:
            return d[idx[0] - 1][idx[1] - 1]
        col = idx[jp - 1] - 1
        acc = None
        for ip in range(1, len(idx) + 1):
            if ip == jp:
                continue
            entry = d[idx[ip - 1] - 1][col]
            rest = tuple(v for pos, v in enumerate(idx, 1) if pos != ip and pos != jp)
            term = mul(entry, rec(rest, 1))
            if ip < jp:
                positive = (ip + jp) % 2 == 1
            else:
                positive = (ip + jp) % 2 == 0
            if acc is None:
                acc = term if positive else neg(term)
            elif positive:
                acc = add(acc, term)
            else:
                acc = sub(acc, term)
        return acc

    return rec(tuple(range(1, mat.rows + 1)), pivot_col)


def _swap_pair(rows: list, a: int, b: int) -> None:
    """Swap indices a < b of a skew matrix kept in its strict upper
    triangle, in O(m): the tails right of b and the columns above a trade
    places, entry (a,b) changes sign, and for a < t < b entries (a,t) and
    (t,b) trade places, each changing sign."""
    ra, rb = rows[a], rows[b]
    ra[b + 1:], rb[b + 1:] = rb[b + 1:], ra[b + 1:]
    for r in rows[:a]:
        r[a], r[b] = r[b], r[a]
    for t in range(a + 1, b):
        rt = rows[t]
        ra[t], rt[b] = -rt[b], -ra[t]
    ra[b] = -ra[b]


def pfaffian_eliminate(a) -> object:
    """O(m^3) field elimination.

    Works two indices at a time: pick a pivot in the current first row
    (largest magnitude for the approximate domain, first nonzero for exact
    fields), swap it into place (each swap of two indices flips the sign),
    then cancel the rest of the leading two rows and columns with the
    congruence update B[i][j] += f[i]*u[j] - u[i]*f[j], which leaves the
    trailing block skew and multiplies the running product by the pivot
    entry; the domain's congruence_step applies that update one row at a
    time. A fully zero row means the value is zero. The working copy is
    read and written in its strict upper triangle only.
    """
    mat = _as_even_skew(a)
    dom = mat.domain
    if dom.tier < Tier.FIELD:
        raise CapabilityError(f"field elimination needs a field, not {dom.name}")
    n = mat.rows
    rows = [list(r) for r in mat.data]
    mul, div = dom.mul, dom.exact_div
    negate = False
    result = None
    for base in range(0, n, 2):
        lead = rows[base]
        pivot = None
        if dom.approximate:
            best = 0.0
            for r in range(base + 1, n):
                mag = abs(lead[r])
                if mag > best:
                    best = mag
                    pivot = r
        else:
            for r in range(base + 1, n):
                if not dom.is_zero(lead[r]):
                    pivot = r
                    break
        if pivot is None:
            return dom.zero
        if pivot != base + 1:
            _swap_pair(rows, base + 1, pivot)
            negate = not negate
        p = rows[base][base + 1]
        result = p if result is None else mul(result, p)
        if base + 2 < n:
            v = rows[base + 1]
            dom.congruence_step(rows, rows[base], [div(v[j], p) for j in range(base + 2, n)])
    return dom.neg(result) if negate else result


def pfaffian_fraction_free(a) -> object:
    """O(m^3) condensation over any integral domain, divisions exact.

    Condenses consecutive 2x2 pivot blocks. With the current leading rows
    c[0], c[1] and pivot p = c[0][1], every trailing entry is replaced by

        (p*c[i][j] - c[0][i]*c[1][j] + c[0][j]*c[1][i]) / d

    where d is the previous block's pivot (1 at the start). Each updated
    entry is again a Pfaffian of a principal submatrix of the input drawn
    on the processed indices plus {i,j}, which is why the division is exact
    and why the single entry left at the end is the full Pfaffian. The
    domain's condensation_step updates the block one row at a time, in the
    strict upper triangle only. A zero pivot is repaired by swapping a
    nonzero mate into position, flipping the sign; a fully zero leading row
    means the value is zero.
    """
    mat = _as_even_skew(a)
    dom = mat.domain
    if dom.tier < Tier.INTEGRAL_DOMAIN:
        raise CapabilityError(f"fraction-free condensation needs exact division, not {dom.name}")
    n = mat.rows
    rows = [list(r) for r in mat.data]
    divisor = dom.one
    negate = False
    for base in range(0, n - 2, 2):
        pivot_col = None
        for j in range(base + 1, n):
            if not dom.is_zero(rows[base][j]):
                pivot_col = j
                break
        if pivot_col is None:
            return dom.zero
        if pivot_col != base + 1:
            _swap_pair(rows, base + 1, pivot_col)
            negate = not negate
        try:
            dom.condensation_step(rows, base, divisor)
        except ExactDivisionError as exc:
            raise FractionFreeInvariantError(
                f"inexact division at block {base // 2}: {exc}"
            ) from exc
        divisor = rows[base][base + 1]
    val = rows[n - 2][n - 1]
    return dom.neg(val) if negate else val


ENGINES = {
    "definition": pfaffian_definition,
    "laplace": pfaffian_laplace,
    "eliminate": pfaffian_eliminate,
    "fraction-free": pfaffian_fraction_free,
}


def pfaffian(a, engine: str = "auto") -> object:
    """Dispatch to a Pfaffian engine; "auto" picks elimination for fields
    (rational, float) and the fraction-free condensation otherwise."""
    if engine == "auto":
        dom = (a.matrix if isinstance(a, SkewMatrix) else a).domain
        engine = "eliminate" if dom.tier == Tier.FIELD else "fraction-free"
    try:
        fn = ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown pfaffian engine {engine!r}; expected one of {sorted(ENGINES)} or 'auto'") from None
    return fn(a)
