"""Built-in diagnostic battery behind the `selftest` subcommand.

One check per route or identity family. Each runs the public entry points
on seeded random instances, compares them against an independent
reference, and prints one PASS or FAIL line. The battery is a quick field
diagnostic for an installed copy, not a replacement for the test suite;
it finishes in well under a second.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random
from zlib import crc32

from .bench import random_matrix
from .determinant import (
    det,
    det_by_minors,
    ones_column_identity_holds,
    square_det,
    zero_row_identity_holds,
)
from .matio import parse_matrix_text
from .matrix import (Matrix, append_ones_column, append_ones_column_and_unit_row,
                     append_zero_row, multiply, skew_kernel_matrix, transpose)
from .pfaffian import SkewMatrix, pfaffian
from .scalars import FLOAT, INTEGER, RATIONAL
from .signs import enumerate_matchings, tuple_sign

CHECKS = []


def _check(name):
    def deco(fn):
        CHECKS.append((name, fn))
        return fn
    return deco


def _cycle_parity_sign(values):
    """Independent permutation-sign oracle via cycle decomposition."""
    order = {v: i for i, v in enumerate(sorted(values))}
    seq = [order[v] for v in values]
    seen = [False] * len(seq)
    sign = 1
    for i in range(len(seq)):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = seq[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _random_skew(rng, size):
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = rng.randint(-6, 6)
            rows[j][i] = -rows[i][j]
    return SkewMatrix(Matrix(INTEGER, rows))


def _set_column(x, j, f):
    """x with entry j of every row r replaced by f(r)."""
    return Matrix(x.domain, [[f(r) if i == j else v for i, v in enumerate(r)] for r in x.data])


_DRAWS = (
    (INTEGER, lambda rng: rng.randint(-10**30, 10**30)),
    (RATIONAL, lambda rng: Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))),
    (FLOAT, lambda rng: rng.uniform(-1e6, 1e6)),
)


@_check("literals round trip through parse and format in every domain")
def _chk_literals(rng, cap):
    for dom, draw in _DRAWS:
        values = [draw(rng) for _ in range(12)]
        text = "\n".join(",".join(map(dom.format, values[i:i + 3])) for i in range(0, 12, 3))
        back = [v for row in parse_matrix_text(text, dom.tag).data for v in row]
        if not all(map(dom.eq, values, back)):
            return False
    return True


@_check("tuple and matching signs match the cycle-parity oracle")
def _chk_signs(rng, cap):
    for _ in range(60):
        values = [rng.randint(1, 12) for _ in range(rng.randint(1, 8))]
        want = _cycle_parity_sign(values) if len(set(values)) == len(values) else 0
        if tuple_sign(values) != want:
            return False
    for m in range(1, 6):
        for matching in enumerate_matchings(m):
            if matching.sign != _cycle_parity_sign([v for pair in matching.pairs for v in pair]):
                return False
    return True


@_check("pfaffian engines agree and the pfaffian squares to the determinant")
def _chk_pfaffian(rng, cap):
    for size in (2, 4, 6, 8):
        for _ in range(4):
            a = _random_skew(rng, size)
            ref = pfaffian(a, engine="definition")
            q = SkewMatrix(Matrix(RATIONAL, [[Fraction(v) for v in r] for r in a.matrix.data]))
            if (pfaffian(a, engine="laplace") != ref or pfaffian(a, engine="fraction-free") != ref
                    or pfaffian(q, engine="eliminate") != ref or ref * ref != square_det(a.matrix)):
                return False
    return True


@_check("integer route equals the minor sum, tall, square and wide")
def _chk_int_route(rng, cap):
    # every shape up to the cap, clamped to 2..7: tall, square and wide,
    # in all three padding cases
    cap = max(2, min(cap, 7))
    for n in range(1, cap + 1):
        for k in range(1, cap + 1):
            x = random_matrix(rng, n, k, INTEGER)
            if det(x) != det_by_minors(x):
                return False
    # 13x11 pads to 14x12, whose product the packed sandwich forms
    x = random_matrix(rng, 13, 11, INTEGER)
    a = append_ones_column_and_unit_row(x)
    y = multiply(multiply(transpose(a), skew_kernel_matrix(14, INTEGER)), a)
    return det(x) == pfaffian(SkewMatrix(y)) == det_by_minors(x)


@_check("rational route equals the minor sum")
def _chk_rational_route(rng, cap):
    for n, k in ((6, 4), (6, 3), (5, 3), (4, 4), (3, 5)):
        x = random_matrix(rng, n, k, RATIONAL)
        if det(x) != det_by_minors(x):
            return False
    return True


@_check("float route tracks the exact value")
def _chk_float_route(rng, cap):
    for n, k in ((5, 2), (6, 3), (7, 4), (4, 6)):
        x = random_matrix(rng, n, k, INTEGER)
        f = Matrix(FLOAT, [[float(v) for v in row] for row in x.data])
        if not FLOAT.eq(det(f), float(det_by_minors(x))):
            return False
    return True


@_check("the value is alternating and multilinear in the columns")
def _chk_columns(rng, cap):
    for n, k in ((4, 2), (5, 3), (6, 4), (4, 4)):
        x = random_matrix(rng, n, k, INTEGER)
        d = det(x)
        j, l = rng.sample(range(k), 2)
        c = rng.choice((-3, -2, 2, 3, 5))
        order = list(range(k))
        order[j], order[l] = l, j
        swapped = Matrix(INTEGER, [[r[i] for i in order] for r in x.data])
        edits = (
            (_set_column(x, j, lambda r: r[l]), 0),
            (swapped, -d),
            (_set_column(x, j, lambda r: r[j] + r[l]), d),
            (_set_column(x, j, lambda r: c * r[j]), c * d),
        )
        if any(det(y) != want for y, want in edits):
            return False
    return True


@_check("a ones column and a zero row pad the value as the identities say")
def _chk_padding(rng, cap):
    for n, k in ((4, 1), (5, 2), (6, 3), (4, 2), (5, 1), (6, 4)):
        x = random_matrix(rng, n, k, INTEGER)
        d = det_by_minors(x)
        if not (ones_column_identity_holds(x) and zero_row_identity_holds(x)):
            return False
        if det(append_ones_column(x)) != (d if (n + k) % 2 else 0) or det(append_zero_row(x)) != d:
            return False
    return True


def run(seed: int = 2024, size_cap: int = 6, out=print) -> bool:
    """Run every check with a per-check seeded RNG; returns overall truth."""
    ok = True
    for name, fn in CHECKS:
        rng = Random((seed << 32) ^ crc32(name.encode()))
        try:
            passed = bool(fn(rng, size_cap))
        except Exception as exc:  # a crash is a diagnostic result, not an abort
            out(f"FAIL {name} ({type(exc).__name__}: {exc})")
            ok = False
            continue
        out(f"{'PASS' if passed else 'FAIL'} {name}")
        ok = ok and passed
    return ok
