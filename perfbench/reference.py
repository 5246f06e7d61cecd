"""Reference values and the output check, written without `cullis`.

Three independent references, chosen per item:

* every exact item: pf(A^T K A) mod several primes below 2**26, with A the
  (transposed, padded) input and K built from the written formula
  K[i][j] = sign(j-i) * (-1)**(i+j+1), 1-based. Rationals reduce as
  num * den**-1 mod p.
* square exact items: the ordinary determinant mod two Mersenne primes.
* small shapes (sides up to SMALL_SIDE, at most SMALL_BLOCKS maximal
  square blocks): the literal alternating minor sum, exact (floats are
  converted to fractions exactly).

Float items are also compared, within a relative tolerance, against a
float64 Pfaffian of A^T K A computed with numpy.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np

# Below 2**26, a product of two residues summed over up to 512 terms stays
# inside int64.
PRIMES = (67108859, 67108837, 67108819)
BIG_PRIMES = (2**61 - 1, 2**89 - 1)
SMALL_SIDE, SMALL_BLOCKS = 12, 300
REL_TOL = 1e-9

_INT_OUT = re.compile(r"-?[0-9]+")
_RATIONAL_OUT = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def residue(v, p: int):
    """v mod p for an int or Fraction; None when the denominator is 0 mod p."""
    if isinstance(v, int):
        return v % p
    den = v.denominator % p
    if den == 0:
        return None
    return v.numerator * pow(den, -1, p) % p


def padded(rows) -> list:
    """Transpose a wide matrix; pad an odd column count with a ones column,
    plus a unit row when the row count is odd as well."""
    rows = [list(r) for r in rows]
    if len(rows) < len(rows[0]):
        rows = [list(c) for c in zip(*rows)]
    n, k = len(rows), len(rows[0])
    if k % 2:
        for r in rows:
            r.append(1)
        if n % 2:
            rows.append([0] * k + [1])
    return rows


def kernel(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    sign = np.sign(i[None, :] - i[:, None])
    parity = np.where((i[:, None] + i[None, :] + 1) % 2 == 0, 1, -1)
    return (sign * parity).astype(np.int64)


def pfaffian_mod(y: np.ndarray, p: int) -> int:
    """Pfaffian of a skew int64 matrix with entries in [0, p), mod p.

    Removes the leading 2x2 block each step: with a = y[0,1], u = y[0,2:]
    and v = y[1,2:], pf(y) = a * pf(C + (v u^T - u v^T) / a).
    """
    y = y.copy()
    result = 1
    while len(y):
        nz = np.flatnonzero(y[0, 1:])
        if not len(nz):
            return 0
        j = 1 + int(nz[0])
        if j != 1:
            y[[1, j]] = y[[j, 1]]
            y[:, [1, j]] = y[:, [j, 1]]
            result = -result
        a = int(y[0, 1])
        result = result * a % p
        u, v = y[0, 2:], y[1, 2:]
        w = v * pow(a, -1, p) % p
        y = (y[2:, 2:] + np.outer(w, u) - np.outer(u, w)) % p
    return result % p


def pfaffian_float(y: np.ndarray) -> float:
    """Pfaffian of a skew float64 matrix, same elimination with the largest
    entry of the leading row as pivot. The product is kept as mantissa and
    exponent so partial products cannot overflow."""
    y = y.copy()
    mant, exp = 1.0, 0
    while len(y):
        j = 1 + int(np.argmax(np.abs(y[0, 1:])))
        if y[0, j] == 0.0:
            return 0.0
        if j != 1:
            y[[1, j]] = y[[j, 1]]
            y[:, [1, j]] = y[:, [j, 1]]
            mant = -mant
        a = float(y[0, 1])
        m, e = math.frexp(mant * a)
        mant, exp = m, exp + e
        u, v = y[0, 2:], y[1, 2:]
        w = v / a
        y = y[2:, 2:] + np.outer(w, u) - np.outer(u, w)
    return math.ldexp(mant, exp)


def cullis_mod(rows, p: int):
    """pf(A^T K A) mod p, or None when an entry's denominator is 0 mod p."""
    res = [[residue(v, p) for v in r] for r in padded(rows)]
    if any(v is None for r in res for v in r):
        return None
    a = np.array(res, dtype=np.int64)
    ka = kernel(len(a)) @ a % p
    return pfaffian_mod(a.T @ ka % p, p)


def cullis_float(rows) -> float:
    a = np.array(padded(rows), dtype=np.float64)
    y = a.T @ (kernel(len(a)).astype(np.float64) @ a)
    return pfaffian_float((y - y.T) / 2)


def det_mod(rows, p: int):
    """Ordinary determinant of a square exact matrix mod p, by elimination."""
    m = [[residue(v, p) for v in r] for r in rows]
    if any(v is None for r in m for v in r):
        return None
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        top = m[c]
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(x - f * t) % p for x, t in zip(m[r], top)]
    return det % p


def _integer_det(block) -> int:
    """Ordinary determinant of an integer matrix, by Bareiss elimination."""
    m = [list(r) for r in block]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top, a = m[c], m[c][c]
        for r in range(c + 1, n):
            row, b = m[r], m[r][c]
            m[r] = [(a * x - b * t) // prev for x, t in zip(row, top)]
        prev = a
    return sign * m[n - 1][n - 1]


def definition(rows) -> Fraction:
    """The alternating minor sum: over k-row selections i_1 < ... < i_k
    (1-based) of an n x k matrix, n >= k, the sum of
    (-1)**(i_1 + ... + i_k + 1 + ... + k) times the block's determinant.

    The value is linear in each column, so every column is first scaled to
    integers by the lcm of its denominators and the sum is divided once."""
    rows = [[Fraction(v) for v in r] for r in rows]
    if len(rows) < len(rows[0]):
        rows = [list(c) for c in zip(*rows)]
    n, k = len(rows), len(rows[0])
    scale = [math.lcm(*(r[j].denominator for r in rows)) for j in range(k)]
    ints = [[int(v * s) for v, s in zip(r, scale)] for r in rows]
    total = 0
    for sel in combinations(range(n), k):
        d = _integer_det([ints[i] for i in sel])
        total += d if (sum(sel) + k + k * (k + 1) // 2) % 2 == 0 else -d
    return Fraction(total, math.prod(scale))


def reference(item) -> dict:
    rows = item.rows
    n, k = len(rows), len(rows[0])
    ref = {}
    if item.tag == "float":
        ref["float"] = cullis_float(rows)
    else:
        ref["mod"] = {p: r for p in PRIMES if (r := cullis_mod(rows, p)) is not None}
        if n == k:
            ref["det_mod"] = {p: r for p in BIG_PRIMES if (r := det_mod(rows, p)) is not None}
    if max(n, k) <= SMALL_SIDE and math.comb(max(n, k), min(n, k)) <= SMALL_BLOCKS:
        ref["definition"] = definition(rows)
    return ref


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def check(item, ref: dict, out: str, verdict) -> str | None:
    """None when `out` (the formatted value) and `verdict` (the oracle
    step's answer: True for a match, None when not run) are right;
    otherwise a one-line description of what is wrong."""
    if item.verify and verdict is not True:
        return f"oracle step answered {verdict!r}, expected a match"
    if not item.verify and verdict is not None:
        return "oracle step ran on an item that does not verify"
    if item.tag == "float":
        try:
            got = float(out)
        except ValueError:
            return f"not a float: {out[:40]!r}"
        if not math.isfinite(got):
            return f"non-finite float {out!r}"
        if not _close(got, ref["float"]):
            return f"float {got!r} vs float64 pfaffian {ref['float']!r}"
        if "definition" in ref and not _close(got, float(ref["definition"])):
            return f"float {got!r} vs minor sum {float(ref['definition'])!r}"
        return None
    pattern = _INT_OUT if item.tag == "int" else _RATIONAL_OUT
    if not pattern.fullmatch(out):
        return f"not a normalized {item.tag} literal: {out[:40]!r}"
    got = int(out) if item.tag == "int" else Fraction(out)
    if item.tag == "rational" and str(got) != out:
        return f"rational not in lowest terms: {out[:40]!r}"
    if len(ref["mod"]) < 2:
        return "fewer than two primes usable for the mod-p reference"
    for p, want in ref["mod"].items():
        if residue(got, p) != want:
            return f"mod {p}: pf(A^T K A) reference differs"
    for p, want in ref.get("det_mod", {}).items():
        if residue(got, p) != want:
            return f"mod {p}: square determinant reference differs"
    if "definition" in ref and got != ref["definition"]:
        return f"minor sum {ref['definition']} differs from {out[:40]!r}"
    return None
