"""Instrumented measurement of the determinant engines.

Each engine runs twice per shape: timed repeats on the plain domain (the
median wall time is reported) and once on a counting domain that tallies
multiplicative and additive scalar operations. Oracle engines are skipped
automatically when their predicted cost blows past BENCH_CAP, so asking
for a large shape benches the fast route alone rather than hanging.
"""
from __future__ import annotations

import time
from fractions import Fraction
from math import comb
from random import Random
from statistics import median
from typing import NamedTuple

from .determinant import det
from .matrix import Matrix
from .scalars import Domain

VERIFY_CAP = 10**7
BENCH_CAP = 10**8

BENCH_METHODS = ("fast", "minors")

CSV_HEADER = "n,k,method,domain,mults,adds,median_seconds"


def minors_cost(n: int, k: int) -> int:
    """Block count times cubic work per block."""
    hi, lo = (n, k) if n >= k else (k, n)
    return comb(hi, lo) * lo**3


def random_matrix(rng: Random, n: int, k: int, domain: Domain) -> Matrix:
    """Seeded random fill: small integers, small proper fractions, or
    floats in (-1, 1) so long float products stay far from overflow."""
    tag = domain.tag
    if tag == "int":
        draw = lambda: rng.randint(-9, 9)
    elif tag == "rational":
        draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    elif tag == "float":
        draw = lambda: rng.uniform(-1.0, 1.0)
    else:
        raise ValueError(f"no random fill for domain {tag!r}")
    return Matrix(domain, [[draw() for _ in range(k)] for _ in range(n)])


def count_operations(x: Matrix, method: str):
    """Re-run `method` on a counting copy of the domain; returns
    (value, mults, adds). Multiplications and exact divisions land in
    mults; adds covers additions, subtractions and negations."""
    dom = x.domain.counting()
    y = Matrix._trusted(dom, x.data)
    value = det(y, method=method)
    return value, dom.mults, dom.adds


class MethodReport(NamedTuple):
    """One benchmark row: a single engine on a single shape."""
    n: int
    k: int
    method: str
    domain: str
    value: object
    mults: int
    adds: int
    median_seconds: float


def run_method(x: Matrix, method: str, repeats: int = 3) -> MethodReport:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        det(x, method=method)
        times.append(time.perf_counter() - t0)
    value, mults, adds = count_operations(x, method)
    return MethodReport(n=x.rows, k=x.cols, method=method, domain=x.domain.tag,
                        value=value, mults=mults, adds=adds,
                        median_seconds=median(times))


def run_sizes(sizes, domain: Domain, rng: Random, repeats: int = 3,
              report=None) -> list:
    """Bench every affordable engine on one random matrix per shape.
    `report` is an optional callable fed each MethodReport as it lands."""
    out = []
    for n, k in sizes:
        x = random_matrix(rng, n, k, domain)
        for method in BENCH_METHODS:
            if method == "minors" and minors_cost(n, k) > BENCH_CAP:
                continue
            row = run_method(x, method, repeats)
            out.append(row)
            if report is not None:
                report(row)
    return out


def to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(f"{r.n},{r.k},{r.method},{r.domain},"
                     f"{r.mults},{r.adds},{r.median_seconds:.9f}")
    return "\n".join(lines) + "\n"
