"""Tests of the benchmark's checker: right outputs pass, perturbed ones fail.

    python3 perfbench/test_check.py      (or: python3 -m pytest perfbench)

For every workload, each operation is run once through the program, its
output is checked against the references, and then each perturbation that
applies is checked and must be rejected: sign flipped, an integer off by
one, a rational's denominator changed, a float scaled by 1+1e-6, and the
oracle's verdict turned into a mismatch.
"""
import os
import sys
from fractions import Fraction
from functools import lru_cache
from random import Random

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


@lru_cache(maxsize=1)
def program():
    return run.load_program()[0]


def perturbations(item, out: str, verdict):
    """(what, output, verdict) triples that a correct checker must reject."""
    if item.tag == "float":
        value = float(out)
        if value != 0.0:
            yield "sign", repr(-value), verdict
        yield "scaled 1+1e-6", repr(value * (1 + 1e-6)), verdict
    else:
        value = int(out) if item.tag == "int" else Fraction(out)
        if value != 0:
            yield "sign", str(-value), verdict
        if item.tag == "int":
            yield "off by one", str(value + 1), verdict
        else:
            yield "denominator", f"{value.numerator}/{value.denominator + 1}", verdict
    if item.verify:
        yield "oracle mismatch", out, False


def check_workload(name: str) -> int:
    """Returns the number of perturbations rejected; raises on a miss."""
    rejected = 0
    for item in workloads.WORKLOADS[name](SEED):
        if item.known_fault:
            continue
        out, verdict = run.operation(program(), item.text, item.scalar, item.verify)
        ref = reference.reference(item)
        problem = reference.check(item, ref, out, verdict)
        assert problem is None, f"{item.label}: right output rejected: {problem}"
        for what, bad_out, bad_verdict in perturbations(item, out, verdict):
            assert reference.check(item, ref, bad_out, bad_verdict) is not None, \
                f"{item.label}: {what} perturbation of {out[:40]!r} accepted"
            rejected += 1
    return rejected


def test_tall_checks_reject_perturbations():
    assert check_workload("tall") > 0


def test_square_bigint_checks_reject_perturbations():
    assert check_workload("square-bigint") > 0


def test_small_many_checks_reject_perturbations():
    assert check_workload("small-many") > 0


def test_references_agree_with_each_other():
    """Minor sum vs pf(A^T K A) mod p vs square det mod p vs float64 pf,
    on every padding case and both orientations."""
    rng = Random(SEED)
    for n, k in ((1, 1), (2, 1), (3, 1), (2, 2), (3, 3), (4, 2), (5, 2), (6, 3),
                 (7, 3), (9, 4), (8, 5), (3, 7), (6, 6), (7, 7)):
        ints = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
        exact = reference.definition(ints)
        for p in reference.PRIMES:
            assert reference.cullis_mod(ints, p) == exact.numerator % p, (n, k, p)
        if n == k:
            for p in reference.BIG_PRIMES:
                assert reference.det_mod(ints, p) == exact.numerator % p, (n, k, p)
        floats = [[rng.uniform(-1, 1) for _ in range(k)] for _ in range(n)]
        want = float(reference.definition(floats))
        got = reference.cullis_float(floats)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, k, got, want)


if __name__ == "__main__":
    test_references_agree_with_each_other()
    print("references agree")
    for workload in workloads.WORKLOADS:
        print(f"{workload}: {check_workload(workload)} perturbations rejected")
